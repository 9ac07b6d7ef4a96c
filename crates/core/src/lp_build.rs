//! Lowering a scheduling instance into the paper's linear programs.
//!
//! One builder serves all three models:
//!
//! * **Fig 2** (offline simple task scheduling): moves disabled, duration =
//!   uptime.
//! * **Fig 3** (offline co-scheduling): moves enabled, duration = uptime.
//! * **Fig 4** (online epoch model): moves enabled, duration = epoch `e`,
//!   fake node enabled, transfer-time constraint enabled.
//!
//! ## Variables
//!
//! For each job `k`, machine `l`, candidate store `m`:
//! `x^t_klm ∈ [0,1]` — fraction of `k` run on `l` reading from `m`.
//! For each job `k` and store `m`: `n_km ∈ [0,1]` — *new* fraction of `k`'s
//! data copied to `m` (the paper's `x^d_im` minus what is already there;
//! existing fractions enter as constants, so only genuinely new copies pay
//! the `SS` price — see constraint (24)/(13) note below). Input-less jobs
//! (Pi) get `x^t_kl` without a store index. With the fake node enabled
//! every job also gets `f_k ∈ [0,1]` at an enormous CPU price.
//!
//! ## Constraints (paper numbering, Fig 4)
//!
//! * (20) `Σ x^t + f_k ≥ 1` — all work assigned (possibly to the fake
//!   node, i.e. deferred).
//! * (24) `Σ_l x^t_klm ≤ avail_km + n_km` — tasks read only data that is
//!   (or will be) on the store.
//! * (23) `Σ work·x^t ≤ TP_l · duration` per machine.
//! * (21) `Σ read-time ≤ duration · slots_l` per machine — the paper
//!   states this per (job, machine); we aggregate per machine (documented
//!   deviation: slots share one NIC, and this keeps the row count linear
//!   in `|M|` instead of `|J|·|M|`).
//! * (22) `Σ n_km · Size_k ≤ free capacity` per store.
//! * (19) is intentionally *not* enforced for the fake-node share: data is
//!   only placed for work actually scheduled this epoch; deferred work
//!   defers its placement too (strictly cheaper, same deployment
//!   behaviour).

use std::collections::BTreeMap;

use lips_audit::{Certificate, ModelAnnotations, PaperExpectations, RowKind, VarKind};
use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_lp::{Cmp, LpError, Model, SolveStats, VarId, WarmStart};
use lips_par::Pool;
use lips_workload::JobId;

/// One job as the LP sees it: remaining divisible work plus current data
/// availability.
#[derive(Debug, Clone)]
pub struct LpJob {
    pub id: JobId,
    pub data: Option<DataId>,
    /// Remaining input in MB — the LP's `Size(D_k)`.
    pub size_mb: f64,
    /// ECU-seconds per MB.
    pub tcp: f64,
    /// Remaining input-independent work (ECU-seconds).
    pub fixed_ecu: f64,
    /// Fraction of `size_mb` already available per store (constants
    /// `avail_km`); entries must be positive.
    pub avail: Vec<(StoreId, f64)>,
}

impl LpJob {
    /// Total remaining ECU-seconds.
    pub fn work_ecu(&self) -> f64 {
        self.size_mb * self.tcp + self.fixed_ecu
    }
}

/// Candidate pruning for large instances. `None` everywhere = the exact
/// paper model.
#[derive(Debug, Clone, Default)]
pub struct PruneConfig {
    /// Cap on machines considered per job (cheapest by CPU price, plus all
    /// machines co-located with the job's data holders).
    pub max_machines_per_job: Option<usize>,
    /// Cap on *new-copy* destination stores per job (stores co-located
    /// with the candidate machines).
    pub max_new_stores_per_job: Option<usize>,
}

/// A full LP instance description.
#[derive(Debug, Clone)]
pub struct LpInstance<'a> {
    pub cluster: &'a Cluster,
    pub jobs: Vec<LpJob>,
    /// Scheduling horizon: `uptime(M)` offline, epoch `e` online.
    pub duration: f64,
    /// Dollars per ECU-second on the fake node (`None` disables it; the
    /// offline models require full assignment).
    pub fake_cost: Option<f64>,
    /// Allow data movement (`n` variables) — Fig 3/4 yes, Fig 2 no.
    pub allow_moves: bool,
    /// Enforce the per-machine read-time budget (constraint (21)).
    pub enforce_transfer_time: bool,
    /// Free capacity per store in MB (indexed by store id); defaults to
    /// full capacities when empty.
    pub store_free_mb: Vec<f64>,
    /// Fair-share floors: each entry `(job indices, min ECU-seconds)`
    /// forces the group (a FairScheduler pool) to receive at least that
    /// much *scheduled* (non-deferred) work this horizon. Empty = pure
    /// cost optimization. The paper lists fair sharing among the
    /// dimensions a co-scheduler must handle jointly (§I); this is the
    /// LP-native encoding.
    pub pool_floors: Vec<(Vec<usize>, f64)>,
    pub prune: PruneConfig,
}

/// A solved fractional schedule.
#[derive(Debug, Clone)]
pub struct FractionalSchedule {
    /// `(job, machine, source store, fraction)`; store is `None` for
    /// input-less work.
    pub assignments: Vec<(JobId, MachineId, Option<StoreId>, f64)>,
    /// Planned copies: `(data, source store, dest store, MB)`.
    pub moves: Vec<(DataId, StoreId, StoreId, f64)>,
    /// Fraction of each job deferred to the fake node.
    pub deferred: BTreeMap<JobId, f64>,
    /// LP objective: predicted dollars for the scheduled (non-deferred)
    /// work, *excluding* the fake node's fictitious charge.
    pub predicted_dollars: f64,
    /// Raw LP objective (including fake-node charges).
    pub lp_objective: f64,
    /// Simplex pivots used.
    pub iterations: usize,
    /// Full solver work counters (pivots, phase-1 split, FTRAN nonzeros,
    /// warm-start outcome) for benchmarking the epoch loop.
    pub stats: SolveStats,
}

/// One planned-copy variable: fraction of job `job`'s data copied to
/// `dest`, sourced from the holders in `sources` (all at the same unit
/// price — holders are grouped by exact `SS` cost so the LP's price always
/// matches what emission will actually pay).
struct NdVar {
    job: usize,
    dest: StoreId,
    var: VarId,
    /// `(holder, stock fraction)` pairs this variable may draw from.
    sources: Vec<(StoreId, f64)>,
}

/// Internal handle map from LP variables back to schedule entities.
struct VarMaps {
    // (job idx, machine, store) -> var
    xt: BTreeMap<(usize, MachineId, Option<StoreId>), VarId>,
    nd: Vec<NdVar>,
    fake: BTreeMap<usize, VarId>,
    /// CPU-capacity constraint per machine (constraint (23)/(12)).
    capacity_rows: Vec<(MachineId, lips_lp::ConstraintId)>,
    /// Row/column annotations for `lips-audit`'s paper-invariant pass.
    ann: ModelAnnotations,
}

/// Candidate machine/store sets per job: the full Fig 3/4 column space
/// after [`PruneConfig`]. Shared by the one-shot builder and the
/// column-generation loop so both price exactly the same arcs.
fn candidates(inst: &LpInstance<'_>) -> (Vec<Vec<MachineId>>, Vec<Vec<StoreId>>) {
    let cluster = inst.cluster;
    // Machines sorted by CPU price once (cheap-cycle preference). Revoked
    // machines (tp_ecu ≤ 0 — no cycles to sell) are not candidates at all:
    // they get no task columns and, downstream, no capacity rows, so the
    // epoch LP is built against the *surviving* cluster.
    let mut machines_by_price: Vec<MachineId> = cluster
        .machines
        .iter()
        .filter(|m| m.tp_ecu > 0.0)
        .map(|m| m.id)
        .collect();
    machines_by_price.sort_by(|a, b| {
        cluster
            .machine(*a)
            .cpu_cost
            .total_cmp(&cluster.machine(*b).cpu_cost)
    });

    let mut job_machines: Vec<Vec<MachineId>> = Vec::with_capacity(inst.jobs.len());
    let mut job_stores: Vec<Vec<StoreId>> = Vec::with_capacity(inst.jobs.len());
    for job in &inst.jobs {
        // Machine candidates: cheapest N + machines holding this job's data.
        let mut machines: Vec<MachineId> = match inst.prune.max_machines_per_job {
            Some(n) => machines_by_price.iter().copied().take(n).collect(),
            None => machines_by_price.clone(),
        };
        for &(s, _) in &job.avail {
            if let Some(mid) = cluster.store(s).colocated {
                if cluster.machine(mid).tp_ecu > 0.0 && !machines.contains(&mid) {
                    machines.push(mid);
                }
            }
        }
        machines.sort();

        // Store candidates: holders always; new-copy destinations are the
        // stores co-located with candidate machines (capped).
        let mut stores: Vec<StoreId> = job.avail.iter().map(|&(s, _)| s).collect();
        if inst.allow_moves {
            let mut extra: Vec<StoreId> = Vec::new();
            for &mid in &machines {
                if let Some(sid) = cluster.store_of_machine(mid) {
                    if !stores.contains(&sid) && !extra.contains(&sid) {
                        extra.push(sid);
                    }
                }
            }
            if let Some(cap) = inst.prune.max_new_stores_per_job {
                extra.truncate(cap);
            }
            stores.extend(extra);
        }
        stores.sort();
        stores.dedup();
        job_machines.push(machines);
        job_stores.push(stores);
    }
    (job_machines, job_stores)
}

/// Name of a task-arc variable. Keyed by *job id* (not LP index): ids are
/// stable across epochs while indices shift as jobs complete and arrive,
/// and both the warm-start basis and the cross-epoch colgen active set are
/// matched by name.
fn arc_name(job: &LpJob, l: MachineId, m: Option<StoreId>) -> String {
    let id = job.id.0;
    match m {
        Some(m) => format!("xt_{id}_{}_{}", l.0, m.0),
        None => format!("xt_{id}_{}", l.0),
    }
}

/// LP cost of one task arc — Eq (7)+(8): CPU dollars + read dollars per
/// unit fraction.
fn arc_cost(inst: &LpInstance<'_>, k: usize, l: MachineId, m: Option<StoreId>) -> f64 {
    let job = &inst.jobs[k];
    let cpu = job.work_ecu() * inst.cluster.machine(l).cpu_cost;
    match m {
        Some(m) => cpu + job.size_mb * inst.cluster.ms_cost(l, m),
        None => cpu,
    }
}

/// One candidate task column `(job, machine, source store)`.
#[derive(Debug, Clone)]
struct ArcCand {
    k: usize,
    l: MachineId,
    m: Option<StoreId>,
    name: String,
    cost: f64,
}

/// Every candidate arc of the full model, in builder emission order.
fn enumerate_arcs(
    inst: &LpInstance<'_>,
    job_machines: &[Vec<MachineId>],
    job_stores: &[Vec<StoreId>],
) -> Vec<ArcCand> {
    let mut arcs = Vec::new();
    for (k, job) in inst.jobs.iter().enumerate() {
        for &l in &job_machines[k] {
            if job.size_mb > 0.0 {
                for &m in &job_stores[k] {
                    arcs.push(ArcCand {
                        k,
                        l,
                        m: Some(m),
                        name: arc_name(job, l, Some(m)),
                        cost: arc_cost(inst, k, l, Some(m)),
                    });
                }
            } else {
                arcs.push(ArcCand {
                    k,
                    l,
                    m: None,
                    name: arc_name(job, l, None),
                    cost: arc_cost(inst, k, l, None),
                });
            }
        }
    }
    arcs
}

/// Row handles the column-generation loop needs to assemble the column of
/// an arc that is *not* in the restricted master (for pricing and for the
/// excluded-column certificate).
#[derive(Debug, Default)]
struct RowIds {
    /// Coverage row (20) per job index.
    cov: Vec<lips_lp::ConstraintId>,
    /// Linking row (24) per (job index, store).
    lnk: BTreeMap<(usize, StoreId), lips_lp::ConstraintId>,
    /// CPU-capacity row (23) per machine.
    cpu: BTreeMap<MachineId, lips_lp::ConstraintId>,
    /// Transfer-time row (21) per machine.
    xfer: BTreeMap<MachineId, lips_lp::ConstraintId>,
    /// Pool-floor rows each job participates in.
    job_pools: Vec<Vec<lips_lp::ConstraintId>>,
}

/// Build the LP [`Model`] for an instance. Returns the model plus the maps
/// needed to decode a solution.
fn build(inst: &LpInstance<'_>, pool: Pool) -> (Model, VarMaps) {
    let (job_machines, job_stores) = candidates(inst);
    let (model, maps, _) = build_filtered(inst, &job_machines, &job_stores, None, pool);
    (model, maps)
}

/// Everything one job contributes to the variable space, computed in
/// parallel ([`Pool::par_map`]) and stitched into the [`Model`] serially in
/// job order — the expensive work (name formatting, arc costing, holder
/// grouping by `SS` price) parallelizes, while variable ids are assigned in
/// exactly the serial builder's emission order, so the model is identical
/// at any pool width.
struct JobVarPlan {
    /// Task arcs `(name, cost, machine, store)`, in emission order.
    arcs: Vec<(String, f64, MachineId, Option<StoreId>)>,
    /// Planned-copy variables, in `(dest, price class)` emission order.
    nds: Vec<NdPlan>,
    /// Fake-node variable cost, when the fake node is enabled.
    fake: Option<f64>,
}

/// One planned `nd` variable before it has a [`VarId`].
struct NdPlan {
    name: String,
    ub: f64,
    cost: f64,
    dest: StoreId,
    sources: Vec<(StoreId, f64)>,
}

/// One planned linking row (24): `(store, rhs, terms)`.
type LnkPlan = (StoreId, f64, Vec<(VarId, f64)>);

/// Everything one job contributes to the coverage/linking row space,
/// assembled in parallel once the variable maps exist.
struct JobRowPlan {
    /// Terms of the job's coverage row (20).
    cov: Vec<(VarId, f64)>,
    /// Linking rows (24), in store order.
    lnk: Vec<LnkPlan>,
}

/// Build the (possibly restricted) LP: when `active` is given, only task
/// arcs whose name it contains become columns; `nd`/fake columns and —
/// crucially — the *row set* are always exactly those of the full model,
/// so a restricted master's duals price excluded columns correctly and
/// [`lips_audit::certify_restricted`] can verify the zero-extension
/// argument row-for-row. (Rows whose full-model terms would all be
/// excluded are still emitted, merely empty for now; their slack stays
/// basic at zero cost.)
/// Per machine: optional CPU-capacity row terms and optional read-budget
/// row terms, built in parallel and attached to the model in machine order.
type MachineRowPlan = (Option<Vec<(VarId, f64)>>, Option<Vec<(VarId, f64)>>);

fn build_filtered(
    inst: &LpInstance<'_>,
    job_machines: &[Vec<MachineId>],
    job_stores: &[Vec<StoreId>],
    active: Option<&std::collections::BTreeSet<String>>,
    pool: Pool,
) -> (Model, VarMaps, RowIds) {
    let cluster = inst.cluster;
    let mut model = Model::minimize();
    let mut maps = VarMaps {
        xt: BTreeMap::new(),
        nd: Vec::new(),
        fake: BTreeMap::new(),
        capacity_rows: Vec::new(),
        ann: ModelAnnotations::default(),
    };
    let mut rows = RowIds {
        job_pools: vec![Vec::new(); inst.jobs.len()],
        ..RowIds::default()
    };
    let is_active = |name: &str| active.is_none_or(|set| set.contains(name));
    // Whether job k contributes any *candidate* arc on machine l (active or
    // not) — the row-emission predicate, which must not depend on `active`.
    let job_uses_machine = |k: usize, l: MachineId| -> bool {
        job_machines[k].contains(&l) && (inst.jobs[k].size_mb <= 0.0 || !job_stores[k].is_empty())
    };
    let job_indices: Vec<usize> = (0..inst.jobs.len()).collect();

    // --- variables ------------------------------------------------------
    // Plan per job in parallel, then stitch serially in job order: ids and
    // emission order match the serial builder exactly.
    let var_plans: Vec<JobVarPlan> = pool.par_map(&job_indices, |_, &k| {
        let job = &inst.jobs[k];
        let mut plan = JobVarPlan {
            arcs: Vec::new(),
            nds: Vec::new(),
            fake: None,
        };
        let id = job.id.0;
        if job.size_mb > 0.0 {
            for &l in &job_machines[k] {
                for &m in &job_stores[k] {
                    let name = arc_name(job, l, Some(m));
                    if is_active(&name) {
                        plan.arcs
                            .push((name, arc_cost(inst, k, l, Some(m)), l, Some(m)));
                    }
                }
            }
            if inst.allow_moves {
                let avail: BTreeMap<StoreId, f64> = job.avail.iter().copied().collect();
                for &m in &job_stores[k] {
                    // A store already holding everything needs no copies.
                    if avail.get(&m).copied().unwrap_or(0.0) >= 1.0 {
                        continue;
                    }
                    // Group holders by their exact SS price to this
                    // destination: one variable per price class, bounded by
                    // that class's actual stock, so the LP can never price
                    // a copy below what emission will pay for it.
                    let mut holders: Vec<(StoreId, f64)> = job
                        .avail
                        .iter()
                        .copied()
                        .filter(|&(s, frac)| s != m && frac > 0.0)
                        .collect();
                    holders.sort_by(|a, b| {
                        cluster
                            .ss_cost(a.0, m)
                            .total_cmp(&cluster.ss_cost(b.0, m))
                            .then(a.0.cmp(&b.0))
                    });
                    let mut i = 0;
                    let mut cls = 0;
                    while i < holders.len() {
                        let price = cluster.ss_cost(holders[i].0, m);
                        let mut sources = Vec::new();
                        let mut stock = 0.0;
                        while i < holders.len() && cluster.ss_cost(holders[i].0, m) == price {
                            sources.push(holders[i]);
                            stock += holders[i].1;
                            i += 1;
                        }
                        // Eq (6): move dollars per unit fraction. The name's
                        // class index counts price classes within this
                        // (job, dest) pair, cheapest first — stable across
                        // epochs as long as the holder set is.
                        plan.nds.push(NdPlan {
                            name: format!("nd_{id}_{}_{cls}", m.0),
                            ub: stock.min(1.0),
                            cost: job.size_mb * price,
                            dest: m,
                            sources,
                        });
                        cls += 1;
                    }
                }
            }
        } else {
            // Input-less job: one variable per machine.
            for &l in &job_machines[k] {
                let name = arc_name(job, l, None);
                if is_active(&name) {
                    plan.arcs.push((name, arc_cost(inst, k, l, None), l, None));
                }
            }
        }
        if let Some(fc) = inst.fake_cost {
            plan.fake = Some(job.work_ecu().max(1e-9) * fc);
        }
        plan
    });
    for (k, plan) in var_plans.into_iter().enumerate() {
        for (name, cost, l, m) in plan.arcs {
            let v = model.add_var(name, 0.0, 1.0, cost);
            maps.xt.insert((k, l, m), v);
            maps.ann.annotate_var(
                v,
                VarKind::Assign {
                    job: k,
                    machine: l,
                    store: m,
                },
            );
        }
        for nd in plan.nds {
            let v = model.add_var(nd.name, 0.0, nd.ub, nd.cost);
            maps.ann.annotate_var(
                v,
                VarKind::NewCopy {
                    job: k,
                    dest: nd.dest,
                },
            );
            maps.nd.push(NdVar {
                job: k,
                dest: nd.dest,
                var: v,
                sources: nd.sources,
            });
        }
        if let Some(cost) = plan.fake {
            let v = model.add_var(format!("fake_{}", inst.jobs[k].id.0), 0.0, 1.0, cost);
            maps.fake.insert(k, v);
            maps.ann.annotate_var(v, VarKind::Fake { job: k });
        }
    }

    // --- constraints ----------------------------------------------------
    // Active-arc lookups go through `maps.xt.get` from here on: a
    // restricted master simply has fewer terms per row, never fewer rows.
    // Term assembly reads the now-frozen variable maps, so the per-job and
    // per-machine row plans parallelize; rows are added serially in the
    // serial builder's order (all cov, all lnk, all cpu, all xfer).
    // (20): every job fully assigned (fake node included).
    // (24)/(13): task reads bounded by availability + new copies.
    let row_plans: Vec<JobRowPlan> = pool.par_map(&job_indices, |_, &k| {
        let job = &inst.jobs[k];
        let mut cov: Vec<(VarId, f64)> = Vec::new();
        for &l in &job_machines[k] {
            if job.size_mb > 0.0 {
                for &m in &job_stores[k] {
                    if let Some(&v) = maps.xt.get(&(k, l, Some(m))) {
                        cov.push((v, 1.0));
                    }
                }
            } else if let Some(&v) = maps.xt.get(&(k, l, None)) {
                cov.push((v, 1.0));
            }
        }
        if let Some(&f) = maps.fake.get(&k) {
            cov.push((f, 1.0));
        }
        let mut lnk = Vec::new();
        if job.size_mb > 0.0 {
            let avail: BTreeMap<StoreId, f64> = job.avail.iter().copied().collect();
            for &m in &job_stores[k] {
                let mut terms: Vec<(VarId, f64)> = job_machines[k]
                    .iter()
                    .filter_map(|&l| maps.xt.get(&(k, l, Some(m))).map(|&v| (v, 1.0)))
                    .collect();
                for nd in maps.nd.iter().filter(|n| n.job == k && n.dest == m) {
                    terms.push((nd.var, -1.0));
                }
                let a = avail.get(&m).copied().unwrap_or(0.0).min(1.0);
                lnk.push((m, a, terms));
            }
        }
        JobRowPlan { cov, lnk }
    });
    let mut lnk_plans: Vec<Vec<LnkPlan>> = Vec::with_capacity(row_plans.len());
    for (k, plan) in row_plans.into_iter().enumerate() {
        let row = model.add_constraint(plan.cov, Cmp::Ge, 1.0);
        model.name_constraint(row, format!("cov_{}", inst.jobs[k].id.0));
        maps.ann.annotate_row(row, RowKind::Coverage { job: k });
        rows.cov.push(row);
        lnk_plans.push(plan.lnk);
    }
    for (k, lnk) in lnk_plans.into_iter().enumerate() {
        for (m, a, terms) in lnk {
            let row = model.add_constraint(terms, Cmp::Le, a);
            model.name_constraint(row, format!("lnk_{}_{}", inst.jobs[k].id.0, m.0));
            maps.ann
                .annotate_row(row, RowKind::Linking { job: k, store: m });
            rows.lnk.insert((k, m), row);
        }
    }

    // (23)/(12): machine CPU capacity.
    // (21): per-machine read-time budget (aggregated across jobs/slots).
    let machine_ids: Vec<MachineId> = cluster.machines.iter().map(|m| m.id).collect();
    let machine_plans: Vec<MachineRowPlan> = pool.par_map(&machine_ids, |_, &mid| {
        let mut cpu_terms: Vec<(VarId, f64)> = Vec::new();
        let mut any_candidate = false;
        for (k, job) in inst.jobs.iter().enumerate() {
            let work = job.work_ecu();
            if !job_uses_machine(k, mid) {
                continue;
            }
            any_candidate = true;
            if job.size_mb > 0.0 {
                for &m in &job_stores[k] {
                    if let Some(&v) = maps.xt.get(&(k, mid, Some(m))) {
                        cpu_terms.push((v, work));
                    }
                }
            } else if let Some(&v) = maps.xt.get(&(k, mid, None)) {
                cpu_terms.push((v, work));
            }
        }
        let cpu = any_candidate.then_some(cpu_terms);
        let xfer = if inst.enforce_transfer_time {
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            let mut any = false;
            for (k, job) in inst.jobs.iter().enumerate() {
                if job.size_mb <= 0.0 || !job_uses_machine(k, mid) {
                    continue;
                }
                any = true;
                for &m in &job_stores[k] {
                    if let Some(&v) = maps.xt.get(&(k, mid, Some(m))) {
                        let bw = cluster.bandwidth_machine_store(mid, m);
                        terms.push((v, job.size_mb / bw));
                    }
                }
            }
            any.then_some(terms)
        } else {
            None
        };
        (cpu, xfer)
    });
    let mut xfer_plans: Vec<(MachineId, Vec<(VarId, f64)>)> = Vec::new();
    for (&mid, (cpu, xfer)) in machine_ids.iter().zip(machine_plans) {
        if let Some(terms) = cpu {
            let cap = cluster.machine(mid).capacity_ecu_seconds(inst.duration);
            let row = model.add_constraint(terms, Cmp::Le, cap);
            model.name_constraint(row, format!("cpu_{}", mid.0));
            maps.ann.annotate_row(row, RowKind::CpuCap { machine: mid });
            maps.capacity_rows.push((mid, row));
            rows.cpu.insert(mid, row);
        }
        if let Some(terms) = xfer {
            xfer_plans.push((mid, terms));
        }
    }
    for (mid, terms) in xfer_plans {
        let budget = inst.duration * f64::from(cluster.machine(mid).slots);
        let row = model.add_constraint(terms, Cmp::Le, budget);
        model.name_constraint(row, format!("xfer_{}", mid.0));
        maps.ann
            .annotate_row(row, RowKind::TransferTime { machine: mid });
        rows.xfer.insert(mid, row);
    }

    // Fair-share floors: Σ_{k∈pool} work_k · Σ x^t_k ≥ min_ecu.
    for (pool, (members, min_ecu)) in inst.pool_floors.iter().enumerate() {
        if *min_ecu <= 0.0 {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut any_candidate = false;
        for &k in members {
            let job = &inst.jobs[k];
            let work = job.work_ecu();
            for &l in &job_machines[k] {
                if job_uses_machine(k, l) {
                    any_candidate = true;
                }
                if job.size_mb > 0.0 {
                    for &m in &job_stores[k] {
                        if let Some(&v) = maps.xt.get(&(k, l, Some(m))) {
                            terms.push((v, work));
                        }
                    }
                } else if let Some(&v) = maps.xt.get(&(k, l, None)) {
                    terms.push((v, work));
                }
            }
        }
        if any_candidate {
            let row = model.add_constraint(terms, Cmp::Ge, *min_ecu);
            model.name_constraint(row, format!("pool_{pool}"));
            maps.ann.annotate_row(row, RowKind::PoolFloor { pool });
            for &k in members {
                rows.job_pools[k].push(row);
            }
        }
    }

    // (22)/(11): store capacity for new copies.
    if inst.allow_moves {
        let free = |s: StoreId| -> f64 {
            inst.store_free_mb
                .get(s.0)
                .copied()
                .unwrap_or_else(|| cluster.store(s).capacity_mb)
        };
        let mut per_store: BTreeMap<StoreId, Vec<(VarId, f64)>> = BTreeMap::new();
        for nd in &maps.nd {
            per_store
                .entry(nd.dest)
                .or_default()
                .push((nd.var, inst.jobs[nd.job].size_mb));
        }
        for (s, terms) in per_store {
            let row = model.add_constraint(terms, Cmp::Le, free(s).max(0.0));
            model.name_constraint(row, format!("store_{}", s.0));
            maps.ann.annotate_row(row, RowKind::StoreCap { store: s });
        }
    }

    (model, maps, rows)
}

/// Ground-truth expectations for `lips-audit`'s paper-invariant pass,
/// recomputed from the instance independently of [`build`]'s emission
/// logic (both read the same cluster, but through different code paths).
fn expectations(inst: &LpInstance<'_>) -> PaperExpectations {
    let cluster = inst.cluster;
    let free = |s: StoreId| -> f64 {
        inst.store_free_mb
            .get(s.0)
            .copied()
            .unwrap_or_else(|| cluster.store(s).capacity_mb)
    };
    let mut bandwidth = Vec::new();
    if inst.enforce_transfer_time {
        for m in &cluster.machines {
            for s in &cluster.stores {
                bandwidth.push(((m.id, s.id), cluster.bandwidth_machine_store(m.id, s.id)));
            }
        }
    }
    PaperExpectations {
        num_jobs: inst.jobs.len(),
        job_work_ecu: inst.jobs.iter().map(LpJob::work_ecu).collect(),
        job_size_mb: inst.jobs.iter().map(|j| j.size_mb).collect(),
        cpu_capacity: cluster
            .machines
            .iter()
            .map(|m| (m.id, m.capacity_ecu_seconds(inst.duration)))
            .collect(),
        transfer_budget: if inst.enforce_transfer_time {
            cluster
                .machines
                .iter()
                .map(|m| (m.id, inst.duration * f64::from(m.slots)))
                .collect()
        } else {
            Vec::new()
        },
        bandwidth,
        store_free_mb: cluster
            .stores
            .iter()
            .map(|s| (s.id, free(s.id).max(0.0)))
            .collect(),
        fake_enabled: inst.fake_cost.is_some(),
    }
}

/// Build the LP for `inst` and return it with its audit metadata: the
/// row/column annotations emitted by the builder plus independently
/// recomputed [`PaperExpectations`]. This is the entry point for static
/// analysis; [`solve`] is the entry point for scheduling.
pub fn build_audited(inst: &LpInstance<'_>) -> (Model, ModelAnnotations, PaperExpectations) {
    let (model, maps) = build(inst, Pool::serial());
    let expect = expectations(inst);
    (model, maps.ann, expect)
}

/// Run the full static-analysis suite over the LP generated for `inst`:
/// the generic model lint plus the Fig 2/3/4 paper-invariant audit.
/// Returns every finding; an empty vector certifies the model's structure.
pub fn audit_instance(inst: &LpInstance<'_>) -> Vec<lips_audit::Lint> {
    let (model, ann, expect) = build_audited(inst);
    let mut findings = lips_audit::lint(&model);
    findings.extend(lips_audit::audit_paper_invariants(&model, &ann, &expect));
    findings
}

/// Why a unified epoch solve did not produce a usable schedule.
///
/// Splitting certification failure from solver failure is what lets the
/// epoch scheduler degrade gracefully (retry cold, then greedy) instead of
/// panicking mid-simulation when a cluster fault perturbs the model.
#[derive(Debug)]
pub enum EpochSolveError {
    /// The simplex itself failed (infeasible, unbounded, iteration
    /// budget exhausted, …).
    Lp(LpError),
    /// The solver returned a "solution" the independent KKT verifier
    /// rejected. The string carries the certificate's own report.
    Certification(String),
}

impl From<LpError> for EpochSolveError {
    fn from(e: LpError) -> Self {
        EpochSolveError::Lp(e)
    }
}

impl std::fmt::Display for EpochSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochSolveError::Lp(e) => write!(f, "LP solve failed: {e}"),
            EpochSolveError::Certification(why) => {
                write!(f, "LP solution failed independent certification: {why}")
            }
        }
    }
}

impl std::error::Error for EpochSolveError {}

/// Proof of optimality attached to a [`SolveReport`] when certification
/// was requested: full-model KKT for direct solves, the restricted-master
/// certificate (master KKT + excluded-column pricing) for colgen solves.
#[derive(Debug, Clone)]
pub enum EpochCertificate {
    Full(Certificate),
    Restricted(lips_audit::RestrictedCertificate),
}

impl EpochCertificate {
    pub fn is_optimal(&self) -> bool {
        match self {
            EpochCertificate::Full(c) => c.is_optimal(),
            EpochCertificate::Restricted(c) => c.is_optimal(),
        }
    }

    /// The full certificate, if this was a direct (non-colgen) solve.
    pub fn as_full(&self) -> Option<&Certificate> {
        match self {
            EpochCertificate::Full(c) => Some(c),
            EpochCertificate::Restricted(_) => None,
        }
    }
}

impl std::fmt::Display for EpochCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochCertificate::Full(c) => c.fmt(f),
            EpochCertificate::Restricted(c) => c.fmt(f),
        }
    }
}

/// Wall-clock of one epoch solve, split by phase. Every field comes from
/// [`lips_lp::clock::Stopwatch`], so all three are `0.0` when the solver
/// clock is disabled and never influence the solve itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Model construction: candidate enumeration, (restricted) model
    /// build, presolve, column pricing and appends — everything outside
    /// the simplex and the certifier.
    pub build_ms: f64,
    /// Simplex wall-time, summed over every master round in colgen mode.
    pub solve_ms: f64,
    /// Independent KKT certification (including excluded-column pricing
    /// for restricted solves). `0.0` when certification was not requested.
    pub certify_ms: f64,
}

/// Everything one epoch solve hands back, fields populated according to
/// what the [`EpochSolver`] builder requested.
#[derive(Debug, Clone)]
pub struct SolveReport {
    pub schedule: FractionalSchedule,
    /// Shadow price of each machine's CPU-capacity row: the dollars the
    /// optimal schedule would save per extra ECU-second of capacity on
    /// that node (≤ 0; more negative = more valuable). `Some` iff
    /// [`EpochSolver::shadow_prices`] was requested (always present in
    /// colgen mode, which computes them as a by-product).
    pub shadow_prices: Option<Vec<(MachineId, f64)>>,
    /// `Some` iff [`EpochSolver::certify`] was requested (always present
    /// in colgen mode — the restricted certificate is how colgen proves
    /// full-model optimality at all).
    pub certificate: Option<EpochCertificate>,
    /// This solve's optimal basis, for chaining into the next epoch.
    pub basis: WarmStart,
    /// Cross-epoch column state + telemetry; `Some` iff colgen mode.
    pub colgen: Option<(ColGenState, ColGenStats)>,
    /// Variables fixed plus rows dropped by epoch presolve (0 unless
    /// [`EpochSolver::presolve`] was requested).
    pub presolve_removed: usize,
    /// Per-phase wall-clock of this solve.
    pub timings: PhaseTimings,
}

impl SolveReport {
    /// The state to carry into the next epoch: the colgen master's
    /// columns and basis in colgen mode, else this solve's basis alone
    /// (with no carried columns).
    pub fn carry(&self) -> ColGenState {
        match &self.colgen {
            Some((state, _)) => state.clone(),
            None => ColGenState {
                active: std::collections::BTreeSet::new(),
                basis: self.basis.clone(),
            },
        }
    }
}

/// The unified builder-style solve entry point (the former seven `solve*`
/// free functions completed their deprecation cycle and are gone).
///
/// ```ignore
/// let report = EpochSolver::new(&inst)
///     .warm(Some(&basis))
///     .certify()
///     .shadow_prices()
///     .run()?;
/// ```
///
/// Every option is orthogonal: warm starting never changes the optimum,
/// certification never mutates the solve, colgen mode certifies against
/// the full model by construction, and [`EpochSolver::threads`] never
/// changes anything observable except wall-clock time. `run` never panics
/// on certification failure — it returns
/// [`EpochSolveError::Certification`], which the epoch scheduler treats
/// as one more rung on its degradation ladder.
#[derive(Debug)]
pub struct EpochSolver<'i, 'c> {
    inst: &'i LpInstance<'c>,
    warm: Option<&'i WarmStart>,
    certify: bool,
    shadow_prices: bool,
    colgen: Option<(ColGenOptions, Option<&'i ColGenState>)>,
    pivot_budget: Option<usize>,
    dual: bool,
    presolve: bool,
    pool: Pool,
}

impl<'i, 'c> EpochSolver<'i, 'c> {
    pub fn new(inst: &'i LpInstance<'c>) -> Self {
        EpochSolver {
            inst,
            warm: None,
            certify: false,
            shadow_prices: false,
            colgen: None,
            pivot_budget: None,
            dual: false,
            presolve: false,
            pool: Pool::from_env(),
        }
    }

    /// Worker threads for model build, column pricing, and certification.
    /// Defaults to [`lips_par::default_threads`] (the `LIPS_THREADS`
    /// environment variable, else the machine's available parallelism).
    ///
    /// The thread count is pure throughput tuning: the deterministic merge
    /// discipline of [`lips_par::Pool`] makes every solve — objective,
    /// chosen columns, certificate, basis — bitwise identical at any
    /// value, including 1.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// Seed the simplex from a prior epoch's optimal basis. `None` or an
    /// unusable basis degrades to a cold solve — the optimum is identical
    /// either way, only the pivot count changes.
    #[must_use]
    pub fn warm(mut self, warm: Option<&'i WarmStart>) -> Self {
        self.warm = warm;
        self
    }

    /// Verify the answer with an independent primal/dual certificate
    /// ([`lips_audit::certify`]); a rejected solution becomes
    /// [`EpochSolveError::Certification`].
    #[must_use]
    pub fn certify(mut self) -> Self {
        self.certify = true;
        self
    }

    /// Also report the shadow price of each machine's CPU-capacity row.
    #[must_use]
    pub fn shadow_prices(mut self) -> Self {
        self.shadow_prices = true;
        self
    }

    /// Solve by delayed column generation over a restricted master
    /// instead of the full model, optionally reusing a prior epoch's
    /// surviving columns + basis. Implies certification (against the
    /// *full* model, excluded columns priced). The basis passed to
    /// [`EpochSolver::warm`] is ignored in this mode — the colgen state
    /// carries its own.
    #[must_use]
    pub fn colgen(mut self, opts: ColGenOptions, prior: Option<&'i ColGenState>) -> Self {
        self.colgen = Some((opts, prior));
        self
    }

    /// Solve with the *bounded dual simplex*
    /// ([`lips_lp::solve_dual_with_options`]) instead of the primal
    /// simplex, starting from the basis passed to [`EpochSolver::warm`].
    /// After an epoch edit that only perturbs bounds and costs (work
    /// completing, rhs drifting) the carried basis is typically still
    /// dual feasible and re-optimizes in a handful of pivots. With no
    /// basis, or one declined at seeding (under-full or singular), the
    /// same solve starts from the slack basis — dual feasible because
    /// every Fig-4 cost is non-negative — so a cold epoch needs no phase 1
    /// and no second model build. The solve *fails* only when the walk
    /// from a carried basis is declined ([`LpError::DualDeclined`]) or
    /// the model is infeasible; callers degrade to the primal path, which
    /// is exactly how [`crate::lips::LipsScheduler`]'s ladder uses it.
    /// Ignored in colgen mode.
    #[must_use]
    pub fn dual(mut self) -> Self {
        self.dual = true;
        self
    }

    /// Reduce the model with certification-safe presolve
    /// ([`lips_lp::presolve::certified_options`]: redundant-row dropping
    /// and Fig-1 dominated-column fixing) before the simplex, mapping
    /// the warm basis into the reduced space and restoring the solution
    /// (values, duals, objective, and basis) to the full model afterward.
    /// Certification still runs against the *full* model, so the knob can
    /// never change an optimum, only shrink the simplex's working set.
    /// Ignored in colgen mode (the restricted master is its own
    /// reduction).
    #[must_use]
    pub fn presolve(mut self) -> Self {
        self.presolve = true;
        self
    }

    /// Cap simplex pivots for this solve; past the cap the solve fails
    /// with [`LpError::IterationLimit`] instead of running to optimality.
    /// This is the epoch scheduler's time-budget rung: a faulted epoch
    /// that cannot be solved cheaply degrades to greedy placement rather
    /// than stalling the simulation.
    #[must_use]
    pub fn pivot_budget(mut self, max_pivots: usize) -> Self {
        self.pivot_budget = Some(max_pivots);
        self
    }

    /// Execute the configured solve.
    pub fn run(self) -> Result<SolveReport, EpochSolveError> {
        if let Some((opts, prior)) = &self.colgen {
            let out = colgen_run(self.inst, opts, *prior, self.pivot_budget, self.pool)?;
            return Ok(SolveReport {
                schedule: out.schedule,
                shadow_prices: Some(out.shadow_prices),
                certificate: Some(EpochCertificate::Restricted(out.certificate)),
                basis: out.state.basis.clone(),
                colgen: Some((out.state, out.stats)),
                presolve_removed: 0,
                timings: out.timings,
            });
        }

        let t_build = lips_lp::clock::Stopwatch::start();
        let (model, maps) = build(self.inst, self.pool);
        let mut build_ms = t_build.elapsed_ms();
        let (sol, presolve_removed) = if self.presolve {
            let t_pre = lips_lp::clock::Stopwatch::start();
            let (reduced, restore) =
                lips_lp::presolve::presolve_with(&model, lips_lp::presolve::certified_options())?;
            // The carried basis is keyed to the full model; project it
            // into the reduced space so the warm/dual path still applies.
            let mapped = self.warm.map(|w| restore.map_warm_start(&model, w));
            build_ms += t_pre.elapsed_ms();
            let sol = if self.dual {
                solve_model_dual(&reduced, mapped.as_ref(), self.pivot_budget)?
            } else {
                solve_model(&reduced, mapped.as_ref(), self.pivot_budget)?
            };
            // Values, duals, objective, and basis all in full-model space
            // again — certification below runs against the *unreduced*
            // model, so presolve can never launder a wrong answer.
            (restore.restore_solution(&model, &sol), restore.removed())
        } else if self.dual {
            (solve_model_dual(&model, self.warm, self.pivot_budget)?, 0)
        } else {
            (solve_model(&model, self.warm, self.pivot_budget)?, 0)
        };
        let t_cert = lips_lp::clock::Stopwatch::start();
        let certificate = if self.certify {
            match lips_audit::certify_with(self.pool, &model, &sol) {
                Ok(cert) if cert.is_optimal() => Some(EpochCertificate::Full(cert)),
                Ok(cert) => return Err(EpochSolveError::Certification(cert.to_string())),
                Err(e) => return Err(EpochSolveError::Certification(e.to_string())),
            }
        } else {
            None
        };
        let certify_ms = t_cert.elapsed_ms();
        let shadow_prices = self.shadow_prices.then(|| {
            let sens = lips_lp::sensitivity::analyze(&model, &sol);
            maps.capacity_rows
                .iter()
                .map(|&(m, row)| {
                    (
                        m,
                        sens.shadow_prices.get(row.index()).copied().unwrap_or(0.0),
                    )
                })
                .collect()
        });
        let basis = sol.warm_start().cloned().unwrap_or_default();
        let timings = PhaseTimings {
            build_ms,
            solve_ms: sol.stats().solve_ms,
            certify_ms,
        };
        Ok(SolveReport {
            schedule: decode(self.inst, &maps, &sol),
            shadow_prices,
            certificate,
            basis,
            colgen: None,
            presolve_removed,
            timings,
        })
    }
}

/// One bounded dual-simplex run, optionally pivot-capped, from a warm
/// basis or — with none — from the slack basis.
fn solve_model_dual(
    model: &Model,
    warm: Option<&WarmStart>,
    pivot_budget: Option<usize>,
) -> Result<lips_lp::Solution, LpError> {
    let none = WarmStart::new();
    let warm = warm.unwrap_or(&none);
    let mut opts = lips_lp::revised::RevisedOptions::default();
    if let Some(max_iterations) = pivot_budget {
        opts.max_iterations = max_iterations;
    }
    lips_lp::solve_dual_with_options(model, warm, &opts)
}

/// One simplex run, optionally warm-started and pivot-capped.
fn solve_model(
    model: &Model,
    warm: Option<&WarmStart>,
    pivot_budget: Option<usize>,
) -> Result<lips_lp::Solution, LpError> {
    match pivot_budget {
        None => model.solve_warm(warm),
        Some(max_iterations) => {
            lips_lp::revised::RevisedSimplex::with_options(lips_lp::revised::RevisedOptions {
                max_iterations,
                ..Default::default()
            })
            .solve_with_warm_start(model, warm)
        }
    }
}

/// Number of task-assignment (`x^t`) columns the full model would carry
/// under the instance's pruning — the denominator of
/// [`EpochSolver::colgen`]'s active-column share.
pub fn count_task_columns(inst: &LpInstance<'_>) -> usize {
    let (job_machines, job_stores) = candidates(inst);
    enumerate_arcs(inst, &job_machines, &job_stores).len()
}

/// Tuning for the delayed-column-generation solve
/// ([`EpochSolver::colgen`]).
#[derive(Debug, Clone)]
pub struct ColGenOptions {
    /// Arcs seeding the restricted master per job, cheapest LP cost first.
    /// This is Figure 1's dominance rule (`c·a > c·b + d`) used as a
    /// *seeding* heuristic: the arc cost already folds the move/read price
    /// `d` into the cycle price comparison, so the top-N cheapest arcs are
    /// exactly the undominated ones. Dominance must never *prune* — a
    /// capacity- or transfer-bound optimum can need dominated arcs, which
    /// is why every excluded arc is still priced each round.
    pub seed_arcs_per_job: usize,
    /// Safety valve: past this many pricing rounds the whole remaining
    /// column set is appended at once and the model solved exactly. The
    /// loop terminates without it (every round appends ≥ 1 column), but a
    /// bound keeps worst-case degenerate instances from crawling.
    pub max_rounds: usize,
    /// Solve the *first* master round with the bounded dual simplex,
    /// falling back to the warm primal path when the walk from the
    /// carried basis is declined. This is the incremental-arrival rung
    /// the `lips-serve` daemon rides: after a queue delta that only adds
    /// and retires columns, the carried master basis is usually still
    /// dual feasible and re-optimizes in a handful of pivots with no
    /// phase 1. Without a carried [`ColGenState`], or with a basis
    /// declined at seeding, the round starts from the slack basis — a
    /// cold start with no phase 1. Strictly a solve-path knob — the
    /// fixpoint and its full-model certificate are unchanged.
    pub dual_first: bool,
}

impl Default for ColGenOptions {
    fn default() -> Self {
        ColGenOptions {
            seed_arcs_per_job: 8,
            max_rounds: 50,
            dual_first: false,
        }
    }
}

/// Cross-epoch column-generation state: the task arcs that mattered at
/// the previous epoch's optimum plus its basis. Seeding the next epoch's
/// restricted master ([`EpochSolver::colgen`]) with both means a churned
/// job only *perturbs* the master (its arcs enter via pricing) instead of
/// rebuilding the column set from scratch — arc names are keyed by job id, so surviving names
/// keep denoting the same `(job, machine, store)` arc across epochs. A
/// full-model solve carries its basis alone ([`SolveReport::carry`]).
#[derive(Debug, Clone, Default)]
pub struct ColGenState {
    active: std::collections::BTreeSet<String>,
    basis: WarmStart,
}

impl ColGenState {
    /// Number of task columns carried into the next epoch.
    pub fn carried_columns(&self) -> usize {
        self.active.len()
    }

    /// Drop carried columns and basis entries that reference machines no
    /// longer alive in `cluster`, so a topology change (revocation)
    /// merely *perturbs* the next master instead of poisoning it with
    /// arcs the builder will never emit again. Returns how many entries
    /// were dropped.
    pub fn sanitize_for_cluster(&mut self, cluster: &Cluster) -> usize {
        let dead = dead_machines(cluster);
        if dead.is_empty() {
            return 0;
        }
        let before = self.active.len();
        self.active
            .retain(|name| !name_references_machine(name, &dead));
        before - self.active.len() + sanitize_warm_start(&mut self.basis, cluster)
    }

    /// The carried basis.
    pub fn basis(&self) -> &WarmStart {
        &self.basis
    }
}

/// Machines currently revoked (zero throughput) in `cluster`, by index.
fn dead_machines(cluster: &Cluster) -> std::collections::BTreeSet<usize> {
    cluster
        .machines
        .iter()
        .filter(|m| m.tp_ecu <= 0.0)
        .map(|m| m.id.0)
        .collect()
}

/// True if a column/row name references one of the `dead` machines: task
/// arcs are `xt_{job}_{machine}` / `xt_{job}_{machine}_{store}`, the
/// per-machine rows are `cpu_{machine}` and `xfer_{machine}`. Every other
/// name family (`nd_*`, `fake_*`, `cov_*`, `lnk_*`, `pool_*`, `store_*`)
/// is machine-free and survives a revocation untouched.
fn name_references_machine(name: &str, dead: &std::collections::BTreeSet<usize>) -> bool {
    let mut parts = name.split('_');
    match parts.next() {
        // Skip the job id; the next segment is the machine.
        Some("xt") => parts
            .nth(1)
            .and_then(|s| s.parse::<usize>().ok())
            .is_some_and(|m| dead.contains(&m)),
        Some("cpu") | Some("xfer") => parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .is_some_and(|m| dead.contains(&m)),
        _ => false,
    }
}

/// Drop every warm-start entry that references a machine no longer alive
/// in `cluster`. A name-keyed [`WarmStart`] survives model edits by
/// design, but a status for a column or row the builder will never emit
/// again would seed the repair loop with garbage; pruning up front leaves
/// a smaller, honest basis the solver completes with slacks. Returns how
/// many entries were dropped.
pub fn sanitize_warm_start(ws: &mut WarmStart, cluster: &Cluster) -> usize {
    let dead = dead_machines(cluster);
    if dead.is_empty() {
        return 0;
    }
    let before = ws.len();
    ws.retain_vars(|name| !name_references_machine(name, &dead));
    ws.retain_rows(|name| !name_references_machine(name, &dead));
    before - ws.len()
}

/// Telemetry from one column-generated solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColGenStats {
    /// Master solves performed (1 = the seed already priced out nothing).
    pub rounds: usize,
    /// Columns appended by pricing across all rounds.
    pub appended: usize,
    /// Task columns in the final master.
    pub active_columns: usize,
    /// Task columns of the full model (`active_columns / total_columns`
    /// is the acceptance criterion's "active share").
    pub total_columns: usize,
    /// Wall-clock spent building the master and appending columns
    /// (everything except the simplex itself and certification).
    pub build_ms: f64,
    /// The first master round was solved by the bounded dual simplex,
    /// from the carried basis or the slack basis (see
    /// [`ColGenOptions::dual_first`]).
    pub dual_master: bool,
}

/// Everything a column-generated epoch solve hands back.
#[derive(Debug, Clone)]
pub struct ColGenOutcome {
    pub schedule: FractionalSchedule,
    /// Shadow price of each machine's CPU-capacity row (see
    /// [`EpochSolver::shadow_prices`]).
    pub shadow_prices: Vec<(MachineId, f64)>,
    /// Full-model KKT certificate: the master's own certificate plus a
    /// pricing pass over every excluded column.
    pub certificate: lips_audit::RestrictedCertificate,
    /// Carry into the next epoch's [`EpochSolver::colgen`] call.
    pub state: ColGenState,
    pub stats: ColGenStats,
    pub timings: PhaseTimings,
}

/// Seed arc names for a restricted master: the `per_job` cheapest arcs of
/// every job (LP cost, ties by name — Figure 1's dominance calculus as a
/// seeding heuristic) plus whatever `carried` names still denote a
/// candidate arc of this epoch's model.
fn seed_active(
    arcs: &[ArcCand],
    per_job: usize,
    carried: Option<&std::collections::BTreeSet<String>>,
) -> std::collections::BTreeSet<String> {
    let mut active = std::collections::BTreeSet::new();
    let mut by_job: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, a) in arcs.iter().enumerate() {
        by_job.entry(a.k).or_default().push(i);
    }
    for idxs in by_job.values_mut() {
        idxs.sort_by(|&a, &b| {
            arcs[a]
                .cost
                .total_cmp(&arcs[b].cost)
                .then_with(|| arcs[a].name.cmp(&arcs[b].name))
        });
        for &i in idxs.iter().take(per_job.max(1)) {
            active.insert(arcs[i].name.clone());
        }
    }
    if let Some(carried) = carried {
        let known: std::collections::BTreeSet<&str> =
            arcs.iter().map(|a| a.name.as_str()).collect();
        for name in carried {
            if known.contains(name.as_str()) {
                active.insert(name.clone());
            }
        }
    }
    active
}

/// Column of one arc in the full row space, written into a reusable
/// buffer — must mirror the builder's coefficients exactly (same
/// work/size/bandwidth formulas). Buffer discipline keeps the pricing
/// loop free of per-arc heap allocation: each pricing worker reuses one
/// scratch vector across every arc it prices.
fn arc_terms_into(
    inst: &LpInstance<'_>,
    rows: &RowIds,
    a: &ArcCand,
    t: &mut Vec<(lips_lp::ConstraintId, f64)>,
) {
    let job = &inst.jobs[a.k];
    let work = job.work_ecu();
    t.push((rows.cov[a.k], 1.0));
    if let Some(m) = a.m {
        t.push((rows.lnk[&(a.k, m)], 1.0));
        if let Some(&x) = rows.xfer.get(&a.l) {
            let bw = inst.cluster.bandwidth_machine_store(a.l, m);
            t.push((x, job.size_mb / bw));
        }
    }
    if let Some(&c) = rows.cpu.get(&a.l) {
        t.push((c, work));
    }
    for &p in &rows.job_pools[a.k] {
        t.push((p, work));
    }
}

/// Result of one restricted-master pricing loop: the full model's task
/// arcs, the final master model, its optimal solution, and the loop's
/// telemetry.
struct MasterRun {
    arcs: Vec<ArcCand>,
    model: Model,
    maps: VarMaps,
    rows: RowIds,
    sol: lips_lp::Solution,
    active: std::collections::BTreeSet<String>,
    rounds: usize,
    appended: usize,
    agg: SolveStats,
    build_ms: f64,
    /// The first round's solve was the bounded dual simplex (see
    /// [`ColGenOptions::dual_first`]).
    dual_master: bool,
}

/// The restricted-master / pricing loop. The master starts with every
/// `nd`/fake column, the full row set, and only the seed task arcs (top-N
/// cheapest per job, plus whatever `prior` carried over). Each round
/// solves the master warm from the incumbent basis, prices every excluded
/// arc against the master's duals across `pool`'s workers
/// ([`lips_lp::ColumnPricer::price_out_batch`]), appends everything that
/// prices out through [`Model::add_column`], and repeats until nothing
/// does — at which point the master's optimum *is* the full model's
/// optimum.
///
/// A restriction can be infeasible where the full model is not (a pool
/// floor unreachable on the seeded machines); the loop then appends the
/// whole remainder and retries once, so feasibility semantics match the
/// direct solve exactly.
fn master_price_loop(
    inst: &LpInstance<'_>,
    opts: &ColGenOptions,
    prior: Option<&ColGenState>,
    pivot_budget: Option<usize>,
    pool: Pool,
) -> Result<MasterRun, EpochSolveError> {
    let t_build = lips_lp::clock::Stopwatch::start();
    let (job_machines, job_stores) = candidates(inst);
    let arcs = enumerate_arcs(inst, &job_machines, &job_stores);
    let mut active = seed_active(&arcs, opts.seed_arcs_per_job, prior.map(|p| &p.active));
    let mut warm = prior.map(|p| p.basis.clone());
    let (mut model, mut maps, rows) =
        build_filtered(inst, &job_machines, &job_stores, Some(&active), pool);
    let mut build_ms = t_build.elapsed_ms();

    let mut scratch: Vec<(lips_lp::ConstraintId, f64)> = Vec::new();
    let mut append_arc = |model: &mut Model, maps: &mut VarMaps, a: &ArcCand| {
        scratch.clear();
        arc_terms_into(inst, &rows, a, &mut scratch);
        let v = model.add_column(a.name.clone(), 0.0, 1.0, a.cost, scratch.iter().copied());
        maps.xt.insert((a.k, a.l, a.m), v);
        maps.ann.annotate_var(
            v,
            VarKind::Assign {
                job: a.k,
                machine: a.l,
                store: a.m,
            },
        );
    };

    let mut rounds = 0;
    let mut appended = 0;
    let mut agg = SolveStats::default();
    let mut first_warm: Option<lips_lp::WarmOutcome> = None;
    let mut dual_master = false;
    let sol = loop {
        rounds += 1;
        // The first round goes to the bounded dual simplex: from the
        // carried basis (new columns perturb the master without
        // disturbing dual feasibility), else from the slack basis. A dual
        // that fails short of an infeasibility verdict (a walk declined
        // mid-way, a budget) falls back to the warm primal path, and a
        // decline is kept on the record.
        let solved = if opts.dual_first && rounds == 1 {
            match solve_model_dual(&model, warm.as_ref(), pivot_budget) {
                Ok(s) => {
                    dual_master = true;
                    Ok(s)
                }
                Err(LpError::Infeasible) => Err(LpError::Infeasible),
                Err(e) => {
                    if let LpError::DualDeclined(d) = e {
                        agg.declined = Some(d);
                    }
                    solve_model(&model, warm.as_ref(), pivot_budget)
                }
            }
        } else {
            solve_model(&model, warm.as_ref(), pivot_budget)
        };
        let sol = match solved {
            Ok(s) => s,
            Err(LpError::Infeasible) if active.len() < arcs.len() => {
                // The *restriction* may be infeasible even when the
                // instance is not: append everything and match `solve`'s
                // feasibility semantics exactly.
                let t = lips_lp::clock::Stopwatch::start();
                for a in arcs.iter().filter(|a| !active.contains(&a.name)) {
                    append_arc(&mut model, &mut maps, a);
                    appended += 1;
                }
                active.extend(arcs.iter().map(|a| a.name.clone()));
                build_ms += t.elapsed_ms();
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let s = sol.stats();
        agg.iterations += s.iterations;
        agg.phase1_iterations += s.phase1_iterations;
        agg.refactors += s.refactors;
        agg.ftran_nnz += s.ftran_nnz;
        agg.solve_ms += s.solve_ms;
        agg.dual_pivots += s.dual_pivots;
        agg.bound_flips += s.bound_flips;
        agg.declined = agg.declined.or(s.declined);
        first_warm.get_or_insert(s.warm);

        let pricer = lips_lp::ColumnPricer::new(&model, &sol).map_err(|e| {
            EpochSolveError::Certification(format!("master solution unusable for pricing: {e}"))
        })?;
        let t = lips_lp::clock::Stopwatch::start();
        // Price every excluded arc across the pool's workers; the batch
        // returns ascending candidate indices, so `entering` is in arc
        // enumeration order at any thread count.
        let candidates: Vec<&ArcCand> = arcs.iter().filter(|a| !active.contains(&a.name)).collect();
        let mut entering: Vec<&ArcCand> = pricer
            .price_out_batch(pool, candidates.len(), |i, buf| {
                arc_terms_into(inst, &rows, candidates[i], buf);
                candidates[i].cost
            })
            .into_iter()
            .map(|i| candidates[i])
            .collect();
        if entering.is_empty() {
            build_ms += t.elapsed_ms();
            break sol;
        }
        if rounds >= opts.max_rounds {
            // Round budget exhausted: go exact in one step.
            entering = arcs.iter().filter(|a| !active.contains(&a.name)).collect();
        }
        for a in entering {
            append_arc(&mut model, &mut maps, a);
            active.insert(a.name.clone());
            appended += 1;
        }
        build_ms += t.elapsed_ms();
        warm = sol.warm_start().cloned();
    };
    agg.warm = first_warm.unwrap_or_default();
    Ok(MasterRun {
        arcs,
        model,
        maps,
        rows,
        sol,
        active,
        rounds,
        appended,
        agg,
        build_ms,
        dual_master,
    })
}

/// The certification/decoding tail of a restricted solve.
struct RestrictedFinish {
    schedule: FractionalSchedule,
    shadow_prices: Vec<(MachineId, f64)>,
    certificate: lips_audit::RestrictedCertificate,
    basis: WarmStart,
    /// Task columns that mattered at the optimum (basic or nonzero) —
    /// the next epoch's carried active set.
    surviving: std::collections::BTreeSet<String>,
    certify_ms: f64,
}

/// Certify a finished master against the *full* model (master KKT plus an
/// independent pricing pass over every excluded column), then decode the
/// schedule and the next epoch's carry-over state.
fn finish_restricted(
    inst: &LpInstance<'_>,
    run: &MasterRun,
    pool: Pool,
) -> Result<RestrictedFinish, EpochSolveError> {
    // Column assembly for the certificate parallelizes per arc; the
    // certificate itself splits its KKT and re-pricing passes across the
    // same pool.
    let t_cert = lips_lp::clock::Stopwatch::start();
    let excluded_arcs: Vec<&ArcCand> = run
        .arcs
        .iter()
        .filter(|a| !run.active.contains(&a.name))
        .collect();
    let excluded: Vec<lips_audit::ExcludedColumn> = pool.par_map(&excluded_arcs, |_, a| {
        let mut terms = Vec::new();
        arc_terms_into(inst, &run.rows, a, &mut terms);
        lips_audit::ExcludedColumn {
            name: a.name.clone(),
            obj: a.cost,
            terms,
        }
    });
    let certificate =
        match lips_audit::certify_restricted_with(pool, &run.model, &run.sol, &excluded) {
            Ok(cert) if cert.is_optimal() => cert,
            Ok(cert) => {
                return Err(EpochSolveError::Certification(format!(
                    "colgen master failed full-model certification: {cert}"
                )))
            }
            Err(e) => return Err(EpochSolveError::Certification(e.to_string())),
        };
    let certify_ms = t_cert.elapsed_ms();

    let sens = lips_lp::sensitivity::analyze(&run.model, &run.sol);
    let shadow_prices: Vec<(MachineId, f64)> = run
        .maps
        .capacity_rows
        .iter()
        .map(|&(m, row)| {
            (
                m,
                sens.shadow_prices.get(row.index()).copied().unwrap_or(0.0),
            )
        })
        .collect();
    let basis = run.sol.warm_start().cloned().unwrap_or_default();
    // Carry only the columns that mattered at the optimum (basic or at a
    // nonzero value): the master stays lean across epochs instead of
    // monotonically accreting every column that ever priced in.
    let surviving: std::collections::BTreeSet<String> = run
        .maps
        .xt
        .values()
        .filter_map(|&v| {
            let name = run.model.var_name(v);
            let keep =
                run.sol.value_of(v) > 1e-9 || basis.var(name) == Some(lips_lp::BasisStatus::Basic);
            keep.then(|| name.to_string())
        })
        .collect();
    let mut schedule = decode(inst, &run.maps, &run.sol);
    schedule.iterations = run.agg.iterations;
    schedule.stats = run.agg;
    Ok(RestrictedFinish {
        schedule,
        shadow_prices,
        certificate,
        basis,
        surviving,
        certify_ms,
    })
}

/// The column-generation engine behind [`EpochSolver::colgen`]: solve
/// `inst` by delayed column generation over a restricted master. Runs
/// [`master_price_loop`] to the pricing fixpoint and proves full-model
/// optimality via [`finish_restricted`]'s excluded-column certificate.
fn colgen_run(
    inst: &LpInstance<'_>,
    opts: &ColGenOptions,
    prior: Option<&ColGenState>,
    pivot_budget: Option<usize>,
    pool: Pool,
) -> Result<ColGenOutcome, EpochSolveError> {
    let run = master_price_loop(inst, opts, prior, pivot_budget, pool)?;
    let fin = finish_restricted(inst, &run, pool)?;

    let stats = ColGenStats {
        rounds: run.rounds,
        appended: run.appended,
        active_columns: run.maps.xt.len(),
        total_columns: run.arcs.len(),
        build_ms: run.build_ms,
        dual_master: run.dual_master,
    };
    let timings = PhaseTimings {
        build_ms: stats.build_ms,
        solve_ms: run.agg.solve_ms,
        certify_ms: fin.certify_ms,
    };
    Ok(ColGenOutcome {
        schedule: fin.schedule,
        shadow_prices: fin.shadow_prices,
        certificate: fin.certificate,
        state: ColGenState {
            active: fin.surviving,
            basis: fin.basis,
        },
        stats,
        timings,
    })
}

/// Decode a solved LP back into schedule entities.
fn decode(inst: &LpInstance<'_>, maps: &VarMaps, sol: &lips_lp::Solution) -> FractionalSchedule {
    let eps = 1e-7;

    let mut assignments = Vec::new();
    for (&(k, l, m), &v) in &maps.xt {
        let frac = sol.value_of(v);
        if frac > eps {
            assignments.push((inst.jobs[k].id, l, m, frac));
        }
    }
    // Map order is (job index, machine, store); re-sort by JobId, which
    // need not be monotone in the index.
    assignments.sort_by(|a, b| (a.0, a.1, a.2.map(|s| s.0)).cmp(&(b.0, b.1, b.2.map(|s| s.0))));

    let mut moves = Vec::new();
    for nd in &maps.nd {
        let mut frac = sol.value_of(nd.var);
        if frac <= eps {
            continue;
        }
        let job = &inst.jobs[nd.job];
        let data = job.data.expect("moves only for data jobs");
        // Distribute the group's fraction across its (equal-price) holders
        // without over-drawing any single one.
        for &(src, stock) in &nd.sources {
            if frac <= eps {
                break;
            }
            let take = frac.min(stock);
            moves.push((data, src, nd.dest, take * job.size_mb));
            frac -= take;
        }
    }
    moves.sort_by_key(|a| (a.0, a.1, a.2));

    let mut deferred = BTreeMap::new();
    let mut fake_dollars = 0.0;
    for (&k, &v) in &maps.fake {
        let frac = sol.value_of(v);
        if frac > eps {
            deferred.insert(inst.jobs[k].id, frac);
            // Fake vars exist only when the instance set a fake cost.
            fake_dollars +=
                frac * inst.jobs[k].work_ecu().max(1e-9) * inst.fake_cost.unwrap_or(0.0);
        }
    }

    FractionalSchedule {
        assignments,
        moves,
        deferred,
        predicted_dollars: sol.objective() - fake_dollars,
        lp_objective: sol.objective(),
        iterations: sol.iterations(),
        stats: *sol.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, InstanceType};
    use lips_workload::JobKind;

    /// Test shim over the unified API: every solve below goes through
    /// [`EpochSolver`] (this shadows the deprecated free function).
    fn solve(inst: &LpInstance<'_>) -> Result<FractionalSchedule, EpochSolveError> {
        EpochSolver::new(inst).certify().run().map(|r| r.schedule)
    }

    /// Two-machine cluster: expensive m1.medium in zone a holding the
    /// data, cheap c1.medium in zone b.
    fn two_node() -> Cluster {
        let mut b = lips_cluster::ClusterBuilder::new();
        let za = b.add_zone("a");
        let zb = b.add_zone("b");
        b.add_machine(za, InstanceType::M1_MEDIUM, 1.0, 100_000.0);
        b.add_machine(zb, InstanceType::C1_MEDIUM, 0.0, 100_000.0);
        b.build()
    }

    fn one_job(size_mb: f64, tcp: f64, holder: StoreId) -> LpJob {
        LpJob {
            id: JobId(0),
            data: Some(DataId(0)),
            size_mb,
            tcp,
            fixed_ecu: 0.0,
            avail: vec![(holder, 1.0)],
        }
    }

    fn base_inst<'a>(cluster: &'a Cluster, jobs: Vec<LpJob>) -> LpInstance<'a> {
        LpInstance {
            cluster,
            jobs,
            duration: 100_000.0,
            fake_cost: None,
            allow_moves: true,
            enforce_transfer_time: false,
            store_free_mb: vec![],
            pool_floors: vec![],
            prune: PruneConfig::default(),
        }
    }

    #[test]
    fn cpu_heavy_job_chases_cheap_cycles() {
        // WordCount-intensity data on the expensive node: the LP pays the
        // cross-zone transfer once (as a move or a remote read — the two
        // are price-identical for a single pass) and runs on the cheap
        // c1.medium.
        let cluster = two_node();
        let size = 10.0 * 1024.0;
        let tcp = JobKind::WordCount.tcp_ecu_sec_per_mb();
        let job = one_job(size, tcp, StoreId(0));
        let sched = solve(&base_inst(&cluster, vec![job])).unwrap();
        assert!(sched
            .assignments
            .iter()
            .all(|&(_, l, _, _)| l == MachineId(1)));
        let expect = size * tcp * cluster.machine(MachineId(1)).cpu_cost
            + size * cluster.ss_cost(StoreId(0), StoreId(1));
        assert!((sched.predicted_dollars - expect).abs() < 1e-6);
    }

    #[test]
    fn io_heavy_job_stays_local_when_transfer_is_dear() {
        // Grep on the expensive node with a pricey network ($0.10/GB):
        // transfer dominates, stay near the data (Figure 1's left side).
        let mut cluster = two_node();
        cluster.network.cross_zone_dollars_per_mb = 0.10 / 1024.0;
        let job = one_job(
            10.0 * 1024.0,
            JobKind::Grep.tcp_ecu_sec_per_mb(),
            StoreId(0),
        );
        let sched = solve(&base_inst(&cluster, vec![job])).unwrap();
        assert!(
            sched.moves.is_empty(),
            "grep should not move: {:?}",
            sched.moves
        );
        assert!(sched
            .assignments
            .iter()
            .all(|&(_, l, _, _)| l == MachineId(0)));
    }

    #[test]
    fn break_even_consistency_with_analysis_module() {
        // The LP's move/stay decision must agree with the closed form for
        // a single job on the two-node cluster.
        let cluster = two_node();
        let a = cluster.machine(MachineId(0)).cpu_cost;
        let b = cluster.machine(MachineId(1)).cpu_cost;
        let d = cluster.ss_cost(StoreId(0), StoreId(1));
        for tcp in [0.05, 0.2, 0.5, 1.0, 2.0, 5.0] {
            let job = one_job(1024.0, tcp, StoreId(0));
            let sched = solve(&base_inst(&cluster, vec![job])).unwrap();
            let moved = !sched.moves.is_empty();
            // Read price while running remotely equals the move price here,
            // so the LP may also "run remote without moving"; both count as
            // using cheap cycles.
            let used_cheap = sched
                .assignments
                .iter()
                .any(|&(_, l, _, frac)| l == MachineId(1) && frac > 0.5);
            let should = crate::analysis::move_pays_off(tcp, a, b, d);
            assert_eq!(
                moved || used_cheap,
                should,
                "tcp={tcp}: moved={moved} cheap={used_cheap} expected={should}"
            );
        }
    }

    #[test]
    fn fig2_mode_has_no_moves() {
        let cluster = two_node();
        let job = one_job(1024.0, 5.0, StoreId(0));
        let mut inst = base_inst(&cluster, vec![job]);
        inst.allow_moves = false;
        let sched = solve(&inst).unwrap();
        assert!(sched.moves.is_empty());
        // CPU-heavy but data pinned: may still run remotely reading
        // cross-zone, but every assignment must read from store 0.
        assert!(sched
            .assignments
            .iter()
            .all(|&(_, _, s, _)| s == Some(StoreId(0))));
    }

    #[test]
    fn capacity_forces_spill_to_expensive_node() {
        // Duration such that both nodes together barely fit the work
        // (5 + 2 = 7 ECU): the cheap node saturates at 5/7, the rest
        // spills onto the expensive node.
        let cluster = two_node();
        let work_ecu = 10_000.0;
        let size = 1024.0;
        let tcp = work_ecu / size;
        let duration = work_ecu / 7.0 * 1.0001;
        let mut inst = base_inst(&cluster, vec![one_job(size, tcp, StoreId(0))]);
        inst.duration = duration;
        let sched = solve(&inst).unwrap();
        let on_cheap: f64 = sched
            .assignments
            .iter()
            .filter(|&&(_, l, _, _)| l == MachineId(1))
            .map(|&(_, _, _, f)| f)
            .sum();
        let on_exp: f64 = sched
            .assignments
            .iter()
            .filter(|&&(_, l, _, _)| l == MachineId(0))
            .map(|&(_, _, _, f)| f)
            .sum();
        assert!(
            (on_cheap - 5.0 / 7.0).abs() < 1e-3,
            "cheap share {on_cheap}"
        );
        assert!(
            (on_exp - 2.0 / 7.0).abs() < 1e-3,
            "expensive share {on_exp}"
        );
    }

    #[test]
    fn insufficient_capacity_without_fake_node_is_infeasible() {
        let cluster = two_node();
        let work_ecu = 10_000.0;
        let size = 1024.0;
        let mut inst = base_inst(&cluster, vec![one_job(size, work_ecu / size, StoreId(0))]);
        inst.duration = work_ecu / 7.0 * 0.9; // 10% short of combined capacity
        assert!(solve(&inst).is_err());
    }

    #[test]
    fn fake_node_absorbs_overflow_instead_of_infeasible() {
        // Duration so small no real machine can take the work.
        let cluster = two_node();
        let mut inst = base_inst(&cluster, vec![one_job(1024.0, 10.0, StoreId(0))]);
        inst.duration = 1.0;
        // Without the fake node: infeasible.
        assert!(solve(&inst).is_err());
        // With it: solvable, nearly everything deferred.
        inst.fake_cost = Some(1.0); // $1 per ECU-second — enormous
        let sched = solve(&inst).unwrap();
        let deferred = sched.deferred[&JobId(0)];
        assert!(deferred > 0.99, "deferred {deferred}");
        // Predicted dollars excludes the fictitious fake charge.
        assert!(sched.predicted_dollars < 1.0);
    }

    #[test]
    fn inputless_job_goes_to_cheapest_cycles() {
        let cluster = two_node();
        let job = LpJob {
            id: JobId(0),
            data: None,
            size_mb: 0.0,
            tcp: 0.0,
            fixed_ecu: 1000.0,
            avail: vec![],
        };
        let sched = solve(&base_inst(&cluster, vec![job])).unwrap();
        assert_eq!(sched.assignments.len(), 1);
        let (_, l, s, frac) = sched.assignments[0];
        assert_eq!(l, MachineId(1));
        assert_eq!(s, None);
        assert!((frac - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_time_budget_limits_remote_reads() {
        // Epoch so short the cross-zone link cannot ship the data in time:
        // with moves disabled and the data remote to the cheap node, the
        // job must run on the expensive holder node instead.
        let cluster = two_node();
        let size = 10.0 * 1024.0; // 10 GB
        let mut inst = base_inst(&cluster, vec![one_job(size, 5.0, StoreId(0))]);
        inst.allow_moves = false;
        inst.enforce_transfer_time = true;
        // Cross-zone: 31.25 MB/s → 10 GB needs ~327 s; give 60 s.
        // Local read at 400 MB/s needs ~26 s — fits.
        inst.duration = 60.0;
        // Also relax CPU capacity so only the transfer constraint binds.
        // (Machine capacity at 60 s would bind too; raise TP.)
        let mut cluster2 = cluster.clone();
        cluster2.machines[0].tp_ecu = 1e6;
        cluster2.machines[1].tp_ecu = 1e6;
        inst.cluster = &cluster2;
        let sched = solve(&inst).unwrap();
        let remote: f64 = sched
            .assignments
            .iter()
            .filter(|&&(_, l, _, _)| l == MachineId(1))
            .map(|&(_, _, _, f)| f)
            .sum();
        // At most 60s × 2 slots × 31.25 MB/s / 10 GB ≈ 0.37 may run remote.
        assert!(remote < 0.4, "remote share {remote}");
    }

    #[test]
    fn store_capacity_blocks_moves() {
        let mut cluster = two_node();
        cluster.stores[1].capacity_mb = 100.0; // cheap node's store is tiny
        let job = one_job(10.0 * 1024.0, 5.0, StoreId(0));
        let sched = solve(&base_inst(&cluster, vec![job])).unwrap();
        let moved: f64 = sched.moves.iter().map(|&(_, _, _, mb)| mb).sum();
        assert!(moved <= 100.0 + 1e-6, "moved {moved}");
    }

    #[test]
    fn pruning_keeps_solution_feasible() {
        let cluster = ec2_20_node(0.5, 100_000.0);
        let jobs: Vec<LpJob> = (0..4)
            .map(|i| LpJob {
                id: JobId(i),
                data: Some(DataId(i)),
                size_mb: 640.0,
                tcp: 1.0,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(i), 1.0)],
            })
            .collect();
        let mut inst = base_inst(&cluster, jobs);
        inst.prune = PruneConfig {
            max_machines_per_job: Some(4),
            max_new_stores_per_job: Some(2),
        };
        let sched = solve(&inst).unwrap();
        // Every job fully assigned.
        for i in 0..4 {
            let total: f64 = sched
                .assignments
                .iter()
                .filter(|&&(j, _, _, _)| j == JobId(i))
                .map(|&(_, _, _, f)| f)
                .sum();
            assert!((total - 1.0).abs() < 1e-5, "job {i}: {total}");
        }
        // Pruned model must not cost less than the exact one.
        let exact = solve(&base_inst(&cluster, inst.jobs.clone())).unwrap();
        assert!(sched.predicted_dollars >= exact.predicted_dollars - 1e-9);
    }

    fn spread_jobs(n: usize) -> Vec<LpJob> {
        (0..n)
            .map(|i| LpJob {
                id: JobId(i),
                data: Some(DataId(i)),
                size_mb: 512.0 + 64.0 * i as f64,
                tcp: 0.2 + 0.3 * (i % 5) as f64,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(i % 20), 1.0)],
            })
            .collect()
    }

    #[test]
    fn colgen_matches_full_solve_objective() {
        // A tiny seed forces real pricing rounds; the column-generated
        // optimum must still coincide with the full model's to LP tolerance,
        // certified against every excluded column.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let inst = base_inst(&cluster, spread_jobs(8));
        let full = solve(&inst).unwrap();
        let opts = ColGenOptions {
            seed_arcs_per_job: 2,
            ..ColGenOptions::default()
        };
        let out = EpochSolver::new(&inst).colgen(opts, None).run().unwrap();
        let cert = out.certificate.expect("colgen always certifies");
        assert!(cert.is_optimal(), "{cert}");
        assert!(
            (out.schedule.lp_objective - full.lp_objective).abs() < 1e-6,
            "colgen {} vs full {}",
            out.schedule.lp_objective,
            full.lp_objective
        );
        let (_, stats) = out.colgen.expect("colgen mode reports its state");
        assert!(stats.active_columns <= stats.total_columns);
        assert!(stats.rounds >= 1);
        // The whole point: the master never grew to the full column set.
        assert!(
            stats.active_columns < stats.total_columns,
            "master ended with all {} columns active",
            stats.total_columns
        );
    }

    #[test]
    fn colgen_state_reuse_matches_cold_colgen() {
        // Epoch 2 perturbs epoch 1 (one job's work drifts); reusing the
        // surviving column set + basis must land on the same optimum the
        // full model finds.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let opts = ColGenOptions::default();
        let inst1 = base_inst(&cluster, spread_jobs(6));
        let e1 = EpochSolver::new(&inst1)
            .colgen(opts.clone(), None)
            .run()
            .unwrap();
        let (state1, _) = e1.colgen.expect("colgen mode reports its state");
        assert!(state1.carried_columns() > 0);

        let mut jobs2 = spread_jobs(6);
        jobs2[3].tcp *= 1.5;
        let inst2 = base_inst(&cluster, jobs2);
        let full2 = solve(&inst2).unwrap();
        let e2 = EpochSolver::new(&inst2)
            .colgen(opts, Some(&state1))
            .run()
            .unwrap();
        let cert = e2.certificate.expect("colgen always certifies");
        assert!(cert.is_optimal(), "{cert}");
        assert!(
            (e2.schedule.lp_objective - full2.lp_objective).abs() < 1e-6,
            "warm colgen {} vs full {}",
            e2.schedule.lp_objective,
            full2.lp_objective
        );
    }

    #[test]
    fn colgen_survives_infeasible_seed_restriction() {
        // A fair-share floor demanding every machine's cycles: the cheap
        // seed arcs alone cannot meet it, so the restricted master is
        // infeasible while the full model is not. The fallback must append
        // the remainder and still solve.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let jobs = spread_jobs(4);
        let total_cap: f64 = cluster
            .machines
            .iter()
            .map(|m| m.capacity_ecu_seconds(2_000.0))
            .sum();
        let mut inst = base_inst(&cluster, jobs);
        inst.duration = 2_000.0;
        // Scale job work up so the floor is only reachable using most
        // machines, then demand 80% of cluster capacity from the pool.
        for j in &mut inst.jobs {
            j.tcp = total_cap * 0.22 / j.size_mb;
        }
        inst.pool_floors = vec![((0..4).collect(), total_cap * 0.8)];
        let full = solve(&inst).unwrap();
        let opts = ColGenOptions {
            seed_arcs_per_job: 1,
            ..ColGenOptions::default()
        };
        let out = EpochSolver::new(&inst).colgen(opts, None).run().unwrap();
        let cert = out.certificate.expect("colgen always certifies");
        assert!(cert.is_optimal(), "{cert}");
        assert!((out.schedule.lp_objective - full.lp_objective).abs() < 1e-6);
    }

    #[test]
    fn colgen_shadow_prices_match_direct_solve() {
        let cluster = two_node();
        let work_ecu = 10_000.0;
        let size = 1024.0;
        let mut inst = base_inst(&cluster, vec![one_job(size, work_ecu / size, StoreId(0))]);
        inst.duration = work_ecu / 7.0 * 1.0001; // both CPU rows bind
        let direct = EpochSolver::new(&inst)
            .shadow_prices()
            .run()
            .unwrap()
            .shadow_prices
            .expect("shadow prices requested");
        let out = EpochSolver::new(&inst)
            .colgen(ColGenOptions::default(), None)
            .run()
            .unwrap();
        let cg = out.shadow_prices.expect("colgen computes shadow prices");
        for ((m1, p1), (m2, p2)) in direct.iter().zip(cg.iter()) {
            assert_eq!(m1, m2);
            assert!((p1 - p2).abs() < 1e-6, "machine {m1:?}: {p1} vs {p2}");
        }
    }

    #[test]
    fn thread_count_never_changes_the_solve() {
        // The tentpole determinism contract, end to end: build, colgen
        // pricing, and certification at 1/2/8 threads must produce
        // bitwise-identical reports — objective, schedule, chosen columns,
        // certificate residuals, everything.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let mut inst = base_inst(&cluster, spread_jobs(8));
        inst.fake_cost = Some(1.0);
        let opts = ColGenOptions {
            seed_arcs_per_job: 2,
            ..ColGenOptions::default()
        };
        let run = |threads: usize| {
            EpochSolver::new(&inst)
                .threads(threads)
                .colgen(opts.clone(), None)
                .run()
                .unwrap()
        };
        let base = run(1);
        let base_cert = match base.certificate.as_ref().unwrap() {
            EpochCertificate::Restricted(c) => c.clone(),
            EpochCertificate::Full(_) => unreachable!("colgen certifies restricted"),
        };
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(
                base.schedule.lp_objective.to_bits(),
                other.schedule.lp_objective.to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                base.schedule.assignments, other.schedule.assignments,
                "threads={threads}"
            );
            assert_eq!(
                base.schedule.moves, other.schedule.moves,
                "threads={threads}"
            );
            let cert = match other.certificate.as_ref().unwrap() {
                EpochCertificate::Restricted(c) => c,
                EpochCertificate::Full(_) => unreachable!(),
            };
            assert_eq!(
                base_cert.master.duality_gap.to_bits(),
                cert.master.duality_gap.to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                base_cert.max_excluded_violation.to_bits(),
                cert.max_excluded_violation.to_bits(),
                "threads={threads}"
            );
            let (state_a, stats_a) = base.colgen.as_ref().unwrap();
            let (state_b, stats_b) = other.colgen.as_ref().unwrap();
            assert_eq!(state_a.carried_columns(), state_b.carried_columns());
            assert_eq!(stats_a.active_columns, stats_b.active_columns);
            assert_eq!(stats_a.appended, stats_b.appended);
            assert_eq!(stats_a.rounds, stats_b.rounds);
        }
    }

    #[test]
    fn revoked_machine_gets_no_columns_or_capacity() {
        // Kill the cheap node: everything must land on the survivor even
        // though it is more expensive, and a chained basis naming the dead
        // machine must not resurrect it.
        let mut cluster = two_node();
        cluster.machines[1].tp_ecu = 0.0;
        let inst = base_inst(&cluster, vec![one_job(1024.0, 5.0, StoreId(0))]);
        let report = EpochSolver::new(&inst).certify().run().unwrap();
        assert!(report
            .schedule
            .assignments
            .iter()
            .all(|&(_, l, _, _)| l == MachineId(0)));
        // The surviving model has no basis entries touching machine 1.
        assert_eq!(report.basis.var("xt_0_1_0"), None);
        assert_eq!(report.basis.row("cpu_1"), None);
    }

    #[test]
    fn sanitize_warm_start_drops_dead_machine_entries() {
        use lips_lp::BasisStatus;
        let mut cluster = two_node();
        let mut ws = WarmStart::new();
        ws.set_var("xt_3_0_0", BasisStatus::Basic);
        ws.set_var("xt_3_1_0", BasisStatus::Basic);
        ws.set_var("xt_7_1", BasisStatus::AtLower); // input-less arc
        ws.set_var("nd_3_1_0", BasisStatus::AtLower); // store-keyed: survives
        ws.set_row("cpu_1", BasisStatus::Basic);
        ws.set_row("xfer_1", BasisStatus::AtLower);
        ws.set_row("cov_3", BasisStatus::AtLower);
        // Nothing dead yet: a no-op.
        assert_eq!(sanitize_warm_start(&mut ws, &cluster), 0);
        assert_eq!(ws.len(), 7);
        cluster.machines[1].tp_ecu = 0.0;
        assert_eq!(sanitize_warm_start(&mut ws, &cluster), 4);
        assert_eq!(ws.var("xt_3_0_0"), Some(BasisStatus::Basic));
        assert_eq!(ws.var("xt_3_1_0"), None);
        assert_eq!(ws.var("xt_7_1"), None);
        assert_eq!(ws.var("nd_3_1_0"), Some(BasisStatus::AtLower));
        assert_eq!(ws.row("cpu_1"), None);
        assert_eq!(ws.row("xfer_1"), None);
        assert_eq!(ws.row("cov_3"), Some(BasisStatus::AtLower));
    }

    #[test]
    fn colgen_state_sanitize_counts_columns_and_basis_entries() {
        use lips_lp::BasisStatus;
        let mut cluster = two_node();
        let mut state = ColGenState::default();
        state.basis.set_var("xt_0_1_0", BasisStatus::Basic);
        state.basis.set_var("xt_0_0_0", BasisStatus::Basic);
        state.basis.set_row("cpu_1", BasisStatus::AtLower);
        state.active.insert("xt_0_1_0".to_string());
        state.active.insert("xt_0_0_0".to_string());
        assert_eq!(state.sanitize_for_cluster(&cluster), 0);
        cluster.machines[1].tp_ecu = 0.0;
        // One carried column plus two basis entries name machine 1.
        assert_eq!(state.sanitize_for_cluster(&cluster), 3);
        assert_eq!(state.carried_columns(), 1);
        assert_eq!(state.basis().var("xt_0_0_0"), Some(BasisStatus::Basic));
        assert_eq!(state.basis().var("xt_0_1_0"), None);
    }

    #[test]
    fn zero_replica_job_defers_to_fake_node() {
        // A job whose every data holder was lost (empty avail): no task
        // arc can read, no copy has a source, so the fake node takes all
        // of it — the job never vanishes from the model.
        let cluster = two_node();
        let mut job = one_job(1024.0, 2.0, StoreId(0));
        job.avail = vec![];
        let mut inst = base_inst(&cluster, vec![job]);
        inst.fake_cost = Some(1.0);
        let report = EpochSolver::new(&inst).certify().run().unwrap();
        let deferred = report.schedule.deferred.get(&JobId(0)).copied().unwrap();
        assert!(deferred > 1.0 - 1e-6, "deferred {deferred}");
        assert!(report.schedule.moves.is_empty());
    }

    #[test]
    fn pivot_budget_exhaustion_reports_iteration_limit() {
        let cluster = two_node();
        let inst = base_inst(&cluster, vec![one_job(1024.0, 2.0, StoreId(0))]);
        match EpochSolver::new(&inst).pivot_budget(0).run() {
            Err(EpochSolveError::Lp(LpError::IterationLimit { .. })) => {}
            other => panic!("expected iteration-limit error, got {other:?}"),
        }
    }
}
