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
//!
//! ## Solving
//!
//! Two functions solve an instance and return the same [`SolveReport`]:
//! [`solve_master`] by delayed column generation over a restricted master
//! (every scheduler epoch), [`solve_full`] by the cold primal on the whole
//! model (the ladder's cold rung and every offline caller). Both end in
//! one finish step: certify against the full row set, pricing every task
//! arc the solved model excluded (none after a full solve); read the
//! CPU-capacity shadow prices; decode the schedule; and, for a master,
//! take the basis the next epoch carries.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use lips_audit::RestrictedCertificate;
use lips_cluster::{Cluster, DataId, MachineId, StoreId};
use lips_lp::{BasisStatus, Cmp, KeyNames, LpError, Model, Session, SolveStats, VarId, WarmStart};
use lips_workload::JobId;

use crate::paper_audit::{audit_paper_invariants, PaperExpectations};

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
    /// The job's data set, which the copy replicates.
    data: DataId,
    dest: StoreId,
    var: VarId,
    /// `(holder, stock fraction)` pairs this variable may draw from.
    sources: Vec<(StoreId, f64)>,
}

/// Internal handle map from LP variables back to schedule entities.
struct VarMaps {
    /// Column of each arc of the [`ArcSpace`], `None` while the arc is
    /// outside a restricted master.
    arc_var: Vec<Option<VarId>>,
    nd: Vec<NdVar>,
    /// Fake-node column per job index.
    fake: Vec<Option<VarId>>,
}

// --- LP identities -----------------------------------------------------
//
// Every column and row of the epoch LP carries a typed identity packed
// into the `u64` key the solver matches warm starts by. Keys name *job
// ids* (not LP indices): ids are stable across epochs while indices shift
// as jobs complete and arrive, so the carried basis, and with it the next
// master's seed arcs, match surviving columns by key. No string is
// built per column or row; `Display` renders the historical names
// (`xt_3_1_0`, `cpu_4`, …) for diagnostics only.

const JOB_MASK: u64 = (1 << 31) - 1;
const ROW_JOB_MASK: u64 = (1 << 32) - 1;
const ID_MASK: u64 = 0xffff;
const CLASS_MASK: u64 = (1 << 14) - 1;
/// Store field of an input-less task key.
const NO_STORE: u64 = 0xffff;
/// Bit 63 set: a non-task column.
const NON_TASK: u64 = 1 << 63;

/// `v` truncated to the bits of `mask`.
fn field(v: usize, mask: u64) -> u64 {
    // usize → u64 is lossless on every supported target.
    (v as u64) & mask
}

/// Typed identity of one epoch-LP column.
///
/// [`ColKey::pack`] layout, bit 63 first:
///
/// * `Task`: bit 63 = 0, job in bits 62–32, machine in 31–16, store in
///   15–0 (`0xffff` = input-less, no store).
/// * `Nd`: bit 63 = 1, job in 62–32, bits 31–30 = `00`, dest in 29–14,
///   class in 13–0.
/// * `Fake`: bit 63 = 1, job in 62–32, bits 31–30 = `01`, the rest zero.
///
/// The packing is injective for job ids < 2³¹, machine and dest ids
/// < 2¹⁶, store ids < 2¹⁶ − 1 and classes < 2¹⁴. Larger ids are truncated
/// to their field, so two columns can then share a key; a shared key only
/// makes a warm start or a carried column seed less apt — the restricted
/// master still prices every arc and certifies against the full model, so
/// the optimum never depends on keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKey {
    /// Task arc `x^t_klm`: `job` on `machine`, reading from `store`
    /// (`None` for input-less work).
    Task {
        job: JobId,
        machine: MachineId,
        store: Option<StoreId>,
    },
    /// Planned copy `n_km` of `job`'s data to `dest`, in the job's
    /// `class`-th holder price class for that destination (cheapest
    /// first — stable across epochs as long as the holder set is).
    Nd {
        job: JobId,
        dest: StoreId,
        class: usize,
    },
    /// Fake-node share `f_k` of `job`.
    Fake { job: JobId },
}

impl ColKey {
    /// The solver key (layout on [`ColKey`]).
    pub fn pack(self) -> u64 {
        match self {
            ColKey::Task {
                job,
                machine,
                store,
            } => {
                (field(job.0, JOB_MASK) << 32)
                    | (field(machine.0, ID_MASK) << 16)
                    | store.map_or(NO_STORE, |s| field(s.0, ID_MASK))
            }
            ColKey::Nd { job, dest, class } => {
                NON_TASK
                    | (field(job.0, JOB_MASK) << 32)
                    | (field(dest.0, ID_MASK) << 14)
                    | field(class, CLASS_MASK)
            }
            ColKey::Fake { job } => NON_TASK | (field(job.0, JOB_MASK) << 32) | (1 << 30),
        }
    }

    /// Inverse of [`ColKey::pack`]; `None` for a key no column packs to.
    pub fn unpack(key: u64) -> Option<ColKey> {
        // The masks keep every field within usize on all targets.
        let get = |shift: u32, mask: u64| ((key >> shift) & mask) as usize;
        let job = JobId(get(32, JOB_MASK));
        let col = if key & NON_TASK == 0 {
            let store = key & ID_MASK;
            ColKey::Task {
                job,
                machine: MachineId(get(16, ID_MASK)),
                store: (store != NO_STORE).then(|| StoreId(get(0, ID_MASK))),
            }
        } else if (key >> 30) & 3 == 0 {
            ColKey::Nd {
                job,
                dest: StoreId(get(14, ID_MASK)),
                class: get(0, CLASS_MASK),
            }
        } else {
            ColKey::Fake { job }
        };
        (col.pack() == key).then_some(col)
    }
}

impl fmt::Display for ColKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ColKey::Task {
                job,
                machine,
                store: Some(s),
            } => write!(f, "xt_{}_{}_{}", job.0, machine.0, s.0),
            ColKey::Task {
                job,
                machine,
                store: None,
            } => write!(f, "xt_{}_{}", job.0, machine.0),
            ColKey::Nd { job, dest, class } => write!(f, "nd_{}_{}_{class}", job.0, dest.0),
            ColKey::Fake { job } => write!(f, "fake_{}", job.0),
        }
    }
}

/// Typed identity of one epoch-LP row.
///
/// [`RowKey::pack`] layout: the variant in bits 63–60 (`Cov` = 1, `Lnk`,
/// `Cpu`, `Xfer`, `Pool`, `Store` = 6), the job id in bits 47–16, the
/// store, machine or pool id in bits 15–0. Injective for job ids < 2³²
/// and store/machine/pool ids < 2¹⁶; larger ids are truncated, with the
/// same warm-start-only consequence as for [`ColKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKey {
    /// Coverage row (20) of `job`.
    Cov { job: JobId },
    /// Linking row (24) of `job` and `store`.
    Lnk { job: JobId, store: StoreId },
    /// CPU-capacity row (23) of `machine`.
    Cpu { machine: MachineId },
    /// Read-time budget row (21) of `machine`.
    Xfer { machine: MachineId },
    /// Fair-share floor of pool `pool` (its index in
    /// [`LpInstance::pool_floors`]).
    Pool { pool: usize },
    /// Store-capacity row (22) of `store`.
    Store { store: StoreId },
}

impl RowKey {
    /// The solver key (layout on [`RowKey`]).
    pub fn pack(self) -> u64 {
        let (kind, job, id) = match self {
            RowKey::Cov { job } => (1, job.0, 0),
            RowKey::Lnk { job, store } => (2, job.0, store.0),
            RowKey::Cpu { machine } => (3, 0, machine.0),
            RowKey::Xfer { machine } => (4, 0, machine.0),
            RowKey::Pool { pool } => (5, 0, pool),
            RowKey::Store { store } => (6, 0, store.0),
        };
        (kind << 60) | (field(job, ROW_JOB_MASK) << 16) | field(id, ID_MASK)
    }

    /// Inverse of [`RowKey::pack`]; `None` for a key no row packs to.
    pub fn unpack(key: u64) -> Option<RowKey> {
        // The masks keep every field within usize on all targets.
        let job = JobId(((key >> 16) & ROW_JOB_MASK) as usize);
        let id = (key & ID_MASK) as usize;
        let row = match key >> 60 {
            1 => RowKey::Cov { job },
            2 => RowKey::Lnk {
                job,
                store: StoreId(id),
            },
            3 => RowKey::Cpu {
                machine: MachineId(id),
            },
            4 => RowKey::Xfer {
                machine: MachineId(id),
            },
            5 => RowKey::Pool { pool: id },
            6 => RowKey::Store { store: StoreId(id) },
            _ => return None,
        };
        (row.pack() == key).then_some(row)
    }
}

impl fmt::Display for RowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RowKey::Cov { job } => write!(f, "cov_{}", job.0),
            RowKey::Lnk { job, store } => write!(f, "lnk_{}_{}", job.0, store.0),
            RowKey::Cpu { machine } => write!(f, "cpu_{}", machine.0),
            RowKey::Xfer { machine } => write!(f, "xfer_{}", machine.0),
            RowKey::Pool { pool } => write!(f, "pool_{pool}"),
            RowKey::Store { store } => write!(f, "store_{}", store.0),
        }
    }
}

/// Diagnostic rendering of an epoch-LP column key.
fn render_col(key: u64) -> String {
    ColKey::unpack(key).map_or_else(|| format!("#k{key:016x}"), |c| c.to_string())
}

/// Diagnostic rendering of an epoch-LP row key.
fn render_row(key: u64) -> String {
    RowKey::unpack(key).map_or_else(|| format!("#k{key:016x}"), |r| r.to_string())
}

/// How epoch-LP models render their keys in lint and audit messages.
const KEY_NAMES: KeyNames = KeyNames {
    var: render_col,
    row: render_row,
};

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
    /// Position of `m` among the job's candidate stores — the index of
    /// its linking row in [`RowIds::lnk`]; 0 for input-less arcs.
    si: usize,
    /// [`ColKey::Task`], packed.
    key: u64,
    cost: f64,
}

impl ArcCand {
    fn new(inst: &LpInstance<'_>, k: usize, l: MachineId, m: Option<StoreId>, si: usize) -> Self {
        let key = ColKey::Task {
            job: inst.jobs[k].id,
            machine: l,
            store: m,
        };
        ArcCand {
            k,
            l,
            m,
            si,
            key: key.pack(),
            cost: arc_cost(inst, k, l, m),
        }
    }
}

/// The full task-column space of an instance: candidate machines and
/// stores per job, and every candidate arc in builder emission order (job,
/// then machine, then store). Job `k`'s arcs are the contiguous run
/// `arcs[jobs[k].clone()]`, machine-major: a data job's arc on its `li`-th
/// machine and `si`-th store sits at `jobs[k].start + li·stores + si`.
struct ArcSpace {
    job_machines: Vec<Vec<MachineId>>,
    job_stores: Vec<Vec<StoreId>>,
    arcs: Vec<ArcCand>,
    jobs: Vec<Range<usize>>,
}

/// Arcs per candidate machine of `job`, whose candidate stores are
/// `stores`: one per store for a data job, one for an input-less job.
fn per_machine(job: &LpJob, stores: &[StoreId]) -> usize {
    if job.size_mb > 0.0 {
        stores.len()
    } else {
        1
    }
}

/// Enumerate an instance's [`ArcSpace`], job by job.
fn arc_space(inst: &LpInstance<'_>) -> ArcSpace {
    let (job_machines, job_stores) = candidates(inst);
    // Sized exactly: the arc list is the largest allocation of an epoch.
    let n_arcs = (0..inst.jobs.len())
        .map(|k| job_machines[k].len() * per_machine(&inst.jobs[k], &job_stores[k]))
        .sum();
    let mut arcs = Vec::with_capacity(n_arcs);
    let mut jobs = Vec::with_capacity(inst.jobs.len());
    for k in 0..inst.jobs.len() {
        let start = arcs.len();
        for &l in &job_machines[k] {
            if inst.jobs[k].size_mb > 0.0 {
                for (si, &m) in job_stores[k].iter().enumerate() {
                    arcs.push(ArcCand::new(inst, k, l, Some(m), si));
                }
            } else {
                arcs.push(ArcCand::new(inst, k, l, None, 0));
            }
        }
        jobs.push(start..arcs.len());
    }
    ArcSpace {
        job_machines,
        job_stores,
        arcs,
        jobs,
    }
}

/// The rows a task arc's column touches, by which [`arc_terms_into`]
/// assembles it — for the builder, pricing and the excluded-column
/// certificate alike. `cpu` also names the rows whose shadow prices a
/// solve reports.
#[derive(Debug, Default)]
struct RowIds {
    /// Coverage row (20) per job index.
    cov: Vec<lips_lp::ConstraintId>,
    /// Linking rows (24) per job index, one per candidate store (empty
    /// for input-less jobs).
    lnk: Vec<Vec<lips_lp::ConstraintId>>,
    /// CPU-capacity row (23) per machine id.
    cpu: Vec<Option<lips_lp::ConstraintId>>,
    /// Transfer-time row (21) per machine id.
    xfer: Vec<Option<lips_lp::ConstraintId>>,
    /// Pool-floor rows each job participates in.
    job_pools: Vec<Vec<lips_lp::ConstraintId>>,
}

/// One planned `nd` variable before it has a [`VarId`].
struct NdPlan {
    /// Price-class index within this (job, dest) pair, cheapest first.
    class: usize,
    /// Position of `dest` among the job's candidate stores — the index of
    /// its linking row in [`RowIds::lnk`].
    si: usize,
    data: DataId,
    ub: f64,
    cost: f64,
    dest: StoreId,
    sources: Vec<(StoreId, f64)>,
}

/// Job `k`'s planned-copy variables, in `(dest, price class)` emission
/// order (none without moves, input or a [`DataId`] to copy).
fn plan_copies(inst: &LpInstance<'_>, k: usize, stores: &[StoreId]) -> Vec<NdPlan> {
    let cluster = inst.cluster;
    let job = &inst.jobs[k];
    let mut nds = Vec::new();
    let Some(data) = job.data.filter(|_| inst.allow_moves && job.size_mb > 0.0) else {
        return nds;
    };
    let avail: BTreeMap<StoreId, f64> = job.avail.iter().copied().collect();
    for (si, &m) in stores.iter().enumerate() {
        // A store already holding everything needs no copies.
        if avail.get(&m).copied().unwrap_or(0.0) >= 1.0 {
            continue;
        }
        // Group holders by their exact SS price to this destination: one
        // variable per price class, bounded by that class's actual stock,
        // so the LP can never price a copy below what emission will pay
        // for it.
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
        let mut class = 0;
        while i < holders.len() {
            let price = cluster.ss_cost(holders[i].0, m);
            let mut sources = Vec::new();
            let mut stock = 0.0;
            while i < holders.len() && cluster.ss_cost(holders[i].0, m) == price {
                sources.push(holders[i]);
                stock += holders[i].1;
                i += 1;
            }
            // Eq (6): move dollars per unit fraction.
            nds.push(NdPlan {
                class,
                si,
                data,
                ub: stock.min(1.0),
                cost: job.size_mb * price,
                dest: m,
                sources,
            });
            class += 1;
        }
    }
    nds
}

/// Build the (possibly restricted) LP column by column: when `active` is
/// given, only the arcs it marks become columns; `nd`/fake columns and —
/// crucially — the *row set* are always exactly those of the full model,
/// so a restricted master's duals price excluded columns correctly and
/// [`lips_audit::certify_restricted_with`] can verify the zero-extension
/// argument row-for-row. (Rows whose full-model terms would all be
/// excluded are still emitted, merely empty for now; their slack stays
/// basic at zero cost.)
///
/// The rows are created empty first; then each job adds its task arcs
/// ([`add_arc`], the one path by which an arc becomes a column), its
/// copy columns and its fake column. Columns are added in ascending
/// index order, so every row lists its terms in column order.
fn build_filtered(
    inst: &LpInstance<'_>,
    space: &ArcSpace,
    active: Option<&[bool]>,
) -> (Model, VarMaps, RowIds) {
    let cluster = inst.cluster;
    let n_jobs = inst.jobs.len();
    let n_machines = cluster.machines.len();
    let mut model = Model::minimize();
    model.set_key_names(KEY_NAMES);
    let copies: Vec<Vec<NdPlan>> = (0..n_jobs)
        .map(|k| plan_copies(inst, k, &space.job_stores[k]))
        .collect();
    let mut row = |key: RowKey, cmp: Cmp, rhs: f64| {
        let c = model.add_constraint([], cmp, rhs);
        model.key_constraint(c, key.pack());
        c
    };

    // --- rows -----------------------------------------------------------
    // In the order all cov, all lnk, all cpu, all xfer, pool floors, store
    // capacity. A restricted master has fewer terms per row, never fewer
    // rows.
    // (20): every job fully assigned (fake node included).
    let cov = inst
        .jobs
        .iter()
        .map(|job| row(RowKey::Cov { job: job.id }, Cmp::Ge, 1.0))
        .collect();
    // (24)/(13): task reads bounded by availability + new copies.
    let mut lnk = Vec::with_capacity(n_jobs);
    for (k, job) in inst.jobs.iter().enumerate() {
        let mut job_rows = Vec::new();
        if job.size_mb > 0.0 {
            let avail: BTreeMap<StoreId, f64> = job.avail.iter().copied().collect();
            job_rows = space.job_stores[k]
                .iter()
                .map(|&store| {
                    let a = avail.get(&store).copied().unwrap_or(0.0).min(1.0);
                    row(RowKey::Lnk { job: job.id, store }, Cmp::Le, a)
                })
                .collect();
        }
        lnk.push(job_rows);
    }
    // (23)/(12): machine CPU capacity; (21): per-machine read-time budget
    // (aggregated across jobs/slots). A job with candidate arcs on a
    // machine gives that machine its rows even when none of the arcs is
    // active; read budgets only count arcs that read.
    let mut has_cpu = vec![false; n_machines];
    let mut has_xfer = vec![false; n_machines];
    for (k, job) in inst.jobs.iter().enumerate() {
        if space.jobs[k].is_empty() {
            continue; // no candidate arc anywhere
        }
        for &l in &space.job_machines[k] {
            has_cpu[l.0] = true;
            has_xfer[l.0] |= inst.enforce_transfer_time && job.size_mb > 0.0;
        }
    }
    let mut cpu = vec![None; n_machines];
    for machine in cluster.machines.iter().filter(|m| has_cpu[m.id.0]) {
        let (mid, cap) = (machine.id, machine.capacity_ecu_seconds(inst.duration));
        cpu[mid.0] = Some(row(RowKey::Cpu { machine: mid }, Cmp::Le, cap));
    }
    let mut xfer = vec![None; n_machines];
    for machine in cluster.machines.iter().filter(|m| has_xfer[m.id.0]) {
        let (mid, budget) = (machine.id, inst.duration * f64::from(machine.slots));
        xfer[mid.0] = Some(row(RowKey::Xfer { machine: mid }, Cmp::Le, budget));
    }
    // Fair-share floors: Σ_{k∈pool} work_k · Σ x^t_k ≥ min_ecu.
    let mut job_pools = vec![Vec::new(); n_jobs];
    for (p, (members, min_ecu)) in inst.pool_floors.iter().enumerate() {
        if *min_ecu > 0.0 && members.iter().any(|&k| !space.jobs[k].is_empty()) {
            let c = row(RowKey::Pool { pool: p }, Cmp::Ge, *min_ecu);
            for &k in members {
                job_pools[k].push(c);
            }
        }
    }
    // (22)/(11): store capacity for new copies, one row per destination.
    let mut store = vec![None; cluster.stores.len()];
    let mut dests: Vec<StoreId> = copies.iter().flatten().map(|nd| nd.dest).collect();
    dests.sort_unstable();
    dests.dedup();
    for s in dests {
        let free = inst
            .store_free_mb
            .get(s.0)
            .copied()
            .unwrap_or_else(|| cluster.store(s).capacity_mb);
        store[s.0] = Some(row(RowKey::Store { store: s }, Cmp::Le, free.max(0.0)));
    }
    let rows = RowIds {
        cov,
        lnk,
        cpu,
        xfer,
        job_pools,
    };

    // --- columns --------------------------------------------------------
    // Per job: its active task arcs, its copy columns, its fake column.
    let mut maps = VarMaps {
        arc_var: vec![None; space.arcs.len()],
        nd: Vec::new(),
        fake: vec![None; n_jobs],
    };
    let mut scratch = Vec::new();
    for (k, job_copies) in copies.into_iter().enumerate() {
        let job = &inst.jobs[k];
        for i in space.jobs[k].clone() {
            if active.is_none_or(|a| a[i]) {
                add_arc(inst, space, &rows, &mut model, &mut maps, &mut scratch, i);
            }
        }
        for nd in job_copies {
            let key = ColKey::Nd {
                job: job.id,
                dest: nd.dest,
                class: nd.class,
            };
            let terms = std::iter::once((rows.lnk[k][nd.si], -1.0))
                .chain(store[nd.dest.0].map(|c| (c, job.size_mb)));
            let var = model.add_keyed_column(key.pack(), 0.0, nd.ub, nd.cost, terms);
            maps.nd.push(NdVar {
                job: k,
                data: nd.data,
                dest: nd.dest,
                var,
                sources: nd.sources,
            });
        }
        if let Some(fc) = inst.fake_cost {
            let cost = job.work_ecu().max(1e-9) * fc;
            let key = ColKey::Fake { job: job.id }.pack();
            maps.fake[k] = Some(model.add_keyed_column(key, 0.0, 1.0, cost, [(rows.cov[k], 1.0)]));
        }
    }
    (model, maps, rows)
}

/// Add arc `i` of `space` to `model` as a column: its terms in the full
/// row set, written by [`arc_terms_into`] and left in `scratch` for a
/// caller that appends the same column to a live session. Every task
/// column of every model is added here — by the builder, the pricing
/// loop and the restriction fallback alike.
fn add_arc(
    inst: &LpInstance<'_>,
    space: &ArcSpace,
    rows: &RowIds,
    model: &mut Model,
    maps: &mut VarMaps,
    scratch: &mut Vec<(lips_lp::ConstraintId, f64)>,
    i: usize,
) {
    let a = &space.arcs[i];
    scratch.clear();
    arc_terms_into(inst, rows, a, scratch);
    maps.arc_var[i] =
        Some(model.add_keyed_column(a.key, 0.0, 1.0, a.cost, scratch.iter().copied()));
}

/// Build the full LP for `inst` and return it with independently
/// recomputed [`PaperExpectations`]. This is the entry point for static
/// analysis; [`solve_master`] and [`solve_full`] are the entry points for
/// scheduling.
pub fn build_audited(inst: &LpInstance<'_>) -> (Model, PaperExpectations) {
    let (model, _, _) = build_filtered(inst, &arc_space(inst), None);
    (model, PaperExpectations::of(inst))
}

/// Run the full static-analysis suite over the LP generated for `inst`:
/// the generic model lint plus the Fig 2/3/4 paper-invariant audit.
/// Returns every finding; an empty vector certifies the model's structure.
pub fn audit_instance(inst: &LpInstance<'_>) -> Vec<lips_audit::Lint> {
    let (model, expect) = build_audited(inst);
    let mut findings = lips_audit::lint(&model);
    findings.extend(audit_paper_invariants(&model, &expect));
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

/// Wall-clock of one epoch solve, split by phase. Every field comes from
/// [`lips_lp::clock::Stopwatch`], so all three are `0.0` when the solver
/// clock is disabled and never influence the solve itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Model construction: candidate enumeration, (restricted) model
    /// build, column pricing and appends — everything outside
    /// the simplex and the certifier.
    pub build_ms: f64,
    /// Simplex wall-time, summed over every master round.
    pub solve_ms: f64,
    /// Independent KKT certification, excluded-column pricing included.
    pub certify_ms: f64,
}

/// Everything one epoch solve hands back; [`solve_master`] and
/// [`solve_full`] fill the same shape.
#[derive(Debug, Clone)]
pub struct SolveReport {
    pub schedule: FractionalSchedule,
    /// Shadow price of each machine's CPU-capacity row: the dollars the
    /// optimal schedule would save per extra ECU-second of capacity on
    /// that node (≤ 0; more negative = more valuable).
    pub shadow_prices: Vec<(MachineId, f64)>,
    /// Proof of full-model optimality: the solved model's own KKT report
    /// plus a pricing pass over every task arc it excluded (none after
    /// [`solve_full`]).
    pub certificate: RestrictedCertificate,
    /// The final basis (the carry into the next epoch) and telemetry of a
    /// [`solve_master`]; `None` after [`solve_full`].
    pub master: Option<(WarmStart, ColGenStats)>,
    /// Per-phase wall-clock of this solve.
    pub timings: PhaseTimings,
}

impl SolveReport {
    /// Move out the basis to carry into the next epoch, `None` after
    /// [`solve_full`]. The report keeps an empty basis in its place.
    pub fn take_carry(&mut self) -> Option<WarmStart> {
        self.master.as_mut().map(|(basis, _)| std::mem::take(basis))
    }
}

/// Solve `inst` by delayed column generation over a restricted master,
/// seeded with `prior`'s basis when given (every task arc it carries
/// `Basic` or `AtUpper` joins the seed), and certify the answer against
/// the *full* model, every excluded arc priced.
///
/// One [`lips_lp::Session`] serves the epoch. The first round opens it on
/// the bounded dual simplex. After a queue delta that only adds and
/// retires columns, the carried master basis is usually still dual
/// feasible and re-optimizes in a handful of pivots with no phase 1.
/// Without a carried basis, or with one the walk declines (at seeding or
/// mid-walk), the round starts from the slack basis — a cold start with
/// no phase 1. The carried basis is used as it stands: keys naming a
/// machine revoked since it was taken match nothing. Later
/// rounds append the priced columns to the live session, which leaves the
/// incumbent primal feasible, and resume primal phase 2 on the same
/// factorization: no round after the first re-lowers the model,
/// re-matches keys or refactorizes on entry.
///
/// A solution the certifier rejects is
/// [`EpochSolveError::Certification`], never a panic: the epoch scheduler
/// treats it as one more rung on its degradation ladder.
pub fn solve_master(
    inst: &LpInstance<'_>,
    prior: Option<&WarmStart>,
    opts: &ColGenOptions,
) -> Result<SolveReport, EpochSolveError> {
    let run = master_price_loop(inst, opts, prior)?;
    finish(inst, run, true)
}

/// Solve the full model of `inst` cold by the primal simplex. The full
/// model is a master with nothing excluded: the same finish step as
/// [`solve_master`] certifies it, reads its shadow prices and decodes it;
/// only the carry is left out. Errors as for [`solve_master`].
pub fn solve_full(inst: &LpInstance<'_>) -> Result<SolveReport, EpochSolveError> {
    let t_build = lips_lp::clock::Stopwatch::start();
    let space = arc_space(inst);
    let (model, maps, rows) = build_filtered(inst, &space, None);
    let build_ms = t_build.elapsed_ms();
    let sol = model.solve()?;
    let run = MasterRun {
        space,
        model,
        maps,
        rows,
        sol,
        rounds: 1,
        appended: 0,
        build_ms,
    };
    finish(inst, run, false)
}

/// Tuning for [`solve_master`].
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
}

impl Default for ColGenOptions {
    fn default() -> Self {
        ColGenOptions {
            seed_arcs_per_job: 8,
        }
    }
}

/// Safety valve of the pricing loop: past this many rounds the whole
/// remaining column set is appended at once and the model solved exactly.
/// The loop terminates without it (every round appends ≥ 1 column), but a
/// bound keeps worst-case degenerate instances from crawling.
const MAX_ROUNDS: usize = 50;

/// Telemetry from one [`solve_master`].
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
}

/// Seed membership for a restricted master, one flag per arc of `space`:
/// the `per_job` cheapest arcs of every job (LP cost, ties by
/// [`name_order`] — Figure 1's dominance calculus as a seeding heuristic)
/// plus every arc the carried basis holds `Basic` or `AtUpper`: the arcs
/// that mattered at the previous optimum (task arcs are boxed in
/// `[0, 1]`, so these are exactly the basic or nonzero ones), which keeps
/// the master lean instead of accreting every arc that ever priced in,
/// as carrying every arc the basis names would. Arcs are
/// keyed by job id ([`ColKey`]), so a surviving key keeps denoting the
/// same `(job, machine, store)` arc across epochs, and a churned job only
/// *perturbs* the master (its arcs enter via pricing).
fn seed_active(space: &ArcSpace, per_job: usize, carried: Option<&WarmStart>) -> Vec<bool> {
    let arcs = &space.arcs;
    let mut active = vec![false; arcs.len()];
    let per_job = per_job.max(1);
    let mut order: Vec<usize> = Vec::new();
    for job_arcs in &space.jobs {
        order.clear();
        order.extend(job_arcs.clone());
        if order.len() > per_job {
            // A total order (names are unique within a job), so the
            // `per_job` smallest arcs are one well-defined set.
            order.select_nth_unstable_by(per_job - 1, |&a, &b| {
                arcs[a]
                    .cost
                    .total_cmp(&arcs[b].cost)
                    .then_with(|| name_order(&arcs[a], &arcs[b]))
            });
            order.truncate(per_job);
        }
        for &i in &order {
            active[i] = true;
        }
    }
    if let Some(carried) = carried {
        for (flag, a) in active.iter_mut().zip(arcs) {
            *flag |= matches!(
                carried.var(a.key),
                Some(BasisStatus::Basic | BasisStatus::AtUpper)
            );
        }
    }
    active
}

/// Order of two arcs of the same job by the bytes of their [`ColKey`]
/// names (`xt_{job}_{machine}[_{store}]`), written to the stack instead of
/// the heap. The epoch LP is degenerate enough that which of several
/// equal-cost arcs seeds the master can move the certified optimum within
/// the certificate's tolerance, so seeding keeps this historical order.
fn name_order(a: &ArcCand, b: &ArcCand) -> std::cmp::Ordering {
    /// Append the decimal digits of `v` to `buf[..*len]`.
    fn push_decimal(mut v: usize, buf: &mut [u8; 41], len: &mut usize) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            // `v % 10 < 10`, so the cast cannot truncate.
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let n = digits.len() - at;
        buf[*len..*len + n].copy_from_slice(&digits[at..]);
        *len += n;
    }
    /// `"{machine}"` or `"{machine}_{store}"` in `buf`; returns its length.
    fn suffix(a: &ArcCand, buf: &mut [u8; 41]) -> usize {
        let mut len = 0;
        push_decimal(a.l.0, buf, &mut len);
        if let Some(m) = a.m {
            buf[len] = b'_';
            len += 1;
            push_decimal(m.0, buf, &mut len);
        }
        len
    }
    let (mut x, mut y) = ([0u8; 41], [0u8; 41]);
    let (nx, ny) = (suffix(a, &mut x), suffix(b, &mut y));
    x[..nx].cmp(&y[..ny])
}

/// Column of one arc in the full row space, written into a reusable
/// buffer: the one description of a task column's coefficients, read by
/// [`add_arc`] (so by every model), by pricing and by the certificate.
/// Buffer discipline keeps the pricing loop free of per-arc heap
/// allocation: pricing reuses one scratch vector across every arc it
/// prices.
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
        t.push((rows.lnk[a.k][a.si], 1.0));
        if let Some(x) = rows.xfer[a.l.0] {
            let bw = inst.cluster.bandwidth_machine_store(a.l, m);
            t.push((x, job.size_mb / bw));
        }
    }
    if let Some(c) = rows.cpu[a.l.0] {
        t.push((c, work));
    }
    for &p in &rows.job_pools[a.k] {
        t.push((p, work));
    }
}

/// Shadow price of each machine's CPU-capacity row, in cluster machine
/// order, as [`lips_lp::sensitivity::shadow_prices`] reports it.
fn cpu_shadow_prices(
    inst: &LpInstance<'_>,
    model: &Model,
    rows: &RowIds,
    sol: &lips_lp::Solution,
) -> Vec<(MachineId, f64)> {
    let prices = lips_lp::sensitivity::shadow_prices(model, sol);
    inst.cluster
        .machines
        .iter()
        .filter_map(|m| {
            let row = rows.cpu[m.id.0]?;
            Some((m.id, prices.get(row.index()).copied().unwrap_or(0.0)))
        })
        .collect()
}

/// A solved model ready for [`finish`]: the full model's task arcs, the
/// final (restricted or full) model, its optimal solution (whose stats are
/// the solver work that led there), and the work outside the solver.
struct MasterRun {
    space: ArcSpace,
    model: Model,
    maps: VarMaps,
    rows: RowIds,
    sol: lips_lp::Solution,
    rounds: usize,
    appended: usize,
    build_ms: f64,
}

/// The restricted-master / pricing loop. The master starts with every
/// `nd`/fake column, the full row set, and only the seed task arcs (top-N
/// cheapest per job, plus whatever `prior` carried over). One
/// [`lips_lp::Session`] serves the epoch: the first round opens it (the
/// dual simplex from the carried basis, else from the slack basis), each
/// round prices every excluded arc against its duals
/// ([`lips_lp::ColumnPricer::price_out_batch`]), appends
/// everything that prices out to the model and the session alike, and
/// resumes the session — primal phase 2 from the incumbent basis, on the
/// same factorization — until nothing prices out, at which point the
/// master's optimum *is* the full model's optimum.
///
/// A restriction can be infeasible where the full model is not (a pool
/// floor unreachable on the seeded machines); the loop then appends the
/// whole remainder and opens the session again from the carried basis, so
/// feasibility semantics match the direct solve exactly. Any other solver
/// error is the caller's: the ladder's cold rung solves the full model.
fn master_price_loop(
    inst: &LpInstance<'_>,
    opts: &ColGenOptions,
    prior: Option<&WarmStart>,
) -> Result<MasterRun, EpochSolveError> {
    let t_build = lips_lp::clock::Stopwatch::start();
    let space = arc_space(inst);
    let mut in_master = seed_active(&space, opts.seed_arcs_per_job, prior);
    // An empty basis starts the dual from the slack basis.
    let cold = WarmStart::new();
    let warm = prior.unwrap_or(&cold);
    let (mut model, mut maps, rows) = build_filtered(inst, &space, Some(&in_master));
    let mut build_ms = t_build.elapsed_ms();

    // Every arc enters the model and the live session (if any) together.
    let mut scratch: Vec<(lips_lp::ConstraintId, f64)> = Vec::new();
    let mut append_arc = |model: &mut Model,
                          maps: &mut VarMaps,
                          session: Option<&mut Session>,
                          i: usize|
     -> Result<(), LpError> {
        add_arc(inst, &space, &rows, model, maps, &mut scratch, i);
        if let Some(s) = session {
            s.append_column(0.0, 1.0, space.arcs[i].cost, scratch.iter().copied())?;
        }
        Ok(())
    };

    let mut rounds = 0;
    let mut appended = 0;
    let mut live: Option<Session> = None;
    let sol = loop {
        rounds += 1;
        let solved = match live.take() {
            Some(mut s) => s.resume().map(|()| s),
            None => Session::open(&model, warm),
        };
        let mut session = match solved {
            Ok(s) => s,
            Err(LpError::Infeasible) if in_master.contains(&false) => {
                // The *restriction* may be infeasible even when the
                // instance is not: append everything and match
                // `solve_full`'s feasibility semantics exactly.
                let t = lips_lp::clock::Stopwatch::start();
                for (i, inside) in in_master.iter_mut().enumerate() {
                    if !*inside {
                        append_arc(&mut model, &mut maps, None, i)?;
                        *inside = true;
                        appended += 1;
                    }
                }
                build_ms += t.elapsed_ms();
                continue;
            }
            Err(e) => return Err(e.into()),
        };

        let pricer = lips_lp::ColumnPricer::new(model.sense(), session.duals());
        let t = lips_lp::clock::Stopwatch::start();
        // Price every excluded arc; the batch returns ascending candidate
        // indices, so `entering` is in arc enumeration order.
        let excluded: Vec<usize> = (0..in_master.len()).filter(|&i| !in_master[i]).collect();
        let mut entering: Vec<usize> = pricer
            .price_out_batch(excluded.len(), |j, buf| {
                let a = &space.arcs[excluded[j]];
                arc_terms_into(inst, &rows, a, buf);
                a.cost
            })
            .into_iter()
            .map(|j| excluded[j])
            .collect();
        if entering.is_empty() {
            build_ms += t.elapsed_ms();
            break session.into_solution(&model);
        }
        if rounds >= MAX_ROUNDS {
            // Round budget exhausted: go exact in one step.
            entering = excluded;
        }
        for i in entering {
            append_arc(&mut model, &mut maps, Some(&mut session), i)?;
            in_master[i] = true;
            appended += 1;
        }
        build_ms += t.elapsed_ms();
        live = Some(session);
    };
    Ok(MasterRun {
        space,
        model,
        maps,
        rows,
        sol,
        rounds,
        appended,
        build_ms,
    })
}

/// The finish step of every solve. Certify `run` against the full row set
/// (its KKT conditions plus an independent pricing pass over every task
/// arc it excluded), read the CPU shadow prices, decode the schedule and,
/// for a master (`carry`), take the next epoch's basis out of the
/// solution.
fn finish(
    inst: &LpInstance<'_>,
    mut run: MasterRun,
    carry: bool,
) -> Result<SolveReport, EpochSolveError> {
    // The certificate re-derives each excluded arc's column from the
    // instance as it prices it.
    let t_cert = lips_lp::clock::Stopwatch::start();
    let excluded: Vec<&ArcCand> = run
        .space
        .arcs
        .iter()
        .zip(&run.maps.arc_var)
        .filter_map(|(a, v)| v.is_none().then_some(a))
        .collect();
    let rows = &run.rows;
    let column = |a: &&ArcCand, terms: &mut Vec<(lips_lp::ConstraintId, f64)>| {
        arc_terms_into(inst, rows, a, terms);
        (a.key, a.cost)
    };
    let certificate =
        match lips_audit::certify_restricted_with(&run.model, &run.sol, &excluded, column) {
            Ok(cert) if cert.is_optimal() => cert,
            Ok(cert) => {
                let worst = cert.worst_excluded.map(render_col).unwrap_or_default();
                return Err(EpochSolveError::Certification(format!(
                    "epoch LP failed full-model certification (worst excluded column \
                     {worst}): {cert}"
                )));
            }
            Err(e) => return Err(EpochSolveError::Certification(e.to_string())),
        };
    let certify_ms = t_cert.elapsed_ms();

    let shadow_prices = cpu_shadow_prices(inst, &run.model, &run.rows, &run.sol);
    let master = carry.then(|| {
        let stats = ColGenStats {
            rounds: run.rounds,
            appended: run.appended,
            active_columns: run.maps.arc_var.iter().flatten().count(),
            total_columns: run.space.arcs.len(),
        };
        (run.sol.take_warm_start().unwrap_or_default(), stats)
    });
    Ok(SolveReport {
        schedule: decode(inst, &run.space, &run.maps, &run.sol),
        shadow_prices,
        certificate,
        master,
        timings: PhaseTimings {
            build_ms: run.build_ms,
            solve_ms: run.sol.stats().solve_ms,
            certify_ms,
        },
    })
}

/// Decode a solved LP back into schedule entities, with the solver work
/// that led to `sol`.
fn decode(
    inst: &LpInstance<'_>,
    space: &ArcSpace,
    maps: &VarMaps,
    sol: &lips_lp::Solution,
) -> FractionalSchedule {
    let stats = *sol.stats();
    let eps = 1e-7;

    let mut assignments = Vec::new();
    for (a, &v) in space.arcs.iter().zip(&maps.arc_var) {
        let Some(v) = v else { continue };
        let frac = sol.value_of(v);
        if frac > eps {
            assignments.push((inst.jobs[a.k].id, a.l, a.m, frac));
        }
    }
    // Arc order is (job index, machine, store); re-sort by JobId, which
    // need not be monotone in the index.
    assignments.sort_by(|a, b| (a.0, a.1, a.2.map(|s| s.0)).cmp(&(b.0, b.1, b.2.map(|s| s.0))));

    let mut moves = Vec::new();
    for nd in &maps.nd {
        let mut frac = sol.value_of(nd.var);
        if frac <= eps {
            continue;
        }
        let job = &inst.jobs[nd.job];
        // Distribute the group's fraction across its (equal-price) holders
        // without over-drawing any single one.
        for &(src, stock) in &nd.sources {
            if frac <= eps {
                break;
            }
            let take = frac.min(stock);
            moves.push((nd.data, src, nd.dest, take * job.size_mb));
            frac -= take;
        }
    }
    moves.sort_by_key(|a| (a.0, a.1, a.2));

    let mut deferred = BTreeMap::new();
    let mut fake_dollars = 0.0;
    for (k, &v) in maps.fake.iter().enumerate() {
        let Some(v) = v else { continue };
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
        iterations: stats.iterations,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lips_cluster::{ec2_20_node, InstanceType};
    use lips_workload::JobKind;

    /// The certified full-model schedule of `inst`.
    fn solve(inst: &LpInstance<'_>) -> Result<FractionalSchedule, EpochSolveError> {
        solve_full(inst).map(|r| r.schedule)
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
        };
        let out = solve_master(&inst, None, &opts).unwrap();
        let cert = &out.certificate;
        assert!(cert.is_optimal(), "{cert}");
        assert!(
            (out.schedule.lp_objective - full.lp_objective).abs() < 1e-6,
            "colgen {} vs full {}",
            out.schedule.lp_objective,
            full.lp_objective
        );
        let (_, stats) = out.master.expect("a master reports its state");
        assert!(stats.active_columns <= stats.total_columns);
        assert!(stats.rounds >= 1);
        // The whole point: the master never grew to the full column set.
        assert!(
            stats.active_columns < stats.total_columns,
            "master ended with all {} columns active",
            stats.total_columns
        );
    }

    /// Every column of `model` by key: bounds, cost and terms (rows named
    /// by [`RowKey`], in row order), all floats as bits.
    type Columns = BTreeMap<u64, ([u64; 3], Vec<(RowKey, u64)>)>;

    fn columns(model: &Model) -> Columns {
        let mut cols: Columns = model
            .var_ids()
            .map(|v| {
                let (lb, ub) = model.var_bounds(v);
                let head = [lb.to_bits(), ub.to_bits(), model.var_obj(v).to_bits()];
                (model.var_key(v), (head, Vec::new()))
            })
            .collect();
        assert_eq!(cols.len(), model.num_vars(), "column keys are unique");
        for c in model.constraint_ids() {
            let row = RowKey::unpack(model.constraint_key(c)).unwrap();
            for (v, coef) in model.constraint_terms(c) {
                let col = cols.get_mut(&model.var_key(v)).unwrap();
                col.1.push((row, coef.to_bits()));
            }
        }
        cols
    }

    #[test]
    fn grown_master_equals_the_full_model_column_for_column() {
        // Every row family: data and input-less jobs, copies, the fake
        // node, read budgets, two pool floors and a revoked machine.
        let mut cluster = ec2_20_node(0.5, 100_000.0);
        cluster.machines[3].tp_ecu = 0.0;
        let mut jobs = spread_jobs(6);
        jobs.push(LpJob {
            id: JobId(40),
            data: None,
            size_mb: 0.0,
            tcp: 0.0,
            fixed_ecu: 500.0,
            avail: vec![],
        });
        let mut inst = base_inst(&cluster, jobs);
        inst.fake_cost = Some(1.0);
        inst.enforce_transfer_time = true;
        inst.duration = 600.0;
        inst.pool_floors = vec![(vec![0, 2, 4, 6], 1_000.0), (vec![1, 3, 5], 500.0)];
        let space = arc_space(&inst);
        let seed = seed_active(&space, 2, None);
        assert!(seed.contains(&false), "the seed must exclude arcs");

        let (mut grown, mut maps, rows) = build_filtered(&inst, &space, Some(&seed));
        let mut scratch = Vec::new();
        for i in (0..space.arcs.len()).filter(|&i| !seed[i]) {
            add_arc(&inst, &space, &rows, &mut grown, &mut maps, &mut scratch, i);
        }
        let (full, _, _) = build_filtered(&inst, &space, None);

        let row_shapes = |m: &Model| -> Vec<(RowKey, Cmp, u64)> {
            m.constraint_ids()
                .map(|c| {
                    let key = RowKey::unpack(m.constraint_key(c)).unwrap();
                    (key, m.constraint_cmp(c), m.constraint_rhs(c).to_bits())
                })
                .collect()
        };
        assert_eq!(row_shapes(&grown), row_shapes(&full));
        assert!(row_shapes(&full)
            .iter()
            .any(|(k, _, _)| matches!(k, RowKey::Pool { pool: 1 })));
        let (grown, full) = (columns(&grown), columns(&full));
        assert_eq!(grown.len(), full.len());
        for (key, col) in &full {
            assert_eq!(grown.get(key), Some(col), "column {}", render_col(*key));
        }
    }

    #[test]
    fn colgen_state_reuse_matches_cold_colgen() {
        // Epoch 2 perturbs epoch 1 (one job's work drifts); reusing the
        // surviving column set + basis must land on the same optimum the
        // full model finds.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let opts = ColGenOptions::default();
        let inst1 = base_inst(&cluster, spread_jobs(6));
        let e1 = solve_master(&inst1, None, &opts).unwrap();
        let (state1, _) = e1.master.expect("a master reports its state");
        let space1 = arc_space(&inst1);
        assert!(space1.arcs.iter().any(|a| carried_arc(&state1, a.key)));

        let mut jobs2 = spread_jobs(6);
        jobs2[3].tcp *= 1.5;
        let inst2 = base_inst(&cluster, jobs2);
        let full2 = solve(&inst2).unwrap();
        let e2 = solve_master(&inst2, Some(&state1), &opts).unwrap();
        let cert = &e2.certificate;
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
        };
        let out = solve_master(&inst, None, &opts).unwrap();
        let cert = &out.certificate;
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
        let direct = solve_full(&inst).unwrap().shadow_prices;
        let cg = solve_master(&inst, None, &ColGenOptions::default())
            .unwrap()
            .shadow_prices;
        for ((m1, p1), (m2, p2)) in direct.iter().zip(cg.iter()) {
            assert_eq!(m1, m2);
            assert!((p1 - p2).abs() < 1e-6, "machine {m1:?}: {p1} vs {p2}");
        }
    }

    #[test]
    fn repeated_solves_are_bitwise_identical() {
        // The determinism contract, end to end, on both solve paths: two
        // runs of build, colgen pricing, and certification must produce
        // bitwise-identical reports — objective, schedule, shadow prices,
        // chosen columns, certificate residuals, everything.
        let cluster = ec2_20_node(0.5, 100_000.0);
        let mut inst = base_inst(&cluster, spread_jobs(8));
        inst.fake_cost = Some(1.0);
        let opts = ColGenOptions {
            seed_arcs_per_job: 2,
        };
        let bits = |v: &[(MachineId, f64)]| -> Vec<(MachineId, u64)> {
            v.iter().map(|&(m, p)| (m, p.to_bits())).collect()
        };
        let cert_bits = |c: &RestrictedCertificate| -> Vec<u64> {
            let m = &c.master;
            let mut out: Vec<u64> = [
                m.primal_objective,
                m.dual_objective,
                m.duality_gap,
                m.max_primal_violation,
                m.max_dual_violation,
                m.max_slackness_violation,
                m.objective_mismatch,
                m.primal_scale,
                m.gap_scale,
                c.max_excluded_violation,
            ]
            .iter()
            .map(|x| x.to_bits())
            .collect();
            out.extend(c.worst_excluded);
            out.push(c.excluded_priced as u64);
            out
        };
        for path in ["master", "full"] {
            let run = || {
                if path == "master" {
                    solve_master(&inst, None, &opts).unwrap()
                } else {
                    solve_full(&inst).unwrap()
                }
            };
            let base = run();
            let other = run();
            let at = path;
            assert_eq!(
                base.schedule.lp_objective.to_bits(),
                other.schedule.lp_objective.to_bits(),
                "{at}"
            );
            assert_eq!(
                base.schedule.assignments, other.schedule.assignments,
                "{at}"
            );
            assert_eq!(base.schedule.moves, other.schedule.moves, "{at}");
            assert_eq!(
                bits(&base.shadow_prices),
                bits(&other.shadow_prices),
                "{at}"
            );
            assert_eq!(
                cert_bits(&base.certificate),
                cert_bits(&other.certificate),
                "{at}"
            );
            assert_eq!(base.master.is_some(), other.master.is_some(), "{at}");
            if let (Some((state_a, stats_a)), Some((state_b, stats_b))) =
                (&base.master, &other.master)
            {
                assert_eq!(state_a, state_b, "{at}");
                assert_eq!(stats_a.active_columns, stats_b.active_columns);
                assert_eq!(stats_a.appended, stats_b.appended);
                assert_eq!(stats_a.rounds, stats_b.rounds);
                // The next epoch, seeded from each run's carry, solves
                // the same way too.
                let next_a = solve_master(&inst, Some(state_a), &opts).unwrap();
                let next_b = solve_master(&inst, Some(state_b), &opts).unwrap();
                assert_eq!(
                    next_a.schedule.lp_objective.to_bits(),
                    next_b.schedule.lp_objective.to_bits(),
                    "{at}"
                );
                assert_eq!(
                    cert_bits(&next_a.certificate),
                    cert_bits(&next_b.certificate),
                    "{at}"
                );
                let carried = |r: &SolveReport| r.master.as_ref().map(|(s, _)| s.clone());
                assert_eq!(carried(&next_a), carried(&next_b), "{at}");
            }
        }
    }

    /// Whether `basis` carries the task arc `key` into the next master's
    /// seed: `Basic` or `AtUpper`.
    fn carried_arc(basis: &WarmStart, key: u64) -> bool {
        matches!(
            basis.var(key),
            Some(BasisStatus::Basic | BasisStatus::AtUpper)
        )
    }

    #[test]
    fn the_carried_basis_is_the_next_seed() {
        // A 3-epoch master chain on a drifting queue, the busiest machine
        // revoked before the third epoch. Each epoch's carry must hold
        // every assigned arc as `Basic` or `AtUpper`, and the next epoch's
        // seed must be exactly each job's cheapest arcs plus those arcs.
        let opts = ColGenOptions::default();
        let per_job = opts.seed_arcs_per_job;
        let mut cluster = lips_cluster::ec2_mixed_cluster(8, 0.4, 1e9, 3);
        let mut carry: Option<WarmStart> = None;
        let mut load: BTreeMap<MachineId, f64> = BTreeMap::new();
        let mut revoked = None;
        for e in 0..3 {
            if e == 2 {
                let (&dead, _) = load
                    .iter()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("some work was scheduled");
                cluster.machines[dead.0].tp_ecu = 0.0;
                revoked = Some(dead);
            }
            let mut inst = spread_inst(&cluster);
            for j in &mut inst.jobs {
                j.size_mb *= 1.0 + 0.25 * f64::from(e);
            }
            let space = arc_space(&inst);

            // The seed this epoch opens on, from the previous carry.
            let seed = seed_active(&space, per_job, carry.as_ref());
            let mut cheapest = vec![false; space.arcs.len()];
            for job_arcs in &space.jobs {
                let mut order: Vec<usize> = job_arcs.clone().collect();
                order.sort_by(|&a, &b| {
                    let (x, y) = (&space.arcs[a], &space.arcs[b]);
                    x.cost.total_cmp(&y.cost).then_with(|| name_order(x, y))
                });
                for &i in order.iter().take(per_job) {
                    cheapest[i] = true;
                }
            }
            let mut from_carry = 0;
            for (i, a) in space.arcs.iter().enumerate() {
                let carried = carry.as_ref().is_some_and(|b| carried_arc(b, a.key));
                from_carry += usize::from(carried && !cheapest[i]);
                assert_eq!(seed[i], cheapest[i] || carried, "epoch {e}");
                assert!(revoked.is_none_or(|d| a.l != d), "epoch {e}");
            }
            if e > 0 {
                assert!(from_carry > 0, "epoch {e}: the carry seeded nothing new");
            }

            let mut report = solve_master(&inst, carry.as_ref(), &opts).unwrap();
            assert!(report.certificate.is_optimal(), "epoch {e}");
            let basis = report.take_carry().expect("a master carries its basis");
            assert!(!report.schedule.assignments.is_empty());
            load.clear();
            for &(job, machine, store, frac) in &report.schedule.assignments {
                let key = ColKey::Task {
                    job,
                    machine,
                    store,
                }
                .pack();
                assert!(carried_arc(&basis, key), "epoch {e}: {key:x}");
                *load.entry(machine).or_default() += frac;
            }
            carry = Some(basis);
        }
    }

    fn task(job: usize, machine: usize, store: Option<usize>) -> u64 {
        ColKey::Task {
            job: JobId(job),
            machine: MachineId(machine),
            store: store.map(StoreId),
        }
        .pack()
    }

    #[test]
    fn revoked_machine_gets_no_columns_or_capacity() {
        // Kill the cheap node: everything must land on the survivor even
        // though it is more expensive, and a carried basis naming the dead
        // machine must not resurrect it.
        let mut cluster = two_node();
        cluster.machines[1].tp_ecu = 0.0;
        let inst = base_inst(&cluster, vec![one_job(1024.0, 5.0, StoreId(0))]);
        let mut report = solve_master(&inst, None, &ColGenOptions::default()).unwrap();
        assert!(report
            .schedule
            .assignments
            .iter()
            .all(|&(_, l, _, _)| l == MachineId(0)));
        // The surviving model has no basis entries touching machine 1.
        let basis = report.take_carry().expect("a master carries state");
        assert_eq!(basis.var(task(0, 1, Some(0))), None);
        assert_eq!(
            basis.row(
                RowKey::Cpu {
                    machine: MachineId(1)
                }
                .pack()
            ),
            None
        );
        assert!(basis.var(task(0, 0, Some(0))).is_some());
    }

    /// Six jobs over `cluster`'s stores, CPU-bound enough to spread over
    /// several machines in a 600 s epoch.
    fn spread_inst(cluster: &Cluster) -> LpInstance<'_> {
        let stores = cluster.num_stores();
        let jobs = (0..6)
            .map(|k| LpJob {
                id: JobId(k),
                data: Some(DataId(k)),
                size_mb: 512.0 + 256.0 * (k % 3) as f64,
                tcp: 1.0 + 0.5 * k as f64,
                fixed_ecu: 0.0,
                avail: vec![(StoreId(k % stores), 1.0)],
            })
            .collect();
        LpInstance {
            duration: 600.0,
            fake_cost: Some(1.0),
            enforce_transfer_time: true,
            ..base_inst(cluster, jobs)
        }
    }

    #[test]
    fn a_carry_naming_a_revoked_machine_solves_as_one_filtered_by_hand() {
        let opts = ColGenOptions::default();
        let mut cluster = lips_cluster::ec2_mixed_cluster(8, 0.4, 1e9, 3);
        let first = spread_inst(&cluster);
        let mut report = solve_master(&first, None, &opts).unwrap();
        let raw = report.take_carry().expect("a master carries state");
        // Revoke the machine that ran the most work.
        let mut load: BTreeMap<MachineId, f64> = BTreeMap::new();
        for &(_, l, _, f) in &report.schedule.assignments {
            *load.entry(l).or_default() += f;
        }
        let dead = *load
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("some work was scheduled")
            .0;
        // Every key the first epoch's model could carry.
        let (full, _, _) = build_filtered(&first, &arc_space(&first), None);
        cluster.machines[dead.0].tp_ecu = 0.0;

        let dead_col = |k: u64| {
            matches!(
                ColKey::unpack(k),
                Some(ColKey::Task { machine, .. }) if machine == dead
            )
        };
        let dead_row = |k: u64| {
            matches!(
                RowKey::unpack(k),
                Some(RowKey::Cpu { machine } | RowKey::Xfer { machine }) if machine == dead
            )
        };
        let mut filtered = WarmStart::new();
        let mut dropped = 0;
        for key in full.var_ids().map(|v| full.var_key(v)) {
            match raw.var(key) {
                Some(_) if dead_col(key) => dropped += 1,
                Some(st) => filtered.set_var(key, st),
                None => {}
            }
        }
        for key in full.constraint_ids().map(|c| full.constraint_key(c)) {
            match raw.row(key) {
                Some(_) if dead_row(key) => dropped += 1,
                Some(st) => filtered.set_row(key, st),
                None => {}
            }
        }
        // The copy saw every carried entry, and the carry did name the
        // revoked machine, down to arcs it would seed.
        assert_eq!(filtered.len() + dropped, raw.len());
        assert!(dropped > 0);
        assert!(full
            .var_ids()
            .map(|v| full.var_key(v))
            .any(|k| dead_col(k) && carried_arc(&raw, k)));

        let second = spread_inst(&cluster);
        let a = solve_master(&second, Some(&raw), &opts).unwrap();
        let b = solve_master(&second, Some(&filtered), &opts).unwrap();
        let work = |r: &SolveReport| {
            let s = r.schedule.stats;
            let (_, cg) = r.master.as_ref().expect("a master carries state");
            (
                r.schedule.lp_objective.to_bits(),
                (
                    s.iterations,
                    s.phase1_iterations,
                    s.dual_pivots,
                    s.bound_flips,
                ),
                (s.refactors, s.warm, s.declined),
                (cg.rounds, cg.appended, cg.active_columns),
            )
        };
        assert_eq!(work(&a), work(&b));
        assert_eq!(a.schedule.stats.warm, lips_lp::WarmOutcome::Dual);
        let bits = |s: &FractionalSchedule| {
            let assignments: Vec<_> = s
                .assignments
                .iter()
                .map(|&(k, l, m, f)| (k, l, m, f.to_bits()))
                .collect();
            let moves: Vec<_> = s
                .moves
                .iter()
                .map(|&(d, from, to, mb)| (d, from, to, mb.to_bits()))
                .collect();
            let deferred: Vec<_> = s.deferred.iter().map(|(&k, f)| (k, f.to_bits())).collect();
            (assignments, moves, deferred)
        };
        assert_eq!(bits(&a.schedule), bits(&b.schedule));
        assert!(a.schedule.assignments.iter().all(|&(_, l, _, _)| l != dead));
    }

    #[test]
    fn name_order_matches_the_order_of_formatted_names() {
        let ids = [0, 1, 2, 9, 10, 11, 19, 100, 1000];
        let mut arcs = Vec::new();
        for &l in &ids {
            arcs.push((MachineId(l), None));
            for &m in &ids {
                arcs.push((MachineId(l), Some(StoreId(m))));
            }
        }
        let arcs: Vec<ArcCand> = arcs
            .into_iter()
            .map(|(l, m)| ArcCand {
                k: 0,
                l,
                m,
                si: 0,
                key: task(42, l.0, m.map(|s| s.0)),
                cost: 1.0,
            })
            .collect();
        let name = |a: &ArcCand| ColKey::unpack(a.key).unwrap().to_string();
        for a in &arcs {
            for b in &arcs {
                assert_eq!(
                    name_order(a, b),
                    name(a).cmp(&name(b)),
                    "{} vs {}",
                    name(a),
                    name(b)
                );
            }
        }
    }

    #[test]
    fn model_diagnostics_render_the_historical_names() {
        let cluster = two_node();
        let mut inst = base_inst(&cluster, vec![one_job(1024.0, 5.0, StoreId(0))]);
        inst.fake_cost = Some(1.0);
        let (model, _) = build_audited(&inst);
        let vars: Vec<String> = model
            .var_ids()
            .map(|v| model.var_name(v).into_owned())
            .collect();
        assert!(vars.contains(&"xt_0_1_0".to_string()), "{vars:?}");
        assert!(vars.contains(&"fake_0".to_string()), "{vars:?}");
        let rows: Vec<String> = model
            .constraint_ids()
            .map(|c| model.constraint_name(c).into_owned())
            .collect();
        for name in ["cov_0", "lnk_0_0", "cpu_0", "cpu_1"] {
            assert!(
                rows.contains(&name.to_string()),
                "{name} missing from {rows:?}"
            );
        }
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
        let report = solve_full(&inst).unwrap();
        let deferred = report.schedule.deferred.get(&JobId(0)).copied().unwrap();
        assert!(deferred > 1.0 - 1e-6, "deferred {deferred}");
        assert!(report.schedule.moves.is_empty());
    }

    #[test]
    fn job_without_a_data_id_plans_no_copy() {
        // Holders but no `DataId`: a copy would have nothing to name, so the
        // model plans none. The holder's own machine is revoked and the
        // survivor's read budget caps remote reads well short of the job, so
        // with a `DataId` the LP would copy the rest; without one the rest
        // is deferred.
        let mut cluster = two_node();
        cluster.machines[0].tp_ecu = 0.0;
        cluster.machines[1].tp_ecu = 1e6;
        let mut job = one_job(10.0 * 1024.0, 5.0, StoreId(0));
        job.data = None;
        let mut inst = base_inst(&cluster, vec![job]);
        inst.enforce_transfer_time = true;
        inst.duration = 60.0;
        inst.fake_cost = Some(1.0);
        let report = solve_full(&inst).unwrap();
        assert!(report.schedule.moves.is_empty());
        let deferred = report.schedule.deferred[&JobId(0)];
        assert!(deferred > 0.5, "deferred {deferred}");
        let with_data = base_inst(&cluster, vec![one_job(10.0 * 1024.0, 5.0, StoreId(0))]);
        let with_data = LpInstance {
            enforce_transfer_time: true,
            duration: 60.0,
            fake_cost: Some(1.0),
            ..with_data
        };
        let moved = solve_full(&with_data).unwrap().schedule.moves;
        assert!(!moved.is_empty(), "a copy must be optimal with a DataId");
    }
}
