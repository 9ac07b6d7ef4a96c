//! Paper-invariant audit: structural checks tying a generated LP back to
//! the Fig 2/3/4 formulations of the paper.
//!
//! Every column and row [`crate::lp_build`] emits carries a typed key
//! ([`ColKey`], [`RowKey`]) — the identity warm starts and the
//! cross-epoch carry match by. This pass classifies the model by
//! unpacking those keys, checks it against [`PaperExpectations`]
//! recomputed from the instance, and verifies:
//!
//! * every column and row key unpacks: a key that does not names nothing
//!   in the paper's model;
//! * every job has exactly one coverage row `Σ x^t + f_k ≥ 1` (eq. 20)
//!   spanning all of the job's assignment variables;
//! * every (job, store) pair with assignment variables has the linking
//!   row `Σ_l x^t_klm − Σ n_km ≤ avail_km` (eq. 24);
//! * capacity rows match the cluster matrices: CPU rows carry each job's
//!   work as the coefficient and the machine's ECU-second capacity as the
//!   rhs (eq. 23), transfer rows carry `Size/B` coefficients (eq. 21),
//!   store rows carry `Size` coefficients against free MB (eq. 22);
//! * the fake node's column has unbounded capacity — it appears in *no*
//!   capacity row, only in its coverage row — and its price strictly
//!   dominates every real assignment of the same job.
//!
//! Violations are reported as [`Lint`]s with [`Rule::PaperInvariant`].

use std::collections::{BTreeMap, BTreeSet};

use lips_audit::{Lint, Rule, Severity};
use lips_cluster::{MachineId, StoreId};
use lips_lp::{Cmp, ConstraintId, Model, VarId};
use lips_workload::JobId;

use crate::lp_build::{ColKey, LpInstance, RowKey};

/// Relative tolerance when comparing the model's coefficients/rhs against
/// the values recomputed from the expectations.
const MATCH_RTOL: f64 = 1e-9;

/// Ground truth recomputed from the instance/cluster, against which the
/// generated model is checked.
#[derive(Debug, Clone, Default)]
pub struct PaperExpectations {
    /// `work_ecu()` per job — the expected CPU-row coefficient. One entry
    /// per job of the instance, each of which needs a coverage row.
    pub job_work_ecu: Vec<(JobId, f64)>,
    /// `size_mb` per job — the expected store-row coefficient.
    pub job_size_mb: Vec<(JobId, f64)>,
    /// Expected rhs of each machine's CPU-capacity row
    /// (`TP_l · duration`).
    pub cpu_capacity: Vec<(MachineId, f64)>,
    /// Expected rhs of each machine's transfer-time row
    /// (`duration · slots`); empty when eq. 21 is disabled.
    pub transfer_budget: Vec<(MachineId, f64)>,
    /// Expected `(machine, store) → bandwidth MB/s` used by eq. 21
    /// coefficients.
    pub bandwidth: Vec<((MachineId, StoreId), f64)>,
    /// Expected rhs of each store's capacity row (free MB).
    pub store_free_mb: Vec<(StoreId, f64)>,
    /// Whether the fake node is enabled (Fig 4).
    pub fake_enabled: bool,
}

impl PaperExpectations {
    /// The expectations of `inst`, recomputed from the instance
    /// independently of the builder's emission logic (both read the same
    /// cluster, but through different code paths).
    pub fn of(inst: &LpInstance<'_>) -> Self {
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
            job_work_ecu: inst.jobs.iter().map(|j| (j.id, j.work_ecu())).collect(),
            job_size_mb: inst.jobs.iter().map(|j| (j.id, j.size_mb)).collect(),
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
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= MATCH_RTOL * (1.0 + a.abs().max(b.abs()))
}

fn err(location: String, detail: String) -> Lint {
    Lint {
        rule: Rule::PaperInvariant,
        severity: Severity::Error,
        location,
        detail,
    }
}

/// Check the generated `model` against the paper's structure.
///
/// Returns one [`Lint`] per violated invariant; an empty vector means the
/// model is structurally exactly what Figs 2/3/4 prescribe.
pub fn audit_paper_invariants(model: &Model, expect: &PaperExpectations) -> Vec<Lint> {
    let mut out = Vec::new();

    // Classify every column and row by its key.
    let mut cols: Vec<Option<ColKey>> = Vec::with_capacity(model.num_vars());
    for v in model.var_ids() {
        let key = model.var_key(v);
        let col = ColKey::unpack(key);
        if col.is_none() {
            out.push(err(
                format!("var {}", model.var_name(v)),
                format!("column key {key:#018x} is no epoch-LP column key"),
            ));
        }
        cols.push(col);
    }
    let mut rows: Vec<(ConstraintId, RowKey)> = Vec::with_capacity(model.num_constraints());
    for c in model.constraint_ids() {
        let key = model.constraint_key(c);
        match RowKey::unpack(key) {
            Some(row) => rows.push((c, row)),
            None => out.push(err(
                format!("row {}", c.index()),
                format!("row key {key:#018x} is no epoch-LP row key"),
            )),
        }
    }

    // Partition the columns by job.
    let mut assigns_of_job: BTreeMap<JobId, Vec<VarId>> = BTreeMap::new();
    let mut fake_of_job: BTreeMap<JobId, VarId> = BTreeMap::new();
    let mut stores_of_job: BTreeMap<JobId, BTreeSet<StoreId>> = BTreeMap::new();
    for (v, col) in model.var_ids().zip(&cols) {
        match *col {
            Some(ColKey::Task { job, store, .. }) => {
                assigns_of_job.entry(job).or_default().push(v);
                if let Some(s) = store {
                    stores_of_job.entry(job).or_default().insert(s);
                }
            }
            Some(ColKey::Fake { job }) => {
                fake_of_job.insert(job, v);
            }
            Some(ColKey::Nd { .. }) | None => {}
        }
    }
    let col_of = |v: VarId| cols[v.index()];

    // --- eq. 20: coverage ----------------------------------------------
    let mut coverage_of_job: BTreeMap<JobId, ConstraintId> = BTreeMap::new();
    for &(c, row) in &rows {
        if let RowKey::Cov { job } = row {
            if coverage_of_job.insert(job, c).is_some() {
                out.push(err(
                    format!("row {}", c.index()),
                    format!("job {} has more than one coverage row (eq. 20)", job.0),
                ));
            }
        }
    }
    for &(job, _) in &expect.job_work_ecu {
        let Some(&c) = coverage_of_job.get(&job) else {
            out.push(err(
                format!("job {}", job.0),
                "no coverage row: nothing forces the job to be scheduled (eq. 20)".into(),
            ));
            continue;
        };
        if model.constraint_cmp(c) != Cmp::Ge || !close(model.constraint_rhs(c), 1.0) {
            out.push(err(
                format!("row {}", c.index()),
                format!(
                    "coverage row must read `Σ x^t + f ≥ 1`, found {:?} {}",
                    model.constraint_cmp(c),
                    model.constraint_rhs(c)
                ),
            ));
        }
        // The row must span exactly the job's assignment vars (+ fake).
        let mut expected: Vec<usize> = assigns_of_job
            .get(&job)
            .map(|v| v.iter().map(|x| x.index()).collect())
            .unwrap_or_default();
        if let Some(&f) = fake_of_job.get(&job) {
            expected.push(f.index());
        }
        expected.sort_unstable();
        let mut actual: Vec<usize> = Vec::new();
        for (v, coef) in model.constraint_terms(c) {
            if !close(coef, 1.0) {
                out.push(err(
                    format!("row {}", c.index()),
                    format!(
                        "coverage coefficient of {} is {coef}, expected 1",
                        model.var_name(v)
                    ),
                ));
            }
            actual.push(v.index());
        }
        actual.sort_unstable();
        if actual != expected {
            out.push(err(
                format!("row {}", c.index()),
                format!(
                    "coverage row covers columns {actual:?} but job {} owns \
                     {expected:?} (every x^t and f must appear exactly once)",
                    job.0
                ),
            ));
        }
    }

    // --- eq. 24: linking -----------------------------------------------
    let mut linking_of: BTreeMap<(JobId, StoreId), ConstraintId> = BTreeMap::new();
    for &(c, row) in &rows {
        if let RowKey::Lnk { job, store } = row {
            linking_of.insert((job, store), c);
        }
    }
    for (&job, stores) in &stores_of_job {
        for &store in stores {
            let Some(&c) = linking_of.get(&(job, store)) else {
                out.push(err(
                    format!("job {}", job.0),
                    format!(
                        "no linking row for store {store:?}: tasks could read data \
                         that is not there (eq. 24)"
                    ),
                ));
                continue;
            };
            if model.constraint_cmp(c) != Cmp::Le {
                out.push(err(
                    format!("row {}", c.index()),
                    "linking row must be a ≤ constraint (eq. 24)".into(),
                ));
            }
            let rhs = model.constraint_rhs(c);
            if !(0.0..=1.0).contains(&rhs) {
                out.push(err(
                    format!("row {}", c.index()),
                    format!("linking rhs {rhs} is not an availability fraction in [0, 1]"),
                ));
            }
            for (v, coef) in model.constraint_terms(c) {
                let ok = match col_of(v) {
                    Some(ColKey::Task {
                        job: j, store: s, ..
                    }) => j == job && s == Some(store) && close(coef, 1.0),
                    Some(ColKey::Nd { job: j, dest, .. }) => {
                        j == job && dest == store && close(coef, -1.0)
                    }
                    _ => false,
                };
                if !ok {
                    out.push(err(
                        format!("row {}", c.index()),
                        format!(
                            "linking row for job {}/store {store:?} contains \
                             foreign or mis-signed term {} ({coef})",
                            job.0,
                            model.var_name(v)
                        ),
                    ));
                }
            }
        }
    }

    // --- eqs. 23/21/22: capacity rows match the cluster matrices ---------
    let work: BTreeMap<JobId, f64> = expect.job_work_ecu.iter().copied().collect();
    let size: BTreeMap<JobId, f64> = expect.job_size_mb.iter().copied().collect();
    let cpu_rhs: BTreeMap<MachineId, f64> = expect.cpu_capacity.iter().copied().collect();
    let transfer_rhs: BTreeMap<MachineId, f64> = expect.transfer_budget.iter().copied().collect();
    let bw: BTreeMap<(MachineId, StoreId), f64> = expect.bandwidth.iter().copied().collect();
    let store_rhs: BTreeMap<StoreId, f64> = expect.store_free_mb.iter().copied().collect();

    for &(c, row) in &rows {
        match row {
            RowKey::Cpu { machine } => {
                match cpu_rhs.get(&machine) {
                    Some(&cap) if close(model.constraint_rhs(c), cap) => {}
                    Some(&cap) => out.push(err(
                        format!("row {}", c.index()),
                        format!(
                            "CPU capacity of {machine:?} is {} but the cluster \
                             matrix says {cap} (eq. 23)",
                            model.constraint_rhs(c)
                        ),
                    )),
                    None => out.push(err(
                        format!("row {}", c.index()),
                        format!("CPU row for {machine:?} not in the cluster's machine set"),
                    )),
                }
                for (v, coef) in model.constraint_terms(c) {
                    let ok = match col_of(v) {
                        Some(ColKey::Task {
                            job, machine: m, ..
                        }) => m == machine && work.get(&job).is_some_and(|&w| close(coef, w)),
                        _ => false,
                    };
                    if !ok {
                        out.push(err(
                            format!("row {}", c.index()),
                            format!(
                                "CPU row of {machine:?}: term {} ({coef}) does not \
                                 equal the job's work_ecu on this machine (eq. 23)",
                                model.var_name(v)
                            ),
                        ));
                    }
                }
            }
            RowKey::Xfer { machine } => {
                match transfer_rhs.get(&machine) {
                    Some(&budget) if close(model.constraint_rhs(c), budget) => {}
                    _ => out.push(err(
                        format!("row {}", c.index()),
                        format!(
                            "transfer budget of {machine:?} is {} but expected \
                             duration·slots from the cluster (eq. 21)",
                            model.constraint_rhs(c)
                        ),
                    )),
                }
                for (v, coef) in model.constraint_terms(c) {
                    let ok = match col_of(v) {
                        Some(ColKey::Task {
                            job,
                            machine: m,
                            store: Some(s),
                        }) => {
                            m == machine
                                && bw.get(&(machine, s)).is_some_and(|&b| {
                                    size.get(&job).is_some_and(|&mb| close(coef, mb / b))
                                })
                        }
                        _ => false,
                    };
                    if !ok {
                        out.push(err(
                            format!("row {}", c.index()),
                            format!(
                                "transfer row of {machine:?}: term {} ({coef}) does \
                                 not equal Size/B from the bandwidth matrix (eq. 21)",
                                model.var_name(v)
                            ),
                        ));
                    }
                }
            }
            RowKey::Store { store } => {
                match store_rhs.get(&store) {
                    Some(&free) if close(model.constraint_rhs(c), free) => {}
                    _ => out.push(err(
                        format!("row {}", c.index()),
                        format!(
                            "store capacity of {store:?} is {} but the cluster \
                             says otherwise (eq. 22)",
                            model.constraint_rhs(c)
                        ),
                    )),
                }
                for (v, coef) in model.constraint_terms(c) {
                    let ok = match col_of(v) {
                        Some(ColKey::Nd { job, dest, .. }) => {
                            dest == store && size.get(&job).is_some_and(|&mb| close(coef, mb))
                        }
                        _ => false,
                    };
                    if !ok {
                        out.push(err(
                            format!("row {}", c.index()),
                            format!(
                                "store row of {store:?}: term {} ({coef}) is not a \
                                 new-copy variable scaled by Size (eq. 22)",
                                model.var_name(v)
                            ),
                        ));
                    }
                }
            }
            RowKey::Cov { .. } | RowKey::Lnk { .. } | RowKey::Pool { .. } => {}
        }
    }

    // --- fake node -------------------------------------------------------
    if expect.fake_enabled {
        // Column membership: which rows touch each fake var.
        let mut rows_touching: BTreeMap<usize, Vec<ConstraintId>> = BTreeMap::new();
        for c in model.constraint_ids() {
            for (v, coef) in model.constraint_terms(c) {
                if coef != 0.0 {
                    rows_touching.entry(v.index()).or_default().push(c);
                }
            }
        }
        for &(job, _) in &expect.job_work_ecu {
            let Some(&f) = fake_of_job.get(&job) else {
                out.push(err(
                    format!("job {}", job.0),
                    "fake node enabled but the job has no fake column".into(),
                ));
                continue;
            };
            // Unbounded capacity: the fake column must appear in the
            // coverage row only — no capacity row may constrain it.
            let touching = rows_touching.get(&f.index()).cloned().unwrap_or_default();
            let coverage = coverage_of_job.get(&job).copied();
            if touching.len() != 1 || coverage != Some(touching[0]) {
                out.push(err(
                    format!("var {}", model.var_name(f)),
                    format!(
                        "fake column must appear only in job {}'s coverage row \
                         (unbounded capacity), but touches rows {:?}",
                        job.0,
                        touching.iter().map(|c| c.index()).collect::<Vec<_>>()
                    ),
                ));
            }
            // Price domination: deferring must never be cheaper than any
            // real assignment.
            let fake_price = model.var_obj(f);
            for &v in assigns_of_job.get(&job).map_or(&[][..], Vec::as_slice) {
                if fake_price <= model.var_obj(v) {
                    out.push(err(
                        format!("var {}", model.var_name(f)),
                        format!(
                            "fake price {fake_price} does not strictly dominate \
                             real assignment {} ({})",
                            model.var_name(v),
                            model.var_obj(v)
                        ),
                    ));
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const J0: JobId = JobId(0);

    fn task(machine: MachineId, store: Option<StoreId>) -> u64 {
        ColKey::Task {
            job: J0,
            machine,
            store,
        }
        .pack()
    }

    /// Add a row keyed `key`.
    fn keyed_row(
        model: &mut Model,
        terms: Vec<(VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
        key: RowKey,
    ) -> ConstraintId {
        let c = model.add_constraint(terms, cmp, rhs);
        model.key_constraint(c, key.pack());
        c
    }

    /// Hand-build a minimal, correct Fig-4-shaped model: one job, two
    /// machines (each with a co-located store), data on store 0, fake node
    /// enabled. Rows: coverage, linking (store 0), linking (store 1), CPU
    /// (machine 0), CPU (machine 1), store capacity (store 1).
    struct Tiny {
        model: Model,
        expect: PaperExpectations,
    }

    fn tiny() -> Tiny {
        let mut model = Model::minimize();
        let m0 = MachineId(0);
        let m1 = MachineId(1);
        let s0 = StoreId(0);
        let s1 = StoreId(1);
        let work = 100.0;
        let size = 64.0;

        // Assignment vars for every (machine, store) pair.
        let mut assigns = Vec::new();
        for (l, s) in [(m0, s0), (m0, s1), (m1, s0), (m1, s1)] {
            let v = model.add_keyed_var(task(l, Some(s)), 0.0, 1.0, 1.0 + l.0 as f64);
            assigns.push((l, s, v));
        }
        // One new-copy var to store 1.
        let nd_key = ColKey::Nd {
            job: J0,
            dest: s1,
            class: 0,
        };
        let nd = model.add_keyed_var(nd_key.pack(), 0.0, 1.0, 0.5);
        // Fake var, priced above everything.
        let fake = model.add_keyed_var(ColKey::Fake { job: J0 }.pack(), 0.0, 1.0, 1e6);

        // (20) coverage.
        let mut cov: Vec<(VarId, f64)> = assigns.iter().map(|&(_, _, v)| (v, 1.0)).collect();
        cov.push((fake, 1.0));
        keyed_row(&mut model, cov, Cmp::Ge, 1.0, RowKey::Cov { job: J0 });

        // (24) linking per store.
        for (s, avail) in [(s0, 1.0), (s1, 0.0)] {
            let mut terms: Vec<(VarId, f64)> = assigns
                .iter()
                .filter(|&&(_, st, _)| st == s)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            if s == s1 {
                terms.push((nd, -1.0));
            }
            let key = RowKey::Lnk { job: J0, store: s };
            keyed_row(&mut model, terms, Cmp::Le, avail, key);
        }

        // (23) CPU capacity per machine.
        for l in [m0, m1] {
            let terms: Vec<(VarId, f64)> = assigns
                .iter()
                .filter(|&&(ml, _, _)| ml == l)
                .map(|&(_, _, v)| (v, work))
                .collect();
            keyed_row(
                &mut model,
                terms,
                Cmp::Le,
                500.0,
                RowKey::Cpu { machine: l },
            );
        }

        // (22) store capacity on the copy destination.
        let key = RowKey::Store { store: s1 };
        keyed_row(&mut model, vec![(nd, size)], Cmp::Le, 1000.0, key);

        let expect = PaperExpectations {
            job_work_ecu: vec![(J0, work)],
            job_size_mb: vec![(J0, size)],
            cpu_capacity: vec![(m0, 500.0), (m1, 500.0)],
            transfer_budget: vec![],
            bandwidth: vec![],
            store_free_mb: vec![(s1, 1000.0)],
            fake_enabled: true,
        };
        Tiny { model, expect }
    }

    /// Re-key row `c` of `t` as `key`.
    fn rekey(t: &mut Tiny, c: usize, key: RowKey) {
        t.model
            .key_constraint(ConstraintId::from_index(c), key.pack());
    }

    fn details(t: &Tiny) -> Vec<String> {
        audit_paper_invariants(&t.model, &t.expect)
            .into_iter()
            .map(|l| l.detail)
            .collect()
    }

    #[test]
    fn correct_model_passes() {
        let t = tiny();
        assert_eq!(details(&t), Vec::<String>::new());
    }

    #[test]
    fn missing_coverage_row_is_caught() {
        let mut t = tiny();
        // Row 0 no longer claims to be job 0's coverage row.
        rekey(&mut t, 0, RowKey::Pool { pool: 0 });
        let d = details(&t);
        assert!(d.iter().any(|s| s.contains("no coverage row")), "{d:?}");
    }

    #[test]
    fn wrong_coverage_sense_is_caught() {
        let mut t = tiny();
        // Key the `≤` linking row of store 0 as the coverage row instead:
        // wrong sense, wrong span.
        rekey(&mut t, 0, RowKey::Pool { pool: 0 });
        rekey(&mut t, 1, RowKey::Cov { job: J0 });
        let found = audit_paper_invariants(&t.model, &t.expect);
        assert!(!found.is_empty());
        assert!(found.iter().all(|l| l.rule == Rule::PaperInvariant));
        assert!(
            found
                .iter()
                .any(|l| l.detail.contains("coverage row must read")),
            "{found:?}"
        );
    }

    #[test]
    fn missing_linking_row_is_caught() {
        let mut t = tiny();
        rekey(&mut t, 2, RowKey::Pool { pool: 0 });
        let d = details(&t);
        assert!(d.iter().any(|s| s.contains("no linking row")), "{d:?}");
    }

    #[test]
    fn wrong_cpu_capacity_is_caught() {
        let mut t = tiny();
        t.expect.cpu_capacity[1].1 = 9999.0; // cluster says 9999, model has 500
        let d = details(&t);
        assert!(d.iter().any(|s| s.contains("eq. 23")), "{d:?}");
    }

    #[test]
    fn wrong_store_capacity_is_caught() {
        let mut t = tiny();
        t.expect.store_free_mb[0].1 = 1.0;
        let d = details(&t);
        assert!(d.iter().any(|s| s.contains("eq. 22")), "{d:?}");
    }

    #[test]
    fn fake_price_must_dominate() {
        let mut model = Model::minimize();
        let v = model.add_keyed_var(task(MachineId(0), None), 0.0, 1.0, 10.0);
        // Cheaper than the real assignment!
        let f = model.add_keyed_var(ColKey::Fake { job: J0 }.pack(), 0.0, 1.0, 1.0);
        let cov = vec![(v, 1.0), (f, 1.0)];
        keyed_row(&mut model, cov, Cmp::Ge, 1.0, RowKey::Cov { job: J0 });
        let expect = PaperExpectations {
            job_work_ecu: vec![(J0, 1.0)],
            job_size_mb: vec![(J0, 0.0)],
            fake_enabled: true,
            ..PaperExpectations::default()
        };
        let found = audit_paper_invariants(&model, &expect);
        assert!(
            found.iter().any(|l| l.detail.contains("strictly dominate")),
            "{found:?}"
        );
    }

    #[test]
    fn fake_in_capacity_row_is_caught() {
        let t = tiny();
        // Clone the model and add the fake column into a CPU row.
        let mut model = t.model.clone();
        let fake = model
            .var_ids()
            .find(|&v| matches!(ColKey::unpack(model.var_key(v)), Some(ColKey::Fake { .. })))
            .unwrap();
        let cpu = RowKey::Cpu {
            machine: MachineId(0),
        };
        keyed_row(&mut model, vec![(fake, 1.0)], Cmp::Le, 10.0, cpu);
        let found = audit_paper_invariants(&model, &t.expect);
        assert!(
            found
                .iter()
                .any(|l| l.detail.contains("unbounded capacity")),
            "{found:?}"
        );
    }

    #[test]
    fn keys_that_do_not_unpack_are_reported() {
        let mut t = tiny();
        // A fake-node key with stray low bits, and a row never keyed (its
        // key is positional).
        let bad_col = ColKey::Fake { job: J0 }.pack() | 1;
        assert_eq!(ColKey::unpack(bad_col), None);
        t.model.add_keyed_var(bad_col, 0.0, 1.0, 0.0);
        let unkeyed = t.model.add_constraint([], Cmp::Le, 0.0);
        assert_eq!(RowKey::unpack(t.model.constraint_key(unkeyed)), None);
        let found = audit_paper_invariants(&t.model, &t.expect);
        assert!(found.iter().all(|l| l.rule == Rule::PaperInvariant));
        assert!(
            found
                .iter()
                .any(|l| l.detail.contains("no epoch-LP column key")),
            "{found:?}"
        );
        assert!(
            found
                .iter()
                .any(|l| l.detail.contains("no epoch-LP row key")
                    && l.location == format!("row {}", unkeyed.index())),
            "{found:?}"
        );
    }
}
