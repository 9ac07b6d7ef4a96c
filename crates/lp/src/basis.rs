//! Warm-start basis descriptions.
//!
//! The LiPS epoch loop re-solves a structurally near-identical LP every
//! epoch: the same machines, stores, and capacity rows, with a few job
//! columns added or removed and costs drifting as transfers complete. A
//! [`WarmStart`] captures the basis of an optimal solution in a form that
//! survives those edits: statuses are keyed by each variable's and row's
//! `u64` identity, not by position, so the next model can reuse whatever
//! part of the basis still exists; the dual simplex completes the rest with
//! slacks or, past repair, starts from the slack basis.

/// Simplex status of one variable (or of a row's slack) in a basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable (rests at zero).
    Free,
}

/// How a solve actually started (reported in
/// [`crate::solution::SolveStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmOutcome {
    /// From scratch: the primal solver's crash basis (it runs phase 1
    /// where the slacks cannot absorb a row), or the dual solver's slack
    /// basis when no carried basis was given, none of it matched, or it
    /// was declined at seeding or mid-walk.
    #[default]
    Cold,
    /// The bounded dual simplex re-optimized the *carried* warm basis
    /// directly — no phase 1, no artificials (see
    /// [`crate::dual::solve_dual_from_basis`]).
    Dual,
}

/// Why the bounded dual simplex declined a carried basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualDecline {
    /// Fewer than half the rows kept a carried basic: the slack-completed
    /// basis would be mostly guessed slacks.
    UnderFull,
    /// The carried basis did not factorize even after the rank sweep, or
    /// a pivot went singular during the walk.
    Singular,
    /// The walk over cost-shifted columns churned bound flips instead of
    /// converging (or its restricted ratio test ran dry).
    Thrash,
}

impl DualDecline {
    /// The stable schema spelling: `"UnderFull"`, `"Singular"`, `"Thrash"`.
    pub fn as_str(self) -> &'static str {
        match self {
            DualDecline::UnderFull => "UnderFull",
            DualDecline::Singular => "Singular",
            DualDecline::Thrash => "Thrash",
        }
    }
}

/// A carried basis the dual simplex declined, with the pivots it spent on
/// the basis before declining (0 when declined at seeding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeclinedBasis {
    pub reason: DualDecline,
    pub pivots: usize,
}

/// A basis snapshot keyed by opaque `u64` identities, suitable for
/// seeding a later solve of the same or a perturbed model.
///
/// Produced by [`crate::solution::Solution::warm_start`] after every
/// solve; consumed by the dual simplex
/// ([`crate::session::Session::open`]). Every variable and keyed
/// row has a key: the caller's own typed key ([`crate::model::Model::add_keyed_var`],
/// [`crate::model::Model::key_constraint`]) or, for named ones,
/// [`name_key`] of the name. Rows with neither are keyed positionally by
/// [`positional_row_key`], which still round-trips when the constraint
/// list does not change shape.
///
/// Key collisions degrade gracefully: the status of the last variable with
/// a given key wins, and any resulting over- or under-full basis is
/// trimmed / completed with slacks before factorization (with the slack
/// basis as the final fallback), so a warm start can never change the
/// optimum — only the path to it.
///
/// Each side is a vector sorted by key, one entry per key: a lookup is a
/// binary search, and a snapshot of `n` statuses is one allocation of `n`
/// entries, with no tree nodes to allocate or chase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WarmStart {
    vars: Vec<(u64, BasisStatus)>,
    rows: Vec<(u64, BasisStatus)>,
}

/// FNV-1a offset basis and prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The key of a named variable or row: 64-bit FNV-1a over the name's
/// UTF-8 bytes. Fixed forever, so name-keyed warm starts saved by one
/// build match the next.
pub fn name_key(name: &str) -> u64 {
    fnv1a(FNV_OFFSET, name.as_bytes())
}

/// The key of the `i`-th row when it has neither a name nor a key: the
/// [`name_key`] of `"#i"`, computed without allocating.
pub fn positional_row_key(i: usize) -> u64 {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut n = i;
    loop {
        at -= 1;
        // `n % 10 < 10`, so the cast cannot truncate.
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    fnv1a(fnv1a(FNV_OFFSET, b"#"), &digits[at..])
}

impl WarmStart {
    /// An empty warm start (equivalent to passing `None`).
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Build from `(key, status)` pairs; on a repeated key the last pair
    /// wins, as with repeated [`WarmStart::set_var`] calls.
    pub(crate) fn from_entries(
        vars: impl Iterator<Item = (u64, BasisStatus)> + Clone,
        rows: impl Iterator<Item = (u64, BasisStatus)> + Clone,
    ) -> Self {
        WarmStart {
            vars: sorted_last_wins(vars),
            rows: sorted_last_wins(rows),
        }
    }

    /// True if no statuses are recorded.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.rows.is_empty()
    }

    /// Number of recorded statuses (variables + rows).
    pub fn len(&self) -> usize {
        self.vars.len() + self.rows.len()
    }

    /// Record the status of a variable by key.
    pub fn set_var(&mut self, key: u64, status: BasisStatus) {
        set(&mut self.vars, key, status);
    }

    /// Record the status of a row's slack by row key.
    pub fn set_row(&mut self, key: u64, status: BasisStatus) {
        set(&mut self.rows, key, status);
    }

    /// Look up a variable status by key.
    pub fn var(&self, key: u64) -> Option<BasisStatus> {
        get(&self.vars, key)
    }

    /// Look up a row-slack status by row key.
    pub fn row(&self, key: u64) -> Option<BasisStatus> {
        get(&self.rows, key)
    }

    /// Number of variables and rows recorded as [`BasisStatus::Basic`].
    pub fn num_basic(&self) -> usize {
        self.vars
            .iter()
            .chain(&self.rows)
            .filter(|&&(_, s)| s == BasisStatus::Basic)
            .count()
    }
}

/// The status of `key` in a key-sorted side.
fn get(side: &[(u64, BasisStatus)], key: u64) -> Option<BasisStatus> {
    side.binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| side[i].1)
}

/// Record `status` for `key` in a key-sorted side, replacing any earlier
/// status of the same key.
fn set(side: &mut Vec<(u64, BasisStatus)>, key: u64, status: BasisStatus) {
    match side.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => side[i].1 = status,
        Err(i) => side.insert(i, (key, status)),
    }
}

/// `entries` sorted by key, one per key, the last status of a repeated
/// key winning. The entries are collected once and sorted in place (an
/// unstable sort, with no scratch copy). Such a sort keeps an arbitrary
/// one of a repeated key's statuses, so only when a key repeats are the
/// entries walked a second time, in order, each status overwriting the
/// last.
fn sorted_last_wins(
    entries: impl Iterator<Item = (u64, BasisStatus)> + Clone,
) -> Vec<(u64, BasisStatus)> {
    let mut side: Vec<_> = entries.clone().collect();
    side.sort_unstable_by_key(|&(k, _)| k);
    let before = side.len();
    side.dedup_by_key(|&mut (k, _)| k);
    if side.len() < before {
        for (key, status) in entries {
            set(&mut side, key, status);
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn roundtrip_and_counts() {
        let mut ws = WarmStart::new();
        assert!(ws.is_empty());
        ws.set_var(name_key("x"), BasisStatus::Basic);
        ws.set_var(name_key("y"), BasisStatus::AtUpper);
        ws.set_row(name_key("cap"), BasisStatus::Basic);
        ws.set_row(positional_row_key(1), BasisStatus::AtLower);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws.num_basic(), 2);
        assert_eq!(ws.var(name_key("x")), Some(BasisStatus::Basic));
        assert_eq!(ws.var(name_key("z")), None);
        assert_eq!(ws.row(name_key("cap")), Some(BasisStatus::Basic));
        // Re-setting a key overwrites.
        ws.set_var(name_key("x"), BasisStatus::Free);
        assert_eq!(ws.var(name_key("x")), Some(BasisStatus::Free));
        assert_eq!(ws.len(), 4);
    }

    #[test]
    fn from_entries_is_last_wins() {
        let ws = WarmStart::from_entries(
            [(7, BasisStatus::Basic), (7, BasisStatus::AtUpper)].into_iter(),
            [(1, BasisStatus::AtLower)].into_iter(),
        );
        assert_eq!(ws.var(7), Some(BasisStatus::AtUpper));
        assert_eq!(ws.len(), 2);
    }

    /// One step of the oracle test: a mutation of a [`WarmStart`].
    #[derive(Debug, Clone)]
    enum Op {
        SetVar(u64, BasisStatus),
        SetRow(u64, BasisStatus),
        /// Replace everything by `from_entries` of these pairs.
        Rebuild(Vec<(u64, BasisStatus)>, Vec<(u64, BasisStatus)>),
    }

    const STATUSES: [BasisStatus; 4] = [
        BasisStatus::Basic,
        BasisStatus::AtLower,
        BasisStatus::AtUpper,
        BasisStatus::Free,
    ];

    /// Keys from a small range, so sets, lookups and rebuilds repeat keys.
    fn entry() -> impl Strategy<Value = (u64, BasisStatus)> {
        (0u64..24, 0usize..4).prop_map(|(k, s)| (k, STATUSES[s]))
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..3,
            entry(),
            prop::collection::vec(entry(), 0..20),
            prop::collection::vec(entry(), 0..20),
        )
            .prop_map(|(kind, (k, s), vars, rows)| match kind {
                0 => Op::SetVar(k, s),
                1 => Op::SetRow(k, s),
                _ => Op::Rebuild(vars, rows),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sorted sides agree with a `BTreeMap` oracle after every
        /// step, duplicate keys in a rebuild included (the last wins).
        #[test]
        fn sorted_sides_match_a_btreemap_oracle(ops in prop::collection::vec(op(), 1..40)) {
            let mut ws = WarmStart::new();
            let mut vars: BTreeMap<u64, BasisStatus> = BTreeMap::new();
            let mut rows: BTreeMap<u64, BasisStatus> = BTreeMap::new();
            for op in &ops {
                match op {
                    Op::SetVar(k, s) => {
                        ws.set_var(*k, *s);
                        vars.insert(*k, *s);
                    }
                    Op::SetRow(k, s) => {
                        ws.set_row(*k, *s);
                        rows.insert(*k, *s);
                    }
                    Op::Rebuild(v, r) => {
                        ws = WarmStart::from_entries(v.iter().copied(), r.iter().copied());
                        vars = v.iter().copied().collect();
                        rows = r.iter().copied().collect();
                    }
                }
                for k in 0..24 {
                    prop_assert_eq!(ws.var(k), vars.get(&k).copied());
                    prop_assert_eq!(ws.row(k), rows.get(&k).copied());
                }
                prop_assert_eq!(ws.len(), vars.len() + rows.len());
                prop_assert_eq!(ws.is_empty(), vars.is_empty() && rows.is_empty());
                let basic = vars
                    .values()
                    .chain(rows.values())
                    .filter(|&&s| s == BasisStatus::Basic)
                    .count();
                prop_assert_eq!(ws.num_basic(), basic);
            }
        }
    }

    #[test]
    fn keys_are_fixed_fnv1a() {
        // Published FNV-1a 64 test vectors: the keys must never drift, or
        // saved name-keyed bases stop matching.
        assert_eq!(name_key(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(name_key("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(name_key("foobar"), 0x85944171f73967e8);
        for i in [0, 7, 10, 123_456, usize::MAX] {
            assert_eq!(positional_row_key(i), name_key(&format!("#{i}")), "{i}");
        }
    }
}
