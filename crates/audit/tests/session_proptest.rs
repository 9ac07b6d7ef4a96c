//! Property test: a solve session grown by appended columns reaches the
//! optimum a fresh solve of the same columns reaches, round after round.
//!
//! Mirrors a column-generation epoch: a restricted master holds a seed
//! subset of a random bounded placement LP's columns (plus one dear
//! deferral column per job, so every restriction is feasible), opens a
//! session, and takes the remaining columns in one to three batches, each
//! appended to the model and the session alike and resumed. After every
//! resume the session's optimum must match `Model::solve` of the same
//! model to 1e-9 relative, and the final solution must pass full KKT
//! certification.

use lips_audit::certify;
use lips_lp::{Cmp, ConstraintId, Model, Session, WarmStart};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const REL: f64 = 1e-9;

/// One candidate column: bounds, cost, coefficients.
struct Column {
    ub: f64,
    cost: f64,
    terms: Vec<(ConstraintId, f64)>,
}

fn add(m: &mut Model, session: Option<&mut Session>, key: u64, c: &Column) {
    m.add_keyed_column(key, 0.0, c.ub, c.cost, c.terms.iter().copied());
    if let Some(s) = session {
        s.append_column(0.0, c.ub, c.cost, c.terms.iter().copied())
            .expect("a valid column");
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resumed_session_matches_fresh_solves_and_certifies(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let jobs = rng.gen_range(2usize..7);
        let machines = rng.gen_range(2usize..6);

        // Rows: one coverage row per job, one capacity row per machine.
        let mut m = Model::minimize();
        let cov: Vec<ConstraintId> = (0..jobs)
            .map(|k| {
                let c = m.add_constraint([], Cmp::Ge, 1.0);
                m.key_constraint(c, 1 << 32 | k as u64);
                c
            })
            .collect();
        let cap: Vec<ConstraintId> = (0..machines)
            .map(|l| {
                let b = rng.gen_range(0.4..1.2) * jobs as f64 / machines as f64;
                let c = m.add_constraint([], Cmp::Le, b);
                m.key_constraint(c, 2 << 32 | l as u64);
                c
            })
            .collect();
        // Deferral columns keep every restriction feasible.
        for (k, &row) in cov.iter().enumerate() {
            let defer = Column { ub: 1.0, cost: 10.0, terms: vec![(row, 1.0)] };
            add(&mut m, None, 3 << 32 | k as u64, &defer);
        }
        // Candidate placements: job k on machine l, one or two copies.
        let mut cands: Vec<(u64, Column)> = Vec::new();
        for (k, &cov_k) in cov.iter().enumerate() {
            for (l, &cap_l) in cap.iter().enumerate() {
                for copy in 0..rng.gen_range(1usize..3) {
                    let work = rng.gen_range(0.2..1.5);
                    let col = Column {
                        ub: if copy == 0 { 1.0 } else { rng.gen_range(0.3..1.0) },
                        cost: rng.gen_range(0.1..3.0),
                        terms: vec![(cov_k, 1.0), (cap_l, work)],
                    };
                    cands.push(((k * machines + l) as u64 * 4 + copy as u64, col));
                }
            }
        }
        // A seed subset, then the rest in one to three batches.
        for i in (1..cands.len()).rev() {
            cands.swap(i, rng.gen_range(0..=i));
        }
        let seeded = rng.gen_range(0..=cands.len() / 2);
        for (key, c) in &cands[..seeded] {
            add(&mut m, None, *key, c);
        }
        let mut session = Session::open(&m, &WarmStart::new()).expect("restriction is feasible");
        let rest = &cands[seeded..];
        let batches = rng.gen_range(1usize..4);
        let size = rest.len().div_ceil(batches).max(1);
        for batch in rest.chunks(size) {
            for (key, c) in batch {
                add(&mut m, Some(&mut session), *key, c);
            }
            session.resume().expect("a grown feasible master stays feasible");
            let fresh = m.solve().expect("same model, fresh");
            prop_assert!(close(session.objective(), fresh.objective()),
                "seed {seed}: session {} vs fresh {}", session.objective(), fresh.objective());
        }
        let sol = session.into_solution(&m);
        let fresh = m.solve().expect("same model, fresh");
        prop_assert!(close(sol.objective(), fresh.objective()),
            "seed {seed}: session {} vs fresh {}", sol.objective(), fresh.objective());
        let cert = certify(&m, &sol).expect("duals present");
        prop_assert!(cert.is_optimal(), "seed {seed}: session solution failed certification:\n{cert}");
    }
}
