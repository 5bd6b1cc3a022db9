//! Property tests: across random problem shapes, the optimistic solver
//! with zero tolerance reproduces the synchronous solution, and loose
//! tolerances stay within the analytic error bound.

use hope_numeric::{reference_sums, run, Problem};
use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration};

/// A zero-tolerance problem of 2–4 chunks of 2–6 cells over 4–13
/// iterations.
fn problem(rng: &mut SimRng) -> Problem {
    Problem {
        n_chunks: rng.range_u64(2, 5) as usize,
        chunk_size: rng.range_u64(2, 7) as usize,
        iterations: rng.range_u64(4, 14),
        tolerance: 0.0,
        compute_per_iter: VirtualDuration::from_micros(100),
        left_boundary: 1.0,
        right_boundary: 0.0,
    }
}

fn topo(ms: u64) -> Topology {
    Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(ms)))
}

#[test]
fn zero_tolerance_matches_sync_exactly() {
    // FNV-1a of "random_problems::zero_tolerance_matches_sync_exactly".
    let mut rng = SimRng::new(0x79a7_828a_1a0f_1a28);
    for case in 0..16 {
        let p = problem(&mut rng);
        let (link, seed) = (rng.range_u64(1, 5), rng.range_u64(0, 16));
        let sync = run(&p, topo(link), seed, false);
        let opt = run(&p, topo(link), seed, true);
        let case = format!("case {case}: {p:?}, link {link} ms, seed {seed}");
        assert!(opt.report.errors().is_empty(), "{case}: {}", opt.report);
        for (i, (a, b)) in opt.sums.iter().zip(&sync.sums).enumerate() {
            let (a, b) = (a.expect("opt committed"), b.expect("sync committed"));
            assert!((a - b).abs() < 1e-9, "{case}: chunk {i}: {a} vs {b}");
        }
        // And both match the single-machine reference.
        let reference = reference_sums(&p);
        for (i, s) in sync.sums.iter().enumerate() {
            assert!(
                (s.unwrap() - reference[i]).abs() < 1e-9,
                "{case}: chunk {i}"
            );
        }
    }
}

#[test]
fn loose_tolerance_error_is_bounded() {
    // FNV-1a of "random_problems::loose_tolerance_error_is_bounded".
    let mut rng = SimRng::new(0x9d4b_e1bf_d4e8_8b55);
    for case in 0..16 {
        let p = problem(&mut rng);
        let seed = rng.range_u64(0, 8);
        let loose = Problem {
            tolerance: 0.02,
            ..p.clone()
        };
        let out = run(&loose, topo(3), seed, true);
        let case = format!("case {case}: {p:?}, seed {seed}");
        assert!(out.report.errors().is_empty(), "{case}: {}", out.report);
        let reference = reference_sums(&p);
        // Each mispredicted halo injects ≤ tolerance of error per cell per
        // iteration; the per-chunk sum deviation is bounded accordingly.
        let bound = loose.tolerance * loose.iterations as f64 * loose.chunk_size as f64;
        for (i, s) in out.sums.iter().enumerate() {
            let got = s.expect("chunk committed");
            assert!(
                (got - reference[i]).abs() <= bound,
                "{case}: chunk {i}: {got} vs {} (bound {bound})",
                reference[i]
            );
        }
    }
}

#[test]
fn optimistic_runs_are_deterministic() {
    // FNV-1a of "random_problems::optimistic_runs_are_deterministic".
    let mut rng = SimRng::new(0xe168_0285_7c2e_4675);
    for case in 0..16 {
        let p = problem(&mut rng);
        let seed = rng.range_u64(0, 8);
        let a = run(&p, topo(2), seed, true);
        let b = run(&p, topo(2), seed, true);
        let case = format!("case {case}: {p:?}, seed {seed}");
        assert_eq!(&a.sums, &b.sums, "{case}");
        assert_eq!(
            a.report.stats().rollback_events,
            b.report.stats().rollback_events,
            "{case}"
        );
        assert_eq!(a.report.end_time(), b.report.end_time(), "{case}");
    }
}
