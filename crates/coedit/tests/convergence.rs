//! Property test: co-editing sessions converge for arbitrary shapes.

use hope_coedit::run_session;
use hope_sim::{LatencyModel, SimRng, Topology, VirtualDuration};

#[test]
fn every_session_converges() {
    // FNV-1a of "convergence::every_session_converges".
    let mut rng = SimRng::new(0x1383_baa5_93c2_fe4b);
    for case in 0..20 {
        let (editors, edits) = (rng.range_u64(1, 5) as usize, rng.range_u64(1, 6));
        let (link_ms, seed) = (rng.range_u64(1, 6), rng.range_u64(0, 64));
        let bias = 0.4 + rng.next_f64() * (1.0 - 0.4);
        let topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(link_ms)));
        let checked = std::panic::catch_unwind(|| {
            let out = run_session(editors, edits, topo, seed, bias);
            assert!(out.report.errors().is_empty(), "{}", out.report);
            assert!(!out.report.hit_limits(), "{}", out.report);
            assert!(
                out.converged(),
                "authoritative={:?} replicas={:?} (rollbacks={})",
                out.authoritative,
                out.replicas,
                out.report.stats().rollback_events
            );
            // Insert-only sessions have a checkable length.
            if bias >= 1.0 {
                assert_eq!(
                    out.authoritative.chars().count() as u64,
                    editors as u64 * edits
                );
            }
        });
        let shape = format!("{editors} editors, {edits} edits, {link_ms} ms links");
        assert!(
            checked.is_ok(),
            "case {case} failed: {shape}, seed {seed}, bias {bias}"
        );
    }
}

#[test]
fn sessions_replay_identically() {
    // FNV-1a of "convergence::sessions_replay_identically".
    let mut rng = SimRng::new(0xe167_0d4a_d4cc_89b4);
    for case in 0..20 {
        let editors = rng.range_u64(1, 4) as usize;
        let (edits, seed) = (rng.range_u64(1, 5), rng.range_u64(0, 32));
        let topo = Topology::uniform(LatencyModel::Fixed(VirtualDuration::from_millis(2)));
        let a = run_session(editors, edits, topo.clone(), seed, 0.75);
        let b = run_session(editors, edits, topo, seed, 0.75);
        let case = format!("case {case}: {editors} editors, {edits} edits, seed {seed}");
        assert_eq!(a.authoritative, b.authoritative, "{case}");
        assert_eq!(a.replicas, b.replicas, "{case}");
    }
}
