//! The metric catalogue: every name the benchmark prints, with its unit,
//! and for the end-to-end metrics the direction and the regression bound.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! holds the two together.

use crate::trace::Prim;

/// Which way an end-to-end metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric: what a user of the stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The bounded end-to-end metrics, per workload. `failed_share` is the
/// fifth: it is carried by the `failed`/`attempted` counts of every
/// result and any increase is a regression.
///
/// The timing bounds are the widest the acceptance contract allows. On
/// the shared 2-CPU sandbox the best-of-round timings still move by
/// 8–10% between rounds of one commit (interquartile spread over the
/// median), and a bound has to sit well clear of that to mean anything.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "committed_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The per-layer metrics before and after the per-primitive spans.
const LAYER_HEAD: &[(&str, &str)] = &[
    ("runtime.scheduler.events", "count"),
    ("runtime.scheduler.events_per_commit", "1/commit"),
    ("runtime.scheduler.sys_share", "ratio"),
    ("runtime.scheduler.thread_cpu_s", "s"),
    ("runtime.scheduler.resume_us", "us"),
    ("runtime.scheduler.unpinned_wall_s.min", "s"),
    ("runtime.scheduler.unpinned_wall_s.med", "s"),
    ("runtime.scheduler.unpinned_wall_s.max", "s"),
    ("runtime.shared.lock_acquisitions", "count"),
    ("runtime.shared.locks_per_commit", "1/commit"),
    ("runtime.ctx.thread_cpu_s", "s"),
];
const LAYER_TAIL: &[(&str, &str)] = &[
    ("runtime.journal.replays", "count"),
    ("runtime.journal.truncated_entries", "count"),
    ("runtime.journal.reclaimed_entries", "count"),
    ("runtime.journal.live_entries", "count"),
    ("runtime.journal.body_attempts", "count"),
    ("runtime.journal.doomed_attempt_cpu_s", "s"),
    ("runtime.journal.doomed_share", "ratio"),
    ("core.engine.guesses", "count"),
    ("core.engine.finalized", "count"),
    ("core.engine.rollback_events", "count"),
    ("core.engine.rolled_back_intervals", "count"),
    ("core.engine.definite_denies", "count"),
    ("core.engine.useful_share", "ratio"),
    ("core.engine.live_intervals", "count"),
    ("core.engine.reclaimed_intervals", "count"),
    ("core.engine.cycle_ns.d1", "ns"),
    ("core.engine.cycle_ns.d64", "ns"),
    ("core.engine.cycle_ns.d4096", "ns"),
    ("core.engine.deny_cascade_us.d64", "us"),
    ("core.engine.deny_cascade_us.d4096", "us"),
    ("core.engine.fossil_sweep_us", "us"),
    ("core.depset.cow_copies", "count"),
    ("core.depset.spills", "count"),
    ("core.depset.union_ns.n32", "ns"),
    ("core.depset.union_ns.n4096", "ns"),
    ("core.depset.insert_ns.n4096", "ns"),
    ("sim.queue.op_ns.d16", "ns"),
    ("sim.queue.op_ns.d4096", "ns"),
    ("sim.faults.drops", "count"),
    ("sim.faults.retries", "count"),
    ("sim.faults.timeout_denies", "count"),
    ("timewarp.handled", "count"),
    ("timewarp.committed", "count"),
    ("timewarp.rollbacks", "count"),
    ("timewarp.efficiency", "ratio"),
    ("mc.transitions", "count"),
    ("mc.states", "count"),
    ("mc.cache_hits", "count"),
    ("mc.sleep_pruned", "count"),
    ("mc.missed_outcome_programs", "count"),
    ("mc.transitions_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The statistics kept per `(primitive, live|replay)` span group.
const SPAN_STATS: [(&str, &str); 3] = [("count", "count"), ("total_s", "s"), ("p99_us", "us")];

/// Every per-layer metric, in report order, with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |t: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        t.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut all = fixed(LAYER_HEAD);
    for prim in Prim::ALL {
        for mode in ["live", "replay"] {
            for (stat, unit) in SPAN_STATS {
                all.push((format!("runtime.ctx.{}.{mode}.{stat}", prim.name()), unit));
            }
        }
    }
    all.extend(fixed(LAYER_TAIL));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let layer = per_layer();
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in &layer {
            assert!(seen.insert(name.clone()), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        assert!(layer.len() <= 128);
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the code is
    /// what prints. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(
            names("per_layer"),
            per_layer().into_iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
        let e2e = manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            let field = |k: &str| listed.get(k).and_then(Json::as_str).expect("string field");
            assert_eq!(field("name"), ours.name);
            assert_eq!(field("unit"), ours.unit);
            let better = match ours.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field("better"), better);
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        for (listed, (_, unit)) in manifest
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .zip(per_layer())
        {
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(unit));
        }
    }
}
