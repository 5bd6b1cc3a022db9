//! Isolated layer probes: each drives one layer's public API alone, so a
//! change to that layer has a number that moves without any other layer in
//! the way. Every probe times at least [`MIN_TIMED`] of work per sample
//! and reports the median of [`SAMPLES`] samples; the pass runs pinned,
//! like the workloads.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hope_core::{AidId, Checkpoint, DepSet, Engine, ProcessId};
use hope_runtime::{SimConfig, Simulation};
use hope_sim::{EventQueue, SimRng, VirtualDuration, VirtualTime};

use crate::stats::median;

const MIN_TIMED: Duration = Duration::from_millis(200);
const SAMPLES: usize = 5;
/// Guess cycles between fossil sweeps: the scheduler sweeps every 256
/// events, and the open loop spends two events per cycle.
const SWEEP_PERIOD: u64 = 128;
/// Preparing a sweep's backlog costs seventy times the sweep, so the sweep
/// probe settles for a tenth of the timed minimum.
const SWEEP_EFFORT_DIVISOR: u32 = 10;

/// One batch of a probe: untimed preparation, then `(timed, operations)`.
type Batch<'a> = &'a mut dyn FnMut() -> (Duration, u64);

/// How long and how often each probe measures.
#[derive(Debug, Clone, Copy)]
struct Effort {
    min_timed: Duration,
    samples: usize,
}

/// Median over samples of seconds per operation.
fn seconds_per_op(effort: Effort, batch: Batch<'_>) -> f64 {
    let samples: Vec<f64> = (0..effort.samples)
        .map(|_| {
            let (mut timed, mut ops) = (Duration::ZERO, 0u64);
            loop {
                let (t, n) = batch();
                timed += t;
                ops += n;
                if timed >= effort.min_timed {
                    break timed.as_secs_f64() / ops as f64;
                }
            }
        })
        .collect();
    median(&samples)
}

/// An engine with a guesser holding `depth - 1` open nested guesses and a
/// definite decider, plus the open AIDs oldest first.
fn standing_window(depth: usize) -> (Engine, ProcessId, ProcessId, VecDeque<AidId>) {
    let mut engine = Engine::new();
    let guesser = engine.register_process();
    let decider = engine.register_process();
    let mut open = VecDeque::with_capacity(depth);
    for i in 1..depth {
        let x = engine.aid_init(guesser);
        engine
            .guess(guesser, &[x], Checkpoint(i as u64))
            .expect("guess on a fresh aid");
        open.push_back(x);
    }
    (engine, guesser, decider, open)
}

/// `aid_init` + `guess` by the guesser + definite `affirm` of the oldest
/// open assumption by the decider, with `depth` intervals open in between:
/// the steady state of a pipeline whose speculation window is `depth`.
/// Fossils are swept as the scheduler would, or the cost per cycle grows
/// with the number of cycles run (1.3 µs after 5k, 9 µs after 200k).
fn engine_cycle(depth: usize, cycles: u64) -> (Duration, u64) {
    let (mut engine, guesser, decider, mut open) = standing_window(depth);
    let t = Instant::now();
    for i in 0..cycles {
        let x = engine.aid_init(guesser);
        black_box(
            engine
                .guess(guesser, &[x], Checkpoint(depth as u64 + i))
                .expect("guess on a fresh aid"),
        );
        open.push_back(x);
        let oldest = open.pop_front().expect("window is never empty");
        black_box(engine.affirm(decider, oldest).expect("affirm an open aid"));
        if i % SWEEP_PERIOD == 0 {
            engine.collect_fossils();
        }
    }
    (t.elapsed(), cycles)
}

/// One definite `deny` of the oldest of `depth` nested open guesses: a
/// rollback cascade over the whole window.
fn deny_cascade(depth: usize) -> (Duration, u64) {
    let (mut engine, _, decider, open) = standing_window(depth + 1);
    let t = Instant::now();
    black_box(engine.deny(decider, open[0]).expect("deny an open aid"));
    (t.elapsed(), 1)
}

/// One `collect_fossils` over what [`SWEEP_PERIOD`] finalized cycles
/// leave behind.
fn fossil_sweep(engine: &mut Engine, guesser: ProcessId, decider: ProcessId) -> (Duration, u64) {
    for i in 0..SWEEP_PERIOD {
        let x = engine.aid_init(guesser);
        engine
            .guess(guesser, &[x], Checkpoint(i))
            .expect("guess on a fresh aid");
        engine.affirm(decider, x).expect("affirm an open aid");
    }
    let t = Instant::now();
    black_box(engine.collect_fossils());
    (t.elapsed(), 1)
}

fn dep_set(ids: impl Iterator<Item = u64>) -> DepSet<AidId> {
    let mut s = DepSet::new();
    for i in ids {
        s.insert(AidId::from_index(i));
    }
    s
}

/// Inherit a set of `n` ids and merge another of `n` that overlaps it by
/// half — what a guess does with its parent's `IDO` and a message tag.
fn depset_union(n: u64, rounds: u64) -> (Duration, u64) {
    let base = dep_set(0..n);
    let other = dep_set(n / 2..n + n / 2);
    let t = Instant::now();
    for _ in 0..rounds {
        let mut inherited = black_box(&base).clone();
        inherited.union_with(black_box(&other));
        black_box(inherited);
    }
    (t.elapsed(), rounds)
}

/// Grow an unshared set from `n` to `2n` ids, one insert at a time.
fn depset_insert(n: u64) -> (Duration, u64) {
    let mut s = dep_set(0..n);
    let t = Instant::now();
    for i in n..2 * n {
        black_box(s.insert(AidId::from_index(i)));
    }
    (t.elapsed(), n)
}

/// Pop the earliest event and push one a random delay later, with `depth`
/// events pending: the hold model of a discrete-event queue.
fn queue_hold(depth: usize, ops: u64) -> (Duration, u64) {
    let mut rng = SimRng::new(22);
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.push(
            VirtualTime::from_nanos(rng.range_u64(0, 1_000_000)),
            i as u64,
        );
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (at, payload) = q.pop().expect("queue holds `depth` events");
        let delay = VirtualDuration::from_nanos(rng.range_u64(1, 1_000_000));
        q.push(at + delay, black_box(payload));
    }
    (t.elapsed(), ops)
}

/// Two bodies that only `compute`: every scheduler event is one resume of
/// a parked process thread and one park, and nothing else.
fn resume(computes_per_body: u64) -> (Duration, u64) {
    let mut sim = Simulation::new(SimConfig::with_seed(22));
    for name in ["a", "b"] {
        sim.spawn(name, move |ctx| {
            for _ in 0..computes_per_body {
                ctx.compute(VirtualDuration::from_micros(1))?;
            }
            Ok(())
        });
    }
    let t = Instant::now();
    let report = sim.run();
    let elapsed = t.elapsed();
    assert!(report.completed(), "resume probe must complete: {report}");
    (elapsed, report.events())
}

/// Run every probe; the names are those of the metric catalogue.
pub fn run_all() -> Vec<(&'static str, f64)> {
    run_with(Effort {
        min_timed: MIN_TIMED,
        samples: SAMPLES,
    })
}

fn run_with(effort: Effort) -> Vec<(&'static str, f64)> {
    let measure = |batch: Batch<'_>| seconds_per_op(effort, batch);
    let (mut engine, guesser, decider, _) = standing_window(1);
    let ns = 1e9;
    let us = 1e6;
    vec![
        (
            "runtime.scheduler.resume_us",
            us * measure(&mut || resume(25_000)),
        ),
        (
            "core.engine.cycle_ns.d1",
            ns * measure(&mut || engine_cycle(1, 50_000)),
        ),
        (
            "core.engine.cycle_ns.d64",
            ns * measure(&mut || engine_cycle(64, 20_000)),
        ),
        (
            "core.engine.cycle_ns.d4096",
            ns * measure(&mut || engine_cycle(4096, 1_000)),
        ),
        (
            "core.engine.deny_cascade_us.d64",
            us * measure(&mut || deny_cascade(64)),
        ),
        (
            "core.engine.deny_cascade_us.d4096",
            us * measure(&mut || deny_cascade(4096)),
        ),
        (
            "core.engine.fossil_sweep_us",
            us * seconds_per_op(
                Effort {
                    min_timed: effort.min_timed / SWEEP_EFFORT_DIVISOR,
                    ..effort
                },
                &mut || fossil_sweep(&mut engine, guesser, decider),
            ),
        ),
        (
            "core.depset.union_ns.n32",
            ns * measure(&mut || depset_union(32, 100_000)),
        ),
        (
            "core.depset.union_ns.n4096",
            ns * measure(&mut || depset_union(4096, 20_000)),
        ),
        (
            "core.depset.insert_ns.n4096",
            ns * measure(&mut || depset_insert(4096)),
        ),
        (
            "sim.queue.op_ns.d16",
            ns * measure(&mut || queue_hold(16, 200_000)),
        ),
        (
            "sim.queue.op_ns.d4096",
            ns * measure(&mut || queue_hold(4096, 200_000)),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_do_the_work_they_count() {
        assert_eq!(engine_cycle(1, 10).1, 10);
        assert_eq!(engine_cycle(64, 10).1, 10);
        assert_eq!(deny_cascade(64).1, 1);
        assert_eq!(depset_union(32, 3).1, 3);
        assert_eq!(depset_union(4096, 3).1, 3);
        assert_eq!(depset_insert(64).1, 64);
        assert_eq!(queue_hold(16, 100).1, 100);
        // Two bodies of five computes: one start and five wakes each.
        assert_eq!(resume(5).1, 12);
    }

    #[test]
    fn every_probe_reads_positive_under_a_catalogue_name() {
        let catalogue = crate::metrics::per_layer();
        let readings = run_with(Effort {
            min_timed: Duration::from_nanos(1),
            samples: 1,
        });
        assert_eq!(readings.len(), 12);
        for (name, value) in readings {
            assert!(
                catalogue.iter().any(|(n, _)| n == name),
                "{name} not in the catalogue"
            );
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
        }
    }

    #[test]
    fn the_cycle_keeps_its_window_and_the_cascade_unwinds_it() {
        let (mut engine, guesser, decider, open) = standing_window(8);
        assert_eq!(open.len(), 7);
        assert_eq!(engine.live_interval_count(), 7);
        engine.deny(decider, open[0]).expect("deny");
        assert_eq!(engine.stats().rolled_back_intervals, 7);
        assert!(!engine.is_speculative(guesser).expect("known process"));
    }

    #[test]
    fn a_sweep_reclaims_the_backlog() {
        let (mut engine, guesser, decider, _) = standing_window(1);
        fossil_sweep(&mut engine, guesser, decider);
        assert_eq!(engine.stats().fossil_intervals, 128);
        assert_eq!(engine.live_interval_count(), 0);
    }
}
