//! The fault-tolerant application: optimistic vs synchronous logging.
//!
//! The application performs a sequence of steps, each of which must be
//! recorded on stable storage before its output may escape (the classical
//! *output commit* problem). Two disciplines:
//!
//! * [`run_app_optimistic`] logs asynchronously and `guess`es the entry
//!   will persist, releasing output under the assumption; the runtime's
//!   output-commit buffering holds the line until the store's affirm
//!   arrives, and a lost entry (denied assumption) rolls the application
//!   back to re-log and re-execute — recovery, for free, by HOPE.
//! * [`run_app_sync`] waits for each flush acknowledgment — the
//!   pessimistic baseline whose latency the optimistic version hides.

use hope_core::ProcessId;
use hope_runtime::{Ctx, Hope, Value};
use hope_sim::VirtualDuration;

use crate::stable::log_entry;

/// Run `steps` application steps with optimistic logging.
///
/// Each step: create the stability assumption, send the log entry over
/// [`Ctx::send_reliable`] (so an entry addressed to a crashed or lossy
/// store is retransmitted rather than silently lost; send-then-guess keeps
/// the store definite), guess, emit the step's output under the
/// assumption, and compute for `step_cost`. A denied entry — the
/// application itself was killed with the assumption still open —
/// re-executes the step's logging on restart until it sticks.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn run_app_optimistic(
    ctx: &mut Ctx,
    store: ProcessId,
    steps: u64,
    step_cost: VirtualDuration,
) -> Hope<()> {
    for seq in resume_seq(ctx)?..steps {
        ctx.checkpoint(Value::Int(seq as i64))?;
        loop {
            let aid = ctx.aid_init()?;
            ctx.send_reliable(store, log_entry(aid, seq))?;
            if ctx.guess(aid)? {
                break; // proceed under "the entry will persist"
            }
            // The entry was lost in a crash: re-log (recovery).
        }
        ctx.output(format!("step {seq} committed"))?;
        ctx.compute(step_cost)?;
    }
    Ok(())
}

/// The step a restarted optimistic application resumes at: the sequence
/// number its newest surviving [`Ctx::checkpoint`] recorded, which is all
/// the state a step loop carries (`0` on a fresh journal).
fn resume_seq(ctx: &mut Ctx) -> Hope<u64> {
    Ok(ctx.restore()?.map_or(0, |v| v.expect_int() as u64))
}

/// Run `steps` application steps with synchronous logging: each step waits
/// for the flush acknowledgment (retrying on crash) before emitting output.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn run_app_sync(
    ctx: &mut Ctx,
    store: ProcessId,
    steps: u64,
    step_cost: VirtualDuration,
) -> Hope<()> {
    for seq in 0..steps {
        loop {
            let aid = ctx.aid_init()?; // carried for wire-format symmetry
            let ack = ctx.rpc(store, log_entry(aid, seq))?;
            if ack.as_bool() == Some(true) {
                break;
            }
        }
        ctx.output(format!("step {seq} committed"))?;
        ctx.compute(step_cost)?;
    }
    Ok(())
}

/// Run `steps` application steps with **batched** optimistic logging
/// (group commit): one stability assumption covers `batch` consecutive
/// entries, sent together. Fewer assumptions and messages than
/// [`run_app_optimistic`], but a lost batch re-executes `batch` steps.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn run_app_batched(
    ctx: &mut Ctx,
    store: ProcessId,
    steps: u64,
    step_cost: VirtualDuration,
    batch: u64,
) -> Hope<()> {
    assert!(batch > 0, "batch size must be positive");
    let mut seq = resume_seq(ctx)?;
    while seq < steps {
        ctx.checkpoint(Value::Int(seq as i64))?;
        let n = batch.min(steps - seq);
        loop {
            let aid = ctx.aid_init()?;
            // One assumption guards the whole batch; the store treats the
            // group as a unit (one flush, one affirm-or-deny).
            ctx.send(store, log_entry(aid, seq))?;
            if ctx.guess(aid)? {
                break;
            }
            // The batch was lost: re-log it whole.
        }
        for i in 0..n {
            ctx.output(format!("step {} committed", seq + i))?;
            ctx.compute(step_cost)?;
        }
        seq += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::run_stable_store;
    use hope_runtime::{FaultPlan, SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology, VirtualTime};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    fn run(
        optimistic: bool,
        faults: Option<FaultPlan>,
        steps: u64,
    ) -> (hope_runtime::RunReport, VirtualTime) {
        let topo = Topology::uniform(LatencyModel::Fixed(ms(2)));
        let mut config = SimConfig::with_seed(11).with_topology(topo);
        if let Some(plan) = faults {
            config = config.with_faults(plan);
        }
        let mut sim = Simulation::new(config);
        let store = ProcessId(1);
        let app = sim.spawn("app", move |ctx| {
            if optimistic {
                run_app_optimistic(ctx, store, steps, VirtualDuration::from_micros(200))
            } else {
                run_app_sync(ctx, store, steps, VirtualDuration::from_micros(200))
            }
        });
        sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
        let report = sim.run();
        let t = report.finish_time(app).expect("app finishes");
        (report, t)
    }

    #[test]
    fn both_protocols_commit_all_steps() {
        for optimistic in [true, false] {
            let (report, _) = run(optimistic, None, 10);
            assert_eq!(report.outputs().len(), 10, "optimistic={optimistic}");
            for (i, line) in report.output_lines().iter().enumerate() {
                assert_eq!(*line, format!("step {i} committed"));
            }
        }
    }

    #[test]
    fn batched_logging_commits_everything_and_messages_less() {
        let run = |batch: u64| {
            let topo = Topology::uniform(LatencyModel::Fixed(ms(2)));
            let mut sim = Simulation::new(SimConfig::with_seed(11).with_topology(topo));
            let store = ProcessId(1);
            sim.spawn("app", move |ctx| {
                run_app_batched(ctx, store, 12, VirtualDuration::from_micros(200), batch)
            });
            sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
            sim.run()
        };
        let per_entry = run(1);
        let grouped = run(4);
        assert_eq!(per_entry.outputs().len(), 12);
        assert_eq!(grouped.outputs().len(), 12);
        assert!(
            grouped.stats().messages_sent < per_entry.stats().messages_sent,
            "group commit must send fewer log messages: {} vs {}",
            grouped.stats().messages_sent,
            per_entry.stats().messages_sent
        );
        for (i, line) in grouped.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"));
        }
    }

    #[test]
    fn batched_logging_survives_crashes() {
        let topo = Topology::uniform(LatencyModel::Fixed(ms(2)));
        // Kill the *application* mid-run: its open batch assumptions are
        // denied, and on restart the journal prefix replays while the lost
        // batches are re-logged under fresh assumptions.
        let plan = FaultPlan::new(13).kill(0, 10, Some(ms(3)));
        let mut sim = Simulation::new(
            SimConfig::with_seed(13)
                .with_topology(topo)
                .with_faults(plan),
        );
        let store = ProcessId(1);
        sim.spawn("app", move |ctx| {
            run_app_batched(ctx, store, 12, VirtualDuration::from_micros(200), 3)
        });
        sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
        let report = sim.run();
        assert_eq!(report.outputs().len(), 12, "{report}");
        assert_eq!(report.stats().faults.kills, 1, "{report}");
        assert_eq!(report.stats().faults.restarts, 1, "{report}");
        assert!(report.stats().rollback_events > 0, "{report}");
        for (i, line) in report.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"));
        }
    }

    #[test]
    fn optimistic_logging_hides_flush_latency() {
        let (opt_report, opt) = run(true, None, 20);
        let (_, sync) = run(false, None, 20);
        assert!(opt < sync, "optimistic {opt} !< synchronous {sync}");
        assert_eq!(opt_report.stats().rollback_events, 0);
    }

    #[test]
    fn crashes_roll_back_and_recover() {
        // The app dies with stability assumptions still open; the kill
        // denies them, restart replays the surviving journal prefix, and
        // the lost steps re-log — recovery end to end.
        let plan = FaultPlan::new(7).kill(0, 30, Some(ms(4)));
        let (report, _) = run(true, Some(plan), 15);
        assert_eq!(
            report.outputs().len(),
            15,
            "all steps eventually commit despite the crash: {report}"
        );
        assert_eq!(report.stats().faults.kills, 1, "{report}");
        assert!(
            report.stats().faults.crash_denies > 0,
            "the kill must catch open assumptions: {report}"
        );
        assert!(
            report.stats().rollback_events > 0,
            "denied entries must roll the app back: {report}"
        );
        // No speculative output escaped: committed lines are exactly the
        // 15 step lines in order.
        for (i, line) in report.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"));
        }
    }

    #[test]
    fn store_outage_is_pure_downtime_under_reliable_logging() {
        // Kill the *store*: it owns no assumptions, so nothing is denied —
        // entries in flight during the outage are simply lost links, and
        // the app's reliable sends retransmit them after the restart.
        let plan = FaultPlan::new(5).kill(1, 20, Some(ms(25)));
        let (report, _) = run(true, Some(plan), 15);
        assert_eq!(report.outputs().len(), 15, "{report}");
        assert_eq!(report.stats().faults.kills, 1, "{report}");
        assert_eq!(report.stats().faults.restarts, 1, "{report}");
        assert!(
            report.stats().faults.retries > 0,
            "entries lost to the outage must be retransmitted: {report}"
        );
        for (i, line) in report.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"));
        }
    }

    #[test]
    fn reliable_logging_rides_out_a_lossy_link() {
        // No crashes — just a very lossy network. Reliable sends retry
        // until every entry lands; all steps still commit in order.
        let plan = FaultPlan::new(21).drop_rate(0.3);
        let (report, _) = run(true, Some(plan), 10);
        assert_eq!(report.outputs().len(), 10, "{report}");
        assert!(report.stats().faults.drops > 0, "{report}");
        assert!(report.stats().faults.retries > 0, "{report}");
        for (i, line) in report.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"));
        }
    }

    /// The E21/E22 lossy pipeline (tight ack timeout, priced rollback, 30%
    /// loss) at 60 steps, with a step as long as a flush so the
    /// speculation window stays a few steps deep: a timeout deny then
    /// re-speculates little, and nearly all a rollback used to cost was
    /// replaying the journal from step zero through `Ctx`.
    #[test]
    fn lossy_run_replays_from_its_checkpoints_not_from_step_zero() {
        let config = SimConfig::with_seed(22)
            .with_topology(Topology::uniform(LatencyModel::Fixed(ms(2))))
            .with_ack_timeout(ms(10))
            .with_ack_backoff_cap(ms(40))
            .with_rollback_overhead(ms(10))
            .with_faults(FaultPlan::new(22).drop_rate(0.30));
        let mut sim = Simulation::new(config);
        let store = ProcessId(1);
        sim.spawn("app", move |ctx| run_app_optimistic(ctx, store, 60, ms(5)));
        sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
        let report = sim.run();
        let steps: Vec<String> = (0..60).map(|i| format!("step {i} committed")).collect();
        assert_eq!(report.output_lines(), steps, "{report}");
        assert_eq!(report.stats().replays, 116, "{report}");
        // Before the two bodies checkpointed, every one of the 116 restarts
        // replayed from step zero and this same run took 23,723 locks.
        const FROM_STEP_ZERO: u64 = 23_723;
        let locks = report.stats().ctx_lock_acquisitions;
        assert_eq!(locks, 4_148);
        assert!(locks * 5 < FROM_STEP_ZERO);
    }

    #[test]
    fn sync_baseline_commits_without_faults() {
        let (report, _) = run(false, None, 15);
        assert_eq!(report.outputs().len(), 15, "{report}");
        assert_eq!(report.stats().rollback_events, 0, "no speculation used");
    }
}
