//! **E20 — exhaustive schedule checking at the `Simulation`/`Ctx` layer.**
//!
//! Three closure-bodied scenarios — real [`hope_runtime::Ctx`] bodies
//! under the event-driven scheduler, including `send_reliable`
//! retransmission timers — are exhaustively schedule-checked with
//! [`hope_runtime::mc::check_scenario`]. Each row must come back
//! [`Exhausted`](hope_runtime::SimCompleteness): the outcome set is proven
//! complete, not sampled.
//!
//! EXPERIMENTS.md (E20) quotes the `hope-mc` mode ladder E20 timed before
//! the DPOR and symmetry modes were removed; E17 is the machine-program
//! reduction table.

use hope_runtime::mc::{check_scenario, SimMcConfig, SimMcReport};
use hope_runtime::{ProcessId, SimConfig, Simulation, Value};
use hope_sim::VirtualTime;

use crate::table::Table;

use super::ms;

/// Scenario 1: two senders racing into one receiver — the canonical
/// cross-link delivery nondeterminism; exactly two committed outcomes.
pub fn sim_two_sender_race() -> Simulation {
    let mut sim = Simulation::new(SimConfig::with_seed(7));
    sim.spawn("receiver", |ctx| {
        let a = ctx.recv()?;
        let b = ctx.recv()?;
        ctx.output(format!(
            "got {} then {}",
            a.payload.expect_int(),
            b.payload.expect_int()
        ))?;
        Ok(())
    });
    let receiver = ProcessId(0);
    sim.spawn("alice", move |ctx| {
        ctx.send(receiver, Value::Int(1))?;
        Ok(())
    });
    sim.spawn("bob", move |ctx| {
        ctx.send(receiver, Value::Int(2))?;
        Ok(())
    });
    sim
}

/// Scenario 2: the paper's Figure-2 skeleton — a worker that guesses and
/// speculatively outputs, and a worrywart that affirms. Schedule-invariant
/// by the HOPE semantics: every interleaving must commit the same line.
pub fn sim_guess_affirm() -> Simulation {
    let mut sim = Simulation::new(SimConfig::with_seed(1));
    let worrywart = ProcessId(1);
    sim.spawn("worker", move |ctx| {
        let aid = ctx.aid_init()?;
        ctx.send(worrywart, Value::Int(i64::from(aid.index() as u32)))?;
        if ctx.guess(aid)? {
            ctx.output("summary printed on current page")?;
        } else {
            ctx.output("new page forced")?;
        }
        Ok(())
    });
    sim.spawn("worrywart", |ctx| {
        let msg = ctx.recv()?;
        let aid = hope_core::AidId::from_index(msg.payload.expect_int() as u64);
        ctx.compute(ms(1))?;
        ctx.affirm(aid)?;
        Ok(())
    });
    sim
}

/// Scenario 3: `send_reliable` under its retransmission timers — the
/// ack/deadline race branches, and a virtual-time horizon bounds the
/// otherwise-infinite retry tree so exhaustion is reachable.
pub fn sim_reliable_retransmit() -> Simulation {
    let mut sim = Simulation::new(
        SimConfig::with_seed(11)
            .with_ack_timeout(ms(10))
            .with_max_virtual_time(VirtualTime::from_nanos(ms(35).as_nanos())),
    );
    sim.spawn("receiver", |ctx| {
        let m = ctx.recv()?;
        ctx.output(format!("received {}", m.payload.expect_int()))?;
        Ok(())
    });
    let receiver = ProcessId(0);
    sim.spawn("sender", move |ctx| {
        ctx.send_reliable(receiver, Value::Int(9))?;
        Ok(())
    });
    sim
}

/// Exhaustively check one simulation scenario, panicking unless the whole
/// reduced schedule space was covered.
pub fn exhaust_scenario(name: &str, build: impl Fn() -> Simulation) -> SimMcReport {
    let report = check_scenario(&SimMcConfig::default(), build);
    assert!(
        report.completeness.is_exhausted(),
        "scenario {name:?} not exhausted: {report:?}"
    );
    report
}

fn push_sim_row(t: &mut Table, name: &str, report: &SimMcReport) {
    t.push(vec![
        format!("sim: {name}"),
        format!("{} schedules", report.schedules),
        format!("{} choice pts", report.choice_points),
        format!(
            "exhausted, {} outcome(s){}",
            report.outcomes.len(),
            if report.limit_runs > 0 {
                format!(" [{} hit horizon]", report.limit_runs)
            } else {
                String::new()
            }
        ),
    ]);
}

/// The default E20 table: the three exhausted simulation scenarios.
pub fn table() -> Table {
    let mut t = Table::new(
        "E20: exhaustive Simulation-layer schedule checking",
        &["scenario", "schedules", "choice points", "verdict"],
    );
    let race = exhaust_scenario("two-sender race", sim_two_sender_race);
    assert_eq!(race.outcomes.len(), 2, "both receive orders: {race:?}");
    let fig2 = exhaust_scenario("guess/affirm (Fig. 2)", sim_guess_affirm);
    assert!(fig2.agreed(), "Fig. 2 must be schedule-invariant: {fig2:?}");
    let rel = exhaust_scenario("send_reliable retransmit", sim_reliable_retransmit);
    assert!(rel.schedules >= 2, "ack/deadline race must branch: {rel:?}");
    push_sim_row(&mut t, "two-sender race", &race);
    push_sim_row(&mut t, "guess/affirm (Fig. 2)", &fig2);
    push_sim_row(&mut t, "send_reliable retransmit", &rel);

    t.note(
        "sim rows: closure-bodied scenarios exhaustively schedule-checked at the Ctx layer via \
         hope_runtime::mc (CHESS-style stateless replay over the scheduler's reduced ready \
         sets); 'exhausted' means the outcome set is proven complete, not sampled. The \
         retransmit scenario bounds its unbounded retry tree with a 35ms virtual-time horizon",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_sim_scenarios_exhaust() {
        let race = exhaust_scenario("race", sim_two_sender_race);
        assert_eq!(race.outcomes.len(), 2);
        let fig2 = exhaust_scenario("fig2", sim_guess_affirm);
        assert!(fig2.agreed());
        let rel = exhaust_scenario("rel", sim_reliable_retransmit);
        assert!(rel.schedules >= 2);
    }
}
