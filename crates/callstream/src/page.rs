//! The paper's running example, reproduced literally: Figures 1 and 2.
//!
//! A Worker prints a running total (`S1`, an RPC returning the current line
//! number), forces a new page if the total ended too low on the page (`S2`),
//! and prints a summary (`S3`, another RPC). Figure 1 runs `S1`–`S3`
//! synchronously; Figure 2 parallelizes them by (a) moving `S1` into a
//! spawned **WorryWart** process and (b) optimistically assuming
//! `line < PageSize` (the `PartPage` AID). A second AID, `Order`, guards
//! against `S3`'s message overtaking `S1` at the print server: the
//! WorryWart asserts `free_of(Order)`, and if the causality constraint was
//! violated the assertion denies `Order`, rolling the system back to a
//! consistent state (§3.1).

use hope_core::{AidId, ProcessId};
use hope_runtime::{Ctx, Hope, Value};
use hope_sim::VirtualDuration;

/// Default page size used by the examples and benchmarks.
pub const PAGE_SIZE: i64 = 60;

/// A simple print server: `["print", text]` appends a line and replies with
/// the resulting line number; `["newpage"]` resets the line counter and
/// replies `0`. Each request costs `cost` of server CPU.
///
/// Runs until simulation shutdown.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn print_server(ctx: &mut Ctx, start_line: i64, cost: VirtualDuration) -> Hope<()> {
    let mut line = start_line;
    loop {
        let msg = ctx.recv()?;
        ctx.compute(cost)?;
        let items = msg.payload.expect_list();
        let op = items[0].expect_str();
        let response = match op {
            "print" => {
                line += 1;
                Value::Int(line)
            }
            "newpage" => {
                line = 0;
                Value::Int(0)
            }
            other => panic!("print server: unknown op {other:?}"),
        };
        ctx.reply(&msg, response)?;
    }
}

/// Encode a `print` request.
pub fn print_req(text: &str) -> Value {
    Value::List(vec![Value::Str("print".into()), Value::Str(text.into())])
}

/// Encode a `newpage` request.
pub fn newpage_req() -> Value {
    Value::List(vec![Value::Str("newpage".into())])
}

/// **Figure 1** — the pessimistic Worker: three synchronous RPCs.
///
/// ```text
/// line = call print("Total is ", total);      /* S1 — RPC */
/// if (line > PageSize) { call newpage(); }    /* S2 — RPC */
/// call print("Summary ...");                  /* S3 — RPC */
/// ```
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn worker_pessimistic(
    ctx: &mut Ctx,
    printer: ProcessId,
    total: i64,
    page_size: i64,
) -> Hope<()> {
    let line = ctx
        .rpc(printer, print_req(&format!("Total is {total}")))?
        .expect_int(); // S1
    if line > page_size {
        ctx.rpc(printer, newpage_req())?; // S2
    }
    ctx.rpc(printer, print_req("Summary ..."))?; // S3
    ctx.output("report done")?;
    Ok(())
}

/// **Figure 2, Worker half** — the Call-Streaming transformation.
///
/// Sends the `PartPage` and `Order` AIDs (with the total) to the WorryWart,
/// optimistically assumes the page did not overflow, and proceeds to the
/// summary without waiting for `S1`.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn worker_optimistic(
    ctx: &mut Ctx,
    printer: ProcessId,
    worrywart: ProcessId,
    total: i64,
) -> Hope<()> {
    let part_page = ctx.aid_init()?;
    let order = ctx.aid_init()?;
    ctx.send(
        worrywart,
        Value::List(vec![
            Value::Int(part_page.index() as i64),
            Value::Int(order.index() as i64),
            Value::Int(total),
        ]),
    )?;
    if ctx.guess(part_page)? {
        // S2 elided: the total (probably) fit on the current page.
    } else {
        ctx.rpc(printer, newpage_req())?; // S2
    }
    let _ = ctx.guess(order)?; // mark S3 dependent on message ordering
    ctx.rpc(printer, print_req("Summary ..."))?; // S3
    ctx.output("report done")?;
    Ok(())
}

/// **Figure 2, WorryWart half** — executes `S1`, asserts the ordering
/// constraint, then verifies the `PartPage` assumption.
///
/// # Errors
///
/// Propagates runtime [`Signal`](hope_runtime::Signal)s.
pub fn worrywart(ctx: &mut Ctx, printer: ProcessId, page_size: i64) -> Hope<()> {
    let msg = ctx.recv()?;
    let items = msg.payload.expect_list();
    let part_page = AidId::from_index(items[0].expect_int() as u64);
    let order = AidId::from_index(items[1].expect_int() as u64);
    let total = items[2].expect_int();
    let line = ctx
        .rpc(printer, print_req(&format!("Total is {total}")))?
        .expect_int(); // S1
    ctx.free_of(order)?;
    if line < page_size {
        ctx.affirm(part_page)?;
    } else {
        ctx.deny(part_page)?;
    }
    Ok(())
}

/// The topology the paper's scenario implies: the WorryWart sits close to
/// the Worker, so `S1` (routed through it) still reaches the print server
/// ahead of the Worker's direct `S3`. Nodes: 0 = worker, 1 = printer,
/// 2 = worrywart.
pub fn paper_topology(one_way: VirtualDuration) -> hope_sim::Topology {
    use hope_sim::{LatencyModel, Topology};
    let close = VirtualDuration::from_micros(100);
    let mut topo = Topology::uniform(LatencyModel::Fixed(one_way));
    topo.set_pair(0, 2, LatencyModel::Fixed(close));
    // WorryWart → printer is slightly faster than worker → printer, so S1
    // keeps its head start.
    topo.set_pair(2, 1, LatencyModel::Fixed(one_way.saturating_sub(close * 3)));
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_runtime::{SimConfig, Simulation};
    use hope_sim::{LatencyModel, Topology};

    fn ms(v: u64) -> VirtualDuration {
        VirtualDuration::from_millis(v)
    }

    fn run_pessimistic(start_line: i64, topo: Topology) -> hope_runtime::RunReport {
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
        let printer = ProcessId(1);
        sim.spawn("worker", move |ctx| {
            worker_pessimistic(ctx, printer, 1234, PAGE_SIZE)
        });
        sim.spawn("printer", move |ctx| print_server(ctx, start_line, ms(1)));
        sim.run()
    }

    fn run_optimistic(start_line: i64, topo: Topology) -> hope_runtime::RunReport {
        let mut sim = Simulation::new(SimConfig::with_seed(1).with_topology(topo));
        let printer = ProcessId(1);
        let wart = ProcessId(2);
        sim.spawn("worker", move |ctx| {
            worker_optimistic(ctx, printer, wart, 1234)
        });
        sim.spawn("printer", move |ctx| print_server(ctx, start_line, ms(1)));
        sim.spawn("worrywart", move |ctx| worrywart(ctx, printer, PAGE_SIZE));
        sim.run()
    }

    #[test]
    fn figure1_pessimistic_baseline() {
        let report = run_pessimistic(10, Topology::uniform(LatencyModel::Fixed(ms(10))));
        assert_eq!(report.output_lines(), vec!["report done"]);
        // S1 and S3 only (no page overflow): 2 × (RTT 20ms + 1ms compute).
        let t = report
            .finish_time(ProcessId(0))
            .expect("worker finished")
            .as_millis_f64();
        assert_eq!(t, 42.0);
    }

    #[test]
    fn figure2_optimistic_is_faster_when_assumption_holds() {
        let topo = paper_topology(ms(10));
        let pess = run_pessimistic(10, topo.clone());
        let opt = run_optimistic(10, topo);
        assert_eq!(opt.output_lines(), vec!["report done"]);
        assert_eq!(opt.stats().rollback_events, 0, "assumption held: {opt}");
        let tp = pess.finish_time(ProcessId(0)).unwrap();
        let to = opt.finish_time(ProcessId(0)).unwrap();
        assert!(to < tp, "optimistic {to} !< pessimistic {tp}");
    }

    #[test]
    fn figure2_page_overflow_forces_rollback_and_newpage() {
        // Start the page at line 70 (> PAGE_SIZE): the WorryWart denies
        // PartPage, the Worker re-executes with guess=false and calls
        // newpage before the summary.
        let opt = run_optimistic(70, paper_topology(ms(10)));
        assert_eq!(opt.output_lines(), vec!["report done"]);
        assert!(opt.stats().rollback_events >= 1);
        assert!(opt.stats().engine.definite_denies >= 1);
    }

    #[test]
    fn uniform_latency_triggers_order_violation_and_recovers() {
        // With a uniform topology S3 overtakes S1 at the printer; the
        // WorryWart's free_of(Order) detects the causality violation, the
        // system rolls back, and the re-execution is properly ordered.
        let opt = run_optimistic(10, Topology::uniform(LatencyModel::Fixed(ms(10))));
        assert_eq!(opt.output_lines(), vec!["report done"]);
        assert!(
            opt.stats().rollback_events >= 2,
            "worker+printer (at least) roll back: {opt}"
        );
        assert!(opt.stats().ghosts_dropped >= 1);
        assert!(opt.stats().engine.free_ofs >= 1);
    }

    #[test]
    fn results_identical_between_figures() {
        for start in [0, 30, 59, 60, 70] {
            for topo in [
                paper_topology(ms(5)),
                Topology::uniform(LatencyModel::Fixed(ms(5))),
            ] {
                let p = run_pessimistic(start, topo.clone());
                let o = run_optimistic(start, topo);
                assert_eq!(
                    p.output_lines(),
                    o.output_lines(),
                    "speculation must be transparent (start={start})"
                );
            }
        }
    }
}
