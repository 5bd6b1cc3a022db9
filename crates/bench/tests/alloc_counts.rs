//! Heap allocations of the five E22 workload shapes, counted, not timed.
//!
//! Host time moves with the host; the number of allocations a run makes
//! does not. A counting global allocator tallies every `alloc`,
//! `alloc_zeroed` and `realloc` call and the bytes each one asked for, and
//! each shape below runs from library code at the benchmark's size and
//! seed 22 (`benchmark/src/workloads.rs` builds the same runs). Every shape
//! runs twice, and the two runs must count the same.
//!
//! In the shipped build — release, with a `DepSet` of 40 bytes — each count
//! must also equal its pin. Two builds differ from it: the `shadow-oracle`
//! feature gives every set a `BTreeSet` shadow (`cargo test --workspace`
//! unifies it in through the root's dev-dependency), and a debug build
//! compiles other code, the engine's invariant check among it. There only
//! the repeat is checked. A change that moves a pin re-records it here and
//! names the delta in CHANGES.md.
//!
//! The same test counts a warm bare `Engine`'s steady cycle — `aid_init`,
//! `guess`, definite `affirm` of the oldest open guess, a fossil sweep
//! every 128 cycles, each effect list handed back with `Engine::recycle` —
//! at the window depths of the benchmark's `core.engine.cycle_ns.d1` and
//! `.d64` probes. In the shipped build it allocates nothing at depth 1,
//! and at depth 64 only the guesser's `DepSet` window words.
//!
//! The file holds one `#[test]`: tests of one binary run on parallel
//! threads, and every thread's allocations reach the one counter.
//!
//! ```text
//! cargo test --release -p hope-bench --test alloc_counts -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::thread;

use hope_core::program::Program;
use hope_core::{AidId, Checkpoint, DepSet, Engine, ProcessId as Pid};
use hope_mc::{check, McConfig};
use hope_recovery::{run_app_optimistic, run_stable_store};
use hope_runtime::{Ctx, FaultPlan, Hope, ProcessId, RunReport, SimConfig, Simulation, Value};
use hope_sim::{LatencyModel, Topology, VirtualDuration};
use hope_timewarp::phold::{run_phold_with, PholdReport};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they requested, over the whole process.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as received.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn tally(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

/// The benchmark seed every shape is drawn from.
const SEED: u64 = 22;

/// Seed of the `i`-th independent input of one benchmark seed, as the
/// benchmark draws a replica's simulation or an mc program.
fn stream_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

fn us(v: u64) -> VirtualDuration {
    VirtualDuration::from_micros(v)
}

fn ms(v: u64) -> VirtualDuration {
    VirtualDuration::from_millis(v)
}

/// The open loop's guesses.
const GUESSES: i64 = 40_000;

/// E19's guesser/verifier loop over a jittered link, fossil collection on.
fn open_loop() -> RunReport {
    let link = LatencyModel::Uniform {
        lo: us(40),
        hi: us(60),
    };
    let cfg = SimConfig::with_seed(stream_seed(SEED, 0))
        .with_topology(Topology::uniform(link))
        .with_max_events(8 * GUESSES as u64)
        .with_fossil_collection(true);
    let mut sim = Simulation::new(cfg);
    let verifier = ProcessId(1);
    sim.spawn("guesser", move |ctx| guesser(ctx, verifier));
    sim.spawn("verifier", verify);
    sim.run()
}

fn guesser(ctx: &mut Ctx, verifier: ProcessId) -> Hope<()> {
    let mut i = ctx.restore()?.map_or(0, |v| v.expect_int());
    while i < GUESSES {
        ctx.checkpoint(Value::Int(i))?;
        let aid = ctx.aid_init()?;
        ctx.send(verifier, Value::Int(aid.index() as i64))?;
        ctx.guess(aid)?;
        ctx.compute(us(100))?;
        i += 1;
    }
    ctx.output(format!("guessed {GUESSES}"))
}

fn verify(ctx: &mut Ctx) -> Hope<()> {
    let mut seen = ctx.restore()?.map_or(0, |v| v.expect_int());
    while seen < GUESSES {
        ctx.checkpoint(Value::Int(seen))?;
        let m = ctx.recv()?;
        ctx.affirm(AidId::from_index(m.payload.expect_int() as u64))?;
        seen += 1;
    }
    Ok(())
}

/// The open loop's finalized guesses.
fn finalized(report: &RunReport) -> u64 {
    assert_eq!(
        report.output_lines(),
        [format!("guessed {GUESSES}")],
        "{report}"
    );
    report.stats().engine.finalized
}

/// E16/E21's reliable logging pipeline, `replicas` runs of `steps` steps,
/// under `drop_rate` link loss.
fn pipeline(steps: u64, replicas: u64, drop_rate: f64) -> Vec<RunReport> {
    (0..replicas)
        .map(|r| {
            let seed = stream_seed(SEED, r);
            let mut cfg = SimConfig::with_seed(seed)
                .with_topology(Topology::uniform(LatencyModel::Fixed(ms(2))))
                .with_ack_timeout(ms(10))
                .with_ack_backoff_cap(ms(40))
                .with_rollback_overhead(ms(10));
            if drop_rate > 0.0 {
                cfg = cfg.with_faults(FaultPlan::new(seed ^ 0xC4A0).drop_rate(drop_rate));
            }
            let mut sim = Simulation::new(cfg);
            let store = ProcessId(1);
            sim.spawn("app", move |ctx| {
                run_app_optimistic(ctx, store, steps, ms(1))
            });
            sim.spawn("store", move |ctx| run_stable_store(ctx, ms(5)));
            sim.run()
        })
        .collect()
}

/// The pipeline's committed steps: every step once, in order.
fn steps_committed(reports: &[RunReport]) -> u64 {
    let mut committed = 0;
    for report in reports {
        for (i, line) in report.output_lines().iter().enumerate() {
            assert_eq!(*line, format!("step {i} committed"), "{report}");
            committed += 1;
        }
    }
    committed
}

/// PHOLD on eight Time Warp LPs to model time 2,500, committing at
/// quiescence.
fn phold() -> PholdReport {
    let link = Topology::uniform(LatencyModel::Fixed(us(200)));
    run_phold_with(8, link, us(100), 10, 2_500, stream_seed(SEED, 0), true)
}

/// PHOLD's committed events.
fn events_committed(r: &PholdReport) -> u64 {
    assert!(r.report.errors().is_empty() && !r.report.hit_limits());
    r.committed
}

/// `hope_mc::check` over the corpus, which is built before counting
/// starts: the transitions explored, all of exhausted programs.
fn mc_exhaust(corpus: &[Program]) -> u64 {
    let cfg = McConfig::default();
    let mut transitions = 0;
    for p in corpus {
        let r = check(p, &cfg);
        assert!(r.completeness.is_exhausted());
        transitions += r.transitions as u64;
    }
    transitions
}

/// Cycles between fossil sweeps in the steady engine cycle: the scheduler
/// sweeps every 256 events, and the open loop spends two events per cycle.
const SWEEP_PERIOD: u64 = 128;

/// A bare engine with a window of `depth` open guesses, as the
/// benchmark's `core.engine.cycle_ns.d*` probes hold it.
struct Window {
    engine: Engine,
    guesser: Pid,
    decider: Pid,
    /// The open AIDs, oldest first.
    open: VecDeque<AidId>,
    depth: u64,
}

/// A guesser holding `depth - 1` nested open guesses and a definite
/// decider.
fn standing_window(depth: u64) -> Window {
    let mut engine = Engine::new();
    let (guesser, decider) = (engine.register_process(), engine.register_process());
    let mut open = VecDeque::with_capacity(depth as usize);
    for i in 1..depth {
        let x = engine.aid_init(guesser);
        let (_, fx) = engine
            .guess(guesser, &[x], Checkpoint(i))
            .expect("fresh aid");
        engine.recycle(fx);
        open.push_back(x);
    }
    Window {
        engine,
        guesser,
        decider,
        open,
        depth,
    }
}

/// `cycles` steady cycles: `aid_init` + `guess` by the guesser + definite
/// `affirm` of the oldest open guess by the decider, every effect list
/// handed back, fossils swept every [`SWEEP_PERIOD`] cycles.
fn engine_cycles(w: &mut Window, cycles: u64) {
    let engine = &mut w.engine;
    for i in 0..cycles {
        let x = engine.aid_init(w.guesser);
        let (_, fx) = engine
            .guess(w.guesser, &[x], Checkpoint(w.depth + i))
            .expect("fresh aid");
        engine.recycle(fx);
        w.open.push_back(x);
        let oldest = w.open.pop_front().expect("the window is never empty");
        let fx = engine.affirm(w.decider, oldest).expect("an open aid");
        engine.recycle(fx);
        if i % SWEEP_PERIOD == 0 {
            black_box(engine.collect_fossils());
        }
    }
}

/// Allocations and bytes of one call of `run`, and what it returned.
fn counted<R>(run: impl FnOnce() -> R) -> (u64, u64, R) {
    let (calls, bytes) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    let r = black_box(run());
    (CALLS.load(Relaxed) - calls, BYTES.load(Relaxed) - bytes, r)
}

/// What starting and joining one bare named thread allocates. The figure
/// depends on the harness — a thread that inherits captured output
/// allocates for it, and `--nocapture` turns that off — so the runtime
/// shapes, which start one thread per process, are counted net of it.
fn thread_overhead() -> (u64, u64) {
    let bare = || {
        let t = thread::Builder::new().name("hope-lp0".to_string());
        t.spawn(|| {}).expect("spawn").join().expect("join");
    };
    let (calls, bytes, ()) = counted(bare);
    assert_eq!(counted(bare), (calls, bytes, ()), "two bare threads differ");
    (calls, bytes)
}

/// The shipped build: release, with a `DepSet` of 40 bytes.
fn shipped() -> bool {
    !cfg!(debug_assertions) && std::mem::size_of::<DepSet<AidId>>() == 40
}

/// Run one shape twice and print its counts, net of `threads` bare
/// threads; `judge` turns its result into committed units, outside the
/// count. Answers how the counts differ from `pin`, if the build is the
/// shipped one and they do.
fn measure<R>(
    name: &str,
    threads: u64,
    pin: (u64, u64),
    run: impl Fn() -> R,
    judge: impl Fn(&R) -> u64,
) -> Option<String> {
    let (thread_calls, thread_bytes) = thread_overhead();
    let once = || {
        let (calls, bytes, r) = counted(&run);
        let net = (
            calls - threads * thread_calls,
            bytes - threads * thread_bytes,
        );
        (net, judge(&r))
    };
    let first = once();
    let ((calls, bytes), units) = once();
    assert_eq!(first, ((calls, bytes), units), "{name}: two runs differ");
    println!(
        "{name:>14}: {calls:>7} allocations, {bytes:>8} bytes, {units:>6} committed, \
         {:.2} allocations per committed unit",
        calls as f64 / units as f64
    );
    (shipped() && (calls, bytes) != pin)
        .then(|| format!("{name}: ({calls}, {bytes}), pinned {pin:?}"))
}

#[test]
fn allocations_per_shape_are_pinned() {
    let corpus: Vec<Program> = (0..1_500)
        .map(|i| Program::generate(stream_seed(SEED, i), 3, 3, 3))
        .collect();
    // The first simulation of a process sets up what later ones reuse.
    black_box(pipeline(20, 1, 0.30));
    // The pins: (allocations, bytes) of one run in the shipped build.
    let moved: Vec<String> = [
        measure("open_loop", 2, (41_017, 12_963_429), open_loop, finalized),
        measure(
            "pipeline_deep",
            2,
            (9_452, 5_875_500),
            || pipeline(3_000, 1, 0.0),
            |r| steps_committed(r),
        ),
        measure(
            "pipeline_lossy",
            8,
            (71_309, 29_751_884),
            || pipeline(400, 4, 0.30),
            |r| steps_committed(r),
        ),
        measure("phold", 8, (37_143, 14_608_626), phold, events_committed),
        measure(
            "mc_exhaust",
            0,
            (132_462, 43_513_612),
            || mc_exhaust(&corpus),
            |&t| t,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();
    // A warm engine's steady cycle allocates nothing of its own: the
    // stores reuse the slots the sweeps free, and every transition the
    // engine's worklist and the effect list handed back. At depth 64 the
    // guesser's IDO is a DepSet window of 64 consecutive ids, which
    // allocates its word slice anew each time it gains a word at the top
    // and each time it drops one at the bottom: twice per 64 cycles.
    let cycles = 16 * SWEEP_PERIOD;
    for (depth, window_moves) in [(1, 0), (64, cycles / 32)] {
        let mut window = standing_window(depth);
        engine_cycles(&mut window, 8 * SWEEP_PERIOD);
        let (calls, bytes, ()) = counted(|| engine_cycles(&mut window, cycles));
        println!(
            "engine cycle d{depth:<3}: {calls:>5} allocations, {bytes:>6} bytes over {cycles} warm cycles"
        );
        if shipped() {
            assert_eq!(
                calls, window_moves,
                "a warm depth-{depth} engine cycle allocated"
            );
        }
    }
    assert!(moved.is_empty(), "allocation pins moved: {moved:#?}");
}
