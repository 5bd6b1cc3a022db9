//! Outside-in tracing: everything here wraps calls the benchmark itself
//! makes into the runtime, so a traced run needs no change to the program.
//!
//! * [`AttemptLog`] brackets every body attempt with the process thread's
//!   CPU clock: the sum is the CPU the `Ctx` layer and everything below it
//!   consumed on process threads, and the part spent in attempts that a
//!   rollback threw away is the replay cost.
//! * [`Tap`] brackets each `Ctx` primitive of a body the benchmark owns
//!   with a wall-clock span, split by whether the call was a journal
//!   replay. Spans of blocking primitives include the time the thread was
//!   parked, which is the scheduler handoff seen from the process side.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hope_runtime::{Ctx, Hope, Signal};

use crate::host;
use crate::stats::percentile_u32;

/// CPU accounting of body attempts, shared by every process of one run.
#[derive(Debug, Default)]
pub struct Attempts {
    /// Body attempts started (first executions plus re-executions).
    pub count: u64,
    /// Process-thread CPU seconds inside attempts.
    pub cpu_s: f64,
    /// The share of `cpu_s` inside attempts a rollback signal ended.
    pub doomed_cpu_s: f64,
}

/// Handle on the shared [`Attempts`] record.
#[derive(Debug, Clone, Default)]
pub struct AttemptLog(Arc<Mutex<Attempts>>);

impl AttemptLog {
    /// Run one body attempt under the calling thread's CPU clock.
    pub fn attempt(&self, body: impl FnOnce() -> Hope<()>) -> Hope<()> {
        let t0 = host::thread_cpu_s();
        let result = body();
        let cpu = host::thread_cpu_s() - t0;
        let mut a = self.0.lock().expect("attempt log poisoned");
        a.count += 1;
        a.cpu_s += cpu;
        // Shutdown ends the last attempt of a server loop normally; any
        // other signal means the attempt's work was thrown away.
        if matches!(result, Err(signal) if signal != Signal::Shutdown) {
            a.doomed_cpu_s += cpu;
        }
        result
    }

    /// Take the totals once the run is over.
    pub fn take(&self) -> Attempts {
        std::mem::take(&mut *self.0.lock().expect("attempt log poisoned"))
    }
}

/// The `Ctx` primitives whose spans the open-loop bodies record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim {
    /// `Ctx::aid_init`.
    AidInit,
    /// `Ctx::guess`.
    Guess,
    /// `Ctx::affirm`.
    Affirm,
    /// `Ctx::send`.
    Send,
    /// `Ctx::recv`.
    Recv,
    /// `Ctx::compute`.
    Compute,
    /// `Ctx::checkpoint`.
    Checkpoint,
}

impl Prim {
    /// Every primitive, in report order.
    pub const ALL: [Prim; 7] = [
        Prim::AidInit,
        Prim::Guess,
        Prim::Affirm,
        Prim::Send,
        Prim::Recv,
        Prim::Compute,
        Prim::Checkpoint,
    ];

    /// The name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Prim::AidInit => "aid_init",
            Prim::Guess => "guess",
            Prim::Affirm => "affirm",
            Prim::Send => "send",
            Prim::Recv => "recv",
            Prim::Compute => "compute",
            Prim::Checkpoint => "checkpoint",
        }
    }
}

/// How a body calls its primitives: directly, or under a span.
pub trait Tap {
    /// Call `f`, attributing it to `prim`.
    fn call<T>(
        &mut self,
        prim: Prim,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> Hope<T>,
    ) -> Hope<T>;
}

/// The untraced tap: compiles to the bare call.
#[derive(Debug, Clone, Copy)]
pub struct Untapped;

impl Tap for Untapped {
    #[inline(always)]
    fn call<T>(
        &mut self,
        _prim: Prim,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> Hope<T>,
    ) -> Hope<T> {
        f(ctx)
    }
}

/// Span durations in nanoseconds per `(primitive, replaying)`, kept in
/// memory until the run ends. A span longer than `u32::MAX` ns (4.3 s)
/// saturates.
#[derive(Debug, Default)]
pub struct Spans {
    samples: [[Vec<u32>; 2]; Prim::ALL.len()],
}

impl Tap for Spans {
    fn call<T>(
        &mut self,
        prim: Prim,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut Ctx) -> Hope<T>,
    ) -> Hope<T> {
        let replaying = ctx.replaying();
        let t0 = Instant::now();
        let result = f(ctx);
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.samples[prim as usize][usize::from(replaying)].push(ns);
        result
    }
}

impl Spans {
    /// Move `other`'s samples into `self`.
    pub fn absorb(&mut self, other: &mut Spans) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples.iter_mut()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter_mut()) {
                m.append(t);
            }
        }
    }

    /// `runtime.ctx.<prim>.<live|replay>.<count|total_s|p99_us>` readings.
    pub fn readings(&mut self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for prim in Prim::ALL {
            for (replaying, mode) in [(0, "live"), (1, "replay")] {
                let samples = &mut self.samples[prim as usize][replaying];
                let key = |stat: &str| format!("runtime.ctx.{}.{mode}.{stat}", prim.name());
                let total_ns: u64 = samples.iter().map(|&ns| u64::from(ns)).sum();
                let p99_ns = if samples.is_empty() {
                    0
                } else {
                    percentile_u32(samples, 99.0)
                };
                out.push((key("count"), samples.len() as f64));
                out.push((key("total_s"), total_ns as f64 * 1e-9));
                out.push((key("p99_us"), f64::from(p99_ns) * 1e-3));
            }
        }
        out
    }
}

/// Everything a traced run collects.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Body-attempt CPU accounting.
    pub attempts: AttemptLog,
    /// One span store per spanned body, merged after the run.
    stores: Mutex<Vec<Arc<Mutex<Spans>>>>,
}

impl Tracer {
    /// A span store for one body; the body locks it once per attempt.
    pub fn span_store(&self) -> Arc<Mutex<Spans>> {
        let store = Arc::new(Mutex::new(Spans::default()));
        self.stores
            .lock()
            .expect("tracer poisoned")
            .push(store.clone());
        store
    }

    /// Merge every body's spans (empty when no body was spanned).
    pub fn take_spans(&self) -> Spans {
        let mut all = Spans::default();
        for store in self.stores.lock().expect("tracer poisoned").iter() {
            all.absorb(&mut store.lock().expect("span store poisoned"));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_split_doomed_from_useful_cpu() {
        let log = AttemptLog::default();
        assert_eq!(log.attempt(|| Ok(())), Ok(()));
        assert_eq!(log.attempt(|| Err(Signal::Rollback)), Err(Signal::Rollback));
        assert_eq!(log.attempt(|| Err(Signal::Shutdown)), Err(Signal::Shutdown));
        let a = log.take();
        assert_eq!(a.count, 3);
        assert!(a.doomed_cpu_s <= a.cpu_s);
        assert_eq!(log.take().count, 0);
    }

    #[test]
    fn span_readings_cover_every_primitive_and_mode() {
        let mut s = Spans::default();
        s.samples[Prim::Guess as usize][0] = (1..=1000).map(|i| i * 1000).collect();
        let mut other = Spans::default();
        other.samples[Prim::Guess as usize][1] = vec![500];
        s.absorb(&mut other);
        let r = s.readings();
        assert_eq!(r.len(), Prim::ALL.len() * 2 * 3);
        let get = |k: &str| r.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("runtime.ctx.guess.live.count"), Some(1000.0));
        assert_eq!(get("runtime.ctx.guess.live.p99_us"), Some(990.0));
        assert_eq!(get("runtime.ctx.guess.replay.count"), Some(1.0));
        assert_eq!(get("runtime.ctx.recv.live.count"), Some(0.0));
        assert_eq!(get("runtime.ctx.recv.live.p99_us"), Some(0.0));
    }
}
