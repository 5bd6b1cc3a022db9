//! The baton: whose turn it is to run — one process's, or that of the
//! thread that called `run`.
//!
//! Process bodies run on their own OS threads but never concurrently (see
//! [`scheduler`](crate::scheduler)), so all the handoff has to carry is one
//! word naming the thread allowed to run. A thread that is not named yields
//! its CPU once, then parks ([`std::thread::park`]); whoever changes the
//! word unparks the thread it names — a process hands the turn straight to
//! a peer, so the baton holds every thread's handle. On one CPU (the
//! benchmark pins each run to one) the yield switches to the thread just
//! unparked, and a turn handed back finds its giver still runnable: that
//! unpark is an atomic swap, and a strict two-thread alternation touches no
//! futex at all. Once is the measured count: more gain nothing on
//! `open_loop`, and 16 cost eight-LP `phold` 20–24% (yielding waiters take
//! the CPU from the turn's holder). Every waiter re-reads the word around each yield and
//! park, so an unpark that lands before its park — or a stray token left on
//! the caller's thread by an earlier run — costs one extra loop, never a
//! lost wake-up. Thread start goes through the same word ([`Baton::start`]),
//! so no two threads of a run ever do anything at the same time.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::OnceLock;
use std::thread::{self, JoinHandle, Thread};

/// The turn of the thread that called `run`: it starts the process threads,
/// ends the run, and steps when no process can.
pub(crate) const RUN: usize = usize::MAX;
/// Nobody's turn ever again: process threads unwind and exit.
const SHUTDOWN: usize = usize::MAX - 1;

/// The turn word (one of the constants above, or a process index) and every
/// thread's handle: any holder may have to unpark any other thread.
#[derive(Debug)]
pub(crate) struct Baton {
    turn: AtomicUsize,
    runner: Thread,
    procs: Vec<OnceLock<Thread>>,
}

impl Baton {
    /// A baton for `procs` process threads, held by the calling thread
    /// (`run`'s).
    pub(crate) fn new(procs: usize) -> Self {
        Baton {
            turn: AtomicUsize::new(RUN),
            runner: thread::current(),
            procs: (0..procs).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `run`'s side: start process `proc`'s thread with `spawn` and wait
    /// until it has checked in with its first [`give`](Baton::give). One
    /// thread starts at a time: a new thread's start-up allocations (name,
    /// thread-locals, allocator cache) would otherwise race the next spawn,
    /// and their order fixes the heap layout — and with it the peak memory,
    /// by several MiB — for the rest of the run.
    pub(crate) fn start<T>(
        &self,
        proc: usize,
        spawn: impl FnOnce() -> JoinHandle<T>,
    ) -> JoinHandle<T> {
        self.turn.store(proc, SeqCst);
        let spawned = spawn();
        let handle = spawned.thread().clone();
        self.procs[proc]
            .set(handle)
            .expect("each process starts once");
        self.wait(RUN);
        spawned
    }

    /// Hand the turn from `me` to `to` (a process, or [`RUN`]) and wait for
    /// it back: one unpark, one yield, a park if it is not back by then. A
    /// thread not holding the turn (after shutdown) only waits; `false` means shutdown.
    pub(crate) fn give(&self, me: usize, to: usize) -> bool {
        self.hand(me, to);
        self.wait(me)
    }

    fn hand(&self, me: usize, to: usize) {
        if self.turn.compare_exchange(me, to, SeqCst, SeqCst).is_ok() {
            let thread = match to {
                RUN => &self.runner,
                proc => self.procs[proc].get().expect("a started process"),
            };
            thread.unpark();
        }
    }

    fn wait(&self, me: usize) -> bool {
        let mut yielded = false;
        loop {
            match self.turn.load(SeqCst) {
                SHUTDOWN => return false,
                turn if turn == me => return true,
                _ if !yielded => {
                    yielded = true;
                    thread::yield_now();
                }
                _ => thread::park(),
            }
        }
    }

    /// `run`'s side: end the run. Every process thread's pending or next
    /// [`give`](Baton::give) returns `false`.
    pub(crate) fn shutdown(&self) {
        self.turn.store(SHUTDOWN, SeqCst);
        for thread in self.procs.iter().filter_map(OnceLock::get) {
            thread.unpark();
        }
    }

    /// Process side: a guard for the body of process thread `me`. If the
    /// thread leaves (return or unwind) while it still holds the baton,
    /// `run`'s thread gets it instead of everyone waiting forever.
    pub(crate) fn return_on_exit(&self, me: usize) -> ReturnOnExit<'_> {
        ReturnOnExit { baton: self, me }
    }
}

/// See [`Baton::return_on_exit`].
pub(crate) struct ReturnOnExit<'a> {
    baton: &'a Baton,
    me: usize,
}

impl Drop for ReturnOnExit<'_> {
    fn drop(&mut self) {
        self.baton.hand(self.me, RUN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::SimRng;
    use std::sync::{Arc, Barrier};

    /// Start process `proc` on `body`, which runs once the thread has
    /// checked in and been given its first turn.
    fn start<T: Send + 'static>(
        baton: &Arc<Baton>,
        proc: usize,
        body: impl FnOnce(&Baton) -> T + Send + 'static,
    ) -> JoinHandle<Option<T>> {
        let b = baton.clone();
        baton.start(proc, || {
            thread::spawn(move || {
                let _guard = b.return_on_exit(proc);
                b.give(proc, RUN).then(|| body(&b))
            })
        })
    }

    #[test]
    fn thread_that_exits_holding_the_baton_returns_it_abandoned() {
        let baton = Arc::new(Baton::new(1));
        // Exits with the turn: only the guard tells `run`'s thread.
        let quitter = start(&baton, 0, |_| ());
        assert!(baton.give(RUN, 0));
        quitter.join().unwrap();
    }

    #[test]
    fn start_returns_once_the_new_thread_has_checked_in() {
        let baton = Arc::new(Baton::new(1));
        let up = Arc::new(AtomicUsize::new(0));
        let (b, u) = (baton.clone(), up.clone());
        let proc = baton.start(0, || {
            thread::spawn(move || {
                let _guard = b.return_on_exit(0);
                u.store(1, SeqCst); // start-up work, then the check-in
                b.give(0, RUN)
            })
        });
        assert_eq!(up.load(SeqCst), 1, "start returned before the check-in");
        assert_eq!(baton.turn.load(SeqCst), RUN);
        baton.shutdown();
        assert!(!proc.join().unwrap(), "the thread never got a turn");
    }

    #[test]
    fn unpark_before_park_loses_no_wakeup() {
        let baton = Arc::new(Baton::new(1));
        let gate = Arc::new(Barrier::new(2));
        let (b, g) = (baton.clone(), gate.clone());
        let proc = baton.start(0, || {
            thread::spawn(move || {
                let _guard = b.return_on_exit(0);
                b.hand(0, RUN);
                g.wait(); // the turn and its unpark have both landed by now
                thread::park(); // ... and something else here ate the token:
                assert!(b.wait(0)); // the word, not the token, carries the turn
                assert!(b.give(0, RUN));
                b.give(0, RUN)
            })
        });
        baton.hand(RUN, 0);
        gate.wait();
        assert!(baton.wait(RUN));
        assert!(baton.give(RUN, 0));
        baton.shutdown();
        assert!(!proc.join().unwrap(), "shutdown ends the last give");
        // The guard dropped after shutdown and must not have reclaimed it.
        assert_eq!(baton.turn.load(SeqCst), SHUTDOWN);
    }

    #[test]
    fn give_between_processes_survives_an_unpark_that_lands_before_the_park() {
        let baton = Arc::new(Baton::new(2));
        let gate = Arc::new(Barrier::new(2));
        let g = gate.clone();
        // P0 hands to P1 but is held up before it parks; P1 has handed the
        // turn back (word and unpark token both) by the time P0 waits.
        let p0 = start(&baton, 0, move |b| {
            b.hand(0, 1);
            g.wait();
            let back = b.wait(0);
            (back, b.give(0, RUN))
        });
        let p1 = start(&baton, 1, move |b| {
            b.hand(1, 0);
            gate.wait();
            b.wait(1)
        });
        // P0's last give ends the chain here: nobody passed through `run`'s
        // thread in between.
        assert!(baton.give(RUN, 0));
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some((true, false)));
        assert_eq!(p1.join().unwrap(), Some(false));
    }

    #[test]
    fn shutdown_ends_the_wait_after_a_give_to_a_peer() {
        let baton = Arc::new(Baton::new(2));
        let p0 = start(&baton, 0, |b| b.give(0, 1)); // never gets it back
        let p1 = start(&baton, 1, |b| b.give(1, RUN));
        assert!(baton.give(RUN, 0));
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some(false));
        assert_eq!(p1.join().unwrap(), Some(false));
    }

    #[test]
    fn guard_of_a_thread_resumed_by_a_peer_returns_the_turn_to_run() {
        let baton = Arc::new(Baton::new(2));
        let p0 = start(&baton, 0, |b| b.give(0, 1));
        // Resumed by P0, P1 exits with the turn. P0 must not get it.
        let p1 = start(&baton, 1, |_| ());
        assert!(baton.give(RUN, 0));
        p1.join().unwrap();
        assert_eq!(baton.turn.load(SeqCst), RUN);
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some(false));
    }

    /// The holders of a rotation's turns, drawn in advance, and a check
    /// that each turn is taken by the thread it names and by no other.
    struct Rotation {
        holders: Vec<usize>,
        taken: AtomicUsize,
        inside: AtomicUsize,
    }

    impl Rotation {
        /// `me` takes the next turn: it must be alone and the one named.
        /// Returns whom to hand to next ([`RUN`] past the last turn).
        fn take(&self, me: usize) -> usize {
            assert_eq!(self.inside.swap(1, SeqCst), 0, "two threads inside");
            let turn = self.taken.fetch_add(1, SeqCst);
            assert_eq!(
                self.holders[turn], me,
                "turn {turn} taken by the wrong thread"
            );
            let next = self.holders.get(turn + 1).copied().unwrap_or(RUN);
            assert_eq!(self.inside.swap(0, SeqCst), 1, "two threads inside");
            next
        }

        fn turns_of(&self, me: usize) -> usize {
            self.holders.iter().filter(|&&h| h == me).count()
        }
    }

    /// Many waiters, the shape of an eight-LP PHOLD run: every handoff
    /// goes to a thread that has been waiting, through the yield and then
    /// (mostly) the park.
    #[test]
    fn eight_threads_and_run_pass_the_turn_along_a_seeded_sequence() {
        const PROCS: usize = 8;
        const TURNS: usize = 20_000;
        // FNV-1a of "baton::eight_threads_and_run_pass_the_turn_along_a_seeded_sequence".
        let mut rng = SimRng::new(0xdd33_a0b6_3971_b7c5);
        let name = |i: usize| if i == PROCS { RUN } else { i };
        let mut holders = Vec::with_capacity(TURNS);
        let mut prev = RUN;
        for turn in 0..TURNS {
            // Never a give to oneself, and the last turn hands to `RUN`.
            let next = loop {
                let n = name(rng.index(PROCS + 1));
                if n != prev && (turn + 1 < TURNS || n != RUN) {
                    break n;
                }
            };
            holders.push(next);
            prev = next;
        }
        let rotation = Arc::new(Rotation {
            holders,
            taken: AtomicUsize::new(0),
            inside: AtomicUsize::new(0),
        });
        let baton = Arc::new(Baton::new(PROCS));
        let threads: Vec<_> = (0..PROCS)
            .map(|proc| {
                let r = rotation.clone();
                start(&baton, proc, move |b| {
                    let mut turns = 1;
                    while b.give(proc, r.take(proc)) {
                        turns += 1;
                    }
                    turns
                })
            })
            .collect();
        let mut next = rotation.holders[0];
        let mut run_turns = 0;
        while baton.give(RUN, next) && rotation.taken.load(SeqCst) < TURNS {
            next = rotation.take(RUN);
            run_turns += 1;
        }
        assert_eq!(rotation.taken.load(SeqCst), TURNS);
        assert_eq!(run_turns, rotation.turns_of(RUN));
        baton.shutdown();
        for (proc, thread) in threads.into_iter().enumerate() {
            let turns = thread.join().unwrap();
            assert_eq!(turns, Some(rotation.turns_of(proc)), "P{proc}");
        }
    }
}
