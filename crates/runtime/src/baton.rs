//! The baton: whose turn it is to run — one process's, or that of the
//! thread that called `run` — and the state that goes with it.
//!
//! Process bodies run on their own OS threads but never concurrently (see
//! [`scheduler`](crate::scheduler)), so the handoff carries one word naming
//! the thread allowed to run, and one slot for what that thread owns while
//! it runs (the runtime's `Shared`): the giver fills the slot before the
//! word changes, and the thread named empties it when it wakes. A thread
//! not named yields its CPU once, then parks ([`std::thread::park`]);
//! whoever changes the word unparks the thread it names — a process hands
//! the turn straight to a peer, so the baton holds every thread's handle.
//! On one CPU (the benchmark pins each run to one) the yield switches to the
//! thread just unparked, and a turn handed back finds its giver still
//! runnable: that unpark is an atomic swap, and a strict two-thread
//! alternation touches no futex at all. Once is the measured count: more
//! gain nothing on `open_loop`, and 16 cost eight-LP `phold` 20–24%
//! (yielding waiters take the CPU from the turn's holder). Every waiter
//! re-reads the word around each yield and park, so an unpark that lands
//! before its park — or a stray token left on the caller's thread by an
//! earlier run — costs one extra loop, never a lost wake-up. Thread start
//! goes through the same word ([`Baton::start`]), so no two threads of a
//! run ever do anything at the same time.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};

/// The turn of the thread that called `run`: it starts the process threads,
/// ends the run, and steps when no process can.
pub(crate) const RUN: usize = usize::MAX;
/// Nobody's turn ever again: process threads unwind and exit.
const SHUTDOWN: usize = usize::MAX - 1;
/// Nothing can panic under the slot's lock: a take, or a store into an empty slot.
const UNPOISONED: &str = "no panic under the slot lock";

/// The turn word (a constant above, or a process index), the slot its `S`
/// travels in, and every thread's handle: any holder may unpark any other.
#[derive(Debug)]
pub(crate) struct Baton<S> {
    turn: AtomicUsize,
    slot: Mutex<Option<S>>,
    runner: Thread,
    procs: Vec<OnceLock<Thread>>,
}

impl<S> Baton<S> {
    /// A baton for `procs` process threads, held by the calling thread
    /// (`run`'s).
    pub(crate) fn new(procs: usize) -> Self {
        Baton {
            turn: AtomicUsize::new(RUN),
            slot: Mutex::new(None),
            runner: thread::current(),
            procs: (0..procs).map(|_| OnceLock::new()).collect(),
        }
    }

    /// `run`'s side: start process `proc`'s thread with `spawn` and wait
    /// until it has checked in with its first [`give`](Baton::give), keeping
    /// what the caller holds. One thread starts at a time: a new thread's
    /// start-up allocations (name, thread-locals, allocator cache) would
    /// otherwise race the next spawn, and their order fixes the heap layout
    /// — and with it the peak memory, by several MiB — for the rest of the
    /// run.
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

    /// Hand the turn and `held` from `me` to `to` (a process, or [`RUN`]) and
    /// wait for both back: one unpark, one yield, a park if they are not back
    /// by then. A thread not holding the turn (after shutdown) only waits; `false` means shutdown.
    pub(crate) fn give(&self, me: usize, to: usize, held: &mut Option<S>) -> bool {
        self.hand(me, to, held);
        let back = self.wait(me);
        if back {
            *held = self.slot.lock().expect(UNPOISONED).take();
        }
        back
    }

    fn hand(&self, me: usize, to: usize, held: &mut Option<S>) {
        // Only the holder changes the word, so it is still `me` below.
        if self.turn.load(SeqCst) == me {
            *self.slot.lock().expect(UNPOISONED) = held.take();
            self.turn.store(to, SeqCst);
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

    /// Process side: a guard for the body of process thread `me`, and what
    /// it holds with the turn. If the thread leaves (return or unwind) still
    /// holding the baton, `run`'s thread gets it and `held` instead of
    /// everyone waiting forever.
    pub(crate) fn return_on_exit(&self, me: usize) -> ReturnOnExit<'_, S> {
        ReturnOnExit {
            baton: self,
            me,
            held: None,
        }
    }
}

/// See [`Baton::return_on_exit`].
pub(crate) struct ReturnOnExit<'a, S> {
    baton: &'a Baton<S>,
    me: usize,
    pub(crate) held: Option<S>,
}

impl<S> Drop for ReturnOnExit<'_, S> {
    fn drop(&mut self) {
        self.baton.hand(self.me, RUN, &mut self.held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_sim::SimRng;
    use std::sync::{Arc, Barrier};

    /// What travels with the turn in these tests: the number of turns
    /// taken before it, where that is tracked.
    type Held = Option<usize>;

    /// Start process `proc` on `body`, which runs once the thread has
    /// checked in and been given its first turn, with what came with it.
    fn start<T: Send + 'static>(
        baton: &Arc<Baton<usize>>,
        proc: usize,
        body: impl FnOnce(&Baton<usize>, &mut Held) -> T + Send + 'static,
    ) -> JoinHandle<Option<T>> {
        let b = baton.clone();
        baton.start(proc, || {
            thread::spawn(move || {
                let mut guard = b.return_on_exit(proc);
                let held = &mut guard.held;
                b.give(proc, RUN, held).then(|| body(&b, held))
            })
        })
    }

    #[test]
    fn thread_that_exits_holding_the_baton_returns_it_abandoned() {
        let baton = Arc::new(Baton::new(1));
        // Exits with the turn: only the guard tells `run`'s thread.
        let quitter = start(&baton, 0, |_, _| ());
        assert!(baton.give(RUN, 0, &mut Some(7)));
        quitter.join().unwrap();
    }

    #[test]
    fn start_returns_once_the_new_thread_has_checked_in() {
        let baton = Arc::new(Baton::<usize>::new(1));
        let up = Arc::new(AtomicUsize::new(0));
        let (b, u) = (baton.clone(), up.clone());
        let proc = baton.start(0, || {
            thread::spawn(move || {
                let mut guard = b.return_on_exit(0);
                u.store(1, SeqCst); // start-up work, then the check-in
                b.give(0, RUN, &mut guard.held)
            })
        });
        assert_eq!(up.load(SeqCst), 1, "start returned before the check-in");
        assert_eq!(baton.turn.load(SeqCst), RUN);
        baton.shutdown();
        assert!(!proc.join().unwrap(), "the thread never got a turn");
    }

    #[test]
    fn unpark_before_park_loses_no_wakeup() {
        let baton = Arc::new(Baton::<usize>::new(1));
        let gate = Arc::new(Barrier::new(2));
        let (b, g) = (baton.clone(), gate.clone());
        let proc = baton.start(0, || {
            thread::spawn(move || {
                let mut guard = b.return_on_exit(0);
                let held = &mut guard.held;
                b.hand(0, RUN, held);
                g.wait(); // the turn and its unpark have both landed by now
                thread::park(); // ... and something else here ate the token:
                assert!(b.wait(0)); // the word, not the token, carries the turn
                assert!(b.give(0, RUN, held));
                b.give(0, RUN, held)
            })
        });
        let held = &mut None;
        baton.hand(RUN, 0, held);
        gate.wait();
        assert!(baton.wait(RUN));
        assert!(baton.give(RUN, 0, held));
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
        let p0 = start(&baton, 0, move |b, held| {
            b.hand(0, 1, held);
            g.wait();
            let back = b.wait(0);
            (back, b.give(0, RUN, held))
        });
        let p1 = start(&baton, 1, move |b, held| {
            b.hand(1, 0, held);
            gate.wait();
            b.wait(1)
        });
        // P0's last give ends the chain here: nobody passed through `run`'s
        // thread in between.
        assert!(baton.give(RUN, 0, &mut None));
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some((true, false)));
        assert_eq!(p1.join().unwrap(), Some(false));
    }

    #[test]
    fn shutdown_ends_the_wait_after_a_give_to_a_peer() {
        let baton = Arc::new(Baton::new(2));
        let p0 = start(&baton, 0, |b, held| b.give(0, 1, held)); // never gets it back
        let p1 = start(&baton, 1, |b, held| b.give(1, RUN, held));
        assert!(baton.give(RUN, 0, &mut None));
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some(false));
        assert_eq!(p1.join().unwrap(), Some(false));
    }

    #[test]
    fn guard_of_a_thread_resumed_by_a_peer_returns_the_turn_to_run() {
        let baton = Arc::new(Baton::new(2));
        let p0 = start(&baton, 0, |b, held| b.give(0, 1, held));
        // Resumed by P0, P1 exits with the turn. P0 must not get it.
        let p1 = start(&baton, 1, |_, _| ());
        let mut held = Some(7);
        assert!(baton.give(RUN, 0, &mut held));
        p1.join().unwrap();
        assert_eq!(baton.turn.load(SeqCst), RUN);
        assert_eq!(
            held,
            Some(7),
            "what P1 held when it left came back with the turn"
        );
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some(false));
    }

    #[test]
    fn the_slot_is_filled_before_the_turn_changes_hands() {
        let baton = Arc::new(Baton::new(2));
        let gate = Arc::new(Barrier::new(2));
        let g = gate.clone();
        let p0 = start(&baton, 0, move |b, held| {
            assert_eq!(*held, Some(1));
            g.wait(); // taken: the test may hold the slot now
            g.wait(); // ... and does
            b.give(0, 1, held)
        });
        let p1 = start(&baton, 1, |b, held| {
            assert_eq!(*held, Some(1), "P1 woke to the turn without the token");
            b.give(1, RUN, held)
        });
        baton.hand(RUN, 0, &mut Some(1));
        gate.wait();
        let slot = baton.slot.lock().unwrap();
        gate.wait();
        // P0 is handing to P1, but cannot fill the slot while it is held
        // here: for as long as that lasts, the word must not move.
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            baton.turn.load(SeqCst),
            0,
            "the turn moved before its token"
        );
        drop(slot);
        assert!(baton.wait(RUN));
        assert_eq!(baton.slot.lock().unwrap().take(), Some(1));
        baton.shutdown();
        assert_eq!(p0.join().unwrap(), Some(false));
        assert_eq!(p1.join().unwrap(), Some(false));
    }

    /// The holders of a rotation's turns, drawn in advance, and a check
    /// that each turn is taken by the thread it names and by no other.
    struct Rotation {
        holders: Vec<usize>,
        taken: AtomicUsize,
        inside: AtomicUsize,
    }

    impl Rotation {
        /// `me` takes the next turn: it must be alone and the one named,
        /// and hold the token, which counts the turns before this one.
        /// Returns whom to hand to next ([`RUN`] past the last turn).
        fn take(&self, me: usize, held: &mut Held) -> usize {
            assert_eq!(self.inside.swap(1, SeqCst), 0, "two threads inside");
            let turn = self.taken.fetch_add(1, SeqCst);
            assert_eq!(
                self.holders[turn], me,
                "turn {turn} taken by the wrong thread"
            );
            let token = held.as_mut().expect("the token travels with the turn");
            assert_eq!(*token, turn, "turn {turn} holds another turn's token");
            *token += 1;
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
    /// (mostly) the park. The token passes with every turn: a thread holds
    /// it exactly while it holds the turn.
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
                start(&baton, proc, move |b, held| {
                    let mut turns = 1;
                    while b.give(proc, r.take(proc, held), held) {
                        assert!(held.is_some(), "P{proc} woke to the turn without the token");
                        turns += 1;
                    }
                    assert!(held.is_none(), "P{proc} kept the token past its turn");
                    turns
                })
            })
            .collect();
        let mut next = rotation.holders[0];
        let mut run_turns = 0;
        let mut held = Some(0);
        while baton.give(RUN, next, &mut held) && rotation.taken.load(SeqCst) < TURNS {
            next = rotation.take(RUN, &mut held);
            run_turns += 1;
        }
        assert_eq!(rotation.taken.load(SeqCst), TURNS);
        assert_eq!(run_turns, rotation.turns_of(RUN));
        assert_eq!(held, Some(TURNS), "the token came back after the last turn");
        baton.shutdown();
        for (proc, thread) in threads.into_iter().enumerate() {
            let turns = thread.join().unwrap();
            assert_eq!(turns, Some(rotation.turns_of(proc)), "P{proc}");
        }
    }
}
