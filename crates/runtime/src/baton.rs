//! The baton: whose turn it is to run — the scheduler's or one process's.
//!
//! Process bodies run on their own OS threads but never concurrently (see
//! [`scheduler`](crate::scheduler)), so all the handoff has to carry is one
//! word naming the thread allowed to run. A thread that is not named parks
//! ([`std::thread::park`]); whoever changes the word unparks the thread it
//! names. Every waiter re-reads the word before and after each park, so an
//! unpark that lands before its park — or a stray token left on the
//! caller's thread by an earlier run — costs one extra loop, never a lost
//! wake-up. Thread start goes through the same word ([`Baton::start`]), so
//! no two threads of a run ever do anything at the same time.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::thread::{self, Thread};

/// The scheduler's turn: the last process handed the baton back.
const SCHEDULER: usize = usize::MAX;
/// The scheduler's turn, because the thread that held the baton exited.
const ABANDONED: usize = usize::MAX - 1;
/// Nobody's turn ever again: process threads unwind and exit.
const SHUTDOWN: usize = usize::MAX - 2;

/// The turn word (one of the constants above, or a process index) and the
/// scheduler's thread handle. Process thread handles stay with the
/// scheduler, the only side that unparks them.
#[derive(Debug)]
pub(crate) struct Baton {
    turn: AtomicUsize,
    scheduler: Thread,
}

impl Baton {
    /// A baton held by the calling thread, which becomes the scheduler.
    pub(crate) fn new() -> Self {
        Baton {
            turn: AtomicUsize::new(SCHEDULER),
            scheduler: thread::current(),
        }
    }

    /// Scheduler side: start process `proc`'s thread with `spawn` and wait
    /// until it has checked in with its first [`pass`](Baton::pass). One
    /// thread starts at a time: a new thread's start-up allocations (name,
    /// thread-locals, allocator cache) would otherwise race the scheduler's
    /// next spawn, and their order fixes the heap layout — and with it the
    /// peak memory, by several MiB — for the rest of the run.
    pub(crate) fn start<T>(&self, proc: usize, spawn: impl FnOnce() -> T) -> T {
        self.turn.store(proc, SeqCst);
        let spawned = spawn();
        let checked_in = self.take();
        debug_assert!(checked_in, "a process thread left before its first pass");
        spawned
    }

    /// Scheduler side: give process `proc` (running on `thread`) the turn
    /// and wait for it to come back. `false` means the thread exited while
    /// holding the baton instead of passing it.
    pub(crate) fn resume(&self, proc: usize, thread: &Thread) -> bool {
        self.give(proc, thread);
        self.take()
    }

    fn give(&self, proc: usize, thread: &Thread) {
        self.turn.store(proc, SeqCst);
        thread.unpark();
    }

    fn take(&self) -> bool {
        loop {
            match self.turn.load(SeqCst) {
                SCHEDULER => return true,
                ABANDONED => return false,
                _ => thread::park(),
            }
        }
    }

    /// Scheduler side: end the run. Every process thread's pending or next
    /// [`pass`](Baton::pass) returns `false`.
    pub(crate) fn shutdown<'a>(&self, threads: impl Iterator<Item = &'a Thread>) {
        self.turn.store(SHUTDOWN, SeqCst);
        threads.for_each(Thread::unpark);
    }

    /// Process side: wait for `me`'s turn. `false` means shutdown.
    fn wait(&self, me: usize) -> bool {
        loop {
            match self.turn.load(SeqCst) {
                SHUTDOWN => return false,
                turn if turn == me => return true,
                _ => thread::park(),
            }
        }
    }

    /// Process side: hand the baton back to the scheduler, then wait for
    /// `me`'s next turn. `false` means shutdown. A process thread's first
    /// act is a `pass`, answering [`start`](Baton::start).
    pub(crate) fn pass(&self, me: usize) -> bool {
        self.hand_back(me, SCHEDULER);
        self.wait(me)
    }

    /// Give the scheduler the turn iff `me` holds it (after shutdown, or in
    /// a thread that never got a turn, there is nothing to hand back).
    fn hand_back(&self, me: usize, to: usize) {
        if self.turn.compare_exchange(me, to, SeqCst, SeqCst).is_ok() {
            self.scheduler.unpark();
        }
    }

    /// Process side: a guard for the body of process thread `me`. If the
    /// thread leaves (return or unwind) while it still holds the baton, the
    /// scheduler gets it back marked abandoned instead of waiting forever.
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
        self.baton.hand_back(self.me, ABANDONED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn thread_that_exits_holding_the_baton_returns_it_abandoned() {
        let baton = Arc::new(Baton::new());
        let b = baton.clone();
        let quitter = thread::spawn(move || {
            let _guard = b.return_on_exit(0);
            assert!(b.wait(0));
            // exits with the turn: only the guard tells the scheduler
        });
        assert!(!baton.resume(0, quitter.thread()));
        quitter.join().unwrap();
    }

    #[test]
    fn start_returns_once_the_new_thread_has_checked_in() {
        let baton = Arc::new(Baton::new());
        let up = Arc::new(AtomicUsize::new(0));
        let (b, u) = (baton.clone(), up.clone());
        let proc = baton.start(0, || {
            thread::spawn(move || {
                let _guard = b.return_on_exit(0);
                u.store(1, SeqCst); // start-up work, then the check-in
                b.pass(0)
            })
        });
        assert_eq!(up.load(SeqCst), 1, "start returned before the check-in");
        assert_eq!(baton.turn.load(SeqCst), SCHEDULER);
        baton.shutdown([proc.thread()].into_iter());
        assert!(!proc.join().unwrap(), "the thread never got a turn");
    }

    #[test]
    fn unpark_before_park_loses_no_wakeup() {
        let baton = Arc::new(Baton::new());
        let gate = Arc::new(Barrier::new(2));
        let (b, g) = (baton.clone(), gate.clone());
        let proc = thread::spawn(move || {
            let _guard = b.return_on_exit(0);
            g.wait(); // the turn and its unpark have both landed by now
            thread::park(); // ... and something else here ate the token:
            assert!(b.wait(0)); // the word, not the token, carries the turn
            assert!(b.pass(0));
            b.pass(0)
        });
        baton.give(0, proc.thread());
        gate.wait();
        assert!(baton.take());
        assert!(baton.resume(0, proc.thread()));
        baton.shutdown([proc.thread()].into_iter());
        assert!(!proc.join().unwrap(), "shutdown ends the last pass");
        // The guard dropped after shutdown and must not have reclaimed it.
        assert_eq!(baton.turn.load(SeqCst), SHUTDOWN);
    }
}
