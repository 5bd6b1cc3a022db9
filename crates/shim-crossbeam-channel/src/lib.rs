//! Offline stand-in for
//! [`crossbeam-channel`](https://docs.rs/crossbeam-channel), covering
//! exactly the API surface this workspace uses: [`unbounded`] channels with
//! cloneable senders *and* receivers, blocking [`Receiver::recv`], and
//! non-blocking [`Sender::send`].
//!
//! The container this repository builds in has no registry access, so the
//! real crate cannot be fetched. `std::sync::mpsc` is single-consumer, so a
//! plain re-export cannot satisfy crossbeam's `Receiver: Clone`; instead the
//! shim implements a small mutex-plus-condvar MPMC queue and reuses the
//! standard library's channel error vocabulary (`SendError`, `RecvError`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

pub use std::sync::mpsc::{RecvError, SendError};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    available: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half of an unbounded channel. Cloneable; sends never block.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an unbounded channel. Cloneable; clones compete
/// for messages (each message is delivered to exactly one receiver).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded FIFO channel, crossbeam-style.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        available: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message. Fails only when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let disconnected = state.senders == 0;
        drop(state);
        if disconnected {
            // Wake blocked receivers so they observe the disconnect.
            self.shared.available.notify_all();
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next message, blocking until one arrives. Fails only
    /// when the channel is empty and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self
                .shared
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receivers -= 1;
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn disconnect_is_an_error() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert!(rx.recv().is_err());
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cloned_receiver_sees_disconnect_only_after_drain() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx2.recv().unwrap(), 7);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_receiver_wakes_on_send() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        tx.send(42u32).unwrap();
        assert_eq!(t.join().unwrap(), 42);
    }
}
