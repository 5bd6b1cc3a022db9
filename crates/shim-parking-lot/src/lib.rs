//! Offline stand-in for [`parking_lot`](https://docs.rs/parking_lot),
//! covering exactly the API surface this workspace uses.
//!
//! The container this repository builds in has no registry access, so the
//! real crate cannot be fetched. This shim wraps [`std::sync::Mutex`] and
//! reproduces parking_lot's ergonomics: [`Mutex::lock`] returns the guard
//! directly (no `Result`), and a poisoned mutex is recovered rather than
//! propagated — parking_lot has no concept of poisoning, so recovering is
//! the faithful translation.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::sync::PoisonError;

/// A mutual-exclusion primitive with parking_lot's panic-free `lock()`.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// An RAII guard returned by [`Mutex::lock`]; the lock is released on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until it is available.
    ///
    /// Unlike `std`, never returns a poison error: a mutex whose holder
    /// panicked is recovered, matching parking_lot semantics.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }
}
