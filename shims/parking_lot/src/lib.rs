//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace routes `parking_lot` to this shim. It reproduces the subset
//! of the API the engine uses — non-poisoning `Mutex`, `RwLock`, and
//! `Condvar` — on top of `std::sync`. Poisoning is neutralized by handing
//! back the inner guard on a poisoned lock: the engine treats a panic while
//! holding a latch as fatal to the test that caused it, not to every other
//! thread.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

// ----------------------------------------------------------------- mutex ---

pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can take the std guard by value and put a
    // fresh one back; it is `None` only inside that window.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner: Some(inner) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

// ---------------------------------------------------------------- rwlock ---

pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.0.read() {
            Ok(g) => RwLockReadGuard(g),
            Err(p) => RwLockReadGuard(p.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.0.write() {
            Ok(g) => RwLockWriteGuard(g),
            Err(p) => RwLockWriteGuard(p.into_inner()),
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// --------------------------------------------------------------- condvar ---

/// Result of a timed wait (mirrors `parking_lot::WaitTimeoutResult`).
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    cv: std::sync::Condvar,
    /// Threads inside `wait`/`wait_for`. A waiter registers while it still
    /// holds the paired mutex, so a notifier that changed the predicate
    /// under that mutex either ran before the waiter locked (the waiter
    /// sees the change and never waits) or locks after the waiter's unlock
    /// and therefore reads a count that includes it. With no waiter
    /// registered, `notify_*` return without the futex call — what the
    /// real parking_lot does with its empty-queue check.
    waiters: AtomicU32,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            cv: std::sync::Condvar::new(),
            waiters: AtomicU32::new(0),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        // ordering: Relaxed; the mutex release inside `cv.wait` publishes the count
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let inner = match self.cv.wait(inner) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        // ordering: Relaxed; the mutex release inside `cv.wait_timeout` publishes the count
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let (inner, res) = match self.cv.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => p.into_inner(),
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.inner = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter; `false` (and no system call) when none is
    /// registered.
    pub fn notify_one(&self) -> bool {
        // ordering: Relaxed; a waiter that must not be missed registered before
        // unlocking the mutex this notifier changed the predicate under
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.cv.notify_one();
        true
    }

    /// Wake every waiter; returns how many were registered (0 = no system
    /// call).
    pub fn notify_all(&self) -> usize {
        // ordering: Relaxed; as in `notify_one`
        let n = self.waiters.load(Ordering::Relaxed) as usize;
        if n > 0 {
            self.cv.notify_all();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn notify_without_waiter_is_a_no_op() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
        // A timed-out waiter deregisters itself.
        let m = Mutex::new(());
        let r = cv.wait_for(&mut m.lock(), Duration::from_millis(1));
        assert!(r.timed_out());
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    /// Two threads hand a token back and forth, each changing the
    /// predicate under the mutex and notifying *after* unlocking — the
    /// window in which a waiter not yet counted would be skipped by the
    /// early-out. Untimed waits: one lost wake-up hangs the test.
    #[test]
    fn waiter_registered_before_unlock_is_always_woken() {
        const ROUNDS: u32 = 20_000;
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let player = |parity: u32| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*shared;
                for _ in 0..ROUNDS {
                    let mut turn = m.lock();
                    while *turn % 2 != parity {
                        cv.wait(&mut turn);
                    }
                    *turn += 1;
                    drop(turn);
                    cv.notify_one();
                }
            })
        };
        let (a, b) = (player(0), player(1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*shared.0.lock(), 2 * ROUNDS);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }
}
