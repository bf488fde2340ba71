//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `channel` subset the workspace uses: `unbounded()` with
//! cloneable multi-producer multi-consumer `Sender`/`Receiver`. Built on a
//! shared `VecDeque` guarded by a `Mutex` + `Condvar`; disconnection is
//! tracked by counting live senders/receivers.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        cv: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by `send` when every receiver is gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by `recv` when the channel is empty and disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by `try_recv`.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by `recv_timeout`.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    pub struct Sender<T>(Arc<Shared<T>>);

    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            self.0
                .queue
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push_back(value);
            self.0.cv.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            // Relaxed is fine for the increment: a clone can only race with
            // other clones, and disconnection is decided by the AcqRel
            // fetch_sub in Drop, which orders against these adds.
            self.0.senders.fetch_add(1, Ordering::Relaxed);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect. The count is their wait predicate but is
                // not changed under the queue mutex, so pass through it
                // before notifying: a receiver that read the old count is
                // then parked (and woken) instead of parking after a wake
                // that found nobody.
                drop(self.0.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.0.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.0.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Like `recv`, giving up after `timeout`; a timeout too long for an
        /// `Instant` to represent waits without a deadline.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now().checked_add(timeout);
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(deadline) = deadline else {
                    q = self.0.cv.wait(q).unwrap_or_else(|p| p.into_inner());
                    continue;
                };
                let now = std::time::Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _timed_out) = self
                    .0
                    .cv
                    .wait_timeout(q, left)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            // Relaxed for the same reason as `Sender::clone` above.
            self.0.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = unbounded::<i32>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert!(tx.send(5).is_err());
        }

        /// A receiver parked in an untimed `recv` must observe the last
        /// sender's drop however the two interleave.
        #[test]
        fn blocked_recv_sees_racing_disconnect() {
            for _ in 0..2_000 {
                let (tx, rx) = unbounded::<i32>();
                let waiter = std::thread::spawn(move || rx.recv());
                drop(tx);
                assert_eq!(waiter.join().unwrap(), Err(RecvError));
            }
        }

        #[test]
        fn recv_timeout_semantics() {
            use std::time::Duration;
            let (tx, rx) = unbounded::<i32>();
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_with_no_representable_deadline_waits_for_a_send() {
            use std::time::Duration;
            let (tx, rx) = unbounded::<i32>();
            tx.send(1).unwrap();
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(1));
            let sender = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(2).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::MAX), Ok(2));
            sender.join().unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::MAX),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn mpmc_across_threads() {
            let (tx, rx) = unbounded::<usize>();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut sum = 0usize;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            drop(rx);
            for i in 1..=1000usize {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: usize = consumers.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(total, 500_500);
        }
    }
}
