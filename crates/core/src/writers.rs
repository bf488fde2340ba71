//! The writer gate: a checkpoint describes committed state only.
//!
//! A transaction changes its relation's tree when it stages a write
//! (`Txn::put_blob` inserts the new Blob State at once), and a checkpoint
//! flushes every dirty node and truncates the log. A checkpoint taken while
//! a transaction has staged work would make that work durable with no log
//! record left to undo it. So a transaction *enters* the gate before its
//! first write and *leaves* once its records are in the commit pipeline or
//! rolled back; a checkpoint *closes* the gate to new writers, waits until
//! none is inside, and runs alone.
//!
//! It never wedges. A thread that is itself inside — it holds a write
//! transaction — gets a typed error from [`WriterGate::close`] instead of
//! waiting for itself, and re-enters past a closing checkpoint instead of
//! queueing behind it: that checkpoint is waiting for the thread's other
//! transaction. A transaction that already holds key locks (it read before
//! its first write) enters past a closing checkpoint too: a writer inside
//! may be waiting for one of those locks. Only a running checkpoint, which
//! waits for nothing a transaction holds, makes every writer wait.
//! Identity is the thread that entered, so a write transaction is expected
//! to finish on the thread that began writing.

use lobster_sync::{Condvar, Mutex};
use lobster_types::{Error, Result};
use std::thread::{self, ThreadId};

#[derive(Default)]
struct State {
    /// The thread of every transaction inside, once per transaction.
    inside: Vec<ThreadId>,
    /// A checkpoint holds the gate closed: it waits for the writers
    /// inside, then runs.
    closed: bool,
    running: bool,
}

pub(crate) struct WriterGate {
    state: Mutex<State>,
    /// Signalled when the last writer leaves and when the gate reopens.
    cv: Condvar,
}

/// The gate held closed; dropping it reopens the gate.
pub(crate) struct Closed<'a>(&'a WriterGate);

impl WriterGate {
    pub fn new() -> Self {
        WriterGate {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    /// Enter before a transaction's first write. Waits while a checkpoint
    /// runs, and while one waits to run unless the transaction `holds_locks`
    /// or this thread is already inside.
    pub fn enter(&self, holds_locks: bool) -> ThreadId {
        let me = thread::current().id();
        let mut st = self.state.lock();
        while st.running || (st.closed && !holds_locks && !st.inside.contains(&me)) {
            self.cv.wait(&mut st);
        }
        st.inside.push(me);
        me
    }

    /// Leave: the transaction that entered on `who` is committed (its
    /// records are in the commit pipeline) or rolled back.
    pub fn leave(&self, who: ThreadId) {
        let mut st = self.state.lock();
        let at = st.inside.iter().position(|&t| t == who);
        st.inside
            .swap_remove(at.expect("a writer leaves once, after entering"));
        if st.inside.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Whether the calling thread holds a transaction inside the gate.
    pub fn is_inside(&self) -> bool {
        self.state.lock().inside.contains(&thread::current().id())
    }

    /// Close the gate and wait until no writer is inside.
    ///
    /// Fails, without waiting, if the calling thread is inside itself.
    pub fn close(&self) -> Result<Closed<'_>> {
        let me = thread::current().id();
        let mut st = self.state.lock();
        loop {
            if st.inside.contains(&me) {
                return Err(Error::Unsupported(
                    "checkpoint on a thread that holds an open write transaction",
                ));
            }
            if !st.closed {
                break;
            }
            self.cv.wait(&mut st);
        }
        st.closed = true;
        while !st.inside.is_empty() {
            self.cv.wait(&mut st);
        }
        st.running = true;
        Ok(Closed(self))
    }
}

impl Drop for Closed<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        (st.closed, st.running) = (false, false);
        drop(st);
        self.0.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_writer_inside_cannot_close_the_gate() {
        let gate = WriterGate::new();
        let me = gate.enter(false);
        assert!(gate.is_inside());
        assert!(matches!(gate.close(), Err(Error::Unsupported(_))));
        gate.leave(me);
        assert!(!gate.is_inside());
        drop(gate.close().unwrap());
        // Reopened: entering does not wait.
        gate.leave(gate.enter(false));
    }
}

#[cfg(test)]
mod model {
    //! The checkpoint gate's protocol over the real [`WriterGate`]: a
    //! writer stages work only between `enter` and `leave`, and a
    //! checkpoint that holds the gate closed must never see staged work.
    //! The broken control stages before entering — the caller error the
    //! gate exists to rule out — and must be caught.

    use super::*;
    use lobster_sync::{model, model_catches, race, Actor};
    // Bookkeeping the models assert on, invisible to the scheduler.
    use std::sync::atomic::{AtomicBool as Plain, Ordering::SeqCst};

    struct World {
        gate: WriterGate,
        /// A transaction has changed the tree and not yet handed its
        /// records to the commit pipeline.
        staged: Plain,
    }

    fn world() -> World {
        World {
            gate: WriterGate::new(),
            staged: Plain::new(false),
        }
    }

    fn writer(w: &World, enter_first: bool) {
        if !enter_first {
            w.staged.store(true, SeqCst);
        }
        let me = w.gate.enter(false);
        w.staged.store(true, SeqCst);
        w.staged.store(false, SeqCst);
        w.gate.leave(me);
    }

    fn checkpoint(w: &World) {
        let closed = w.gate.close().expect("the checkpointer holds no writer");
        assert!(!w.staged.load(SeqCst), "checkpoint saw staged work");
        drop(closed);
    }

    fn run(enter_first: bool) {
        let writer: Actor<World> = Box::new(move |w| writer(w, enter_first));
        let w = race(world(), vec![writer, Box::new(checkpoint)]);
        assert!(!w.gate.is_inside());
    }

    #[test]
    fn checkpoint_sees_no_staged_work() {
        model(|| run(true));
    }

    #[test]
    fn broken_stage_before_enter_is_caught() {
        let broken = || model(|| run(false));
        assert!(model_catches(broken, "checkpoint saw staged work"));
    }

    /// A thread holding one write transaction begins a second while a
    /// checkpoint is closing the gate: the second enters at once (the
    /// checkpoint waits for the first), so nothing wedges.
    #[test]
    fn a_writer_inside_reenters_past_a_closing_checkpoint() {
        model(|| {
            let two_txns: Actor<World> = Box::new(|w| {
                let first = w.gate.enter(false);
                let second = w.gate.enter(false);
                w.gate.leave(second);
                w.gate.leave(first);
            });
            race(world(), vec![Box::new(checkpoint), two_txns]);
        });
    }

    /// A lock holder enters past a checkpoint that waits for writers, but
    /// never into one that runs: the checkpoint still sees no staged work.
    #[test]
    fn a_lock_holder_never_enters_a_running_checkpoint() {
        model(|| {
            let holder: Actor<World> = Box::new(|w| {
                let me = w.gate.enter(true);
                w.staged.store(true, SeqCst);
                w.staged.store(false, SeqCst);
                w.gate.leave(me);
            });
            race(world(), vec![holder, Box::new(checkpoint)]);
        });
    }
}
