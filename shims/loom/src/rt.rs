//! The model-checking runtime: a token-passing cooperative scheduler over
//! real OS threads plus a DFS explorer of interleavings.
//!
//! Execution model: at most one model thread runs at a time. Every *visible
//! operation* (atomic access, lock/unlock, condvar op, spawn, join, yield)
//! first reaches a *decision point* where the scheduler picks which runnable
//! thread proceeds. A recorded trace of decisions identifies the execution;
//! the explorer enumerates alternative decisions depth-first, bounded by a
//! preemption budget (`LOOM_MAX_PREEMPTIONS`, default 3): switching away from
//! a thread that could have continued costs one preemption, switching away
//! from a blocked/finished thread is free. Within that bound the search is
//! exhaustive.
//!
//! Limitations (documented in DESIGN.md): memory is sequentially consistent —
//! `Ordering` arguments are accepted but not weakened, so reordering bugs
//! that need `Relaxed`/`Acquire`-level weakness are out of scope; spurious
//! `compare_exchange_weak` failures and spurious condvar wakeups are not
//! injected.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once};

/// Sentinel panic payload used to unwind model threads out of a poisoned
/// (already-failed) execution without reporting a second failure.
pub(crate) struct PoisonExit;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked,
    Finished,
}

struct LockSt {
    /// Exclusive holder present (mutex held, or rwlock write-locked).
    held: bool,
    /// Shared holders (rwlock read-locked); always 0 for mutexes.
    readers: usize,
    waiters: Vec<usize>,
}

struct CvSt {
    waiters: Vec<usize>,
}

/// One scheduling decision. `enabled_len`/`noswitch` reconstruct the choice
/// space; `rank` is the index taken in canonical exploration order (rank 0 =
/// "keep running the previous thread" when that thread is still runnable).
struct Decision {
    enabled_len: usize,
    noswitch: Option<usize>,
    rank: usize,
}

#[derive(Default)]
struct State {
    threads: Vec<Run>,
    cur: usize,
    finished: usize,
    trace: Vec<Decision>,
    prefix: Vec<usize>,
    atomics: Vec<u64>,
    locks: Vec<LockSt>,
    cvs: Vec<CvSt>,
    join_waiters: Vec<(usize, usize)>, // (waiter, target)
    poisoned: bool,
    payload: Option<Box<dyn Any + Send>>,
}

pub(crate) struct Sched {
    m: StdMutex<State>,
    cv: StdCondvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Sched>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn ctx() -> Option<(Arc<Sched>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<(Arc<Sched>, usize)>) {
    CTX.with(|c| *c.borrow_mut() = v);
}

/// Map an exploration rank to a position in the enabled set. Canonical
/// order: the previously-running thread first (if still enabled), then the
/// remaining enabled positions ascending.
fn rank_to_pos(noswitch: Option<usize>, rank: usize) -> usize {
    match noswitch {
        None => rank,
        Some(np) => {
            if rank == 0 {
                np
            } else if rank - 1 < np {
                rank - 1
            } else {
                rank
            }
        }
    }
}

impl Sched {
    fn new() -> Self {
        Sched {
            m: StdMutex::new(State::default()),
            cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, State> {
        // A model thread that panics (assertion failure) may unwind while
        // holding this mutex; recover the state rather than cascading.
        self.m.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn begin_execution(&self, prefix: Vec<usize>) {
        let mut s = self.lock();
        *s = State {
            threads: vec![Run::Runnable],
            cur: 0,
            prefix,
            ..State::default()
        };
    }

    fn poison(&self, s: &mut State, payload: Box<dyn Any + Send>) {
        if !s.poisoned {
            s.poisoned = true;
            s.payload = Some(payload);
        }
        self.cv.notify_all();
    }

    pub(crate) fn poison_with(&self, payload: Box<dyn Any + Send>) {
        let mut s = self.lock();
        self.poison(&mut s, payload);
    }

    /// Pick the next thread to run. `prev_runnable` is `Some(me)` when the
    /// calling thread stays runnable across this decision (a pre-op point),
    /// `None` when it just blocked or finished.
    fn schedule(&self, s: &mut State, prev_runnable: Option<usize>) {
        let enabled: Vec<usize> = s
            .threads
            .iter()
            .enumerate()
            .filter(|(_, r)| **r == Run::Runnable)
            .map(|(t, _)| t)
            .collect();
        if enabled.is_empty() {
            if s.finished < s.threads.len() {
                let blocked = s.threads.iter().filter(|r| **r == Run::Blocked).count();
                self.poison(
                    s,
                    Box::new(format!(
                        "loom: deadlock — {blocked} thread(s) blocked with no runnable thread"
                    )),
                );
            }
            self.cv.notify_all();
            return;
        }
        let noswitch = prev_runnable.and_then(|p| enabled.iter().position(|&t| t == p));
        let step = s.trace.len();
        let rank = if step < s.prefix.len() {
            let r = s.prefix[step];
            if r >= enabled.len() {
                self.poison(
                    s,
                    Box::new(
                        "loom: replay divergence — model is nondeterministic (it must not \
                         depend on time, randomness, or state carried across executions)"
                            .to_string(),
                    ),
                );
                return;
            }
            r
        } else {
            0
        };
        s.cur = enabled[rank_to_pos(noswitch, rank)];
        s.trace.push(Decision {
            enabled_len: enabled.len(),
            noswitch,
            rank,
        });
        self.cv.notify_all();
    }

    /// Block until it is `me`'s turn to run. Panics with the poison sentinel
    /// if the execution failed in the meantime.
    fn wait_turn<'a>(
        &'a self,
        mut s: StdMutexGuard<'a, State>,
        me: usize,
    ) -> StdMutexGuard<'a, State> {
        while !s.poisoned && s.cur != me {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        s
    }

    /// A pre-op decision point: give the scheduler a chance to switch, then
    /// run `f` on the shared state once it is our turn. Every visible
    /// operation funnels through here.
    fn op<R>(&self, me: usize, f: impl FnOnce(&mut State) -> R) -> R {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let mut s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        f(&mut s)
    }

    pub(crate) fn yield_point(&self, me: usize) {
        self.op(me, |_| {});
    }

    // ---- atomics ----------------------------------------------------------

    pub(crate) fn alloc_atomic(&self, v: u64) -> usize {
        let mut s = self.lock();
        s.atomics.push(v);
        s.atomics.len() - 1
    }

    pub(crate) fn atomic_op<R>(&self, slot: usize, f: impl FnOnce(&mut u64) -> R) -> R {
        match ctx() {
            Some((_, me)) => self.op(me, |s| f(&mut s.atomics[slot])),
            // Touched from a non-model thread (e.g. helper infrastructure):
            // still atomic under the scheduler lock, just not interleaved.
            None => f(&mut self.lock().atomics[slot]),
        }
    }

    // ---- locks ------------------------------------------------------------

    pub(crate) fn alloc_lock(&self) -> usize {
        let mut s = self.lock();
        s.locks.push(LockSt {
            held: false,
            readers: 0,
            waiters: Vec::new(),
        });
        s.locks.len() - 1
    }

    fn block_here(&self, s: &mut State, me: usize) {
        s.threads[me] = Run::Blocked;
        self.schedule(s, None);
    }

    fn acquire_loop<'a>(
        &'a self,
        mut s: StdMutexGuard<'a, State>,
        me: usize,
        id: usize,
        can_take: impl Fn(&LockSt) -> bool,
        take: impl Fn(&mut LockSt),
    ) -> StdMutexGuard<'a, State> {
        loop {
            if can_take(&s.locks[id]) {
                take(&mut s.locks[id]);
                return s;
            }
            s.locks[id].waiters.push(me);
            self.block_here(&mut s, me);
            s = self.wait_turn(s, me);
        }
    }

    pub(crate) fn mutex_lock(&self, me: usize, id: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        drop(self.acquire_loop(s, me, id, |l| !l.held, |l| l.held = true));
    }

    pub(crate) fn mutex_try_lock(&self, me: usize, id: usize) -> bool {
        self.op(me, |s| {
            if s.locks[id].held {
                false
            } else {
                s.locks[id].held = true;
                true
            }
        })
    }

    /// Like [`op`], but safe to call from guard `Drop` impls: never panics.
    /// During a poisoned execution or while the calling thread is unwinding
    /// it releases state without taking a decision point.
    fn op_quiet(&self, me: usize, f: impl FnOnce(&mut State)) {
        let s = self.lock();
        if s.poisoned {
            return;
        }
        if std::thread::panicking() {
            // The execution is about to be poisoned by this thread's panic;
            // release the resource without scheduling so unwinding cannot
            // deadlock or double-panic.
            let mut s = s;
            f(&mut s);
            return;
        }
        let mut s = s;
        self.schedule(&mut s, Some(me));
        while !s.poisoned && s.cur != me {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        if s.poisoned {
            return;
        }
        f(&mut s);
    }

    pub(crate) fn mutex_unlock(&self, me: usize, id: usize) {
        self.op_quiet(me, |s| {
            s.locks[id].held = false;
            Self::wake_lock_waiters(s, id);
        });
    }

    fn wake_lock_waiters(s: &mut State, id: usize) {
        let waiters = std::mem::take(&mut s.locks[id].waiters);
        for w in waiters {
            s.threads[w] = Run::Runnable;
        }
    }

    pub(crate) fn rwlock_read(&self, me: usize, id: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        drop(self.acquire_loop(s, me, id, |l| !l.held, |l| l.readers += 1));
    }

    pub(crate) fn rwlock_read_unlock(&self, me: usize, id: usize) {
        self.op_quiet(me, |s| {
            s.locks[id].readers -= 1;
            if s.locks[id].readers == 0 {
                Self::wake_lock_waiters(s, id);
            }
        });
    }

    pub(crate) fn rwlock_write(&self, me: usize, id: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        drop(self.acquire_loop(s, me, id, |l| !l.held && l.readers == 0, |l| l.held = true));
    }

    pub(crate) fn rwlock_write_unlock(&self, me: usize, id: usize) {
        self.mutex_unlock(me, id);
    }

    // ---- condvars ---------------------------------------------------------

    pub(crate) fn alloc_cv(&self) -> usize {
        let mut s = self.lock();
        s.cvs.push(CvSt {
            waiters: Vec::new(),
        });
        s.cvs.len() - 1
    }

    /// Atomically release `mutex_id`, enqueue on `cv_id`, block until
    /// notified, then reacquire the mutex.
    pub(crate) fn cv_wait(&self, me: usize, cv_id: usize, mutex_id: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let mut s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        s.locks[mutex_id].held = false;
        Self::wake_lock_waiters(&mut s, mutex_id);
        s.cvs[cv_id].waiters.push(me);
        self.block_here(&mut s, me);
        let s = self.wait_turn(s, me);
        drop(self.acquire_loop(s, me, mutex_id, |l| !l.held, |l| l.held = true));
    }

    /// Timed wait, modeled as an immediate timeout: release the mutex, take a
    /// decision point (so other threads can interleave), reacquire, and
    /// report `timed_out`. This is legal condvar semantics (a zero-duration
    /// wait) and keeps polling loops live without modeling wall-clock time.
    pub(crate) fn cv_wait_timeout(&self, me: usize, mutex_id: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let mut s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        s.locks[mutex_id].held = false;
        Self::wake_lock_waiters(&mut s, mutex_id);
        self.schedule(&mut s, Some(me));
        let s = self.wait_turn(s, me);
        drop(self.acquire_loop(s, me, mutex_id, |l| !l.held, |l| l.held = true));
    }

    pub(crate) fn cv_notify_one(&self, me: usize, cv_id: usize) {
        self.op(me, |s| {
            if !s.cvs[cv_id].waiters.is_empty() {
                let w = s.cvs[cv_id].waiters.remove(0);
                s.threads[w] = Run::Runnable;
            }
        });
    }

    pub(crate) fn cv_notify_all(&self, me: usize, cv_id: usize) {
        self.op(me, |s| {
            let waiters = std::mem::take(&mut s.cvs[cv_id].waiters);
            for w in waiters {
                s.threads[w] = Run::Runnable;
            }
        });
    }

    // ---- threads ----------------------------------------------------------

    pub(crate) fn spawn_thread<T: Send + 'static>(
        self: &Arc<Self>,
        spawner: usize,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> (usize, std::thread::JoinHandle<Option<T>>) {
        let tid = {
            let mut s = self.lock();
            if s.poisoned {
                drop(s);
                std::panic::panic_any(PoisonExit);
            }
            s.threads.push(Run::Runnable);
            s.threads.len() - 1
        };
        let sched = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("loom-{tid}"))
            .spawn(move || {
                set_ctx(Some((Arc::clone(&sched), tid)));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    // Do not run user code until the scheduler picks us.
                    let s = sched.lock();
                    drop(sched.wait_turn(s, tid));
                    f()
                }));
                let out = match r {
                    Ok(v) => Some(v),
                    Err(p) => {
                        if !p.is::<PoisonExit>() {
                            sched.poison_with(p);
                        }
                        None
                    }
                };
                sched.finish_thread(tid);
                set_ctx(None);
                out
            })
            .expect("loom: failed to spawn model thread");
        // The spawn itself is a visible op: the child is now schedulable.
        self.yield_point(spawner);
        (tid, h)
    }

    pub(crate) fn finish_thread(&self, me: usize) {
        let mut s = self.lock();
        s.threads[me] = Run::Finished;
        s.finished += 1;
        let mut i = 0;
        while i < s.join_waiters.len() {
            if s.join_waiters[i].1 == me {
                let (w, _) = s.join_waiters.remove(i);
                s.threads[w] = Run::Runnable;
            } else {
                i += 1;
            }
        }
        if s.poisoned || s.finished == s.threads.len() {
            self.cv.notify_all();
        } else {
            self.schedule(&mut s, None);
        }
    }

    pub(crate) fn join_wait(&self, me: usize, target: usize) {
        let s = self.lock();
        if s.poisoned {
            drop(s);
            std::panic::panic_any(PoisonExit);
        }
        let mut s = {
            let mut s = s;
            self.schedule(&mut s, Some(me));
            self.wait_turn(s, me)
        };
        loop {
            if s.threads[target] == Run::Finished {
                return;
            }
            s.join_waiters.push((me, target));
            self.block_here(&mut s, me);
            s = self.wait_turn(s, me);
        }
    }

    fn wait_all_finished(&self) {
        let mut s = self.lock();
        while s.finished < s.threads.len() {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn end_execution(&self) -> (Option<Box<dyn Any + Send>>, Vec<Decision>) {
        let mut s = self.lock();
        (s.payload.take(), std::mem::take(&mut s.trace))
    }
}

/// Compute the next DFS prefix (as ranks) after `trace`, or `None` when the
/// bounded search space is exhausted.
fn next_prefix(trace: &[Decision], max_preemptions: usize) -> Option<Vec<usize>> {
    // cum[i] = preemptions consumed by trace[..i].
    let mut cum = Vec::with_capacity(trace.len() + 1);
    cum.push(0usize);
    for d in trace {
        let cost = usize::from(d.noswitch.is_some() && d.rank != 0);
        cum.push(cum.last().unwrap() + cost);
    }
    for i in (0..trace.len()).rev() {
        let d = &trace[i];
        for r in d.rank + 1..d.enabled_len {
            let cost = usize::from(d.noswitch.is_some() && r != 0);
            if cum[i] + cost <= max_preemptions {
                let mut p: Vec<usize> = trace[..i].iter().map(|d| d.rank).collect();
                p.push(r);
                return Some(p);
            }
        }
    }
    None
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Silence the panic hook for the internal poison sentinel so a failing
/// execution reports exactly one panic (the real one), not one per thread.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<PoisonExit>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Run `f` under every schedule reachable within the preemption bound.
/// Panics (re-raising the model's own panic) on the first failing schedule.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    explored_schedules(f);
}

/// [`model`], returning the number of schedules explored; used by the
/// shim's own tests.
#[doc(hidden)]
pub fn explored_schedules<F>(f: F) -> usize
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let max_preemptions = env_usize("LOOM_MAX_PREEMPTIONS", 3);
    let max_iterations = env_usize("LOOM_MAX_ITERATIONS", 1_000_000);
    let sched = Arc::new(Sched::new());
    let mut prefix: Vec<usize> = Vec::new();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        assert!(
            iterations <= max_iterations,
            "loom: exceeded {max_iterations} executions — shrink the model or raise LOOM_MAX_ITERATIONS"
        );
        sched.begin_execution(std::mem::take(&mut prefix));
        set_ctx(Some((Arc::clone(&sched), 0)));
        let r = catch_unwind(AssertUnwindSafe(&f));
        if let Err(p) = r {
            if !p.is::<PoisonExit>() {
                sched.poison_with(p);
            }
        }
        sched.finish_thread(0);
        sched.wait_all_finished();
        set_ctx(None);
        let (payload, trace) = sched.end_execution();
        if let Some(p) = payload {
            eprintln!(
                "loom: model failed on execution {iterations} (trace length {})",
                trace.len()
            );
            resume_unwind(p);
        }
        match next_prefix(&trace, max_preemptions) {
            Some(p) => prefix = p,
            None => return iterations,
        }
    }
}
