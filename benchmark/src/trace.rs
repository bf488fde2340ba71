//! Span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only: RAII guards
//! around each front-door call into a layer crate, and `ProbeDevice` in
//! time mode. Each thread fills its own pre-allocated buffer; nothing is
//! written out until the run ends. With the recorder off a guard costs one
//! relaxed load.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per thread; later ones are counted as dropped.
const SPANS_PER_THREAD: usize = 1 << 20;
/// Spans per thread written to the trace file.
const FILE_SPANS_PER_THREAD: usize = 50_000;
const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: u32,
    /// Operation the span belongs to; 0 on background threads.
    pub op: u64,
}

struct ThreadBuf {
    thread: String,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUFS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Nanoseconds of `t` on the recorder's clock.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    static CURRENT: Cell<u32> = const { Cell::new(NO_PARENT) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

fn with_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let buf = l.get_or_insert_with(|| {
            let t = std::thread::current();
            let buf = Arc::new(ThreadBuf {
                thread: format!("{}#{:?}", t.name().unwrap_or("main"), t.id()),
                spans: Mutex::new(Vec::with_capacity(SPANS_PER_THREAD)),
                dropped: AtomicU64::new(0),
            });
            BUFS.lock().expect("trace registry").push(buf.clone());
            buf
        });
        f(buf)
    })
}

/// Turn recording on or off. Turning it on also fixes the clock's epoch.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    // A statistic-style flag: a guard that races the switch records or
    // skips one span, nothing else depends on it.
    ENABLED.load(Ordering::Relaxed)
}

/// Set the operation id attached to spans opened by this thread.
pub fn set_op(op: u64) {
    OP.with(|o| o.set(op));
}

/// An open span; closes when dropped.
pub struct Guard {
    idx: u32,
    parent: u32,
}

/// Open a span named `name` on this thread.
#[inline]
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            idx: NO_PARENT,
            parent: NO_PARENT,
        };
    }
    let parent = CURRENT.with(|c| c.get());
    let op = OP.with(|o| o.get());
    let idx = with_buf(|b| {
        let mut spans = b.spans.lock().expect("span buffer");
        if spans.len() >= SPANS_PER_THREAD {
            b.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        }
        spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        (spans.len() - 1) as u32
    });
    if idx != NO_PARENT {
        CURRENT.with(|c| c.set(idx));
    }
    Guard { idx, parent }
}

impl Guard {
    /// Close the span at `end_ns` instead of now (a queued device request
    /// completes at its modeled deadline, after the call returned).
    pub fn end_at(self, end_ns: u64) {
        self.close(end_ns);
        std::mem::forget(self);
    }

    fn close(&self, end_ns: u64) {
        if self.idx == NO_PARENT {
            return;
        }
        with_buf(|b| {
            if let Some(s) = b
                .spans
                .lock()
                .expect("span buffer")
                .get_mut(self.idx as usize)
            {
                s.end_ns = end_ns.max(s.start_ns);
            }
        });
        CURRENT.with(|c| c.set(self.parent));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.close(now_ns());
    }
}

/// Everything recorded so far, per thread. Clears the buffers.
pub struct Collected {
    pub threads: Vec<(String, Vec<Span>)>,
    pub dropped: u64,
}

pub fn collect() -> Collected {
    let bufs = BUFS.lock().expect("trace registry");
    let mut threads = Vec::new();
    let mut dropped = 0;
    for b in bufs.iter() {
        let mut spans = b.spans.lock().expect("span buffer");
        dropped += b.dropped.swap(0, Ordering::Relaxed);
        if !spans.is_empty() {
            // Keep the pre-allocated buffer with the thread; copy out.
            threads.push((b.thread.clone(), spans.clone()));
            spans.clear();
        }
    }
    Collected { threads, dropped }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone)]
pub struct NameStats {
    pub durations_ns: Vec<u64>,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

impl Collected {
    /// Closed spans with `start_ns` in `[from, to)`, grouped by name, with
    /// self times.
    pub fn stats(&self, from: u64, to: u64) -> std::collections::BTreeMap<&'static str, NameStats> {
        let mut out: std::collections::BTreeMap<&'static str, NameStats> = Default::default();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if s.end_ns != 0 && s.parent != NO_PARENT {
                    if let Some(c) = child_ns.get_mut(s.parent as usize) {
                        *c += s.end_ns - s.start_ns;
                    }
                }
            }
            for (i, s) in spans.iter().enumerate() {
                if s.end_ns == 0 || s.start_ns < from || s.start_ns >= to {
                    continue;
                }
                let d = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.durations_ns.push(d);
                e.total_ns += d;
                e.self_ns += d.saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Share of `[from, to)` during which at least one span whose name
    /// starts with `prefix` was open (a device's busy time).
    pub fn busy_share(&self, prefix: &str, from: u64, to: u64) -> f64 {
        let mut iv: Vec<(u64, u64)> = self
            .threads
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .filter(|s| s.end_ns != 0 && s.name.starts_with(prefix))
            .map(|s| (s.start_ns.max(from), s.end_ns.min(to)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut busy = 0u64;
        let mut cur_end = from;
        for (a, b) in iv {
            let a = a.max(cur_end);
            if b > a {
                busy += b - a;
                cur_end = b;
            }
        }
        busy as f64 / (to - from).max(1) as f64
    }

    /// Write the spans as JSON lines: one object per span with the
    /// thread, index, name, start, end, parent index (or null) and op id.
    /// Parentless device spans belong to their thread's `background` root.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for (thread, spans) in &self.threads {
            let kept = &spans[..spans.len().min(FILE_SPANS_PER_THREAD)];
            if kept.iter().any(|s| s.parent == NO_PARENT && s.op == 0) {
                let start = kept.iter().map(|s| s.start_ns).min().unwrap_or(0);
                let end = kept.iter().map(|s| s.end_ns).max().unwrap_or(0);
                writeln!(
                    w,
                    "{{\"thread\":\"{thread}\",\"idx\":\"background\",\"name\":\"background\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":null,\"op\":0}}"
                )?;
            }
            for (i, s) in kept.iter().enumerate() {
                if s.end_ns == 0 {
                    continue;
                }
                let parent = match s.parent {
                    NO_PARENT if s.op == 0 => "\"background\"".to_string(),
                    NO_PARENT => "null".to_string(),
                    p => p.to_string(),
                };
                writeln!(
                    w,
                    "{{\"thread\":\"{thread}\",\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.op
                )?;
                written += 1;
            }
        }
        w.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the recorder is process-global state.
    #[test]
    fn nesting_self_time_and_off_switch() {
        set_enabled(false);
        drop(span("ignored"));
        set_enabled(true);
        set_op(7);
        let t0 = now_ns();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            span("queued").end_at(now_ns() + 1_000_000);
        }
        set_enabled(false);
        let c = collect();
        let stats = c.stats(t0, u64::MAX);
        assert!(!stats.contains_key("ignored"));
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert_eq!(outer.durations_ns.len(), 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.total_ns >= inner.total_ns + 2_000_000);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert!(stats["queued"].total_ns >= 1_000_000);
        let (_, spans) = c
            .threads
            .iter()
            .find(|(_, s)| s.iter().any(|s| s.name == "outer"))
            .unwrap();
        let outer_idx = spans.iter().position(|s| s.name == "outer").unwrap() as u32;
        let inner_span = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner_span.parent, outer_idx);
        assert_eq!(inner_span.op, 7);
        assert!(c.busy_share("inn", t0, now_ns()) > 0.0);
        assert!(collect().threads.is_empty(), "collect drains");
    }
}
