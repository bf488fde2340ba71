//! Windowed latency recorder, order statistics, and process CPU / memory
//! sampling.
//!
//! A timed window is cut into equal sub-windows. Every latency or rate
//! metric is computed per sub-window and reported as the median over the
//! sub-windows, so one burst from a noisy neighbour cannot move it.

use std::time::{Duration, Instant};

/// Operation classes the end-to-end metrics distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
}

/// Eight bytes a sample, so that a run's peak memory moves little with
/// its operation count. A latency above 4.29 s reads as 4.29 s.
#[derive(Clone, Copy)]
struct Sample {
    ns: u32,
    window: u8,
    class: Class,
}

/// The sub-window grid of one run, shared by all clients.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    pub start: Instant,
    pub sub: Duration,
    pub count: usize,
}

impl Grid {
    pub fn end(&self) -> Instant {
        self.start + self.sub * self.count as u32
    }

    /// Sub-window an operation that completed at `t` belongs to.
    pub fn index(&self, t: Instant) -> Option<usize> {
        if t < self.start {
            return None;
        }
        let i = (t.duration_since(self.start).as_nanos() / self.sub.as_nanos()) as usize;
        (i < self.count).then_some(i)
    }
}

/// One client's samples. Pre-sized so that recording does not allocate.
pub struct ClientLog {
    grid: Grid,
    samples: Vec<Sample>,
    /// Completed reads and writes per sub-window, including the ones whose
    /// latency was not sampled (full-content checks run inside the call).
    ops: Vec<[u64; 2]>,
}

impl ClientLog {
    pub fn new(grid: Grid) -> ClientLog {
        ClientLog {
            grid,
            samples: Vec::with_capacity(4 << 20),
            ops: vec![[0; 2]; grid.count],
        }
    }

    /// Record an operation that completed at `done`; `latency` is `None`
    /// when the operation was not timed.
    pub fn record(&mut self, done: Instant, class: Class, latency: Option<Duration>) -> bool {
        let Some(w) = self.grid.index(done) else {
            return false;
        };
        self.ops[w][class as usize] += 1;
        if let Some(l) = latency {
            self.samples.push(Sample {
                ns: u32::try_from(l.as_nanos()).unwrap_or(u32::MAX),
                window: w as u8,
                class,
            });
        }
        true
    }

    /// Completed reads and writes in sub-windows `[from, to)`.
    pub fn ops(&self, from: usize, to: usize) -> [u64; 2] {
        self.ops[from..to]
            .iter()
            .fold([0; 2], |acc, w| [acc[0] + w[0], acc[1] + w[1]])
    }
}

/// `q`-quantile (0..=1) of a sorted slice, nearest-rank.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn median_u64(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    quantile_sorted(values, 0.5)
}

/// A metric value and how many samples are behind it.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub value: f64,
    pub n: u64,
}

/// The tail percentile a sub-window's sample supports: the 99th, or the
/// highest one that still has ten samples beyond it.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples <= 20 {
        return 0.5;
    }
    (1.0 - 10.0 / samples as f64).min(0.99)
}

/// Median-of-sub-windows reduction of a range of sub-windows.
pub struct WindowStats {
    pub ops_per_s: Stat,
    pub p50_us: [Stat; 2],
    /// Median over the sub-windows of each one's tail percentile (see
    /// [`tail_quantile`]); `tail_q` is the percentile that was used in the
    /// thinnest sub-window.
    pub p99_us: [Stat; 2],
    pub tail_q: [f64; 2],
    pub ops: u64,
    /// Per sub-window: operations per second and the read / write p50.
    pub series: Vec<[f64; 3]>,
}

/// Reduce the clients' logs over sub-windows `[from, to)`.
pub fn reduce(logs: &[&ClientLog], from: usize, to: usize) -> WindowStats {
    let grid = logs[0].grid;
    let sub_s = grid.sub.as_secs_f64();
    let mut rates = Vec::new();
    let mut p50 = [Vec::new(), Vec::new()];
    let mut p99 = [Vec::new(), Vec::new()];
    let mut counts = [0u64; 2];
    let mut tail_q = [0.99f64; 2];
    let mut ops = 0;
    // One pass over the samples: a bucket per (sub-window, class).
    let mut buckets: Vec<[Vec<u64>; 2]> = (from..to).map(|_| [Vec::new(), Vec::new()]).collect();
    for s in logs.iter().flat_map(|l| l.samples.iter()) {
        if let Some(b) = (s.window as usize)
            .checked_sub(from)
            .and_then(|i| buckets.get_mut(i))
        {
            b[s.class as usize].push(s.ns as u64);
        }
    }
    let mut series = Vec::new();
    for (w, bucket) in (from..to).zip(&mut buckets) {
        let w_ops: u64 = logs.iter().map(|l| l.ops[w][0] + l.ops[w][1]).sum();
        ops += w_ops;
        rates.push(w_ops as f64 / sub_s);
        let mut row = [w_ops as f64 / sub_s, 0.0, 0.0];
        for (c, v) in bucket.iter_mut().enumerate() {
            if v.is_empty() {
                continue;
            }
            v.sort_unstable();
            counts[c] += v.len() as u64;
            let q = tail_quantile(v.len());
            tail_q[c] = tail_q[c].min(q);
            row[1 + c] = quantile_sorted(v, 0.50) as f64 / 1000.0;
            p50[c].push(row[1 + c]);
            p99[c].push(quantile_sorted(v, q) as f64 / 1000.0);
        }
        series.push(row);
    }
    let stat = |v: &mut Vec<f64>, n| Stat {
        value: median_f64(v),
        n,
    };
    WindowStats {
        ops_per_s: stat(&mut rates, ops),
        p50_us: [stat(&mut p50[0], counts[0]), stat(&mut p50[1], counts[1])],
        p99_us: [stat(&mut p99[0], counts[0]), stat(&mut p99[1], counts[1])],
        tail_q,
        ops,
        series,
    }
}

/// User + system CPU time of this process so far.
pub fn process_cpu() -> Duration {
    // Fields 14 and 15 of /proc/self/stat, counted after the command name
    // (which may contain spaces) in clock ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 10)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn median_of_sub_windows_ignores_one_bad_window() {
        let start = Instant::now();
        let grid = Grid {
            start,
            sub: Duration::from_secs(1),
            count: 3,
        };
        let mut log = ClientLog::new(grid);
        for w in 0..3u64 {
            // Window 1 is the noisy one: 100x slower.
            let ns = if w == 1 { 100_000 } else { 1_000 };
            for i in 0..10 {
                let done = start + Duration::from_millis(w * 1000 + i * 10);
                assert!(log.record(done, Class::Read, Some(Duration::from_nanos(ns))));
            }
        }
        // Outside the grid: dropped.
        assert!(!log.record(start + Duration::from_secs(3), Class::Read, None));
        // Untimed operation still counts towards throughput.
        assert!(log.record(start, Class::Write, None));
        let s = reduce(&[&log], 0, 3);
        assert_eq!(s.p50_us[0].value, 1.0);
        assert_eq!(s.p50_us[0].n, 30);
        assert_eq!(s.ops, 31);
        assert_eq!(s.ops_per_s.value, 10.0);
        // Ten samples per sub-window cannot carry a tail percentile.
        assert_eq!(s.tail_q[0], 0.5);
        assert_eq!(tail_quantile(315), 1.0 - 10.0 / 315.0);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(50_000), 0.99);
    }

    #[test]
    fn process_counters_read() {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu() >= Duration::from_millis(10));
        assert!(peak_rss_mib() > 1.0);
    }
}
