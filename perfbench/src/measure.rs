//! Measurement plumbing: named metrics, medians and exact percentiles,
//! the process's peak resident set, and the span recorder of the traced
//! run.

use std::time::Instant;

/// One reported number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `s`, `ms`, `MB` or `count`.
    pub unit: &'static str,
}

/// Metric constructor shorthand.
#[must_use]
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// If `xs` is empty or holds a NaN.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency histogram with exact 1 ns buckets below [`NsHistogram::EXACT`]
/// and a sorted-on-demand overflow list above it, so percentiles are exact
/// without keeping every sample of a multi-million-query run.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    buckets: Vec<u64>,
    over: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        Self { buckets: vec![0; Self::EXACT as usize], over: Vec::new(), count: 0, sum_ns: 0 }
    }
}

impl NsHistogram {
    /// Latencies below this many nanoseconds are bucketed.
    pub const EXACT: u64 = 100_000;

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        match self.buckets.get_mut(ns as usize) {
            Some(b) => *b += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded latency, nanoseconds.
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &NsHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Nearest-rank percentile `q ∈ (0, 1]` in nanoseconds; 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize]
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the CPU-time clocks and /proc/self/status of 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target), and `clock` is one of the two
    // CPU-time clock ids below, which the C library always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used so far by every thread of this process, exited ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it does not
/// grow while the host runs someone else on this machine's cores.
#[must_use]
pub fn process_cpu_secs() -> f64 {
    cpu_clock(2)
}

/// CPU seconds used so far by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`).
#[must_use]
pub fn thread_cpu_secs() -> f64 {
    cpu_clock(3)
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A closed span: a named call into one module, with its parent span.
#[derive(Debug, Clone)]
struct Span {
    /// What was called, as `module.function`.
    name: &'static str,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Seconds since the tracer started.
    start: f64,
    /// Seconds since the tracer started.
    end: f64,
    /// Calls this span stands for (more than 1 for an aggregate).
    calls: u64,
}

/// In-memory span recorder for the traced run. Disabled, it only runs the
/// closure, so untraced runs carry no bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            calls: 1,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records `calls` calls already timed elsewhere, `secs` seconds in
    /// all, as one aggregate span ending now (store queries are timed on
    /// the reader thread, one histogram per kind).
    pub fn record(&mut self, name: &'static str, calls: u64, secs: f64) {
        if !self.enabled {
            return;
        }
        let end = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, start: end - secs, end, calls });
    }

    /// Per-name `(calls, total seconds, self seconds)`, in first-seen
    /// order. Self time is a span's duration minus its children's.
    #[must_use]
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.end - s.start;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += s.calls;
                    r.2 += dur;
                    r.3 += dur - child_secs[i];
                }
                None => rows.push((s.name, s.calls, dur, dur - child_secs[i])),
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut h = NsHistogram::default();
        assert_eq!(h.percentile(0.99), 0);
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(0.99), 99);
        let mut tail = NsHistogram::default();
        for ns in [NsHistogram::EXACT + 7, NsHistogram::EXACT * 3] {
            tail.record(ns);
        }
        h.merge(&tail);
        assert_eq!(h.count(), 102);
        assert_eq!(h.percentile(1.0), NsHistogram::EXACT * 3);
        assert_eq!(h.percentile(101.0 / 102.0), NsHistogram::EXACT + 7);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let rows = t.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(outer.2 >= inner.2);
        assert!(outer.3 < inner.2);
    }
}
