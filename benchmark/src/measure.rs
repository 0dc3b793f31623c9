//! Small measurement helpers: order statistics, peak memory, a
//! calibrated loop for micro-kernels, and the metric list a run prints.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Arithmetic mean of `values`.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` in growing batches for about `budget` and returns the
/// nanoseconds one call takes: the median over the batches, each batch
/// long enough that the clock reads cost nothing.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = 0u64;
    let mut batch = 1u64;
    // Grow the batch until one takes at least 200 µs; this is also the warm-up.
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            sink = sink.wrapping_add(f());
        }
        if t.elapsed() >= Duration::from_micros(200) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            sink = sink.wrapping_add(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    black_box(sink);
    median(&per_call)
}

/// Named metric values in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}
