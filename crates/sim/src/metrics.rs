//! Measurement infrastructure: counters, histograms and a profiler.
//!
//! These mirror the instruments the paper uses on the real kernel:
//!
//! - [`Histogram`] ↔ the latency histograms of Figures 5 and 6,
//! - [`Profiler`] ↔ the sample-driven kernel execution profiler used to
//!   find `nfs_find_request` and the BKL text section,
//! - [`ByteMeter`] ↔ on-the-wire throughput measurement.

use std::cell::{Cell, RefCell};
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Default, Debug)]
pub struct Counter {
    value: Cell<u64>,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.get()
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.set(0);
    }
}

/// A fixed-bin histogram over durations, like Figures 5 and 6.
///
/// Bin `i` covers `[i * bin_width, (i + 1) * bin_width)`; durations past
/// the last bin land in the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: SimDuration,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    total: SimDuration,
    min: Option<SimDuration>,
    max: SimDuration,
}

impl Histogram {
    /// Creates a histogram of `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero or `bins` is zero.
    pub fn new(bin_width: SimDuration, bins: usize) -> Histogram {
        assert!(bin_width > SimDuration::ZERO, "bin width must be positive");
        assert!(bins > 0, "need at least one bin");
        Histogram {
            bin_width,
            bins: vec![0; bins],
            overflow: 0,
            count: 0,
            total: SimDuration::ZERO,
            min: None,
            max: SimDuration::ZERO,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        let idx = (d.as_nanos() / self.bin_width.as_nanos()) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.total += d;
        self.max = self.max.max(d);
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
    }

    /// Builds a histogram directly from samples.
    pub fn from_samples(bin_width: SimDuration, bins: usize, samples: &[SimDuration]) -> Histogram {
        let mut h = Histogram::new(bin_width, bins);
        for &s in samples {
            h.record(s);
        }
        h
    }

    /// Per-bin counts (without the overflow bucket).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> SimDuration {
        self.bin_width
    }

    /// Count of samples past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples ([`SimDuration::ZERO`] when empty).
    pub fn mean(&self) -> SimDuration {
        match self.total.as_nanos().checked_div(self.count) {
            Some(ns) => SimDuration(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Fraction of samples at or above `threshold` (by bin lower edge for
    /// binned samples; overflow counts as above everything).
    pub fn fraction_slower_than(&self, threshold: SimDuration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let first_bin = (threshold.as_nanos() / self.bin_width.as_nanos()) as usize;
        let slow: u64 = self.bins.iter().skip(first_bin).sum::<u64>() + self.overflow;
        slow as f64 / self.count as f64
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &n) in self.bins.iter().enumerate() {
            let lo = self.bin_width * i as u64;
            let bar = "#".repeat(((n * 50) / peak) as usize);
            writeln!(f, "{:>10} | {:>7} {}", format!("{lo}"), n, bar)?;
        }
        if self.overflow > 0 {
            writeln!(f, "{:>10} | {:>7}", ">", self.overflow)?;
        }
        Ok(())
    }
}

/// Per-label accumulated execution time, mimicking a sampling kernel
/// profiler's per-function histogram.
///
/// The kernel's `CpuPool::work` charges a label on every simulated CPU
/// section, so [`Profiler::charge`] is on the hottest client path. A
/// world uses a dozen or two labels, each a string literal, so the rows
/// live in a short vector searched by the label's address first and by
/// its content only when the address misses. No label is ever hashed.
#[derive(Default)]
pub struct Profiler {
    rows: RefCell<Vec<ProfEntry>>,
}

#[derive(Clone, Copy, Debug)]
struct ProfEntry {
    label: &'static str,
    ns: u64,
    hits: u64,
}

/// One row of a profiler report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// The code-section label.
    pub label: &'static str,
    /// Accumulated execution time.
    pub time: SimDuration,
    /// Number of times the section ran.
    pub hits: u64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Charges `d` of execution time to `label`.
    ///
    /// Two literals with the same text may sit at different addresses
    /// (one per crate), so an address miss falls back to comparing text:
    /// equal labels always share one row.
    pub fn charge(&self, label: &'static str, d: SimDuration) {
        let mut rows = self.rows.borrow_mut();
        let at = rows
            .iter()
            .position(|r| std::ptr::eq(r.label, label))
            .or_else(|| rows.iter().position(|r| r.label == label));
        let row = match at {
            Some(i) => &mut rows[i],
            None => {
                rows.push(ProfEntry {
                    label,
                    ns: 0,
                    hits: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.ns += d.as_nanos();
        row.hits += 1;
    }

    fn entry(&self, label: &str) -> Option<ProfEntry> {
        self.rows
            .borrow()
            .iter()
            .find(|r| r.label == label)
            .copied()
    }

    /// Accumulated time for `label`.
    pub fn time_in(&self, label: &str) -> SimDuration {
        self.entry(label)
            .map(|e| SimDuration(e.ns))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of times `label` was charged.
    pub fn hits(&self, label: &str) -> u64 {
        self.entry(label).map(|e| e.hits).unwrap_or(0)
    }

    /// All rows, hottest first (ties broken by label for determinism).
    pub fn report(&self) -> Vec<ProfileRow> {
        let mut rows: Vec<ProfileRow> = self
            .rows
            .borrow()
            .iter()
            .map(|e| ProfileRow {
                label: e.label,
                time: SimDuration(e.ns),
                hits: e.hits,
            })
            .collect();
        rows.sort_by(|a, b| b.time.cmp(&a.time).then(a.label.cmp(b.label)));
        rows
    }

    /// The hottest label, if anything was charged.
    pub fn hottest(&self) -> Option<ProfileRow> {
        self.report().into_iter().next()
    }

    /// Clears all accumulated time.
    pub fn reset(&self) {
        self.rows.borrow_mut().clear();
    }
}

/// Measures bytes moved over time, e.g. on-the-wire network throughput.
#[derive(Default, Debug)]
pub struct ByteMeter {
    bytes: Cell<u64>,
    first: Cell<Option<SimTime>>,
    last: Cell<SimTime>,
}

impl ByteMeter {
    /// Creates a zeroed meter.
    pub fn new() -> ByteMeter {
        ByteMeter::default()
    }

    /// Records `n` bytes moved at time `at`.
    pub fn record(&self, at: SimTime, n: u64) {
        self.bytes.set(self.bytes.get() + n);
        if self.first.get().is_none() {
            self.first.set(Some(at));
        }
        self.last.set(self.last.get().max(at));
    }

    /// Total bytes recorded.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Mean throughput in bytes/second between first and last sample
    /// (zero if fewer than two distinct instants were seen).
    pub fn throughput_bps(&self) -> f64 {
        match self.first.get() {
            Some(first) if self.last.get() > first => {
                self.bytes.get() as f64 / (self.last.get() - first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Mean throughput in megabytes/second (decimal MB, as the paper
    /// reports).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / 1e6
    }

    /// Resets the meter.
    pub fn reset(&self) {
        self.bytes.set(0);
        self.first.set(None);
        self.last.set(SimTime::ZERO);
    }
}

/// Converts a byte count moved in `elapsed` into MB/s (decimal megabytes,
/// matching the paper's "MBps").
pub fn mbps(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed == SimDuration::ZERO {
        return 0.0;
    }
    bytes as f64 / elapsed.as_secs_f64() / 1e6
}

/// Mean of a latency series ([`SimDuration::ZERO`] when empty), rounded
/// to the nearest nanosecond. Plain `total / len` floors toward zero,
/// which biases decile means (and anything derived from them) low by up
/// to 1 ns per sample.
pub fn mean(samples: &[SimDuration]) -> SimDuration {
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    let total: u64 = samples.iter().map(|d| d.as_nanos()).sum();
    let len = samples.len() as u64;
    SimDuration((total + len / 2) / len)
}

/// Nearest-rank percentile of a latency series, `p` in `[0, 100]`
/// ([`SimDuration::ZERO`] when empty). `percentile(s, 50.0)` is the
/// median; `percentile(s, 99.0)` the usual tail-latency p99.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(samples: &[SimDuration], p: f64) -> SimDuration {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    let mut sorted: Vec<SimDuration> = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    // Nearest-rank: smallest value with at least p% of samples <= it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// p50/p99/p999 summary of a latency series.
///
/// [`LatencyDigest::of`] sorts the series **once** and reads all three
/// ranks from the same sorted copy; the naive three `percentile` calls
/// it replaces each cloned and re-sorted the full sample vector, which
/// dominated end-of-run reporting for servers with millions of samples.
/// [`LatencyDigest::of_mut`] goes further and sorts in place — zero
/// allocation — for callers that own their samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyDigest {
    /// Median.
    pub p50: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
}

impl LatencyDigest {
    /// Digests a series, copying and sorting it once.
    pub fn of(samples: &[SimDuration]) -> LatencyDigest {
        let mut sorted: Vec<SimDuration> = samples.to_vec();
        LatencyDigest::of_mut(&mut sorted)
    }

    /// Digests a series by sorting it in place (no allocation).
    pub fn of_mut(samples: &mut [SimDuration]) -> LatencyDigest {
        samples.sort_unstable();
        LatencyDigest {
            p50: pick_sorted(samples, 50.0),
            p99: pick_sorted(samples, 99.0),
            p999: pick_sorted(samples, 99.9),
        }
    }
}

/// Nearest-rank pick from an already-sorted series; the exact formula
/// of [`percentile`], so digests match three independent calls bit for
/// bit.
#[inline]
fn pick_sorted(sorted: &[SimDuration], p: f64) -> SimDuration {
    if sorted.is_empty() {
        return SimDuration::ZERO;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(SimDuration::from_micros(60), 8);
        h.record(SimDuration::from_micros(10)); // bin 0
        h.record(SimDuration::from_micros(60)); // bin 1
        h.record(SimDuration::from_micros(119)); // bin 1
        h.record(SimDuration::from_millis(19)); // overflow
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[1], 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), SimDuration::from_millis(19));
        assert_eq!(h.min(), Some(SimDuration::from_micros(10)));
    }

    #[test]
    fn histogram_mean() {
        let h = Histogram::from_samples(
            SimDuration::from_micros(10),
            4,
            &[SimDuration::from_micros(10), SimDuration::from_micros(30)],
        );
        assert_eq!(h.mean(), SimDuration::from_micros(20));
    }

    #[test]
    fn histogram_fraction_slower() {
        let h = Histogram::from_samples(
            SimDuration::from_micros(100),
            10,
            &[
                SimDuration::from_micros(50),
                SimDuration::from_micros(150),
                SimDuration::from_micros(250),
                SimDuration::from_millis(5),
            ],
        );
        assert!((h.fraction_slower_than(SimDuration::from_micros(100)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_stats() {
        let h = Histogram::new(SimDuration::from_micros(1), 1);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), None);
        assert_eq!(h.fraction_slower_than(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn profiler_ranks_hottest_first() {
        let p = Profiler::new();
        p.charge("nfs_find_request", SimDuration::from_micros(500));
        p.charge("nfs_find_request", SimDuration::from_micros(500));
        p.charge("memcpy", SimDuration::from_micros(100));
        let report = p.report();
        assert_eq!(report[0].label, "nfs_find_request");
        assert_eq!(report[0].time.as_micros(), 1000);
        assert_eq!(report[0].hits, 2);
        assert_eq!(p.hottest().unwrap().label, "nfs_find_request");
        assert_eq!(p.time_in("memcpy").as_micros(), 100);
        assert_eq!(p.hits("memcpy"), 1);
        assert_eq!(p.time_in("absent"), SimDuration::ZERO);
    }

    #[test]
    fn byte_meter_throughput() {
        let m = ByteMeter::new();
        m.record(SimTime(0), 500_000);
        m.record(SimTime(1_000_000_000), 500_000);
        assert_eq!(m.bytes(), 1_000_000);
        assert!((m.throughput_mbps() - 1.0).abs() < 1e-9);
        m.reset();
        assert_eq!(m.bytes(), 0);
        assert_eq!(m.throughput_bps(), 0.0);
    }

    #[test]
    fn mbps_helper() {
        assert!((mbps(10_000_000, SimDuration::from_secs(1)) - 10.0).abs() < 1e-9);
        assert_eq!(mbps(10, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn digest_matches_three_percentile_calls() {
        let rng = crate::rng::SimRng::new(0xd1e5);
        let samples: Vec<SimDuration> = (0..1000)
            .map(|_| SimDuration::from_nanos(rng.next_u64() % 1_000_000))
            .collect();
        let d = LatencyDigest::of(&samples);
        assert_eq!(d.p50, percentile(&samples, 50.0));
        assert_eq!(d.p99, percentile(&samples, 99.0));
        assert_eq!(d.p999, percentile(&samples, 99.9));
    }

    #[test]
    fn digest_of_empty_is_zero() {
        assert_eq!(LatencyDigest::of(&[]), LatencyDigest::default());
    }

    #[test]
    fn digest_of_mut_sorts_in_place() {
        let mut samples = vec![
            SimDuration::from_nanos(30),
            SimDuration::from_nanos(10),
            SimDuration::from_nanos(20),
        ];
        let d = LatencyDigest::of_mut(&mut samples);
        assert_eq!(d.p50, SimDuration::from_nanos(20));
        assert!(samples.windows(2).all(|w| w[0] <= w[1]));
    }
}
