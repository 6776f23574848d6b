//! A plain benchmark harness replacing the external `criterion` crate.
//!
//! Each benchmark is a closure timed for `samples` measurement rounds
//! after a warmup/calibration pass. Fast closures are auto-batched so a
//! round measures enough work (>= ~1 ms) for the monotonic clock to
//! resolve; reported figures are always *per call*. Statistics come from
//! `nfsperf_bonnie::stats`: mean, p50 and p99 over the per-call round
//! averages, plus min/max.
//!
//! Invoked by `cargo bench`; a positional argument filters benchmarks by
//! substring (`cargo bench --bench microbench -- index`), matching the
//! criterion CLI habit the repo's docs already describe.

use std::hint::black_box;
use std::time::Instant;

use nfsperf_bonnie::{mean, percentile};
use nfsperf_sim::SimDuration;

/// Default number of measurement rounds per benchmark.
pub const DEFAULT_SAMPLES: u32 = 10;

/// Per-benchmark timing summary. Durations are per call.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name` as printed.
    pub name: String,
    /// Measurement rounds taken.
    pub samples: u32,
    /// Calls per round (auto-calibrated batch size).
    pub iters_per_sample: u64,
    /// Mean per-call time over all rounds.
    pub mean: SimDuration,
    /// Median of the per-round per-call averages.
    pub p50: SimDuration,
    /// 99th percentile of the per-round per-call averages.
    pub p99: SimDuration,
    /// Fastest round.
    pub min: SimDuration,
    /// Slowest round.
    pub max: SimDuration,
}

/// Collects and runs benchmarks; see the module docs.
pub struct Harness {
    filter: Option<String>,
    group: String,
    samples: u32,
    results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness {
            filter: None,
            group: String::new(),
            samples: DEFAULT_SAMPLES,
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// Builds a harness from the process arguments: flags (`--bench`,
    /// `--exact`, ...) that cargo forwards are ignored, the first
    /// positional argument becomes a substring filter.
    pub fn from_env() -> Harness {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Harness {
            filter,
            ..Harness::default()
        }
    }

    /// Starts a new display group; subsequent benchmarks print as
    /// `group/name`.
    pub fn group(&mut self, name: &str) {
        self.group = name.to_string();
        self.samples = DEFAULT_SAMPLES;
    }

    /// Sets the number of measurement rounds for subsequent benchmarks in
    /// this group (criterion's `sample_size`).
    pub fn sample_size(&mut self, samples: u32) {
        assert!(samples >= 1, "need at least one sample");
        self.samples = samples;
    }

    /// Times `f` and records/prints its summary. The closure's return
    /// value is passed through [`black_box`] so the work isn't optimised
    /// away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let full = if self.group.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.group)
        };
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }

        // Warmup + calibration: double the batch until one batch takes at
        // least ~1 ms, so per-round timings are well above clock noise.
        // Simulation-scale benchmarks exit at batch = 1 on the first probe.
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed.as_micros() >= 1_000 || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }

        let mut rounds: Vec<SimDuration> = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let per_call = t.elapsed().as_nanos() as u64 / batch;
            rounds.push(SimDuration(per_call));
        }

        let result = BenchResult {
            name: full,
            samples: self.samples,
            iters_per_sample: batch,
            mean: mean(&rounds),
            p50: percentile(&rounds, 50.0),
            p99: percentile(&rounds, 99.0),
            min: *rounds.iter().min().expect("samples >= 1"),
            max: *rounds.iter().max().expect("samples >= 1"),
        };
        println!(
            "{:<44} mean {:>12}  p50 {:>12}  p99 {:>12}  ({} samples x {} iters)",
            result.name,
            result.mean,
            result.p50,
            result.p99,
            result.samples,
            result.iters_per_sample
        );
        self.results.push(result);
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing summary line. Call at the end of `main`.
    pub fn finish(self) {
        println!("\n{} benchmarks completed", self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Harness {
        // Small sample count keeps unit tests fast.
        Harness {
            samples: 3,
            ..Harness::default()
        }
    }

    #[test]
    fn records_result_with_ordered_stats() {
        let mut h = quiet();
        h.group("g");
        h.sample_size(3); // group() resets to the default
        h.bench("spin", || {
            // Enough work to be measurable without being slow.
            (0..1000u64).sum::<u64>()
        });
        let r = &h.results()[0];
        assert_eq!(r.name, "g/spin");
        assert_eq!(r.samples, 3);
        assert!(r.iters_per_sample >= 1);
        assert!(r.min <= r.p50 && r.p50 <= r.max);
        assert!(r.min <= r.mean && r.mean <= r.max);
        assert!(r.p50 <= r.p99 && r.p99 <= r.max);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut h = Harness {
            filter: Some("keep".to_string()),
            samples: 1,
            ..Harness::default()
        };
        h.bench("keep_this", || 1u64);
        h.bench("drop_this", || 2u64);
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "keep_this");
    }

    #[test]
    fn fast_closures_are_batched() {
        let mut h = quiet();
        h.bench("noop", || 0u8);
        assert!(
            h.results()[0].iters_per_sample > 1,
            "a no-op must be batched to beat clock resolution"
        );
    }
}
