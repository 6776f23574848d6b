//! A minimal in-tree property-testing driver.
//!
//! Replaces the external `proptest` crate so the workspace builds and
//! tests fully offline. It keeps the three features the test suite
//! actually relies on:
//!
//! 1. **Seeded case generation** — every case draws its inputs from a
//!    [`SimRng`] seeded deterministically from a base seed, so a run is
//!    bit-reproducible.
//! 2. **Shrinking on failure** — when a case fails, `check_with` shrinks
//!    the sequence of choices the generator drew (each an offset above
//!    its range's low end) greedily toward a minimal failing input, and
//!    re-runs the generator on each candidate sequence. Every candidate
//!    is thus one the generator itself produces: a draw from
//!    `u64_in(1, n)` shrinks toward 1, never to 0.
//! 3. **Failure-seed reporting** — the panic message names the exact
//!    per-case seed; re-running with `NFSPERF_PROPTEST_SEED=<seed>`
//!    (optionally `NFSPERF_PROPTEST_CASES=1`) replays that case first.
//!
//! A property is a closure returning [`CaseOutcome`]; the
//! [`prop_assert!`](crate::prop_assert), [`prop_assert_eq!`](crate::prop_assert_eq)
//! and [`prop_assume!`](crate::prop_assume) macros mirror the upstream
//! crate's vocabulary. Example:
//!
//! ```
//! use nfsperf_sim::proptest::{check, CaseOutcome};
//! use nfsperf_sim::{prop_assert, prop_assert_eq};
//!
//! check("doubling_is_even", |g| g.u64_in(0, 1 << 30), |&v| {
//!     prop_assert_eq!((v * 2) % 2, 0);
//!     CaseOutcome::Pass
//! });
//! ```

use std::fmt::Debug;

use crate::rng::{splitmix64, SimRng};

/// Default number of cases per property (override with
/// `NFSPERF_PROPTEST_CASES`).
pub const DEFAULT_CASES: u32 = 256;

/// Default base seed (override with `NFSPERF_PROPTEST_SEED`). Fixed so CI
/// runs are identical everywhere; change it locally to explore new inputs.
pub const DEFAULT_SEED: u64 = 0x5EED_BA5E_1813_2002;

/// Result of evaluating a property on one generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The property held.
    Pass,
    /// The input failed a precondition (`prop_assume!`); the case is
    /// regenerated and does not count toward the case budget.
    Reject,
    /// The property failed with this message.
    Fail(String),
}

/// Driver configuration, normally read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of (non-rejected) cases to run.
    pub cases: u32,
    /// Base seed; case 0 uses it verbatim, later cases use a SplitMix64
    /// stream derived from it.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking a failure.
    pub max_shrink_iters: u32,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            max_shrink_iters: 4096,
        }
    }
}

impl Config {
    /// Reads `NFSPERF_PROPTEST_CASES` / `NFSPERF_PROPTEST_SEED`, falling
    /// back to the defaults.
    pub fn from_env() -> Config {
        let mut c = Config::default();
        if let Ok(v) = std::env::var("NFSPERF_PROPTEST_CASES") {
            if let Ok(n) = v.parse() {
                c.cases = n;
            }
        }
        if let Ok(v) = std::env::var("NFSPERF_PROPTEST_SEED") {
            let parsed = v
                .strip_prefix("0x")
                .map_or_else(|| v.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok());
            if let Some(s) = parsed {
                c.seed = s;
            }
        }
        c
    }
}

/// Typed random-input generator handed to the generation closure.
///
/// Draws come from one per-case [`SimRng`], so they are deterministic in
/// the case seed, or, while a failure shrinks, from a replayed choice
/// sequence. Either way each draw records its choice: an offset above
/// the low end of its range, or the raw word of an unbounded draw.
/// Integer ranges are half-open (`lo..hi`), matching the upstream
/// `proptest` range syntax the suite was written against.
pub struct Gen {
    source: Source,
    /// The choice of every draw so far, in draw order.
    choices: Vec<u64>,
}

/// Where a [`Gen`]'s draws come from.
enum Source {
    Rng(SimRng),
    /// A choice sequence, read in order; past its end every choice is 0,
    /// and a choice past its draw's range is clamped to the range's top.
    Replay {
        queue: Vec<u64>,
        next: usize,
    },
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            source: Source::Rng(SimRng::new(seed)),
            choices: Vec::new(),
        }
    }

    fn replay(queue: Vec<u64>) -> Gen {
        Gen {
            source: Source::Replay { queue, next: 0 },
            choices: Vec::new(),
        }
    }

    /// The choices drawn, without trailing zeros: a replay reads 0 past
    /// its sequence's end anyway.
    fn into_choices(mut self) -> Vec<u64> {
        while self.choices.last() == Some(&0) {
            self.choices.pop();
        }
        self.choices
    }

    /// The next replayed choice (0 past the sequence's end).
    fn replayed(queue: &[u64], next: &mut usize) -> u64 {
        let c = queue.get(*next).copied().unwrap_or(0);
        *next += 1;
        c
    }

    /// Any `u64`.
    pub fn any_u64(&mut self) -> u64 {
        let c = match &mut self.source {
            Source::Rng(rng) => rng.next_u64(),
            Source::Replay { queue, next } => Gen::replayed(queue, next),
        };
        self.choices.push(c);
        c
    }

    /// Any `u32`.
    pub fn any_u32(&mut self) -> u32 {
        self.any_u64() as u32
    }

    /// Any `u8`.
    pub fn any_u8(&mut self) -> u8 {
        self.any_u64() as u8
    }

    /// Any `bool`.
    pub fn any_bool(&mut self) -> bool {
        self.any_u64() & 1 == 1
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        let c = match &mut self.source {
            Source::Rng(rng) => rng.uniform_u64(lo, hi) - lo,
            Source::Replay { queue, next } => {
                assert!(lo < hi, "empty range [{lo}, {hi})");
                Gen::replayed(queue, next).min(hi - lo - 1)
            }
        };
        self.choices.push(c);
        lo + c
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8_in(&mut self, lo: u8, hi: u8) -> u8 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u8
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Byte vector with length uniform in `[min_len, max_len)`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| self.any_u8()).collect()
    }

    /// Vector of `len in [min_len, max_len)` elements drawn by `f`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }

    /// ASCII lowercase string with length uniform in `[min_len, max_len)`
    /// (the `"[a-z]{m,n}"` pattern).
    pub fn lowercase_string(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.usize_in(min_len, max_len);
        (0..len)
            .map(|_| char::from(b'a' + self.u8_in(0, 26)))
            .collect()
    }

    /// Unicode string of printable characters with char-count uniform in
    /// `[min_len, max_len)` (the `"\\PC{m,n}"` pattern): mixes ASCII with
    /// multi-byte code points so UTF-8 length != char count.
    pub fn unicode_string(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.usize_in(min_len, max_len);
        (0..len)
            .map(|_| match self.u8_in(0, 4) {
                // Printable ASCII.
                0 | 1 => char::from(self.u8_in(0x20, 0x7F)),
                // Latin-1 supplement and friends (2-byte UTF-8).
                2 => char::from_u32(0xA1 + u32::from(self.u8_in(0, 0x5E))).unwrap(),
                // CJK block (3-byte UTF-8).
                _ => char::from_u32(0x4E00 + u32::from(self.any_u8())).unwrap(),
            })
            .collect()
    }
}

/// Runs `prop` against `config.cases` inputs drawn by `gen`.
///
/// Panics (failing the enclosing `#[test]`) on the first property
/// violation, after shrinking, with the per-case seed needed to replay it.
pub fn check_with<T, G, P>(config: &Config, name: &str, gen: G, prop: P)
where
    T: Debug,
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> CaseOutcome,
{
    let mut seed_stream = config.seed;
    let mut ran = 0u32;
    let mut attempts = 0u64;
    let max_attempts = u64::from(config.cases) * 16 + 64;
    while ran < config.cases {
        assert!(
            attempts < max_attempts,
            "property '{name}': too many rejected cases \
             ({attempts} attempts for {ran} accepted) — loosen prop_assume! \
             or generate inputs that satisfy the precondition directly"
        );
        let case_seed = if attempts == 0 {
            config.seed
        } else {
            splitmix64(&mut seed_stream)
        };
        attempts += 1;
        let mut g = Gen::new(case_seed);
        let value = gen(&mut g);
        match prop(&value) {
            CaseOutcome::Pass => ran += 1,
            CaseOutcome::Reject => continue,
            CaseOutcome::Fail(msg) => {
                let failure = Failure {
                    choices: g.into_choices(),
                    value,
                    msg,
                };
                let (minimal, min_msg, steps) = shrink_failure(config, &gen, &prop, failure);
                panic!(
                    "property '{name}' failed (case {ran}, seed {case_seed:#018x}):\n  \
                     {min_msg}\n  minimal failing input (after {steps} shrink steps): \
                     {minimal:?}\n  replay: NFSPERF_PROPTEST_SEED={case_seed:#x} \
                     NFSPERF_PROPTEST_CASES=1 cargo test {name}"
                );
            }
        }
    }
}

/// [`check_with`] using [`Config::from_env`].
pub fn check<T, G, P>(name: &str, gen: G, prop: P)
where
    T: Debug,
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> CaseOutcome,
{
    check_with(&Config::from_env(), name, gen, prop);
}

/// A failing input with the choice sequence that generated it.
struct Failure<T> {
    choices: Vec<u64>,
    value: T,
    msg: String,
}

/// Greedy descent over choice sequences: repeatedly adopt the first
/// candidate sequence whose generated input still fails (and is not
/// rejected), until none does or the iteration budget runs out. The
/// adopted sequence is the one the generator actually read, so unread
/// and clamped choices never carry over. It is never longer than the
/// candidate nor above it at any place, and each candidate is shorter
/// than the current sequence or below it at one place, so every step
/// makes progress.
fn shrink_failure<T, G, P>(
    config: &Config,
    gen: &G,
    prop: &P,
    start: Failure<T>,
) -> (T, String, u32)
where
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> CaseOutcome,
{
    let mut current = start;
    let mut iters = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        let choices = std::mem::take(&mut current.choices);
        for cand in shrink_candidates(&choices) {
            if iters >= config.max_shrink_iters {
                break 'outer;
            }
            iters += 1;
            let mut g = Gen::replay(cand);
            let value = gen(&mut g);
            if let CaseOutcome::Fail(msg) = prop(&value) {
                current = Failure {
                    choices: g.into_choices(),
                    value,
                    msg,
                };
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current.value, current.msg, steps)
}

/// Simpler choice sequences than `choices`, most aggressive first: every
/// choice 0, the first half alone (the rest read as 0), each choice
/// deleted (a vector's later elements move up, so a failing element can
/// reach the front), then each choice lowered to 0, halved, or
/// decremented.
fn shrink_candidates(choices: &[u64]) -> impl Iterator<Item = Vec<u64>> + '_ {
    let n = choices.len();
    let drops = (0..n).filter(move |_| n > 1).map(move |i| {
        let mut v = choices.to_vec();
        v.remove(i);
        v
    });
    let lowers = (0..n).flat_map(move |i| {
        let c = choices[i];
        let mut to = vec![0, c / 2, c.saturating_sub(1)];
        to.dedup();
        to.into_iter().filter(move |&t| t < c).map(move |t| {
            let mut v = choices.to_vec();
            v[i] = t;
            v
        })
    });
    (n > 0)
        .then(Vec::new)
        .into_iter()
        .chain((n > 1).then(|| choices[..n / 2].to_vec()))
        .chain(drops)
        .chain(lowers)
}

/// Asserts a condition inside a property; on failure the enclosing
/// property returns [`CaseOutcome::Fail`] with the stringified condition.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::proptest::CaseOutcome::Fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::proptest::CaseOutcome::Fail(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Asserts equality inside a property (see [`prop_assert!`](crate::prop_assert)).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return $crate::proptest::CaseOutcome::Fail(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?} ({}:{})",
                stringify!($left),
                stringify!($right),
                l,
                r,
                file!(),
                line!()
            ));
        }
    }};
}

/// Declares a precondition: inputs that fail it are regenerated rather
/// than counted as failures.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::proptest::CaseOutcome::Reject;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config {
            cases: 64,
            seed: 42,
            max_shrink_iters: 4096,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let mut seen = 0u32;
        // Count via an outer cell: closures are Fn, so use RefCell.
        let counter = std::cell::Cell::new(0u32);
        check_with(
            &quick(),
            "tautology",
            |g| g.any_u64(),
            |_| {
                counter.set(counter.get() + 1);
                CaseOutcome::Pass
            },
        );
        seen += counter.get();
        assert_eq!(seen, 64);
    }

    #[test]
    fn same_seed_generates_same_inputs() {
        let collect = |seed: u64| {
            let vals = std::cell::RefCell::new(Vec::new());
            check_with(
                &Config {
                    cases: 16,
                    seed,
                    max_shrink_iters: 0,
                },
                "collect",
                |g| g.any_u64(),
                |&v| {
                    vals.borrow_mut().push(v);
                    CaseOutcome::Pass
                },
            );
            vals.into_inner()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn failure_shrinks_to_minimal_and_reports_seed() {
        let err = std::panic::catch_unwind(|| {
            check_with(
                &quick(),
                "ints_below_1000",
                |g| g.u64_in(0, 1 << 40),
                |&v| {
                    prop_assert!(v < 1000, "v was {v}");
                    CaseOutcome::Pass
                },
            );
        })
        .expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        // Greedy halving + decrement lands exactly on the boundary.
        assert!(
            msg.contains("minimal failing input (after"),
            "no shrink report in: {msg}"
        );
        assert!(msg.contains(": 1000\n"), "not shrunk to 1000: {msg}");
        assert!(
            msg.contains("NFSPERF_PROPTEST_SEED=0x"),
            "no replay seed in: {msg}"
        );
    }

    #[test]
    fn reported_seed_replays_the_failure() {
        // Find a failing case seed, then verify running with it as the
        // base seed fails on case 0 (attempts == 0 uses the seed verbatim).
        let prop = |v: &u64| {
            if *v % 97 == 13 {
                CaseOutcome::Fail("hit".into())
            } else {
                CaseOutcome::Pass
            }
        };
        let err = std::panic::catch_unwind(|| {
            check_with(
                &Config {
                    cases: 10_000,
                    seed: 1,
                    max_shrink_iters: 0,
                },
                "mod97",
                |g| g.any_u64(),
                prop,
            );
        })
        .expect_err("must eventually fail");
        let msg = err.downcast_ref::<String>().unwrap().clone();
        let seed_hex = msg
            .split("seed 0x")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .expect("seed in message");
        let seed = u64::from_str_radix(seed_hex, 16).unwrap();
        let replay = std::panic::catch_unwind(|| {
            check_with(
                &Config {
                    cases: 1,
                    seed,
                    max_shrink_iters: 0,
                },
                "mod97-replay",
                |g| g.any_u64(),
                prop,
            );
        });
        assert!(replay.is_err(), "replay with reported seed must fail");
        let replay_msg = replay
            .unwrap_err()
            .downcast_ref::<String>()
            .unwrap()
            .clone();
        assert!(
            replay_msg.contains("case 0"),
            "replay must fail on the first case: {replay_msg}"
        );
    }

    #[test]
    fn assume_rejects_without_consuming_cases() {
        let accepted = std::cell::Cell::new(0u32);
        check_with(
            &quick(),
            "assume_even",
            |g| g.any_u64(),
            |&v| {
                prop_assume!(v % 2 == 0);
                accepted.set(accepted.get() + 1);
                CaseOutcome::Pass
            },
        );
        assert_eq!(accepted.get(), 64);
    }

    #[test]
    fn impossible_assume_panics_with_diagnosis() {
        let err = std::panic::catch_unwind(|| {
            check_with(&quick(), "never", |g| g.any_u64(), |_| CaseOutcome::Reject);
        })
        .expect_err("must give up");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("too many rejected cases"), "{msg}");
    }

    #[test]
    fn vec_shrinking_reaches_small_witness() {
        // Fails whenever the vector contains an element >= 100; minimal
        // witness is the single-element vector [100].
        let err = std::panic::catch_unwind(|| {
            check_with(
                &quick(),
                "all_small",
                |g| g.vec(0, 50, |g| g.u64_in(0, 1 << 20)),
                |v: &Vec<u64>| {
                    prop_assert!(v.iter().all(|&x| x < 100));
                    CaseOutcome::Pass
                },
            );
        })
        .expect_err("must fail");
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("[100]"), "not minimal: {msg}");
    }

    /// Shrinking re-runs the generator, so a failure drawn from
    /// `u64_in(1, n)` shrinks to the range's low end, 1, and the property
    /// never sees 0, even where a later draw's range depends on it.
    #[test]
    fn shrinking_never_leaves_the_generator_s_range() {
        let saw_zero = std::cell::Cell::new(false);
        let fail_with = |gen: &dyn Fn(&mut Gen) -> (u64, u64)| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                check_with(&quick(), "spread", gen, |&(spread, start)| {
                    saw_zero.set(saw_zero.get() || spread == 0);
                    // Divides by `spread`, as a start-jitter property would.
                    prop_assert!(start % spread == start && spread < 4);
                    CaseOutcome::Pass
                });
            }))
            .expect_err("property must fail");
            err.downcast_ref::<String>().unwrap().clone()
        };
        let msg = fail_with(&|g| (g.u64_in(1, 1 << 40), 0));
        assert!(msg.contains(": (4, 0)\n"), "not shrunk to spread 4: {msg}");
        let msg = fail_with(&|g| {
            let spread = g.u64_in(1, 1 << 40);
            (spread, g.u64_in(0, spread))
        });
        assert!(msg.contains(": (4, 0)\n"), "not shrunk to spread 4: {msg}");
        assert!(!saw_zero.get(), "a shrink candidate drew spread 0");
    }

    #[test]
    fn string_generators_respect_shape() {
        check_with(
            &quick(),
            "string_shapes",
            |g| (g.lowercase_string(1, 33), g.unicode_string(0, 257)),
            |(lower, uni)| {
                prop_assert!(!lower.is_empty() && lower.len() <= 32);
                prop_assert!(lower.bytes().all(|b| b.is_ascii_lowercase()));
                prop_assert!(uni.chars().count() <= 256);
                CaseOutcome::Pass
            },
        );
    }
}
