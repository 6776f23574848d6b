//! A minimal in-tree property-testing driver.
//!
//! Replaces the external `proptest` crate so the workspace builds and
//! tests fully offline. It keeps the three features the test suite
//! actually relies on:
//!
//! 1. **Seeded case generation** — every case draws its inputs from a
//!    [`SimRng`] seeded deterministically from a base seed, so a run is
//!    bit-reproducible.
//! 2. **Shrinking on failure** — when a case fails, the driver walks
//!    [`Shrink::shrink_candidates`] greedily toward a minimal failing
//!    input before reporting.
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
/// Wraps one per-case [`SimRng`]; all draws are deterministic in the case
/// seed. Integer ranges are half-open (`lo..hi`), matching the upstream
/// `proptest` range syntax the suite was written against.
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: SimRng::new(seed),
        }
    }

    /// Any `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Any `u32`.
    pub fn any_u32(&mut self) -> u32 {
        self.rng.next_u64() as u32
    }

    /// Any `u8`.
    pub fn any_u8(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    /// Any `bool`.
    pub fn any_bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.uniform_u64(lo, hi)
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.uniform_u64(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn u8_in(&mut self, lo: u8, hi: u8) -> u8 {
        self.rng.uniform_u64(u64::from(lo), u64::from(hi)) as u8
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.uniform_u64(lo as u64, hi as u64) as usize
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

/// Types that can propose strictly "smaller" candidate values for
/// shrinking. Candidates need not satisfy a property's preconditions —
/// the driver skips candidates the property rejects.
pub trait Shrink: Sized + Clone {
    /// Candidate simpler values, most aggressive first.
    fn shrink_candidates(&self) -> Vec<Self>;
}

macro_rules! impl_shrink_uint {
    ($($t:ty),*) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                if v != 0 {
                    out.push(0);
                    if v / 2 != 0 {
                        out.push(v / 2);
                    }
                    out.push(v - 1);
                }
                out.dedup();
                out
            }
        }
    )*};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

impl Shrink for bool {
    fn shrink_candidates(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Shrink for String {
    fn shrink_candidates(&self) -> Vec<Self> {
        let chars: Vec<char> = self.chars().collect();
        let n = chars.len();
        let mut out = Vec::new();
        if n > 0 {
            out.push(String::new());
            out.push(chars[..n / 2].iter().collect());
            out.push(chars[n / 2..].iter().collect());
            out.push(chars[..n - 1].iter().collect());
            // Simplify the first non-'a' character.
            if let Some(i) = chars.iter().position(|&c| c != 'a') {
                let mut simpler = chars.clone();
                simpler[i] = 'a';
                out.push(simpler.into_iter().collect());
            }
        }
        out.retain(|s| s != self);
        out.dedup();
        out
    }
}

impl<T: Shrink> Shrink for Vec<T> {
    fn shrink_candidates(&self) -> Vec<Self> {
        let n = self.len();
        let mut out: Vec<Vec<T>> = Vec::new();
        if n > 0 {
            out.push(Vec::new());
            if n > 1 {
                out.push(self[..n / 2].to_vec());
                out.push(self[n / 2..].to_vec());
            }
            // Drop single elements (bounded so huge vectors shrink fast
            // via the halving candidates above instead).
            for i in 0..n.min(8) {
                let mut v = self.clone();
                v.remove(i);
                out.push(v);
            }
            // Shrink individual elements in place.
            for i in 0..n.min(8) {
                for cand in self[i].shrink_candidates() {
                    let mut v = self.clone();
                    v[i] = cand;
                    out.push(v);
                }
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Shrink),+> Shrink for ($($name,)+) {
            fn shrink_candidates(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink_candidates() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}
impl_shrink_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
);

/// Runs `prop` against `config.cases` inputs drawn by `gen`.
///
/// Panics (failing the enclosing `#[test]`) on the first property
/// violation, after shrinking, with the per-case seed needed to replay it.
pub fn check_with<T, G, P>(config: &Config, name: &str, gen: G, prop: P)
where
    T: Shrink + Debug,
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
        let value = gen(&mut Gen::new(case_seed));
        match prop(&value) {
            CaseOutcome::Pass => ran += 1,
            CaseOutcome::Reject => continue,
            CaseOutcome::Fail(msg) => {
                let (minimal, min_msg, steps) = shrink_failure(config, &prop, value, msg);
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
    T: Shrink + Debug,
    G: Fn(&mut Gen) -> T,
    P: Fn(&T) -> CaseOutcome,
{
    check_with(&Config::from_env(), name, gen, prop);
}

/// Greedy descent: repeatedly adopt the first shrink candidate that still
/// fails, until no candidate fails or the iteration budget runs out.
fn shrink_failure<T, P>(config: &Config, prop: &P, start: T, msg: String) -> (T, String, u32)
where
    T: Shrink + Debug,
    P: Fn(&T) -> CaseOutcome,
{
    let mut current = start;
    let mut current_msg = msg;
    let mut iters = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for cand in current.shrink_candidates() {
            if iters >= config.max_shrink_iters {
                break 'outer;
            }
            iters += 1;
            if let CaseOutcome::Fail(m) = prop(&cand) {
                current = cand;
                current_msg = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_msg, steps)
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
