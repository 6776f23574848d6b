//! Parallel deterministic sweep runner.
//!
//! Every experiment in this workspace is a *sweep*: a list of mutually
//! independent cells, each of which builds its own isolated [`crate::Sim`]
//! world, runs it to completion, and reduces it to a row of plain data.
//! Cells share nothing — no simulator, no RNG, no task state — so the
//! only ordering that matters is the order results are *collected* in.
//!
//! [`run_cells`] exploits that: a scoped-thread pool (hermetic
//! `std::thread::scope`, no external executor) pulls cells off a shared
//! work-list by index and writes each result back into the slot with
//! the same index. Collection order is therefore the work-list order
//! regardless of worker count or OS scheduling, and the CSV a sweep
//! renders is **bit-identical to the serial run** at any `--jobs`
//! value. Parallelism exists only *across* whole simulated worlds,
//! never within one; each `Sim` stays single-threaded and `!Send`,
//! constructed and dropped entirely inside its worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of sweep work: the closure that builds, runs, and reduces
/// an isolated simulation.
pub struct Cell<T> {
    run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Cell<T> {
    /// Creates a cell.
    pub fn new(run: impl FnOnce() -> T + Send + 'static) -> Cell<T> {
        Cell { run: Box::new(run) }
    }
}

/// Reads the default worker count: `NFSPERF_JOBS` if set and positive,
/// else the machine's available parallelism, else 1.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("NFSPERF_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every cell on up to `jobs` worker threads and returns the
/// results in work-list order.
///
/// With `jobs <= 1` (or one cell) everything runs on the calling
/// thread, in order — the serial baseline. Results are identical
/// either way.
///
/// # Panics
///
/// A panicking cell propagates: the pool finishes joining and then
/// re-panics on the calling thread (via `std::thread::scope`).
pub fn run_cells<T: Send>(jobs: usize, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    if jobs <= 1 || n <= 1 {
        return cells.into_iter().map(|cell| (cell.run)()).collect();
    }

    let work: Vec<Mutex<Option<Cell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let done: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i]
                    .lock()
                    .expect("cell slot poisoned")
                    .take()
                    .expect("cell claimed twice");
                let out = (cell.run)();
                *done[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    done.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimDuration};

    /// A miniature "sweep cell": its own Sim world reduced to a number.
    fn sim_cell(idx: u64) -> u64 {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            for _ in 0..idx + 1 {
                s.sleep(SimDuration::from_micros(idx + 1)).await;
            }
            s.now().as_nanos() + idx
        })
    }

    #[test]
    fn serial_runs_in_order() {
        let cells: Vec<Cell<u64>> = (0..5).map(|i| Cell::new(move || sim_cell(i))).collect();
        let serial = run_cells(1, cells);
        assert_eq!(serial.len(), 5);
        for (i, v) in serial.iter().enumerate() {
            assert_eq!(*v, sim_cell(i as u64));
        }
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let make =
            || -> Vec<Cell<u64>> { (0..16).map(|i| Cell::new(move || sim_cell(i))).collect() };
        let serial = run_cells(1, make());
        for jobs in [2, 4, 8, 32] {
            assert_eq!(run_cells(jobs, make()), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn more_jobs_than_cells_is_fine() {
        let cells = vec![Cell::new(|| 42u32)];
        assert_eq!(run_cells(16, cells), vec![42]);
    }

    #[test]
    fn empty_worklist_returns_empty() {
        let cells: Vec<Cell<u32>> = Vec::new();
        assert!(run_cells(4, cells).is_empty());
    }

    // `std::thread::scope` re-panics with its own payload, so no
    // `expected =` here — the contract is only that the panic escapes.
    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let cells: Vec<Cell<u32>> = (0..4)
            .map(|i| {
                Cell::new(move || {
                    if i == 2 {
                        panic!("cell exploded");
                    }
                    i
                })
            })
            .collect();
        let _ = run_cells(2, cells);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
