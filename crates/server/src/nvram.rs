//! The filer's NVRAM write buffer.
//!
//! Incoming writes are acknowledged as soon as they are logged to NVRAM
//! (which is why the filer answers `FILE_SYNC` without touching disk); a
//! background drain empties the log to the RAID volume. When the log is
//! full, admissions stall at the drain rate — the regime the right-hand
//! side of the paper's Figure 7 shows once the benchmark file outgrows
//! client RAM plus NVRAM.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use nfsperf_sim::{drive_poll, Sim, WaitFuture, WaitQueue};

use crate::disk::DiskModel;

/// In-flight state for [`Nvram::poll_admit`]; `Default` is the
/// not-yet-started state.
#[derive(Default)]
pub struct NvramAdmit {
    started: bool,
    wait: Option<WaitFuture>,
}

/// Drain granularity: how much the background task moves per disk write.
const DRAIN_CHUNK: u64 = 256 * 1024;

/// An NVRAM write log with background drain.
pub struct Nvram {
    capacity: u64,
    used: Cell<u64>,
    peak: Cell<u64>,
    space: WaitQueue,
    work: WaitQueue,
    total_admitted: Cell<u64>,
    full_stalls: Cell<u64>,
}

impl Nvram {
    /// Creates an NVRAM log of `capacity` bytes draining to `disk`, and
    /// spawns the drain task.
    pub fn new(sim: &Sim, capacity: u64, disk: Rc<DiskModel>) -> Rc<Nvram> {
        assert!(capacity > 0, "NVRAM capacity must be positive");
        let nvram = Rc::new(Nvram {
            capacity,
            used: Cell::new(0),
            peak: Cell::new(0),
            space: WaitQueue::new(),
            work: WaitQueue::new(),
            total_admitted: Cell::new(0),
            full_stalls: Cell::new(0),
        });
        let drain = Rc::clone(&nvram);
        sim.spawn_detached(async move {
            drain.drain_loop(disk).await;
        });
        nvram
    }

    /// Logs `bytes` into NVRAM, stalling while the log is full: drives
    /// [`Nvram::poll_admit`] from the calling task.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the whole log capacity.
    pub fn admit(&self, bytes: u64) -> impl Future<Output = ()> + '_ {
        let mut st = NvramAdmit::default();
        drive_poll(move |wf| self.poll_admit(bytes, &mut st, wf).then_some(()))
    }

    /// Logs `bytes` into NVRAM without a task: the log's only admission
    /// rule, which [`Nvram::admit`] drives for async callers. Returns
    /// `true` once the bytes are logged, `false` after parking a waker
    /// from `waker_factory` (call again when it fires). The contract:
    ///
    /// - an admission that finds the log full counts one `full_stalls`,
    ///   once, however many wakes it takes;
    /// - it parks on the drain's `space` queue, and every wake re-checks
    ///   the fill level against drain progress, so a wake that frees too
    ///   little parks it again;
    /// - a logged admission updates the peak and kicks the drain task.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the whole log capacity.
    pub fn poll_admit(
        &self,
        bytes: u64,
        st: &mut NvramAdmit,
        waker_factory: &mut dyn FnMut() -> std::task::Waker,
    ) -> bool {
        if !st.started {
            st.started = true;
            assert!(
                bytes <= self.capacity,
                "single admission {bytes} larger than NVRAM {}",
                self.capacity
            );
            if self.used.get() + bytes > self.capacity {
                self.full_stalls.set(self.full_stalls.get() + 1);
            }
        }
        if let Some(w) = st.wait.as_ref() {
            if !w.is_woken() {
                w.park(waker_factory());
                return false;
            }
            st.wait = None;
        }
        if self.used.get() + bytes > self.capacity {
            let w = self.space.wait();
            w.park(waker_factory());
            st.wait = Some(w);
            return false;
        }
        let u = self.used.get() + bytes;
        self.used.set(u);
        self.peak.set(self.peak.get().max(u));
        self.total_admitted.set(self.total_admitted.get() + bytes);
        self.work.wake_all();
        true
    }

    async fn drain_loop(&self, disk: Rc<DiskModel>) {
        loop {
            let used = self.used.get();
            if used == 0 {
                self.work.wait().await;
                continue;
            }
            let chunk = used.min(DRAIN_CHUNK);
            disk.write_stream(chunk).await;
            self.used.set(self.used.get() - chunk);
            self.space.wake_all();
        }
    }

    /// Bytes currently logged.
    pub fn used(&self) -> u64 {
        self.used.get()
    }

    /// Log capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Highest fill level seen.
    pub fn peak(&self) -> u64 {
        self.peak.get()
    }

    /// Total bytes ever admitted.
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted.get()
    }

    /// Number of admissions that found the log full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::{SimDuration, SimTime};

    #[test]
    fn admissions_fit_without_stall() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(&sim, 10_000_000, SimDuration::ZERO));
        let nv = Nvram::new(&sim, 1_000_000, disk);
        let n = Rc::clone(&nv);
        sim.run_until(async move {
            n.admit(500_000).await;
            // Fits immediately: no simulated time passes.
            assert_eq!(n.used(), 500_000);
        });
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(nv.full_stalls(), 0);
    }

    #[test]
    fn full_log_stalls_at_drain_rate() {
        let sim = Sim::new();
        // Drain at 1 MB/s so stalls are long and measurable.
        let disk = Rc::new(DiskModel::new(&sim, 1_000_000, SimDuration::ZERO));
        let nv = Nvram::new(&sim, 1_000_000, disk);
        let n = Rc::clone(&nv);
        sim.run_until(async move {
            n.admit(1_000_000).await; // fills the log
            n.admit(500_000).await; // must wait for 500 KB to drain
        });
        // 500 KB at 1 MB/s = 500 ms (drain chunks may overshoot slightly).
        assert!(
            sim.now() >= SimTime(450_000_000),
            "expected a long stall, got {}",
            sim.now()
        );
        assert_eq!(nv.full_stalls(), 1);
        assert_eq!(nv.total_admitted(), 1_500_000);
    }

    /// An admission that needs several drain chunks wakes and re-parks
    /// once per chunk but counts as one stall.
    #[test]
    fn full_stall_counts_once_across_several_wakes() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(&sim, 1_000_000, SimDuration::ZERO));
        let nv = Nvram::new(&sim, 1_000_000, disk);
        let n = Rc::clone(&nv);
        let parks = sim.run_until(async move {
            n.admit(1_000_000).await;
            // 900 KB fits only after four 256 KiB drain chunks.
            let mut st = NvramAdmit::default();
            let mut parks = 0;
            drive_poll(|wf| {
                let mut counting = || {
                    parks += 1;
                    wf()
                };
                n.poll_admit(900_000, &mut st, &mut counting).then_some(())
            })
            .await;
            parks
        });
        assert_eq!(parks, 4, "one park per drain chunk");
        assert_eq!(nv.full_stalls(), 1, "one stall for one admission");
        assert_eq!(nv.total_admitted(), 1_900_000);
    }

    #[test]
    fn drains_to_empty() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(&sim, 100_000_000, SimDuration::ZERO));
        let nv = Nvram::new(&sim, 10_000_000, Rc::clone(&disk));
        let n = Rc::clone(&nv);
        let s = sim.clone();
        sim.run_until(async move {
            n.admit(5_000_000).await;
            s.sleep(SimDuration::from_secs(1)).await;
        });
        assert_eq!(nv.used(), 0);
        assert_eq!(disk.bytes_written(), 5_000_000);
        assert_eq!(nv.peak(), 5_000_000);
    }

    #[test]
    #[should_panic(expected = "larger than NVRAM")]
    fn oversized_admission_panics() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(&sim, 1_000_000, SimDuration::ZERO));
        let nv = Nvram::new(&sim, 1_000, disk);
        let n = Rc::clone(&nv);
        sim.run_until(async move {
            n.admit(2_000).await;
        });
    }
}
