//! Local ext2 write-path model — the Figure 1/7 baseline.
//!
//! Writes land in the page cache at memory-copy speed; a `bdflush`-style
//! daemon writes dirty pages to the (slow, multiword-DMA-crippled) IDE
//! disk in the background once the dirty threshold is crossed, and the
//! writer is throttled against the same `MemoryModel` the NFS client
//! uses once RAM fills. Unlike NFS, `close()` flushes nothing — the
//! asymmetry that makes Bonnie report separate write/flush/close numbers
//! (paper §2.3).

use std::cell::Cell;
use std::rc::Rc;

use nfsperf_kernel::{page, Kernel, PageSeg, SimFile, VfsError, VfsResult};
use nfsperf_server::DiskModel;
use nfsperf_sim::{SimDuration, WaitQueue};

/// How many pages bdflush writes per disk operation.
const WRITEBACK_BATCH_PAGES: u64 = 1024;

/// kupdate-style periodic writeback interval (Linux 2.4: 5 s).
const KUPDATE_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// A mounted local ext2 file system with one open file.
pub struct Ext2Fs {
    kernel: Kernel,
    disk: Rc<DiskModel>,
    /// Pages dirty in the cache, not yet on disk.
    dirty_pages: Cell<u64>,
    /// Pages being written by bdflush right now.
    in_flight_pages: Cell<u64>,
    clean_event: WaitQueue,
}

impl Ext2Fs {
    /// Mounts the model and spawns its writeback daemon.
    pub fn mount(kernel: &Kernel) -> Rc<Ext2Fs> {
        let fs = Rc::new(Ext2Fs {
            kernel: kernel.clone(),
            disk: Rc::new(DiskModel::ide_udma_crippled(&kernel.sim)),
            dirty_pages: Cell::new(0),
            in_flight_pages: Cell::new(0),
            clean_event: WaitQueue::new(),
        });
        let daemon = Rc::clone(&fs);
        kernel.sim.spawn_detached(async move {
            daemon.bdflush().await;
        });
        fs
    }

    /// Opens a fresh file for writing.
    pub fn create(self: &Rc<Self>, _name: &str) -> Ext2File {
        Ext2File {
            fs: Rc::clone(self),
            written: Cell::new(0),
            closed: Cell::new(false),
        }
    }

    /// Pages currently dirty (not yet on disk).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_pages.get()
    }

    /// Bytes the disk has absorbed.
    pub fn disk_bytes(&self) -> u64 {
        self.disk.bytes_written()
    }

    async fn bdflush(&self) {
        loop {
            self.kernel
                .mem
                .wait_for_writeback_work(KUPDATE_INTERVAL)
                .await;
            // Pace the daemon: over the background limit the wait above
            // returns immediately, and `flush_once` may find nothing to
            // do while fsync holds the batch — without a tick the daemon
            // would spin without advancing simulated time.
            self.kernel.sim.sleep(SimDuration::from_millis(1)).await;
            self.flush_once().await;
        }
    }

    /// Writes one batch of dirty pages to disk and unpins them.
    async fn flush_once(&self) {
        let todo = self.dirty_pages.get().min(WRITEBACK_BATCH_PAGES);
        if todo == 0 {
            return;
        }
        self.dirty_pages.set(self.dirty_pages.get() - todo);
        self.in_flight_pages.set(self.in_flight_pages.get() + todo);
        self.kernel
            .mem
            .move_pages(PageSeg::Dirty, PageSeg::Writeback, todo as usize);
        self.disk.write_stream(todo * page::PAGE_SIZE).await;
        self.in_flight_pages.set(self.in_flight_pages.get() - todo);
        self.kernel
            .mem
            .release_pages(PageSeg::Writeback, todo as usize);
        self.clean_event.wake_all();
    }

    async fn sync_all(&self) {
        // Drive writeback ourselves until nothing is dirty or in flight,
        // like fsync walking the buffer lists.
        loop {
            if self.dirty_pages.get() == 0 && self.in_flight_pages.get() == 0 {
                return;
            }
            if self.dirty_pages.get() > 0 {
                self.flush_once().await;
            } else {
                self.clean_event.wait().await;
            }
        }
    }
}

/// An open ext2 file.
pub struct Ext2File {
    fs: Rc<Ext2Fs>,
    written: Cell<u64>,
    closed: Cell<bool>,
}

impl SimFile for Ext2File {
    async fn write(&self, offset: u64, len: u64) -> VfsResult<u64> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        let kernel = &self.fs.kernel;
        kernel
            .cpus
            .work("sys_write", kernel.costs.write_syscall_fixed)
            .await;
        for _seg in nfsperf_kernel::split_into_pages(offset, len) {
            kernel.mem.pin_dirty_page().await;
            self.fs.dirty_pages.set(self.fs.dirty_pages.get() + 1);
            kernel
                .cpus
                .work("ext2_page_write", kernel.costs.ext2_page_write)
                .await;
        }
        self.written.set(self.written.get() + len);
        Ok(len)
    }

    async fn fsync(&self) -> VfsResult<()> {
        if self.closed.get() {
            return Err(VfsError::Closed);
        }
        self.fs.sync_all().await;
        Ok(())
    }

    async fn close(&self) -> VfsResult<()> {
        // ext2 leaves dirty data cached across close; only mark the file.
        self.closed.set(true);
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.written.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_kernel::{CostTable, KernelConfig, PAGE_SIZE};
    use nfsperf_sim::Sim;

    fn no_jitter_kernel(sim: &Sim, ram: u64) -> Kernel {
        let costs = CostTable {
            cpu_jitter_frac: 0.0,
            ..CostTable::default()
        };
        Kernel::new(
            sim,
            KernelConfig {
                ram_bytes: ram,
                costs,
                ..KernelConfig::default()
            },
        )
    }

    #[test]
    fn small_write_is_memory_speed() {
        let sim = Sim::new();
        let kernel = no_jitter_kernel(&sim, 256 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let file = fs.create("t");
        let elapsed = sim.run_until({
            let s = sim.clone();
            async move {
                let t0 = s.now();
                file.write(0, 8192).await.unwrap();
                s.now().since(t0)
            }
        });
        // Syscall fixed + two page copies; far below a disk access.
        let expect = kernel.costs.write_syscall_fixed + kernel.costs.ext2_page_write * 2;
        assert_eq!(elapsed, expect);
    }

    #[test]
    fn writes_accumulate_dirty_pages() {
        let sim = Sim::new();
        let kernel = no_jitter_kernel(&sim, 256 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let f2 = Rc::clone(&fs);
        sim.run_until(async move {
            let file = f2.create("t");
            for i in 0..10u64 {
                file.write(i * 8192, 8192).await.unwrap();
            }
            assert_eq!(f2.dirty_pages(), 20);
            assert_eq!(file.bytes_written(), 10 * 8192);
        });
        assert_eq!(kernel.mem.dirty_pages(), 20);
    }

    #[test]
    fn fsync_pushes_everything_to_disk() {
        let sim = Sim::new();
        let kernel = no_jitter_kernel(&sim, 256 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let f2 = Rc::clone(&fs);
        sim.run_until(async move {
            let file = f2.create("t");
            for i in 0..16u64 {
                file.write(i * 8192, 8192).await.unwrap();
            }
            file.fsync().await.unwrap();
            assert_eq!(f2.dirty_pages(), 0);
            assert_eq!(f2.disk_bytes(), 16 * 8192);
        });
        assert_eq!(kernel.mem.dirty_pages(), 0);
    }

    #[test]
    fn close_does_not_flush() {
        let sim = Sim::new();
        let kernel = no_jitter_kernel(&sim, 256 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let f2 = Rc::clone(&fs);
        sim.run_until(async move {
            let file = f2.create("t");
            file.write(0, 8192).await.unwrap();
            file.close().await.unwrap();
            assert_eq!(f2.dirty_pages(), 2, "dirty data survives close");
            assert_eq!(file.write(8192, 8192).await.unwrap_err(), VfsError::Closed);
            assert_eq!(file.fsync().await.unwrap_err(), VfsError::Closed);
        });
    }

    #[test]
    fn memory_pressure_throttles_to_disk_speed() {
        let sim = Sim::new();
        // Tiny RAM so the test runs fast: 4 MB.
        let kernel = no_jitter_kernel(&sim, 4 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let f2 = Rc::clone(&fs);
        let (elapsed, bytes) = sim.run_until({
            let s = sim.clone();
            async move {
                let file = f2.create("t");
                let t0 = s.now();
                let total: u64 = 16 << 20; // 4x RAM
                let mut off = 0;
                while off < total {
                    file.write(off, 8192).await.unwrap();
                    off += 8192;
                }
                (s.now().since(t0), file.bytes_written())
            }
        });
        assert_eq!(bytes, 16 << 20);
        // Pure memory speed would take ~16MB / 200MBps = 84ms; the IDE
        // disk at 14 MB/s needs ~850ms for the overflow. Expect way more
        // than memory speed.
        assert!(
            elapsed > SimDuration::from_millis(500),
            "expected disk-bound run, got {elapsed}"
        );
        assert!(
            kernel.mem.throttle_events() > 0,
            "writer must have throttled"
        );
    }

    #[test]
    fn kupdate_flushes_eventually_without_pressure() {
        let sim = Sim::new();
        let kernel = no_jitter_kernel(&sim, 256 << 20);
        let fs = Ext2Fs::mount(&kernel);
        let f2 = Rc::clone(&fs);
        sim.run_until({
            let s = sim.clone();
            async move {
                let file = f2.create("t");
                file.write(0, PAGE_SIZE).await.unwrap();
                assert_eq!(f2.dirty_pages(), 1);
                // After the kupdate interval the page should hit disk.
                s.sleep(SimDuration::from_secs(6)).await;
                assert_eq!(f2.dirty_pages(), 0);
                assert_eq!(f2.disk_bytes(), PAGE_SIZE);
            }
        });
    }
}
