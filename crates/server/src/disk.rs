//! Disk models: a single arm with seek cost and streaming bandwidth.

use std::future::Future;
use std::task::Waker;

use nfsperf_sim::arbiter::{Arbiter, Claim, Key, Order};
use nfsperf_sim::{drive_poll, ByteMeter, Sim, SimDuration};

/// The key every claim on the arm queues under: a FIFO reads none of it.
const ARM: Key = Key {
    flow: 0,
    class: 0,
    cost: 0,
};

/// A simple disk: one arm (writes serialize), per-operation positioning
/// cost, and a streaming rate.
pub struct DiskModel {
    sim: Sim,
    /// One slot, claimed in FIFO order: a one-permit semaphore without
    /// the permit object, so a holder that keeps its own wait state can
    /// hold the arm as a bare marker (see [`DiskModel::poll_write_stream`]).
    arm: Arbiter,
    /// Streaming bandwidth in bytes/second.
    stream_bps: u64,
    /// Positioning (seek + rotational) cost per operation.
    position: SimDuration,
    meter: ByteMeter,
}

impl DiskModel {
    /// Creates a disk with the given streaming rate and positioning cost.
    pub fn new(sim: &Sim, stream_bytes_per_sec: u64, position: SimDuration) -> DiskModel {
        assert!(stream_bytes_per_sec > 0, "disk rate must be positive");
        DiskModel {
            sim: sim.clone(),
            arm: Arbiter::new(1, Order::fifo()),
            stream_bps: stream_bytes_per_sec,
            position,
            meter: ByteMeter::new(),
        }
    }

    /// The paper's client-side IBM Deskstar EIDE drive, crippled to
    /// multiword DMA mode 2 by the ServerWorks south bridge: ~14 MB/s
    /// streaming.
    pub fn ide_udma_crippled(sim: &Sim) -> DiskModel {
        DiskModel::new(sim, 14_000_000, SimDuration::from_millis(9))
    }

    /// The Linux server's single Seagate SCSI LVD disk: ~30 MB/s stream.
    pub fn scsi_single(sim: &Sim) -> DiskModel {
        DiskModel::new(sim, 30_000_000, SimDuration::from_millis(6))
    }

    /// The filer's eight-disk RAID 4 volume: ~40 MB/s of sequential write
    /// bandwidth after parity.
    pub fn raid4_volume(sim: &Sim) -> DiskModel {
        DiskModel::new(sim, 40_000_000, SimDuration::from_millis(4))
    }

    /// Writes `bytes` sequentially (no positioning cost): the model for
    /// log-style drains and large flushes. Drives
    /// [`DiskModel::poll_write_stream`], sleeps the transfer time it
    /// hands back, then [`DiskModel::finish_write`].
    pub async fn write_stream(&self, bytes: u64) {
        let mut st = Claim::default();
        let xfer = drive_poll(move |wf| self.poll_write_stream(bytes, &mut st, wf)).await;
        let held = ArmHeld(self);
        self.sim.sleep(xfer).await;
        held.finish_write(bytes);
    }

    /// Writes `bytes` with a positioning cost first (scattered writes).
    pub async fn write_seek(&self, bytes: u64) {
        let mut st = Claim::default();
        drive_poll(|wf| self.arm.poll_claim(ARM, &mut st, wf).then_some(())).await;
        let held = ArmHeld(self);
        self.sim
            .sleep(self.position + self.transfer_time(bytes))
            .await;
        held.finish_write(bytes);
    }

    /// Waits for any in-progress disk operation to finish without
    /// issuing one — the barrier a sync needs when another request is
    /// already flushing the bytes it cares about. Drives
    /// [`DiskModel::poll_barrier`].
    pub fn barrier(&self) -> impl Future<Output = ()> + '_ {
        let mut st = Claim::default();
        drive_poll(move |wf| self.poll_barrier(&mut st, wf).then_some(()))
    }

    /// First half of a streaming write, without a task: acquires the arm
    /// in FIFO order (parking a waker from `waker_factory` and returning
    /// `None` while it is held elsewhere) and, once held, returns the
    /// streaming transfer time. The caller then holds the arm with no
    /// guard: it sleeps the transfer and calls
    /// [`DiskModel::finish_write`], or [`DiskModel::abandon_write`] if it
    /// is dropped first.
    pub fn poll_write_stream(
        &self,
        bytes: u64,
        st: &mut Claim,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> Option<SimDuration> {
        self.arm
            .poll_claim(ARM, st, waker_factory)
            .then(|| self.transfer_time(bytes))
    }

    /// Completes a streaming write admitted by
    /// [`DiskModel::poll_write_stream`] after its transfer time elapsed:
    /// meters the bytes while still holding the arm, then releases it.
    pub fn finish_write(&self, bytes: u64) {
        self.meter.record(self.sim.now(), bytes);
        self.arm.release(ARM.flow);
    }

    /// Releases the arm of a streaming write admitted by
    /// [`DiskModel::poll_write_stream`] whose holder goes away before its
    /// transfer time elapses (a world torn down mid-flush); meters
    /// nothing.
    pub fn abandon_write(&self) {
        self.arm.release(ARM.flow);
    }

    /// The barrier without a task: `true` once the arm has been acquired
    /// and immediately released, `false` after parking.
    pub fn poll_barrier(&self, st: &mut Claim, waker_factory: &mut dyn FnMut() -> Waker) -> bool {
        let held = self.arm.poll_claim(ARM, st, waker_factory);
        if held {
            self.arm.release(ARM.flow);
        }
        held
    }

    fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration((bytes * 1_000_000_000).div_ceil(self.stream_bps))
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.meter.bytes()
    }

    /// Mean write throughput over the active period, MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        self.meter.throughput_mbps()
    }
}

/// The arm held by a task-driven write, released when dropped: after
/// [`ArmHeld::finish_write`] meters the bytes, or mid-transfer (a world
/// torn down) with nothing metered, as a dropped semaphore permit was.
struct ArmHeld<'a>(&'a DiskModel);

impl ArmHeld<'_> {
    /// Meters `bytes` while still holding the arm, then releases it.
    fn finish_write(self, bytes: u64) {
        self.0.meter.record(self.0.sim.now(), bytes);
    }
}

impl Drop for ArmHeld<'_> {
    fn drop(&mut self) {
        self.0.abandon_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;
    use std::rc::Rc;

    #[test]
    fn stream_write_takes_bandwidth_time() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(
            &sim,
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let d = Rc::clone(&disk);
        sim.run_until(async move {
            d.write_stream(1_000_000).await;
        });
        // 1 MB at 10 MB/s = 100 ms, no positioning.
        assert_eq!(sim.now(), SimTime(100_000_000));
        assert_eq!(disk.bytes_written(), 1_000_000);
    }

    #[test]
    fn seek_write_adds_position_cost() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(
            &sim,
            10_000_000,
            SimDuration::from_millis(5),
        ));
        let d = Rc::clone(&disk);
        sim.run_until(async move {
            d.write_seek(1_000_000).await;
        });
        assert_eq!(sim.now(), SimTime(105_000_000));
    }

    #[test]
    fn single_arm_serializes() {
        let sim = Sim::new();
        let disk = Rc::new(DiskModel::new(&sim, 10_000_000, SimDuration::ZERO));
        for _ in 0..3 {
            let d = Rc::clone(&disk);
            sim.spawn(async move {
                d.write_stream(1_000_000).await;
            });
        }
        let s = sim.clone();
        sim.run_until(async move {
            while s.live_tasks() > 1 {
                s.sleep(SimDuration::from_millis(1)).await;
            }
        });
        assert!(sim.now() >= SimTime(300_000_000), "three writes serialize");
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let sim = Sim::new();
        let ide = DiskModel::ide_udma_crippled(&sim);
        let scsi = DiskModel::scsi_single(&sim);
        let raid = DiskModel::raid4_volume(&sim);
        assert!(ide.stream_bps < scsi.stream_bps);
        assert!(scsi.stream_bps < raid.stream_bps);
    }
}
