//! Deterministic discrete-event simulation engine for the `nfsperf`
//! reproduction of *Linux NFS Client Write Performance* (Lever & Honeyman,
//! 2002).
//!
//! Every component of the reproduced system — the client's write path and
//! `nfs_flushd` daemon, the RPC transport, the network links, the servers
//! and their disks — runs as an async task on the single-threaded executor
//! in [`executor`]. Tasks advance only through simulated time, so whole
//! benchmark runs covering hundreds of simulated seconds finish in
//! milliseconds of real time and are bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use nfsperf_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let elapsed = sim.run_until({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep(SimDuration::from_millis(3)).await;
//!         sim.now()
//!     }
//! });
//! assert_eq!(elapsed.as_nanos(), 3_000_000);
//! ```

pub mod arbiter;
pub mod executor;
pub mod metrics;
pub mod profile;
pub mod proptest;
pub mod rng;
pub mod runner;
pub mod select;
pub mod sync;
pub mod time;
pub mod wheel;

pub use executor::{
    yield_now, EventHandlerId, JoinHandle, ScheduledEvent, Sim, Sleep, TaskId, YieldNow,
};
pub use metrics::{
    mbps, mean, percentile, ByteMeter, Counter, Histogram, LatencyDigest, ProfileRow, Profiler,
};
pub use rng::SimRng;
pub use runner::{default_jobs, run_cells, Cell};
pub use select::{select2, Either};
pub use sync::{
    channel, drive_poll, Gate, GatePass, LockGuard, LockStats, Receiver, SemPermit, Semaphore,
    Sender, SimLock, WaitFuture, WaitQueue,
};
pub use time::{SimDuration, SimTime};
