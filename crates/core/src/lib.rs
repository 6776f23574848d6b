//! The Linux 2.4.4 NFS client write path — the paper's subject — as a
//! faithful simulation model.
//!
//! The crate reproduces the three defects *Linux NFS Client Write
//! Performance* (Lever & Honeyman, 2002) diagnoses, each behind a
//! [`ClientTuning`] switch so every configuration in the paper's
//! evaluation can run:
//!
//! 1. the `MAX_REQUEST_SOFT`/`MAX_REQUEST_HARD` synchronous flush logic
//!    that produces the periodic ~19 ms `write()` latency spikes of
//!    Figure 2;
//! 2. the O(n) sorted per-inode request list walked twice per page write
//!    (`nfs_find_request`/`nfs_update_request`) that makes latency grow
//!    with file size in Figure 3, against the paper's hash-table fix of
//!    Figure 4;
//! 3. the global kernel lock held across `sock_sendmsg` in the RPC
//!    transmit path, whose contention with `nfs_flushd` and reply
//!    processing degrades SMP write throughput — Figures 5/6 and Table 1.
//!
//! # Example
//!
//! ```
//! use std::rc::Rc;
//! use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
//! use nfsperf_kernel::{Kernel, KernelConfig, SimFile};
//! use nfsperf_net::{Nic, NicSpec, Path};
//! use nfsperf_server::{NfsServer, ServerConfig};
//! use nfsperf_sim::Sim;
//!
//! let sim = Sim::new();
//! let kernel = Kernel::new(&sim, KernelConfig::default());
//! let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
//! let (snic, srx) = Nic::new(&sim, "server", NicSpec::gigabit());
//! let to_server = Path::new(cnic, snic, Path::default_latency());
//! let _server = NfsServer::spawn(&sim, srx, to_server.reversed(), ServerConfig::netapp_f85());
//! let mount = NfsMount::mount(&kernel, to_server, crx, MountConfig {
//!     tuning: ClientTuning::full_patch(),
//!     ..MountConfig::default()
//! });
//!
//! let written = sim.run_until(async move {
//!     let file = mount.create("bench").await.unwrap();
//!     file.write(0, 8192).await.unwrap();
//!     file.close().await.unwrap();
//!     file.bytes_written()
//! });
//! assert_eq!(written, 8192);
//! ```

pub mod index;
pub mod inode;
pub mod mount;
pub mod request;
pub mod tuning;

pub use index::{Lookup, RequestIndex};
pub use inode::NfsInode;
pub use mount::{MountConfig, MountStats, NfsFile, NfsMount};
pub use request::{NfsPageReq, ReqState};
pub use tuning::{ClientTuning, IndexKind, MAX_REQUEST_HARD, MAX_REQUEST_SOFT};
