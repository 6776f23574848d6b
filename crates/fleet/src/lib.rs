//! Flyweight clients: the arrival process of a faithful NFS client
//! without the client.
//!
//! The faithful client stack (pages, `nfs_flushd`, request hash chains,
//! per-request locks) tops out around tens of concurrent machines per
//! simulation. What the *server* experiences, though, is only the wire:
//! a stream of WRITE and COMMIT datagrams with a particular inter-
//! departure distribution, datagram size, WRITE/COMMIT mix, and
//! concurrency window. [`model::calibrate`] measures exactly that from
//! one faithful client's transmit trace, and [`tier::FlyTier`] replays
//! it from ~56 bytes of state per client — so 10k–1M clients can hammer
//! one server through a real multi-stage switch fabric
//! ([`nfsperf_net::Fabric`]) while a handful of embedded faithful
//! clients keep paper fidelity.
//!
//! What stays real for a flyweight request: contention on the
//! aggregation and core uplinks, server-port and client-NIC drain
//! serialization (as per-client virtual clocks), the server's service
//! slots, NVRAM/dirty-cache backends, and checkpoint gates. What is
//! replayed from calibration: emission times, datagram sizes, the
//! WRITE:COMMIT ratio, and the outstanding-RPC window.
//!
//! [`machine`] is the faithful client machine and sequential writer
//! that the probe and every multi-client experiment world share.

pub mod machine;
pub mod model;
pub mod tier;

pub use machine::{mount_client, write_all, write_through_close};
pub use model::{calibrate, BehaviorModel, Calibration, CalibrationConfig, FlyOp, GAP_QUANTILES};
pub use tier::{FlyTier, FlyTierConfig, TierEngine};
