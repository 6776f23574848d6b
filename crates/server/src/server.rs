//! The generic simulated NFSv3 server: request dispatch plus pluggable
//! write backends (filer NVRAM, knfsd page-cache-and-disk, plain memory).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use nfsperf_net::{pool_put, DatagramPayload, Path};
use nfsperf_nfs3::{
    Commit3Args, Commit3Res, Create3Args, Create3Res, Getattr3Args, Getattr3Res, Lookup3Args,
    Lookup3Res, NfsProc3, NfsStat3, Read3Args, Read3Res, Setattr3Args, Setattr3Res, StableHow,
    WccData, Write3Args, Write3Res, WriteVerf, NFS_PROGRAM, NFS_V3,
};
use nfsperf_sim::{
    arbiter::Claim, drive_poll, Counter, Gate, GatePass, Receiver, Sim, SimDuration, SimTime,
};
use nfsperf_sunrpc::{
    decode_call, encode_reply, encode_reply_status, record_marker, RecordReader,
    ACCEPT_GARBAGE_ARGS, ACCEPT_PROC_UNAVAIL, ACCEPT_PROG_MISMATCH, ACCEPT_PROG_UNAVAIL,
};
use nfsperf_tcp::{TcpConfig, TcpConn, TcpEndpoint};
use nfsperf_xdr::{Decoder, XdrDecode};

use crate::disk::DiskModel;
use crate::fs::FsState;
use crate::nvram::{Nvram, NvramAdmit};
use crate::sched::{
    LatencyDigest, OpClass, ReqMeta, SchedPolicy, ServiceEngine, SvcAdmit, SvcSlot,
};

/// Which disk model a backend drains to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskKind {
    /// Eight-disk RAID 4 volume (the filer).
    Raid4,
    /// Single SCSI LVD disk (the Linux server).
    ScsiSingle,
}

impl DiskKind {
    fn build(self, sim: &Sim) -> Rc<DiskModel> {
        match self {
            DiskKind::Raid4 => Rc::new(DiskModel::raid4_volume(sim)),
            DiskKind::ScsiSingle => Rc::new(DiskModel::scsi_single(sim)),
        }
    }
}

/// Backend selection and parameters.
#[derive(Debug, Clone)]
pub enum BackendConfig {
    /// NVRAM-logged stable writes with periodic checkpoint pauses — the
    /// Network Appliance filer.
    Filer {
        /// NVRAM log size (the F85 has 64 MB).
        nvram_capacity: u64,
        /// Time between file-system checkpoints.
        checkpoint_interval: SimDuration,
        /// Service pause while a checkpoint runs.
        checkpoint_duration: SimDuration,
        /// When the first checkpoint starts.
        checkpoint_offset: SimDuration,
    },
    /// Unstable writes into a server page cache, flushed to disk on
    /// COMMIT or when the dirty cap is exceeded — the Linux knfsd.
    CacheDisk {
        /// Dirty bytes the server caches before it must flush inline.
        dirty_cap: u64,
        /// Backing disk.
        disk: DiskKind,
    },
    /// Replies from memory, no durability modelling — the generic "slow
    /// server" whose bottleneck is its 100 Mb/s wire.
    Memory,
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server name for reports.
    pub name: &'static str,
    /// Concurrent request handlers (nfsd threads / filer service engine).
    pub concurrency: usize,
    /// Fixed CPU cost per operation.
    pub fixed_op_cost: SimDuration,
    /// Rate at which the server CPU moves write payload (bytes/second).
    pub data_rate_bps: u64,
    /// Write backend.
    pub backend: BackendConfig,
    /// Fault injection: WRITEs fail with `NFS3ERR_NOSPC` once this many
    /// payload bytes have been absorbed (`None` = never).
    pub write_error_after: Option<u64>,
    /// Request scheduling policy across the service slots. FIFO by
    /// default: the paper's servers serve in arrival order, and the
    /// reproduced figures depend on it.
    pub sched: SchedPolicy,
    /// Optional per-client SLA weights: upgrades a DRR `sched` to
    /// weighted DRR, scaling each client's per-rotation service credit.
    /// `None` (the default) leaves every policy untouched.
    pub client_weights: Option<crate::sched::WeightTable>,
}

impl ServerConfig {
    /// The prototype Network Appliance F85: single 833 MHz CPU, 64 MB
    /// NVRAM, RAID 4 volume. Fast per-op service; sustained write rate
    /// bounded by the NVRAM drain (~40 MB/s), matching the paper's
    /// ~38 MB/s observation.
    pub fn netapp_f85() -> ServerConfig {
        ServerConfig {
            name: "netapp-f85",
            concurrency: 1,
            fixed_op_cost: SimDuration::from_micros(40),
            data_rate_bps: 60_000_000,
            backend: BackendConfig::Filer {
                nvram_capacity: 64 * 1024 * 1024,
                checkpoint_interval: SimDuration::from_secs(10),
                checkpoint_duration: SimDuration::from_millis(250),
                checkpoint_offset: SimDuration::from_millis(400),
            },
            write_error_after: None,
            sched: SchedPolicy::Fifo,
            client_weights: None,
        }
    }

    /// The four-way Linux 2.4 knfsd: plenty of CPU, UNSTABLE writes into
    /// the page cache, one SCSI disk behind COMMIT. Its network path is
    /// the real limiter (32-bit/33 MHz PCI NIC), configured at the NIC.
    pub fn linux_knfsd() -> ServerConfig {
        ServerConfig {
            name: "linux-knfsd",
            concurrency: 4,
            fixed_op_cost: SimDuration::from_micros(25),
            data_rate_bps: 200_000_000,
            backend: BackendConfig::CacheDisk {
                dirty_cap: 64 * 1024 * 1024,
                disk: DiskKind::ScsiSingle,
            },
            write_error_after: None,
            sched: SchedPolicy::Fifo,
            client_weights: None,
        }
    }

    /// A generic server on 100 Mb/s Ethernet: the paper's "slow server"
    /// used to show that slower servers yield *faster* client memory
    /// writes.
    pub fn slow_100bt() -> ServerConfig {
        ServerConfig {
            name: "slow-100bt",
            concurrency: 2,
            fixed_op_cost: SimDuration::from_micros(30),
            data_rate_bps: 100_000_000,
            backend: BackendConfig::Memory,
            write_error_after: None,
            sched: SchedPolicy::Fifo,
            client_weights: None,
        }
    }

    /// A hypothetical fast prototype: wide service concurrency, cheap
    /// per-op cost, memory-speed backend on a gigabit wire. Used by the
    /// CAWL regime sweep to re-test the paper's "a faster server makes
    /// the *client* slower" observation — fast replies steal client CPU
    /// from the writer in the cache-fit regime.
    pub fn fast_prototype() -> ServerConfig {
        ServerConfig {
            name: "fast-prototype",
            concurrency: 8,
            fixed_op_cost: SimDuration::from_micros(10),
            data_rate_bps: 400_000_000,
            backend: BackendConfig::Memory,
            write_error_after: None,
            sched: SchedPolicy::Fifo,
            client_weights: None,
        }
    }
}

enum Backend {
    Filer {
        nvram: Rc<Nvram>,
        checkpoint: Rc<Gate>,
        checkpoints_taken: Rc<Counter>,
    },
    CacheDisk {
        dirty: Cell<u64>,
        dirty_cap: u64,
        disk: Rc<DiskModel>,
        inline_flushes: Counter,
    },
    Memory,
}

/// Aggregate server statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Operations served.
    pub ops: u64,
    /// WRITE operations served.
    pub writes: u64,
    /// Payload bytes written.
    pub write_bytes: u64,
    /// COMMIT operations served.
    pub commits: u64,
    /// Checkpoints taken (filer only).
    pub checkpoints: u64,
    /// Inline dirty-cap flushes (knfsd only).
    pub inline_flushes: u64,
}

/// Per-client server-side counters, indexed by the client id returned
/// from [`NfsServer::attach_udp`] / [`NfsServer::attach_tcp`].
///
/// A real server demultiplexes clients by peer address; here each
/// attached transport *is* one client, which is what fleet fairness
/// accounting needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerClientStats {
    /// Operations served for this client.
    pub ops: u64,
    /// WRITE operations served for this client.
    pub writes: u64,
    /// Payload bytes written by this client.
    pub write_bytes: u64,
    /// COMMIT operations served for this client.
    pub commits: u64,
    /// Queue delay (request arrival to service start) percentiles.
    pub queue_delay: LatencyDigest,
    /// Service latency (request arrival to completion) percentiles.
    pub service: LatencyDigest,
}

/// Aggregate counters for the flyweight ("slim") client tier.
///
/// Clients registered through [`NfsServer::register_slim_clients`] share
/// these counters instead of materializing a [`PerClientStats`] entry and
/// per-client latency vectors each — the point of the flyweight tier is
/// that a million clients cost the server a handful of `u64`s, not a
/// million digests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlimTierStats {
    /// Flyweight clients registered.
    pub clients: u64,
    /// Operations served for the tier.
    pub ops: u64,
    /// WRITE operations served for the tier.
    pub writes: u64,
    /// Payload bytes written by the tier.
    pub write_bytes: u64,
    /// COMMIT operations served for the tier.
    pub commits: u64,
}

/// How a reply leaves the server: transports differ only in framing.
enum ReplySink {
    /// Datagram reply along a UDP path.
    Udp(Path),
    /// Record-marked reply onto a TCP connection.
    Tcp(Rc<TcpConn>),
}

impl ReplySink {
    fn deliver(&self, reply: DatagramPayload) {
        match self {
            ReplySink::Udp(path) => path.send(reply),
            // A send error means the peer went away; a real server drops
            // the reply on the floor, so do we. The stream copied the
            // bytes, so the buffer goes back to the pool either way.
            ReplySink::Tcp(conn) => {
                let _ = conn.send_vectored(&[&record_marker(reply.len()), &reply]);
                pool_put(reply);
            }
        }
    }
}

/// One decoded NFS call: the procedure with its arguments, owned, so
/// the call's wire buffer can be recycled before service starts.
enum Request {
    Null,
    Write(Write3Args),
    Commit(Commit3Args),
    Create(Create3Args),
    Lookup(Lookup3Args),
    Getattr(Getattr3Args),
    Setattr(Setattr3Args),
    Read(Read3Args),
    /// Not served; reply with this accept status.
    Reject(u32),
}

impl Request {
    /// Decodes procedure `proc`'s arguments from `args`.
    fn decode(proc: u32, args: &mut Decoder<'_>) -> Request {
        fn with<T: XdrDecode>(args: &mut Decoder<'_>, wrap: fn(T) -> Request) -> Request {
            T::decode(args).map_or(Request::Reject(ACCEPT_GARBAGE_ARGS), wrap)
        }
        match NfsProc3::from_u32(proc) {
            Some(NfsProc3::Null) => Request::Null,
            Some(NfsProc3::Write) => with(args, Request::Write),
            Some(NfsProc3::Commit) => with(args, Request::Commit),
            Some(NfsProc3::Create) => with(args, Request::Create),
            Some(NfsProc3::Lookup) => with(args, Request::Lookup),
            Some(NfsProc3::Getattr) => with(args, Request::Getattr),
            Some(NfsProc3::Setattr) => with(args, Request::Setattr),
            Some(NfsProc3::Read) => with(args, Request::Read),
            None => Request::Reject(ACCEPT_PROC_UNAVAIL),
        }
    }
}

/// What a [`NfsServer::poll_flyweight`] call asks its driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlyStep {
    /// The op parked a waker in a server wait queue; poll again when it
    /// fires.
    Parked,
    /// Model this much service or disk-transfer time, then poll again.
    Sleep(SimDuration),
    /// The reply would leave the server now; the op is finished.
    Done,
}

/// Which RPC a backend step serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataOp {
    Write,
    Commit,
}

/// Where one backend step stands (see [`NfsServer::poll_backend`]).
/// All wait state lives inline, so a fresh step allocates nothing.
#[derive(Default)]
enum BackendStep {
    /// Not started. The entry bookkeeping (flush sizing,
    /// `inline_flushes`, the commit's dirty claim) runs once, on leaving
    /// this state, so parking later never repeats it.
    #[default]
    Start,
    /// Waiting for NVRAM space (filer WRITE).
    Nvram(NvramAdmit),
    /// Waiting for the disk arm to flush `flush` dirty bytes, or, when
    /// `flush` is 0 (a COMMIT that found the pool claimed), to pass the
    /// arm as a barrier.
    Disk { flush: u64, arm: Claim },
    /// Holding the arm while the flush's transfer time elapses. The arm
    /// is held as this state alone, with no permit object: the server
    /// owns its disk, so [`NfsServer::poll_backend`] releases it on
    /// leaving the state, and a task-driven step dropped mid-flush
    /// releases it on drop (see [`NfsServer::backend_step`]).
    Xfer { flush: u64 },
    /// Finished.
    Done,
}

/// Pipeline position of an in-flight flyweight op, holding only the
/// wait state of that position.
enum FlyStage {
    /// Waiting out a filer checkpoint (skipped on other backends).
    Gate(GatePass),
    /// Queued for a service slot.
    Admit(SvcAdmit),
    /// Holding a service slot with its service time slept; running the
    /// backend step.
    Backend(BackendStep),
    /// Terminal; further polls are no-ops.
    Done,
}

/// One flyweight WRITE or COMMIT advanced as a poll-style state machine
/// instead of a spawned task. The event-driven client tier keeps one per
/// RPC inside the server, in the RPC's own record, and drives it with
/// [`NfsServer::poll_flyweight`]. The op holds only what its caller does
/// not already know: its arrival instant and the wait state of its
/// pipeline position. The caller supplies the client id, class and
/// payload at each poll. All wait state lives inline, one stage at a
/// time, so constructing a fresh op per RPC allocates nothing and an op
/// is 24 bytes: at a million clients nearly every RPC can sit in the
/// server's queue at once. Unlike a faithful request, an op holds its
/// service slot, and while it flushes the disk arm, without a guard, so
/// it must be driven to done once admitted: dropping one mid-service
/// would leave the slot (and the arm) taken, and debug builds assert
/// that it never happens.
pub struct FlyweightOp {
    /// When the op reached the server.
    arrival: SimTime,
    stage: FlyStage,
}

impl FlyweightOp {
    /// Whether the op has finished (reply left the server).
    pub fn is_done(&self) -> bool {
        matches!(self.stage, FlyStage::Done)
    }
}

impl Drop for FlyweightOp {
    fn drop(&mut self) {
        debug_assert!(
            std::thread::panicking() || !matches!(self.stage, FlyStage::Backend(_)),
            "flyweight op dropped while holding a service slot"
        );
    }
}

/// A running simulated NFS server.
pub struct NfsServer {
    sim: Sim,
    /// The exported file system.
    pub fs: Rc<FsState>,
    per_client: RefCell<Vec<PerClientStats>>,
    engine: Rc<ServiceEngine>,
    fixed_op_cost: SimDuration,
    data_rate_bps: u64,
    backend: Backend,
    verf: Cell<WriteVerf>,
    stability: StableHow,
    write_error_after: Option<u64>,
    ops: Counter,
    writes: Counter,
    write_bytes: Counter,
    commits: Counter,
    slim_clients: Cell<u64>,
    slim_ops: Counter,
    slim_writes: Counter,
    slim_write_bytes: Counter,
    slim_commits: Counter,
    /// Server name for reports.
    pub name: &'static str,
}

impl NfsServer {
    /// Boots a server: spawns the dispatcher draining `rx` and replying
    /// along `reply_path`, plus any backend daemons.
    pub fn spawn(
        sim: &Sim,
        rx: Receiver<DatagramPayload>,
        reply_path: Path,
        config: ServerConfig,
    ) -> Rc<NfsServer> {
        let server = NfsServer::new(sim, config);
        server.attach_udp(rx, reply_path);
        server
    }

    /// Boots a server that speaks RPC over TCP instead of UDP: accepts
    /// connections on `rx`, reassembles record-marked calls from each
    /// stream, and writes record-marked replies back onto the same
    /// connection. Same signature and backends as [`NfsServer::spawn`].
    pub fn spawn_tcp(
        sim: &Sim,
        rx: Receiver<DatagramPayload>,
        reply_path: Path,
        config: ServerConfig,
    ) -> Rc<NfsServer> {
        let server = NfsServer::new(sim, config);
        server.attach_tcp(rx, reply_path);
        server
    }

    /// Attaches one UDP client: spawns a dispatcher draining `rx` and
    /// replying along `reply_path`. Returns the client's id for
    /// [`NfsServer::per_client_stats`]. Any number of clients may attach;
    /// their requests mix in the shared service queue.
    pub fn attach_udp(self: &Rc<Self>, rx: Receiver<DatagramPayload>, reply_path: Path) -> usize {
        let client = self.register_client();
        let dispatcher = Rc::clone(self);
        self.sim.spawn_detached(async move {
            while let Some(payload) = rx.recv().await {
                dispatcher.serve_one(client, payload, ReplySink::Udp(reply_path.clone()));
            }
        });
        client
    }

    /// Attaches one TCP client: accepts connections on `rx` and serves
    /// record-marked calls from each. Returns the client's id, as
    /// [`NfsServer::attach_udp`] does.
    pub fn attach_tcp(self: &Rc<Self>, rx: Receiver<DatagramPayload>, reply_path: Path) -> usize {
        let client = self.register_client();
        let mtu = reply_path.local.spec().mtu;
        let endpoint = TcpEndpoint::new(&self.sim, reply_path, rx, TcpConfig::for_mtu(mtu));
        let acceptor = Rc::clone(self);
        let sim2 = self.sim.clone();
        self.sim.spawn_detached(async move {
            while let Some(conn) = endpoint.accept().await {
                let srv = Rc::clone(&acceptor);
                sim2.spawn_detached(async move {
                    srv.serve_conn(client, conn).await;
                });
            }
        });
        client
    }

    fn register_client(&self) -> usize {
        let mut per_client = self.per_client.borrow_mut();
        per_client.push(PerClientStats::default());
        per_client.len() - 1
    }

    fn client_stat(&self, client: usize, update: impl FnOnce(&mut PerClientStats)) {
        update(&mut self.per_client.borrow_mut()[client]);
    }

    /// Reserves `count` flyweight client ids and returns the first one.
    ///
    /// Flyweight ids start after every faithful client registered so far;
    /// they never materialize [`PerClientStats`] or per-client latency
    /// vectors (the service engine's sample cap is set to the faithful
    /// population), only the shared [`SlimTierStats`] counters. Requests
    /// for these ids enter through [`NfsServer::begin_flyweight`] and
    /// [`NfsServer::poll_flyweight`] and contend for the same
    /// service slots, NVRAM, checkpoints, and dirty cache as everyone
    /// else. Attach all faithful clients first.
    pub fn register_slim_clients(&self, count: usize) -> usize {
        let base = self.per_client.borrow().len();
        self.engine.set_sample_cap(base);
        self.slim_clients
            .set(self.slim_clients.get() + count as u64);
        base
    }

    /// Starts a flyweight WRITE or COMMIT: same checkpoint gate,
    /// scheduler admission, CPU cost, and backend step as
    /// `NfsServer::handle_write` and `NfsServer::handle_commit`, but
    /// without XDR decode, file-system state, or per-client digests.
    /// Counts the op and stamps its arrival, then hands back a state
    /// machine the caller advances with [`NfsServer::poll_flyweight`].
    pub fn begin_flyweight(&self) -> FlyweightOp {
        self.slim_ops.inc();
        FlyweightOp {
            arrival: self.sim.now(),
            stage: FlyStage::Gate(GatePass::default()),
        }
    }

    /// Advances a flyweight op for client id `client` (`class` WRITE with
    /// `bytes` of payload, or COMMIT) until it parks, needs simulated
    /// time, or finishes; every poll of one op passes the same three. On
    /// [`FlyStep::Parked`] the op has parked a waker built by
    /// `waker_factory` in one of the server's wait queues — poll again
    /// when it fires. On [`FlyStep::Sleep`] the caller models that much
    /// service or disk-transfer time and polls again. The checkpoint
    /// gate, scheduler queue and backend step are the ones faithful
    /// requests use, so flyweight and faithful traffic interleave in one
    /// order.
    pub fn poll_flyweight(
        &self,
        op: &mut FlyweightOp,
        client: usize,
        class: OpClass,
        bytes: u64,
        waker_factory: &mut dyn FnMut() -> std::task::Waker,
    ) -> FlyStep {
        let meta = ReqMeta {
            client,
            class,
            bytes,
            arrival: op.arrival,
        };
        let kind = match class {
            OpClass::Write => DataOp::Write,
            OpClass::Commit => DataOp::Commit,
            OpClass::Meta => unreachable!("flyweight ops are WRITEs or COMMITs"),
        };
        loop {
            match &mut op.stage {
                FlyStage::Gate(gate) => {
                    // Checkpoint pause happens before service; once
                    // passed, the gate is never re-checked.
                    if let Backend::Filer { checkpoint, .. } = &self.backend {
                        if !checkpoint.poll_pass(gate, waker_factory) {
                            return FlyStep::Parked;
                        }
                    }
                    op.stage = FlyStage::Admit(SvcAdmit::default());
                }
                FlyStage::Admit(admit) => {
                    if !self.engine.poll_claim(meta, admit, waker_factory) {
                        return FlyStep::Parked;
                    }
                    op.stage = FlyStage::Backend(BackendStep::default());
                    return FlyStep::Sleep(self.service_time(meta.bytes));
                }
                FlyStage::Backend(step) => {
                    match self.poll_backend(kind, meta.bytes, step, waker_factory) {
                        FlyStep::Done => {}
                        step => return step,
                    }
                    self.ops.inc();
                    match kind {
                        DataOp::Write => {
                            self.writes.inc();
                            self.write_bytes.add(meta.bytes);
                            self.slim_writes.inc();
                            self.slim_write_bytes.add(meta.bytes);
                        }
                        DataOp::Commit => {
                            self.commits.inc();
                            self.slim_commits.inc();
                        }
                    }
                    // Counters first, slot release last, as a faithful
                    // request releases its slot when its handler returns.
                    self.engine.release(&meta);
                    op.stage = FlyStage::Done;
                    return FlyStep::Done;
                }
                FlyStage::Done => return FlyStep::Done,
            }
        }
    }

    /// The durability work of one WRITE or COMMIT after its service
    /// time, without a task: the one backend rule that faithful requests
    /// (through [`NfsServer::backend_step`]) and flyweights (through
    /// [`NfsServer::poll_flyweight`]) share. Returns
    /// [`FlyStep::Parked`] after parking a waker from `waker_factory`,
    /// [`FlyStep::Sleep`] for a disk transfer the caller must sleep
    /// before polling again, or [`FlyStep::Done`].
    ///
    /// - **Filer WRITE**: logs the bytes into NVRAM, stalling while the
    ///   log is full.
    /// - **Cache-disk WRITE**: adds the bytes to the dirty cache. If that
    ///   would pass the dirty cap, it first flushes half the cache plus
    ///   the write inline (bdflush pressure), sized once on entry.
    /// - **Cache-disk COMMIT**: claims the whole dirty pool before
    ///   touching the disk, so concurrent COMMITs from a client fleet
    ///   each flush only what the previous one left instead of
    ///   re-streaming the same bytes after queueing on the arm (which
    ///   turns N commits into O(N^2) disk work). A COMMIT that finds the
    ///   pool already claimed still waits out the in-flight flush (a
    ///   disk barrier): its caller's data is on the platter only once
    ///   that flush completes.
    /// - Everything else is a no-op: filer writes are already
    ///   `FILE_SYNC`, and the memory backend keeps nothing.
    fn poll_backend(
        &self,
        kind: DataOp,
        bytes: u64,
        st: &mut BackendStep,
        waker_factory: &mut dyn FnMut() -> std::task::Waker,
    ) -> FlyStep {
        loop {
            match (&mut *st, &self.backend) {
                (BackendStep::Start, Backend::Filer { .. }) if kind == DataOp::Write => {
                    *st = BackendStep::Nvram(NvramAdmit::default());
                }
                (
                    BackendStep::Start,
                    Backend::CacheDisk {
                        dirty,
                        dirty_cap,
                        inline_flushes,
                        ..
                    },
                ) => {
                    let flush = match kind {
                        DataOp::Write if dirty.get() + bytes > *dirty_cap => {
                            // bdflush pressure: flush half the cache inline.
                            inline_flushes.inc();
                            dirty.get() / 2 + bytes
                        }
                        DataOp::Write => 0,
                        DataOp::Commit => dirty.replace(0),
                    };
                    *st = if kind == DataOp::Write && flush == 0 {
                        dirty.set(dirty.get() + bytes);
                        BackendStep::Done
                    } else {
                        BackendStep::Disk {
                            flush,
                            arm: Claim::default(),
                        }
                    };
                }
                (BackendStep::Start, _) => *st = BackendStep::Done,
                (BackendStep::Nvram(admit), Backend::Filer { nvram, .. }) => {
                    if !nvram.poll_admit(bytes, admit, waker_factory) {
                        return FlyStep::Parked;
                    }
                    *st = BackendStep::Done;
                }
                (BackendStep::Disk { flush: 0, arm }, Backend::CacheDisk { disk, .. }) => {
                    if !disk.poll_barrier(arm, waker_factory) {
                        return FlyStep::Parked;
                    }
                    *st = BackendStep::Done;
                }
                (BackendStep::Disk { flush, arm }, Backend::CacheDisk { disk, .. }) => {
                    let flush = *flush;
                    let Some(xfer) = disk.poll_write_stream(flush, arm, waker_factory) else {
                        return FlyStep::Parked;
                    };
                    *st = BackendStep::Xfer { flush };
                    return FlyStep::Sleep(xfer);
                }
                (&mut BackendStep::Xfer { flush }, Backend::CacheDisk { dirty, disk, .. }) => {
                    // The flush's transfer time has elapsed.
                    *st = BackendStep::Done;
                    disk.finish_write(flush);
                    if kind == DataOp::Write {
                        dirty.set(dirty.get().saturating_sub(flush));
                        dirty.set(dirty.get() + bytes);
                    }
                }
                (BackendStep::Done, _) => return FlyStep::Done,
                _ => unreachable!("backend step state belongs to another backend"),
            }
        }
    }

    /// Runs one backend step from a request task: drives
    /// [`NfsServer::poll_backend`] and sleeps each transfer it hands
    /// back. A task dropped while it sleeps a flush (a world torn down)
    /// releases the disk arm the step holds.
    async fn backend_step(&self, kind: DataOp, bytes: u64) {
        struct Step<'a>(&'a NfsServer, BackendStep);
        impl Drop for Step<'_> {
            fn drop(&mut self) {
                if let (BackendStep::Xfer { .. }, Backend::CacheDisk { disk, .. }) =
                    (&self.1, &self.0.backend)
                {
                    disk.abandon_write();
                }
            }
        }
        let mut st = Step(self, BackendStep::default());
        loop {
            let step = drive_poll(|wf| match self.poll_backend(kind, bytes, &mut st.1, wf) {
                FlyStep::Parked => None,
                step => Some(step),
            })
            .await;
            match step {
                FlyStep::Sleep(xfer) => self.sim.sleep(xfer).await,
                _ => return,
            }
        }
    }

    /// CPU service time of a request carrying `bytes` of payload.
    fn service_time(&self, bytes: u64) -> SimDuration {
        self.fixed_op_cost + self.data_time(bytes)
    }

    /// Snapshot of the flyweight tier's shared counters.
    pub fn slim_stats(&self) -> SlimTierStats {
        SlimTierStats {
            clients: self.slim_clients.get(),
            ops: self.slim_ops.get(),
            writes: self.slim_writes.get(),
            write_bytes: self.slim_write_bytes.get(),
            commits: self.slim_commits.get(),
        }
    }

    /// Boots the server state and backend daemons without any transport;
    /// pair with [`NfsServer::attach_udp`] / [`NfsServer::attach_tcp`].
    pub fn new(sim: &Sim, config: ServerConfig) -> Rc<NfsServer> {
        let (backend, stability) = match config.backend {
            BackendConfig::Filer {
                nvram_capacity,
                checkpoint_interval,
                checkpoint_duration,
                checkpoint_offset,
            } => {
                let disk = DiskKind::Raid4.build(sim);
                let nvram = Nvram::new(sim, nvram_capacity, disk);
                let checkpoint = Rc::new(Gate::new());
                let taken = Rc::new(Counter::new());
                // Checkpoint daemon: periodically close the service gate,
                // like WAFL pausing while it writes a consistency point.
                {
                    let gate = Rc::clone(&checkpoint);
                    let sim2 = sim.clone();
                    let taken = Rc::clone(&taken);
                    sim.spawn_detached(async move {
                        sim2.sleep(checkpoint_offset).await;
                        loop {
                            gate.close();
                            taken.inc();
                            sim2.sleep(checkpoint_duration).await;
                            gate.open();
                            sim2.sleep(checkpoint_interval).await;
                        }
                    });
                }
                (
                    Backend::Filer {
                        nvram,
                        checkpoint,
                        checkpoints_taken: taken,
                    },
                    StableHow::FileSync,
                )
            }
            BackendConfig::CacheDisk { dirty_cap, disk } => (
                Backend::CacheDisk {
                    dirty: Cell::new(0),
                    dirty_cap,
                    disk: disk.build(sim),
                    inline_flushes: Counter::new(),
                },
                StableHow::Unstable,
            ),
            BackendConfig::Memory => (Backend::Memory, StableHow::Unstable),
        };

        Rc::new(NfsServer {
            sim: sim.clone(),
            fs: Rc::new(FsState::new()),
            per_client: RefCell::new(Vec::new()),
            engine: ServiceEngine::with_weights(
                sim,
                config.concurrency,
                config.sched,
                config.client_weights.as_ref(),
            ),
            fixed_op_cost: config.fixed_op_cost,
            data_rate_bps: config.data_rate_bps,
            backend,
            verf: Cell::new(WriteVerf(0x0bad_cafe_0000_0001)),
            stability,
            write_error_after: config.write_error_after,
            ops: Counter::new(),
            writes: Counter::new(),
            write_bytes: Counter::new(),
            commits: Counter::new(),
            slim_clients: Cell::new(0),
            slim_ops: Counter::new(),
            slim_writes: Counter::new(),
            slim_write_bytes: Counter::new(),
            slim_commits: Counter::new(),
            name: config.name,
        })
    }

    /// One TCP connection's service loop: reassemble call records and feed
    /// each into the shared service path, replying on the same connection.
    async fn serve_conn(self: Rc<Self>, client: usize, conn: Rc<TcpConn>) {
        let mut records = RecordReader::new();
        // Ends when the peer closed, reset, or went away.
        while conn.recv_into(records.stream_mut()).await.is_ok() {
            while let Some(call) = records.next_record() {
                self.serve_one(client, call, ReplySink::Tcp(Rc::clone(&conn)));
            }
        }
    }

    /// The single service loop body shared by every transport: spawn a
    /// task that runs the call through [`NfsServer::process`] (where the
    /// scheduler orders it against every other client) and deliver the
    /// reply through the transport's framing.
    fn serve_one(self: &Rc<Self>, client: usize, call: DatagramPayload, sink: ReplySink) {
        let handler = Rc::clone(self);
        self.sim.clone().spawn_detached(async move {
            if let Some(reply) = handler.process(client, call).await {
                sink.deliver(reply);
            }
        });
    }

    fn data_time(&self, bytes: u64) -> SimDuration {
        SimDuration((bytes * 1_000_000_000).div_ceil(self.data_rate_bps))
    }

    /// Executes one RPC call message and returns the reply to send, or
    /// `None` for junk that a real server would silently drop. Transport
    /// independent: the UDP dispatcher sends the reply as a datagram, the
    /// TCP service loop record-marks it onto the connection. The call
    /// buffer goes back to the payload pool as soon as it is decoded.
    async fn process(&self, client: usize, payload: DatagramPayload) -> Option<DatagramPayload> {
        let decoded = decode_call(&payload).map(|(hdr, mut args)| {
            let request = Request::decode(hdr.proc, &mut args);
            (hdr, request)
        });
        pool_put(payload);
        // Junk: drop, like a real server.
        let (hdr, request) = decoded.ok()?;
        if hdr.prog != NFS_PROGRAM {
            return Some(encode_reply_status(hdr.xid, ACCEPT_PROG_UNAVAIL, None));
        }
        if hdr.vers != NFS_V3 {
            return Some(encode_reply_status(hdr.xid, ACCEPT_PROG_MISMATCH, None));
        }
        self.ops.inc();
        self.client_stat(client, |c| c.ops += 1);
        // Queue delay is measured from here: the decoded request has
        // reached the service path and is waiting for the scheduler.
        let arrival = self.sim.now();
        let reply = match request {
            Request::Null => {
                let _svc = self.admit(client, OpClass::Meta, 0, arrival).await;
                self.sim.sleep(self.fixed_op_cost).await;
                encode_reply(hdr.xid, &0u32)
            }
            Request::Write(w) => self.handle_write(client, hdr.xid, w, arrival).await,
            Request::Commit(c) => self.handle_commit(client, hdr.xid, c, arrival).await,
            Request::Create(c) => self.handle_create(client, hdr.xid, c, arrival).await,
            Request::Lookup(l) => self.handle_lookup(client, hdr.xid, l, arrival).await,
            Request::Getattr(g) => self.handle_getattr(client, hdr.xid, g, arrival).await,
            Request::Setattr(a) => self.handle_setattr(client, hdr.xid, a, arrival).await,
            Request::Read(r) => self.handle_read(client, hdr.xid, r, arrival).await,
            Request::Reject(accept_stat) => encode_reply_status(hdr.xid, accept_stat, None),
        };
        Some(reply)
    }

    /// Takes a service slot for one request, in scheduler order.
    fn admit(
        &self,
        client: usize,
        class: OpClass,
        bytes: u64,
        arrival: SimTime,
    ) -> impl Future<Output = SvcSlot> + '_ {
        self.engine.admit(ReqMeta {
            client,
            class,
            bytes,
            arrival,
        })
    }

    async fn handle_write(
        &self,
        client: usize,
        xid: u32,
        w: Write3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        // Checkpoint pause happens before service (the filer stops
        // answering during a consistency point).
        if let Backend::Filer { checkpoint, .. } = &self.backend {
            checkpoint.pass().await;
        }
        let _svc = self
            .admit(client, OpClass::Write, u64::from(w.count), arrival)
            .await;
        self.sim.sleep(self.service_time(u64::from(w.count))).await;

        if let Some(limit) = self.write_error_after {
            if self.write_bytes.get() + u64::from(w.count) > limit {
                return encode_reply(
                    xid,
                    &Write3Res {
                        status: NfsStat3::Nospc,
                        wcc: WccData::default(),
                        count: 0,
                        committed: StableHow::Unstable,
                        verf: WriteVerf::default(),
                    },
                );
            }
        }

        let before = self.fs.size_of(&w.file).unwrap_or(0);
        self.backend_step(DataOp::Write, u64::from(w.count)).await;

        match self.fs.apply_write(&w.file, w.offset, w.count) {
            Ok(after) => {
                self.writes.inc();
                self.write_bytes.add(u64::from(w.count));
                self.client_stat(client, |c| {
                    c.writes += 1;
                    c.write_bytes += u64::from(w.count);
                });
                // Stability granted: at least what was asked for.
                let granted = match (self.stability, w.stable) {
                    (StableHow::Unstable, StableHow::Unstable) => StableHow::Unstable,
                    (StableHow::Unstable, asked) => {
                        // A sync write against the cache-disk server: flush
                        // through to disk before replying.
                        if let Backend::CacheDisk {
                            ref dirty,
                            ref disk,
                            ..
                        } = self.backend
                        {
                            disk.write_stream(dirty.get() + u64::from(w.count)).await;
                            dirty.set(0);
                        }
                        asked
                    }
                    (granted, _) => granted,
                };
                encode_reply(
                    xid,
                    &Write3Res::ok(
                        WccData::full(before, after),
                        w.count,
                        granted,
                        self.verf.get(),
                    ),
                )
            }
            Err(status) => encode_reply(
                xid,
                &Write3Res {
                    status,
                    wcc: WccData::default(),
                    count: 0,
                    committed: StableHow::Unstable,
                    verf: WriteVerf::default(),
                },
            ),
        }
    }

    async fn handle_commit(
        &self,
        client: usize,
        xid: u32,
        c: Commit3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        if let Backend::Filer { checkpoint, .. } = &self.backend {
            checkpoint.pass().await;
        }
        let _svc = self.admit(client, OpClass::Commit, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        self.commits.inc();
        self.client_stat(client, |c| c.commits += 1);
        self.backend_step(DataOp::Commit, 0).await;
        let after = self.fs.getattr(&c.file).ok();
        encode_reply(
            xid,
            &Commit3Res {
                status: NfsStat3::Ok,
                wcc: WccData {
                    before: None,
                    after,
                },
                verf: self.verf.get(),
            },
        )
    }

    async fn handle_create(
        &self,
        client: usize,
        xid: u32,
        c: Create3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        let _svc = self.admit(client, OpClass::Meta, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        let (fh, attrs) = self.fs.create(&c.name);
        encode_reply(
            xid,
            &Create3Res {
                status: NfsStat3::Ok,
                file: Some(fh),
                attrs: Some(attrs),
            },
        )
    }

    async fn handle_lookup(
        &self,
        client: usize,
        xid: u32,
        l: Lookup3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        let _svc = self.admit(client, OpClass::Meta, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        let res = match self.fs.lookup(&l.name) {
            Ok((fh, attrs)) => Lookup3Res {
                status: NfsStat3::Ok,
                file: Some(fh),
                attrs: Some(attrs),
            },
            Err(status) => Lookup3Res {
                status,
                file: None,
                attrs: None,
            },
        };
        encode_reply(xid, &res)
    }

    async fn handle_getattr(
        &self,
        client: usize,
        xid: u32,
        g: Getattr3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        let _svc = self.admit(client, OpClass::Meta, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        let res = match self.fs.getattr(&g.file) {
            Ok(attrs) => Getattr3Res {
                status: NfsStat3::Ok,
                attrs: Some(attrs),
            },
            Err(status) => Getattr3Res {
                status,
                attrs: None,
            },
        };
        encode_reply(xid, &res)
    }

    async fn handle_setattr(
        &self,
        client: usize,
        xid: u32,
        a: Setattr3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        let _svc = self.admit(client, OpClass::Meta, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        let before = self.fs.size_of(&a.file).unwrap_or(0);
        let res = match a.attrs.size {
            Some(size) => match self.fs.truncate(&a.file, size) {
                Ok(after) => Setattr3Res {
                    status: NfsStat3::Ok,
                    wcc: WccData::full(before, after),
                },
                Err(status) => Setattr3Res {
                    status,
                    wcc: WccData::default(),
                },
            },
            None => match self.fs.getattr(&a.file) {
                Ok(after) => Setattr3Res {
                    status: NfsStat3::Ok,
                    wcc: WccData::full(before, after),
                },
                Err(status) => Setattr3Res {
                    status,
                    wcc: WccData::default(),
                },
            },
        };
        encode_reply(xid, &res)
    }

    async fn handle_read(
        &self,
        client: usize,
        xid: u32,
        r: Read3Args,
        arrival: SimTime,
    ) -> DatagramPayload {
        let _svc = self
            .admit(client, OpClass::Meta, u64::from(r.count), arrival)
            .await;
        match self.fs.getattr(&r.file) {
            Ok(attrs) => {
                let available = attrs.size.saturating_sub(r.offset);
                let count = u64::from(r.count).min(available) as u32;
                self.sim
                    .sleep(self.fixed_op_cost + self.data_time(u64::from(count)))
                    .await;
                let eof = r.offset + u64::from(count) >= attrs.size;
                encode_reply(xid, &Read3Res::ok(attrs, count, eof))
            }
            Err(status) => {
                self.sim.sleep(self.fixed_op_cost).await;
                encode_reply(
                    xid,
                    &Read3Res {
                        status,
                        attrs: None,
                        count: 0,
                        eof: false,
                        data_len: 0,
                    },
                )
            }
        }
    }

    /// Simulates a server reboot: the write verifier changes, so clients
    /// must re-send uncommitted writes, and any cached dirty data is lost.
    pub fn reboot(&self) {
        let v = self.verf.get();
        self.verf.set(WriteVerf(v.0.wrapping_add(0x1000_0000)));
        if let Backend::CacheDisk { ref dirty, .. } = self.backend {
            dirty.set(0);
        }
    }

    /// The current write verifier.
    pub fn current_verf(&self) -> WriteVerf {
        self.verf.get()
    }

    /// Snapshot of server statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            ops: self.ops.get(),
            writes: self.writes.get(),
            write_bytes: self.write_bytes.get(),
            commits: self.commits.get(),
            checkpoints: match &self.backend {
                Backend::Filer {
                    checkpoints_taken, ..
                } => checkpoints_taken.get(),
                _ => 0,
            },
            inline_flushes: match &self.backend {
                Backend::CacheDisk { inline_flushes, .. } => inline_flushes.get(),
                _ => 0,
            },
        }
    }

    /// Snapshot of per-client statistics, indexed by client id in
    /// attach order.
    pub fn per_client_stats(&self) -> Vec<PerClientStats> {
        let mut stats = self.per_client.borrow().clone();
        for (client, s) in stats.iter_mut().enumerate() {
            let (queue_delay, service) = self.engine.digests(client);
            s.queue_delay = queue_delay;
            s.service = service;
        }
        stats
    }

    /// The request scheduler's service engine (slots, queue, latency
    /// samples).
    pub fn service_engine(&self) -> &Rc<ServiceEngine> {
        &self.engine
    }

    /// NVRAM fill level, if this server has one.
    pub fn nvram_used(&self) -> Option<u64> {
        match &self.backend {
            Backend::Filer { nvram, .. } => Some(nvram.used()),
            _ => None,
        }
    }

    /// Server-cached dirty bytes, if this server write-caches.
    pub fn dirty_bytes(&self) -> Option<u64> {
        match &self.backend {
            Backend::CacheDisk { dirty, .. } => Some(dirty.get()),
            _ => None,
        }
    }
}
