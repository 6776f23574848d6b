//! The generic simulated NFSv3 server: request dispatch plus pluggable
//! write backends (filer NVRAM, knfsd page-cache-and-disk, plain memory).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nfsperf_net::{pool_put, DatagramPayload, Path};
use nfsperf_nfs3::{
    Commit3Args, Commit3Res, Create3Args, Create3Res, Getattr3Args, Getattr3Res, Lookup3Args,
    Lookup3Res, NfsProc3, NfsStat3, Read3Args, Read3Res, Setattr3Args, Setattr3Res, StableHow,
    WccData, Write3Args, Write3Res, WriteVerf, NFS_PROGRAM, NFS_V3,
};
use nfsperf_sim::{
    Counter, Gate, GatePass, Receiver, SemAcquire, SemPermit, Sim, SimDuration, SimTime,
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

/// Which RPC a flyweight op serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlyKind {
    Write,
    Commit,
}

/// Pipeline position of an in-flight flyweight op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlyStage {
    /// Waiting out a filer checkpoint (skipped on other backends).
    Gate,
    /// Queued for a service slot.
    Admit,
    /// Service time slept; run the backend (NVRAM / dirty cache).
    Backend,
    /// Disk arm held and transfer time slept; complete the flush.
    DiskXfer,
    /// Bump counters and release the slot.
    Finish,
    /// Terminal; further polls are no-ops.
    Done,
}

/// One flyweight WRITE or COMMIT advanced as a poll-style state machine
/// instead of a spawned task. The event-driven client tier embeds one
/// per RPC record and drives it with [`NfsServer::poll_flyweight`]; all
/// wait-state scratch lives inline (plain `Option`s), so constructing a
/// fresh op per RPC allocates nothing.
pub struct FlyweightOp {
    client: usize,
    kind: FlyKind,
    bytes: u64,
    arrival: SimTime,
    stage: FlyStage,
    gate: GatePass,
    admit: SvcAdmit,
    slot: Option<SvcSlot>,
    nvram: NvramAdmit,
    disk: SemAcquire,
    permit: Option<SemPermit>,
    /// Dirty-cache bytes this op flushes (cache-disk backend only).
    flush: u64,
    /// Whether the backend stage already ran its entry bookkeeping
    /// (flush sizing, `inline_flushes`, the commit's dirty claim) —
    /// parking on the disk arm must not repeat it.
    backend_entered: bool,
}

impl FlyweightOp {
    fn new(client: usize, kind: FlyKind, bytes: u64, arrival: SimTime) -> FlyweightOp {
        FlyweightOp {
            client,
            kind,
            bytes,
            arrival,
            stage: FlyStage::Gate,
            gate: GatePass::default(),
            admit: SvcAdmit::default(),
            slot: None,
            nvram: NvramAdmit::default(),
            disk: SemAcquire::default(),
            permit: None,
            flush: 0,
            backend_entered: false,
        }
    }

    /// Whether the op has finished (reply left the server).
    pub fn is_done(&self) -> bool {
        self.stage == FlyStage::Done
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
    /// for these ids enter through [`NfsServer::serve_flyweight_write`] /
    /// [`NfsServer::serve_flyweight_commit`] and contend for the same
    /// service slots, NVRAM, checkpoints, and dirty cache as everyone
    /// else. Attach all faithful clients first.
    pub fn register_slim_clients(&self, count: usize) -> usize {
        let base = self.per_client.borrow().len();
        self.engine.set_sample_cap(base);
        self.slim_clients.set(self.slim_clients.get() + count as u64);
        base
    }

    /// Serves one flyweight WRITE of `bytes` payload for client id
    /// `client`: same checkpoint gate, scheduler admission, CPU cost, and
    /// backend (NVRAM / dirty cache) as [`NfsServer::handle_write`], but
    /// without XDR decode, file-system state, or per-client digests.
    /// Returns when the reply would leave the server.
    pub async fn serve_flyweight_write(&self, client: usize, bytes: u64) {
        self.slim_ops.inc();
        let arrival = self.sim.now();
        if let Backend::Filer { checkpoint, .. } = &self.backend {
            checkpoint.pass().await;
        }
        let _svc = self.admit(client, OpClass::Write, bytes, arrival).await;
        self.sim
            .sleep(self.fixed_op_cost + self.data_time(bytes))
            .await;
        match self.backend {
            Backend::Filer { ref nvram, .. } => {
                nvram.admit(bytes).await;
            }
            Backend::CacheDisk {
                ref dirty,
                dirty_cap,
                ref disk,
                ref inline_flushes,
            } => {
                if dirty.get() + bytes > dirty_cap {
                    let flush = dirty.get() / 2 + bytes;
                    inline_flushes.inc();
                    disk.write_stream(flush).await;
                    dirty.set(dirty.get().saturating_sub(flush));
                }
                dirty.set(dirty.get() + bytes);
            }
            Backend::Memory => {}
        }
        self.ops.inc();
        self.writes.inc();
        self.write_bytes.add(bytes);
        self.slim_writes.inc();
        self.slim_write_bytes.add(bytes);
    }

    /// Serves one flyweight COMMIT for client id `client`: same gate,
    /// admission, and dirty-cache flush as [`NfsServer::handle_commit`].
    pub async fn serve_flyweight_commit(&self, client: usize) {
        self.slim_ops.inc();
        let arrival = self.sim.now();
        if let Backend::Filer { checkpoint, .. } = &self.backend {
            checkpoint.pass().await;
        }
        let _svc = self.admit(client, OpClass::Commit, 0, arrival).await;
        self.sim.sleep(self.fixed_op_cost).await;
        match self.backend {
            Backend::Filer { .. } | Backend::Memory => {}
            Backend::CacheDisk {
                ref dirty,
                ref disk,
                ..
            } => {
                let d = dirty.replace(0);
                if d > 0 {
                    disk.write_stream(d).await;
                } else {
                    disk.barrier().await;
                }
            }
        }
        self.ops.inc();
        self.commits.inc();
        self.slim_commits.inc();
    }

    /// Starts a flyweight WRITE as a poll-style op: the taskless twin of
    /// [`NfsServer::serve_flyweight_write`]. Runs the same entry
    /// bookkeeping the async method's first lines do (tier op count,
    /// arrival timestamp), then hands back a state machine the caller
    /// advances with [`NfsServer::poll_flyweight`].
    pub fn begin_flyweight_write(&self, client: usize, bytes: u64) -> FlyweightOp {
        self.slim_ops.inc();
        FlyweightOp::new(client, FlyKind::Write, bytes, self.sim.now())
    }

    /// Starts a flyweight COMMIT as a poll-style op: the taskless twin of
    /// [`NfsServer::serve_flyweight_commit`].
    pub fn begin_flyweight_commit(&self, client: usize) -> FlyweightOp {
        self.slim_ops.inc();
        FlyweightOp::new(client, FlyKind::Commit, 0, self.sim.now())
    }

    /// Advances a flyweight op until it parks, needs simulated time, or
    /// finishes. On [`FlyStep::Parked`] the op has parked a waker built
    /// by `waker_factory` in one of the server's wait queues — poll again
    /// when it fires. On [`FlyStep::Sleep`] the caller models that much
    /// service or disk-transfer time and polls again. Every queue
    /// transition replays the async methods exactly (same checkpoint
    /// gate, scheduler queue, NVRAM stalls, dirty-cache flushes, counter
    /// order), so task-served and event-served flyweights interleave
    /// bit-identically.
    pub fn poll_flyweight(
        &self,
        op: &mut FlyweightOp,
        waker_factory: &mut dyn FnMut() -> std::task::Waker,
    ) -> FlyStep {
        loop {
            match op.stage {
                FlyStage::Gate => {
                    // Checkpoint pause happens before service; once
                    // passed, the gate is never re-checked (a task past
                    // `pass().await` does not return to it either).
                    if let Backend::Filer { checkpoint, .. } = &self.backend {
                        if !checkpoint.poll_pass(&mut op.gate, waker_factory) {
                            return FlyStep::Parked;
                        }
                    }
                    op.stage = FlyStage::Admit;
                }
                FlyStage::Admit => {
                    let (class, bytes) = match op.kind {
                        FlyKind::Write => (OpClass::Write, op.bytes),
                        FlyKind::Commit => (OpClass::Commit, 0),
                    };
                    let meta = ReqMeta {
                        client: op.client,
                        class,
                        bytes,
                        arrival: op.arrival,
                    };
                    match self.engine.poll_admit(meta, &mut op.admit, waker_factory) {
                        None => return FlyStep::Parked,
                        Some(slot) => {
                            op.slot = Some(slot);
                            op.stage = FlyStage::Backend;
                            let service = match op.kind {
                                FlyKind::Write => self.fixed_op_cost + self.data_time(op.bytes),
                                FlyKind::Commit => self.fixed_op_cost,
                            };
                            return FlyStep::Sleep(service);
                        }
                    }
                }
                FlyStage::Backend => match (op.kind, &self.backend) {
                    (FlyKind::Write, Backend::Filer { nvram, .. }) => {
                        if !nvram.poll_admit(op.bytes, &mut op.nvram, waker_factory) {
                            return FlyStep::Parked;
                        }
                        op.stage = FlyStage::Finish;
                    }
                    (
                        FlyKind::Write,
                        Backend::CacheDisk {
                            dirty,
                            dirty_cap,
                            disk,
                            inline_flushes,
                        },
                    ) => {
                        // Flush sizing and the stat bump happen once, on
                        // entry, before any wait on the arm — exactly
                        // where the async method reads `dirty`.
                        if !op.backend_entered {
                            op.backend_entered = true;
                            if dirty.get() + op.bytes > *dirty_cap {
                                op.flush = dirty.get() / 2 + op.bytes;
                                inline_flushes.inc();
                            }
                        }
                        if op.flush > 0 {
                            match disk.poll_write_stream(op.flush, &mut op.disk, waker_factory) {
                                None => return FlyStep::Parked,
                                Some((permit, xfer)) => {
                                    op.permit = Some(permit);
                                    op.stage = FlyStage::DiskXfer;
                                    return FlyStep::Sleep(xfer);
                                }
                            }
                        }
                        dirty.set(dirty.get() + op.bytes);
                        op.stage = FlyStage::Finish;
                    }
                    (FlyKind::Write, Backend::Memory) => op.stage = FlyStage::Finish,
                    (FlyKind::Commit, Backend::Filer { .. } | Backend::Memory) => {
                        op.stage = FlyStage::Finish;
                    }
                    (FlyKind::Commit, Backend::CacheDisk { dirty, disk, .. }) => {
                        // Claim the dirty pool once, before touching the
                        // disk — the same single `dirty.replace(0)` the
                        // async method performs (see handle_commit for
                        // why claiming first matters).
                        if !op.backend_entered {
                            op.backend_entered = true;
                            op.flush = dirty.replace(0);
                        }
                        if op.flush > 0 {
                            match disk.poll_write_stream(op.flush, &mut op.disk, waker_factory) {
                                None => return FlyStep::Parked,
                                Some((permit, xfer)) => {
                                    op.permit = Some(permit);
                                    op.stage = FlyStage::DiskXfer;
                                    return FlyStep::Sleep(xfer);
                                }
                            }
                        }
                        if !disk.poll_barrier(&mut op.disk, waker_factory) {
                            return FlyStep::Parked;
                        }
                        op.stage = FlyStage::Finish;
                    }
                },
                FlyStage::DiskXfer => {
                    let Backend::CacheDisk { dirty, disk, .. } = &self.backend else {
                        unreachable!("disk transfer only exists on the cache-disk backend")
                    };
                    disk.finish_write(op.flush, op.permit.take().expect("arm permit held"));
                    if op.kind == FlyKind::Write {
                        dirty.set(dirty.get().saturating_sub(op.flush));
                        dirty.set(dirty.get() + op.bytes);
                    }
                    op.stage = FlyStage::Finish;
                }
                FlyStage::Finish => {
                    self.ops.inc();
                    match op.kind {
                        FlyKind::Write => {
                            self.writes.inc();
                            self.write_bytes.add(op.bytes);
                            self.slim_writes.inc();
                            self.slim_write_bytes.add(op.bytes);
                        }
                        FlyKind::Commit => {
                            self.commits.inc();
                            self.slim_commits.inc();
                        }
                    }
                    // Counters first, slot release last: the async
                    // methods bump stats and then drop `_svc` on return.
                    op.slot = None;
                    op.stage = FlyStage::Done;
                    return FlyStep::Done;
                }
                FlyStage::Done => return FlyStep::Done,
            }
        }
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
    async fn admit(&self, client: usize, class: OpClass, bytes: u64, arrival: SimTime) -> SvcSlot {
        self.engine
            .admit(ReqMeta {
                client,
                class,
                bytes,
                arrival,
            })
            .await
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
        self.sim
            .sleep(self.fixed_op_cost + self.data_time(u64::from(w.count)))
            .await;

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
        match self.backend {
            Backend::Filer { ref nvram, .. } => {
                nvram.admit(u64::from(w.count)).await;
            }
            Backend::CacheDisk {
                ref dirty,
                dirty_cap,
                ref disk,
                ref inline_flushes,
            } => {
                if dirty.get() + u64::from(w.count) > dirty_cap {
                    // bdflush pressure: flush half the cache inline.
                    let flush = dirty.get() / 2 + u64::from(w.count);
                    inline_flushes.inc();
                    disk.write_stream(flush).await;
                    dirty.set(dirty.get().saturating_sub(flush));
                }
                dirty.set(dirty.get() + u64::from(w.count));
            }
            Backend::Memory => {}
        }

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
        match self.backend {
            // Filer writes were FILE_SYNC; COMMIT is a cheap no-op.
            Backend::Filer { .. } | Backend::Memory => {}
            Backend::CacheDisk {
                ref dirty,
                ref disk,
                ..
            } => {
                // Claim the dirty pool before touching the disk:
                // concurrent COMMITs from a client fleet must each flush
                // only what the previous one left, not re-stream the
                // same bytes after queueing on the arm (which turns N
                // commits into O(N^2) disk work). A COMMIT that finds
                // the pool already claimed still waits out the in-flight
                // flush before replying — its caller's data may be on
                // the platter only once that flush completes.
                let d = dirty.replace(0);
                if d > 0 {
                    disk.write_stream(d).await;
                } else {
                    disk.barrier().await;
                }
            }
        }
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
