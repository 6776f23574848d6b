//! The flyweight tier: up to a million behavioral clients in a slab.
//!
//! Per client the tier keeps one `FlyClient` record (56 bytes: an RNG
//! cursor, an emission clock, three virtual NIC clocks, a finish
//! timestamp, two counters; the first-emission instant is derived from
//! the client's seed) and a 4-byte client id — no pages, no flushd, no
//! per-request locks, no NIC or mount objects. Each RPC is one slab
//! record advanced by timed events:
//! wait for the calibrated emission time, traverse the real aggregation
//! and core uplinks (queueing behind every other client, faithful ones
//! included), drain through the per-client server-port clock, run the
//! server's flyweight service path (real slots, NVRAM, checkpoints, dirty
//! cache), then unwind the reply the same way. Completion refills the
//! client's outstanding-RPC window, which emits the next requests — so
//! the tier's live record count tracks in-flight RPCs, not client count.
//!
//! The slab is laid out in the order the simulation visits it: by each
//! client's jittered start instant, not by client id (see
//! `start_order`). Launch applies every client's first emission while
//! it writes the slab, but takes no RPC record: a client's first record
//! is created when its start timer fires, so records also come into
//! being in start order. The launch shadows are one fresh range of task
//! slots, the one at slab position `p` being `base + p`. At a million
//! clients a time-ordered walk over 56 MiB of clients and 48 MiB of
//! records is then a nearly sequential one, where a walk in id order
//! stalled on memory at every step. Nothing simulated
//! depends on where a record lives: launch still posts in client-id
//! order, and flow ids, server ids and RNG streams are the client id's.
//!
//! In-flight RPCs are nonetheless a per-client cost: every client keeps
//! at least one RPC in flight until its last reply, so a megafleet holds
//! one RPC record per client for its whole run, and at the server's
//! knee nearly all of them queue inside the server at once. Each one
//! costs a 48-byte `FlyRpc`, whose one hop field holds the lane's
//! admission state in the fabric and the server's 24-byte
//! [`FlyweightOp`] inside the server; a 16-byte shadow task slot; one 8-byte
//! ready-queue word or 16-byte wheel entry (kept by value in a pooled
//! block) while it waits on the executor (its posts and stage timers
//! are direct dispatches, which arm no event slot, and its parks hand
//! out direct wakers, which are the dispatch word itself and keep no
//! executor entry); and, queued at the core uplink or inside the
//! server, a 24-byte entry in the thread's arbiter ticket slab plus its
//! 4-byte id in the queue.
//! [`FlyTier::bytes_per_client`] counts none of these; the
//! `resident_bytes` test measures the whole world's heap high-water mark
//! per client with a counting allocator.
//!
//! Per-client serialization that a real NIC would impose (receive drain
//! at the server port, transmit of the reply, receive at the client) is
//! modelled with virtual clocks: `free = max(now, free) + drain_time`,
//! exactly the arithmetic a dedicated `Nic` object's semaphore-plus-
//! sleep performs, without the object.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use nfsperf_net::{wire_bytes, Fabric, LaneAdmit, LinkDir, NicSpec};
use nfsperf_server::{FlyStep, FlyweightOp, NfsServer, OpClass};
use nfsperf_sim::{mbps, EventHandlerId, Gate, LatencyDigest, Sim, SimDuration, SimTime};

use crate::model::{splitmix64, BehaviorModel, FlyOp};

/// UDP payload bytes of a WRITE reply (status + WCC + verifier framing).
const WRITE_REPLY_BYTES: usize = 160;
/// UDP payload bytes of a COMMIT reply.
const COMMIT_REPLY_BYTES: usize = 128;

/// One flyweight client's entire state but its id. Kept `repr(C)` and
/// packed into a slab in start order, where its slab position stands in
/// for the id and [`FlyTier`]'s 4-byte id map gives the id back; a unit
/// test holds it to 56 bytes and, with the tier's shared state amortized
/// per client, [`FlyTier::bytes_per_client`] to 256. Its first-emission
/// instant is not stored: [`FlyTier::first_emit`] derives it from the id.
#[repr(C)]
#[derive(Clone)]
struct FlyClient {
    /// SplitMix64 cursor for gap sampling and start jitter.
    rng: u64,
    /// Next unconstrained emission time, ns.
    planned: u64,
    /// Server-port receive-drain virtual clock, ns.
    port_rx_free: u64,
    /// Server-port reply-transmit virtual clock, ns.
    port_tx_free: u64,
    /// Client-NIC receive-drain virtual clock, ns.
    cli_rx_free: u64,
    /// When the last reply finished draining, ns.
    finish: u64,
    /// RPCs emitted so far.
    emitted: u32,
    /// RPCs completed so far.
    completed: u32,
}

/// Which machinery advances each of the tier's RPCs. There is one: the
/// enum and [`FlyTierConfig::engine`] remain only because the benchmark
/// worlds name `TierEngine::Events`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierEngine {
    /// One slab record per RPC advanced by timed events straight off the
    /// executor's wheel — no future, no task, no per-RPC allocation.
    Events,
}

/// Parameters of one flyweight tier.
#[derive(Debug, Clone)]
pub struct FlyTierConfig {
    /// Number of flyweight clients.
    pub clients: u32,
    /// WRITEs each client emits (COMMITs are added per the model's
    /// ratio, plus the close-time flush).
    pub writes_per_client: u32,
    /// Each client's NIC spec (frames requests, drains replies).
    pub client_nic: NicSpec,
    /// The per-client server-port spec (normally the server NIC's rate).
    pub port_nic: NicSpec,
    /// Tier RNG seed; each client derives its own cursor.
    pub seed: u64,
    /// First emissions are jittered uniformly over this span — a million
    /// clients do not mount in the same nanosecond.
    pub start_spread: SimDuration,
    /// Record every `latency_stride`-th WRITE's client-observed RPC
    /// latency into the shared digest pool (1 = record all; raise it so
    /// a million clients share one bounded pool).
    pub latency_stride: u32,
    /// Upper bound on the model's outstanding-RPC window (`u32::MAX` to
    /// take the calibrated window as-is).
    pub window_cap: u32,
    /// Which machinery advances each RPC; kept only for the benchmark
    /// worlds, which set it (see [`TierEngine`]).
    pub engine: TierEngine,
}

impl FlyTierConfig {
    /// A tier of `clients` fast-Ethernet flyweights against a server
    /// port of `port_nic`, with stride and spread scaled to the tier
    /// size.
    pub fn new(clients: u32, writes_per_client: u32, port_nic: NicSpec) -> FlyTierConfig {
        FlyTierConfig {
            clients,
            writes_per_client,
            client_nic: NicSpec::fast_ethernet(),
            port_nic,
            seed: 0x1f5,
            // 2 µs of spread per client: 1k clients arrive inside 2 ms,
            // 1M inside 2 s — staggered, but fast enough to saturate.
            start_spread: SimDuration((clients as u64).max(1) * 2_000),
            latency_stride: (clients / 1024).max(1),
            window_cap: u32::MAX,
            engine: TierEngine::Events,
        }
    }
}

/// Everything measured from a finished tier.
#[derive(Debug, Clone)]
pub struct FlyTierRun {
    /// Each client's achieved throughput, MB/s, in client order.
    pub per_client_mbps: Vec<f64>,
    /// Client-observed WRITE RPC latency digest (strided shared pool).
    pub rpc_latency: LatencyDigest,
    /// Time from the first emission to the last completion.
    pub elapsed: SimDuration,
    /// [`FlyTier::bytes_per_client`]: the client slab plus amortized
    /// shared state, not the in-flight RPC state.
    pub bytes_per_client: usize,
}

/// Resume point of one event-driven RPC: each variant names what the
/// record does when its next event dispatches.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RpcStage {
    /// Waiting for the emission instant (`sleep_until(at)`).
    Start,
    /// Emission time reached: size the datagram, start admission.
    Launch,
    /// Queued for the aggregation uplink (request direction).
    AggAdmit,
    /// Aggregation wire time slept; release and move to the core.
    AggXfer,
    /// Queued for the core uplink (request direction).
    CoreAdmit,
    /// Core wire time slept; release and propagate.
    CoreXfer,
    /// Fabric latency slept; drain into the server port.
    PortDrain,
    /// Port drain slept; hand off to the service half.
    HandOff,
    /// Driving the server's flyweight op to completion.
    Service,
    /// Reply transmit clock slept; start the core reply admission.
    CoreRStart,
    /// Queued for the core uplink (reply direction).
    CoreRAdmit,
    /// Core reply wire time slept.
    CoreRXfer,
    /// Queued for the aggregation uplink (reply direction).
    AggRAdmit,
    /// Aggregation reply wire time slept.
    AggRXfer,
    /// Fabric latency slept; drain into the client NIC.
    CliDrain,
    /// Client drain slept; retire the RPC.
    Complete,
}

/// "No record" marker for the slab free list.
const NONE: u32 = u32::MAX;

/// One in-flight event-driven RPC: one 48-byte record holding its
/// client, its stage, and the wait state of the hop it is on, in the
/// fabric or in the server (its queued arbiter ticket lives in the
/// thread's ticket slab, its timer on the executor's wheel). Records
/// live in a free-listed slab sized by peak concurrent RPCs, and every
/// client has at least one RPC in flight until its last reply, so at a
/// million clients a million records stay live for the whole run. They
/// are part of what each client costs, though
/// [`FlyTier::bytes_per_client`] does not count them. A client's first
/// record is taken at its start instant ([`FlyTier::start`]), so the
/// slab fills in start order, the order later events visit it.
struct FlyRpc {
    /// Owning client's slab position; the free-list link (`NONE` = end)
    /// while the record is vacant.
    idx: u32,
    /// The RPC's emission sequence number for that client.
    seq: u32,
    /// Set at [`RpcStage::Launch`]; with the stage it names the current
    /// datagram (see [`FlyTier::request`] and [`FlyTier::reply`]).
    op: FlyOp,
    stage: RpcStage,
    /// When the request left the client (latency numerator start).
    emitted_at: SimTime,
    /// Wait state of the hop the RPC is on.
    hop: Hop,
    /// Shadow task-table slot held for the current half of this RPC
    /// (request, then service); see [`Sim::spawn_shadow`]. Shadows only
    /// steer where stale wakes land, so they change nothing simulated
    /// but the event count. They keep that count equal to the committed
    /// megafleet CSVs and the benchmark's `simbench/digests.json`, and
    /// go when those are rebaselined.
    shadow: u32,
}

/// Where an RPC waits: in the fabric or in the server, never both, so
/// the lane's admission scratch and the server's op share one field.
/// The variant tag sits in a spare value of the op's own stage tag, so
/// the field is the op's 24 bytes.
enum Hop {
    /// Admission scratch for the link currently being traversed.
    Lane(LaneAdmit),
    /// The server-side op, from [`RpcStage::Service`] entry until the
    /// reply starts back.
    Server(FlyweightOp),
}

impl Hop {
    fn lane(&mut self) -> &mut LaneAdmit {
        match self {
            Hop::Lane(lane) => lane,
            Hop::Server(_) => unreachable!("an RPC in the server holds no lane"),
        }
    }
}

/// UDP payload and wire bytes of one datagram.
#[derive(Clone, Copy)]
struct Datagram {
    payload: usize,
    wire: usize,
}

/// The RPC slab plus its free-list head.
struct RpcSlab {
    slots: Vec<FlyRpc>,
    free_head: u32,
}

/// A running flyweight tier. Create with [`FlyTier::launch`], then
/// `await` [`FlyTier::wait_done`] inside the simulation.
pub struct FlyTier {
    sim: Sim,
    server: Rc<NfsServer>,
    fabric: Rc<Fabric>,
    config: FlyTierConfig,
    model: BehaviorModel,
    window: u32,
    total_ops: u32,
    /// Request and reply datagrams of a WRITE (index 0) and a COMMIT.
    requests: [Datagram; 2],
    replies: [Datagram; 2],
    fabric_base: u32,
    server_base: usize,
    /// The client slab, in start order (see [`start_order`]): events
    /// visit clients roughly in this order, so neighbours in time are
    /// neighbours in memory.
    slab: RefCell<Vec<FlyClient>>,
    /// Client id at each slab position: the flow id is
    /// `fabric_base + id`, the server's client id `server_base + id`.
    ids: Vec<u32>,
    /// The clock at launch, ns: no client starts before it (see
    /// [`FlyTier::first_emit`]).
    launched_at: u64,
    /// Task-table slot of position 0's launch shadow; position `p`'s is
    /// `shadow_base + p` (see [`Sim::spawn_shadows`]).
    shadow_base: u32,
    rpcs: RefCell<RpcSlab>,
    /// Dispatches `step(record)`.
    handler: Cell<EventHandlerId>,
    /// Dispatches `start(position)`, a client's first RPC.
    start_handler: Cell<EventHandlerId>,
    latencies: RefCell<Vec<SimDuration>>,
    lat_counter: Cell<u64>,
    clients_done: Cell<u32>,
    finished: Gate,
}

impl FlyTier {
    /// Registers `config.clients` flyweights with the fabric and the
    /// server (faithful clients must be attached first) and emits each
    /// client's first request at its jittered start time.
    ///
    /// Clients are laid out in start order, and each one's first
    /// emission is applied while its record is written; the RPC record
    /// itself is only taken at the client's start instant. Launch posts
    /// stay in client-id order, each client's launch emissions together,
    /// so the ready queue, the wheel's sequence numbers and every tie
    /// between equal instants are those of emitting client by client.
    ///
    /// # Panics
    ///
    /// Panics if the simulator's task table has a free slot (see
    /// [`Sim::spawn_shadows`]): tiers launch before the clock runs.
    pub fn launch(
        sim: &Sim,
        server: &Rc<NfsServer>,
        fabric: &Rc<Fabric>,
        model: BehaviorModel,
        config: FlyTierConfig,
    ) -> Rc<FlyTier> {
        assert!(config.clients > 0, "a tier needs at least one client");
        let fabric_base = fabric.alloc_ids(config.clients);
        let server_base = server.register_slim_clients(config.clients as usize);
        let window = model.window.min(config.window_cap).max(1);
        let total_ops = model.total_ops(config.writes_per_client);
        assert!(total_ops > 0, "clients must emit at least one RPC");
        let spread = config.start_spread.0.max(1);
        let position = start_order(config.clients, spread, |id| {
            splitmix64(&mut seed_of(config.seed, id)) % spread
        });
        let mut ids = vec![0; config.clients as usize];
        for (id, &p) in position.iter().enumerate() {
            ids[p as usize] = id as u32;
        }
        let launched_at = sim.now().as_nanos();
        let slab: Vec<FlyClient> = ids
            .iter()
            .map(|&id| {
                let mut rng = seed_of(config.seed, id);
                let at = (splitmix64(&mut rng) % spread).max(launched_at);
                FlyClient {
                    planned: at + model.sample_gap(&mut rng).0,
                    rng,
                    port_rx_free: 0,
                    port_tx_free: 0,
                    cli_rx_free: 0,
                    finish: 0,
                    emitted: 1,
                    completed: 0,
                }
            })
            .collect();
        let shadows = sim.spawn_shadows(config.clients as usize);
        let finished = Gate::new();
        finished.close();
        let datagram = |payload: usize, nic: NicSpec| Datagram {
            payload,
            wire: wire_bytes(payload, nic.mtu),
        };
        let requests = [
            datagram(model.write_wire_bytes, config.client_nic),
            datagram(model.commit_wire_bytes, config.client_nic),
        ];
        let replies = [
            datagram(WRITE_REPLY_BYTES, config.port_nic),
            datagram(COMMIT_REPLY_BYTES, config.port_nic),
        ];
        let tier = Rc::new(FlyTier {
            sim: sim.clone(),
            server: Rc::clone(server),
            fabric: Rc::clone(fabric),
            config,
            model,
            window,
            total_ops,
            requests,
            replies,
            fabric_base,
            server_base,
            slab: RefCell::new(slab),
            ids,
            launched_at,
            shadow_base: shadow_id(shadows.start),
            rpcs: RefCell::new(RpcSlab {
                slots: Vec::new(),
                free_head: NONE,
            }),
            handler: Cell::new(sim.register_event_handler(Rc::new(|_| {}))),
            start_handler: Cell::new(sim.register_event_handler(Rc::new(|_| {}))),
            latencies: RefCell::new(Vec::new()),
            lat_counter: Cell::new(0),
            clients_done: Cell::new(0),
            finished,
        });
        let t = Rc::clone(&tier);
        tier.handler
            .set(sim.register_event_handler(Rc::new(move |data| t.step(data as u32))));
        let t = Rc::clone(&tier);
        tier.start_handler
            .set(sim.register_event_handler(Rc::new(move |data| t.start(data as u32))));
        // No client has completed an RPC yet, so whether one emits again
        // at launch is the same for all of them: testing it once spares
        // `try_emit` a random slab read per client when none does.
        let emits_again = tier.window > 1
            && tier.total_ops > 1
            && tier.model.op_at(1, tier.config.writes_per_client) == FlyOp::Write;
        for p in position {
            sim.post_direct(tier.start_handler.get(), p);
            if emits_again {
                tier.try_emit(p);
            }
        }
        tier
    }

    /// Resolves once every client has completed all of its RPCs.
    pub async fn wait_done(&self) {
        self.finished.pass().await;
    }

    /// Emits requests for the client at slab position `idx` while its
    /// window has room (its first emission is applied at launch): each
    /// emission claims the next planned departure time (never earlier
    /// than now) and advances the plan by a sampled gap. A COMMIT is a
    /// barrier — it waits for the client's in-flight WRITEs to drain,
    /// as the close-time flush does.
    fn try_emit(self: &Rc<Self>, idx: u32) {
        loop {
            let (seq, at) = {
                let mut slab = self.slab.borrow_mut();
                let c = &mut slab[idx as usize];
                if c.emitted >= self.total_ops {
                    return;
                }
                let inflight = c.emitted - c.completed;
                if inflight >= self.window {
                    return;
                }
                if self.model.op_at(c.emitted, self.config.writes_per_client) == FlyOp::Commit
                    && inflight > 0
                {
                    return;
                }
                let at = c.planned.max(self.sim.now().as_nanos());
                c.planned = at + self.model.sample_gap(&mut c.rng).0;
                let seq = c.emitted;
                c.emitted += 1;
                (seq, at)
            };
            // The request half claims a shadow slot (see
            // `FlyRpc::shadow`) and starts from the ready queue. The post
            // is never cancelled, so it needs no event slot.
            let shadow = shadow_id(self.sim.spawn_shadow());
            let r = self.alloc_rpc(idx, seq, SimTime(at), RpcStage::Start, shadow);
            self.sim.post_direct(self.handler.get(), r);
        }
    }

    /// A client's first RPC, at slab position `p`: waits for the start
    /// instant applied at launch, as [`RpcStage::Start`] does for later
    /// emissions (the same post, timer and dispatch), then takes a record
    /// and launches it. So records come into being in start order, and
    /// launch writes none.
    fn start(self: &Rc<Self>, p: u32) {
        let at = SimTime(self.first_emit(p));
        if at > self.sim.now() {
            self.sim.schedule_direct(at, self.start_handler.get(), p);
            return;
        }
        let r = self.alloc_rpc(p, 0, at, RpcStage::Launch, self.shadow_base + p);
        self.step(r);
    }

    /// Claims (or grows) an RPC record for one emission of the client at
    /// slab position `idx`, holding request shadow `shadow`.
    fn alloc_rpc(&self, idx: u32, seq: u32, at: SimTime, stage: RpcStage, shadow: u32) -> u32 {
        let mut rpcs = self.rpcs.borrow_mut();
        let fresh = FlyRpc {
            idx,
            seq,
            op: FlyOp::Write,
            stage,
            emitted_at: at,
            hop: Hop::Lane(LaneAdmit::start(at)),
            shadow,
        };
        match rpcs.free_head {
            NONE => {
                rpcs.slots.push(fresh);
                (rpcs.slots.len() - 1) as u32
            }
            head => {
                rpcs.free_head = rpcs.slots[head as usize].idx;
                rpcs.slots[head as usize] = fresh;
                head
            }
        }
    }

    /// Schedules RPC `r`'s next dispatch at `deadline` and returns
    /// `true`; returns `false` when the deadline is not in the future,
    /// in which case the caller continues inline — as a task's `Sleep`
    /// completes without touching the wheel when its deadline has
    /// passed.
    fn sleep_then(&self, deadline: SimTime, r: u32) -> bool {
        if deadline > self.sim.now() {
            // Stage hops are never cancelled, so the timer can carry the
            // dispatch itself — no slab slot, no ready-queue round trip.
            self.sim.schedule_direct(deadline, self.handler.get(), r);
            true
        } else {
            false
        }
    }

    /// Advances one event-driven RPC until it parks in a wait queue,
    /// schedules its next dispatch, or retires. Every wait parks in the
    /// fabric and server queues that faithful clients use, so both tiers
    /// interleave in one order.
    fn step(self: &Rc<Self>, r: u32) {
        let h = self.handler.get();
        let mut rpcs = self.rpcs.borrow_mut();
        let rpc = &mut rpcs.slots[r as usize];
        // Every park hands out a direct waker for `step(r)`, built on the
        // spot from the record index: no slab arm, no generation, no
        // stored state — safe because each park is woken at most once
        // and the record cannot advance past the parked stage until that
        // wake dispatches.
        let sim = &self.sim;
        let mut wf = move || sim.direct_waker(h, r);
        let id = self.ids[rpc.idx as usize];
        let flow = self.fabric_base + id;
        loop {
            match rpc.stage {
                RpcStage::Start => {
                    rpc.stage = RpcStage::Launch;
                    if rpc.emitted_at > self.sim.now() {
                        self.sim.schedule_direct(rpc.emitted_at, h, r);
                        return;
                    }
                }
                RpcStage::Launch => {
                    rpc.op = self.model.op_at(rpc.seq, self.config.writes_per_client);
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::AggAdmit;
                }
                RpcStage::AggAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let w = self.request(rpc.op).wire;
                    let Some(xfer) =
                        agg.poll_admit(rpc.hop.lane(), LinkDir::ToServer, flow, w, &mut wf)
                    else {
                        return;
                    };
                    rpc.stage = RpcStage::AggXfer;
                    let done = self.sim.now() + xfer;
                    if self.sleep_then(done, r) {
                        return;
                    }
                }
                RpcStage::AggXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToServer, self.request(rpc.op).payload);
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::CoreAdmit;
                }
                RpcStage::CoreAdmit => {
                    let core = self.fabric.core();
                    let w = self.request(rpc.op).wire;
                    let Some(xfer) =
                        core.poll_admit(rpc.hop.lane(), LinkDir::ToServer, flow, w, &mut wf)
                    else {
                        return;
                    };
                    rpc.stage = RpcStage::CoreXfer;
                    let done = self.sim.now() + xfer;
                    if self.sleep_then(done, r) {
                        return;
                    }
                }
                RpcStage::CoreXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToServer, self.request(rpc.op).payload);
                    rpc.stage = RpcStage::PortDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, r) {
                        return;
                    }
                }
                RpcStage::PortDrain => {
                    let w = self.request(rpc.op).wire;
                    let drained =
                        self.advance_clock(rpc.idx, ClockId::PortRx, self.config.port_nic, w);
                    rpc.stage = RpcStage::HandOff;
                    if self.sleep_then(drained, r) {
                        return;
                    }
                }
                RpcStage::HandOff => {
                    // The service half restarts from the ready queue and
                    // swaps shadows: service slot claimed first, request
                    // slot released after.
                    rpc.stage = RpcStage::Service;
                    let service_shadow = shadow_id(self.sim.spawn_shadow());
                    self.sim.post_direct(h, r);
                    self.sim.drop_shadow(rpc.shadow as usize);
                    rpc.shadow = service_shadow;
                    return;
                }
                RpcStage::Service => {
                    if let Hop::Lane(_) = rpc.hop {
                        rpc.hop = Hop::Server(self.server.begin_flyweight());
                    }
                    let Hop::Server(srv) = &mut rpc.hop else {
                        unreachable!("set above")
                    };
                    let (client, class, bytes) = self.service_meta(id, rpc.op);
                    loop {
                        match self
                            .server
                            .poll_flyweight(srv, client, class, bytes, &mut wf)
                        {
                            FlyStep::Parked => return,
                            FlyStep::Sleep(d) => {
                                if d > SimDuration::ZERO {
                                    self.sim.schedule_direct(self.sim.now() + d, h, r);
                                    return;
                                }
                            }
                            FlyStep::Done => break,
                        }
                    }
                    let w = self.reply(rpc.op).wire;
                    let sent =
                        self.advance_clock(rpc.idx, ClockId::PortTx, self.config.port_nic, w);
                    rpc.stage = RpcStage::CoreRStart;
                    if self.sleep_then(sent, r) {
                        return;
                    }
                }
                RpcStage::CoreRStart => {
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::CoreRAdmit;
                }
                RpcStage::CoreRAdmit => {
                    let core = self.fabric.core();
                    let w = self.reply(rpc.op).wire;
                    let Some(xfer) =
                        core.poll_admit(rpc.hop.lane(), LinkDir::ToClients, flow, w, &mut wf)
                    else {
                        return;
                    };
                    rpc.stage = RpcStage::CoreRXfer;
                    let done = self.sim.now() + xfer;
                    if self.sleep_then(done, r) {
                        return;
                    }
                }
                RpcStage::CoreRXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToClients, self.reply(rpc.op).payload);
                    rpc.hop = Hop::Lane(LaneAdmit::start(self.sim.now()));
                    rpc.stage = RpcStage::AggRAdmit;
                }
                RpcStage::AggRAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let w = self.reply(rpc.op).wire;
                    let Some(xfer) =
                        agg.poll_admit(rpc.hop.lane(), LinkDir::ToClients, flow, w, &mut wf)
                    else {
                        return;
                    };
                    rpc.stage = RpcStage::AggRXfer;
                    let done = self.sim.now() + xfer;
                    if self.sleep_then(done, r) {
                        return;
                    }
                }
                RpcStage::AggRXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToClients, self.reply(rpc.op).payload);
                    rpc.stage = RpcStage::CliDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, r) {
                        return;
                    }
                }
                RpcStage::CliDrain => {
                    let w = self.reply(rpc.op).wire;
                    let drained =
                        self.advance_clock(rpc.idx, ClockId::CliRx, self.config.client_nic, w);
                    rpc.stage = RpcStage::Complete;
                    if self.sleep_then(drained, r) {
                        return;
                    }
                }
                RpcStage::Complete => break,
            }
        }
        // Free the record before completing: `try_emit` inside
        // `complete` may immediately reuse it for this client's next
        // emission, and `complete` must see the slab borrow released.
        let (idx, emitted_at, op, shadow) = (rpc.idx, rpc.emitted_at, rpc.op, rpc.shadow);
        rpcs.slots[r as usize].idx = rpcs.free_head;
        rpcs.free_head = r;
        drop(rpcs);
        self.complete(idx, emitted_at, op);
        // The service shadow is released only after `complete` (and any
        // emissions it made) ran.
        self.sim.drop_shadow(shadow as usize);
    }

    /// The server's client id, class and payload of client `id`'s `op`
    /// RPC: what every poll of its server-side op passes.
    fn service_meta(&self, id: u32, op: FlyOp) -> (usize, OpClass, u64) {
        let client = self.server_base + id as usize;
        match op {
            FlyOp::Write => (client, OpClass::Write, self.model.write_payload),
            FlyOp::Commit => (client, OpClass::Commit, 0),
        }
    }

    /// The request datagram of an `op` RPC.
    fn request(&self, op: FlyOp) -> Datagram {
        self.requests[(op == FlyOp::Commit) as usize]
    }

    /// The reply datagram of an `op` RPC.
    fn reply(&self, op: FlyOp) -> Datagram {
        self.replies[(op == FlyOp::Commit) as usize]
    }

    /// Advances one of a client's virtual NIC clocks by `spec`'s
    /// transfer time for `wire` bytes and returns the new free instant —
    /// `max(now, free) + drain`, the arithmetic of a serializing NIC.
    fn advance_clock(&self, idx: u32, clock: ClockId, spec: NicSpec, wire: usize) -> SimTime {
        let mut slab = self.slab.borrow_mut();
        let c = &mut slab[idx as usize];
        let cell = match clock {
            ClockId::PortRx => &mut c.port_rx_free,
            ClockId::PortTx => &mut c.port_tx_free,
            ClockId::CliRx => &mut c.cli_rx_free,
        };
        let free = (*cell).max(self.sim.now().as_nanos()) + spec.transfer_time(wire).0;
        *cell = free;
        SimTime(free)
    }

    fn complete(self: &Rc<Self>, idx: u32, emitted_at: SimTime, op: FlyOp) {
        let now = self.sim.now();
        let finished_client = {
            let mut slab = self.slab.borrow_mut();
            let c = &mut slab[idx as usize];
            c.completed += 1;
            c.finish = now.as_nanos();
            c.completed == self.total_ops
        };
        if op == FlyOp::Write {
            let n = self.lat_counter.get();
            self.lat_counter.set(n + 1);
            if n.is_multiple_of(u64::from(self.config.latency_stride)) {
                self.latencies.borrow_mut().push(now.since(emitted_at));
            }
        }
        if finished_client {
            self.clients_done.set(self.clients_done.get() + 1);
            if self.clients_done.get() == self.config.clients {
                self.finished.open();
                // No RPC can arm another event now: break the
                // handler → tier reference cycles so the tier frees when
                // its caller drops it.
                self.sim.clear_event_handler(self.handler.get());
                self.sim.clear_event_handler(self.start_handler.get());
            }
        } else {
            self.try_emit(idx);
        }
    }

    /// Each client's achieved throughput (payload bytes over its own
    /// first-emission-to-last-reply span), MB/s, in client-id order: the
    /// megafleet mean and Jain index are float sums over it, so the order
    /// is part of their result.
    pub fn per_client_mbps(&self) -> Vec<f64> {
        let bytes = u64::from(self.config.writes_per_client) * self.model.write_payload;
        let mut out = vec![0.0; self.ids.len()];
        for (p, (c, &id)) in self.slab.borrow().iter().zip(&self.ids).enumerate() {
            let first = SimTime(self.first_emit(p as u32));
            out[id as usize] = mbps(bytes, SimTime(c.finish).since(first));
        }
        out
    }

    /// Time from the tier's first emission to its last completion.
    pub fn elapsed(&self) -> SimDuration {
        let first = (0..self.config.clients)
            .map(|p| self.first_emit(p))
            .min()
            .unwrap_or(0);
        let last = self
            .slab
            .borrow()
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(0);
        SimDuration(last.saturating_sub(first))
    }

    /// When the client at slab position `p` emits its first RPC, ns: its
    /// start jitter, drawn from its seed, but never before launch. Derived
    /// rather than stored, which keeps [`FlyClient`] at 56 bytes.
    fn first_emit(&self, p: u32) -> u64 {
        let spread = self.config.start_spread.0.max(1);
        let id = self.ids[p as usize];
        (splitmix64(&mut seed_of(self.config.seed, id)) % spread).max(self.launched_at)
    }

    /// Digest of the strided client-observed WRITE RPC latencies.
    /// Sorts the shared pool in place (`of_mut`) instead of snapshotting
    /// it: percentiles are order-independent, and the megafleet render
    /// path calls this per cell — no reason to clone a pool that can be
    /// megabytes at a million clients.
    pub fn rpc_latency(&self) -> LatencyDigest {
        LatencyDigest::of_mut(&mut self.latencies.borrow_mut())
    }

    /// Resident bytes per client of the tier's per-client state: the
    /// `FlyClient` record plus this client's amortized share of the
    /// shared latency pool, the model, and the fabric's per-stage state.
    /// Asserted ≤ 256 in tests and reported in the megafleet CSV's
    /// `bytes_per_client` column. It leaves out the 4-byte id of each
    /// slab position, which the committed column predates, and what each
    /// in-flight RPC holds (see the module docs), which at a million
    /// clients is most of the process: the `resident_bytes` test
    /// measures the whole world at about 250 heap bytes per client.
    pub fn bytes_per_client(&self) -> usize {
        let n = self.config.clients as usize;
        let shared = self.latencies.borrow().capacity() * std::mem::size_of::<SimDuration>()
            + std::mem::size_of::<BehaviorModel>()
            + self.fabric.resident_bytes();
        std::mem::size_of::<FlyClient>() + shared.div_ceil(n)
    }

    /// The tier's measurements, bundled.
    pub fn run_summary(&self) -> FlyTierRun {
        FlyTierRun {
            per_client_mbps: self.per_client_mbps(),
            rpc_latency: self.rpc_latency(),
            elapsed: self.elapsed(),
            bytes_per_client: self.bytes_per_client(),
        }
    }
}

/// The tier's handlers hold it until its last client finishes. A world
/// that ends before then drops the handlers with RPCs still in the
/// server: their ops are given up, so the server's slots and disk arm
/// are released as a faithful request's would be.
impl Drop for FlyTier {
    fn drop(&mut self) {
        let rpcs = std::mem::take(&mut self.rpcs.get_mut().slots);
        let ops = rpcs.into_iter().filter_map(|rpc| match rpc.hop {
            Hop::Server(op) => {
                let (client, class, bytes) = self.service_meta(self.ids[rpc.idx as usize], rpc.op);
                Some((op, client, class, bytes))
            }
            Hop::Lane(_) => None,
        });
        self.server.abandon_flyweights(ops);
    }
}

/// Client `id`'s RNG cursor in a tier seeded with `seed`, before its
/// start jitter is drawn.
fn seed_of(seed: u64, id: u32) -> u64 {
    seed.wrapping_add((u64::from(id) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A shadow's task-table slot as stored in [`FlyRpc::shadow`].
fn shadow_id(slot: usize) -> u32 {
    u32::try_from(slot).expect("task table past 2^32 slots")
}

/// The slab position of each of `n` client ids, laid out by start
/// instant: `start_of(id)` (below `spread`) picks one of `n` equal-width
/// buckets of the spread, and a counting sort places the buckets in
/// order, ids ascending within each. O(n), and close enough to the
/// exact order for locality; an exact sort of a million keys costs
/// tens of milliseconds of launch.
fn start_order(n: u32, spread: u64, start_of: impl Fn(u32) -> u64) -> Vec<u32> {
    let width = spread.div_ceil(u64::from(n));
    // First each id's bucket, with `next[b + 1]` counting bucket `b`...
    let mut position: Vec<u32> = Vec::with_capacity(n as usize);
    let mut next = vec![0u32; n as usize + 1];
    for id in 0..n {
        let bucket = (start_of(id) / width) as u32;
        position.push(bucket);
        next[bucket as usize + 1] += 1;
    }
    // ...then `next[b]` is bucket `b`'s first free position.
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    for slot in &mut position {
        let bucket = *slot as usize;
        *slot = next[bucket];
        next[bucket] += 1;
    }
    position
}

#[derive(Clone, Copy)]
enum ClockId {
    PortRx,
    PortTx,
    CliRx,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GAP_QUANTILES;
    use nfsperf_net::FabricConfig;
    use nfsperf_server::ServerConfig;
    use nfsperf_sim::arbiter::live_waiters;
    use nfsperf_sim::proptest::{check, CaseOutcome};
    use nfsperf_sim::{prop_assert, prop_assert_eq};

    fn toy_model() -> BehaviorModel {
        BehaviorModel {
            gap_quantiles: std::array::from_fn(|i| SimDuration((i as u64 + 1) * 50_000)),
            write_wire_bytes: 8328,
            commit_wire_bytes: 136,
            write_payload: 8192,
            writes_per_commit: 16,
            window: 4,
        }
    }

    fn run_tier(clients: u32, writes: u32) -> (Sim, Rc<FlyTier>, Rc<NfsServer>) {
        run_tier_with(FlyTierConfig::new(clients, writes, NicSpec::gigabit()))
    }

    /// Checks that a finished tier's world holds no waiter entry beyond
    /// its daemons' (`base` is the count before the world was built).
    /// The filer's one daemon that parks on a wait queue is the NVRAM
    /// drain loop, and only once the log is empty; any other entry is a
    /// client's waiter left behind (an orphan its queue never reached,
    /// or a claim never driven), caught here before the world's end
    /// frees it.
    fn assert_only_daemons_wait(server: &NfsServer, base: usize) {
        let daemons = usize::from(server.nvram_used() == Some(0));
        assert_eq!(
            live_waiters(),
            base + daemons,
            "a finished tier left client waiters live"
        );
    }

    /// Ends a finished tier's world by dropping its owner `sim` and
    /// checks that the waiter slab is back to `base`: no lane, engine or
    /// wait queue kept an entry past its world.
    fn assert_slab_drained(sim: Sim, tier: Rc<FlyTier>, server: Rc<NfsServer>, base: usize) {
        drop((tier, server, sim));
        assert_eq!(live_waiters(), base, "an ended tier left waiters live");
    }

    /// Runs a tier to completion and returns its world's owner with it,
    /// so the caller's checks run before the world ends.
    fn run_tier_with(config: FlyTierConfig) -> (Sim, Rc<FlyTier>, Rc<NfsServer>) {
        let sim = Sim::new();
        let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(config.port_nic)));
        let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
        let tier = FlyTier::launch(&sim, &server, &fabric, toy_model(), config);
        let t2 = Rc::clone(&tier);
        sim.run_until(async move { t2.wait_done().await });
        (sim, tier, server)
    }

    #[test]
    fn tier_completes_and_accounts_every_write() {
        let tickets = live_waiters();
        let (sim, tier, server) = run_tier(64, 8);
        assert_only_daemons_wait(&server, tickets);
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 64);
        assert_eq!(slim.writes, 64 * 8);
        assert_eq!(slim.write_bytes, 64 * 8 * 8192);
        assert_eq!(
            slim.commits, 64,
            "8 writes under wpc=16: one close COMMIT each"
        );
        let per = tier.per_client_mbps();
        assert_eq!(per.len(), 64);
        assert!(per.iter().all(|m| *m > 0.0));
        assert!(tier.rpc_latency().p99 > SimDuration::ZERO);
        // No faithful clients attached: the server kept zero per-client
        // stats entries for the whole tier.
        assert!(server.per_client_stats().is_empty());
        assert_slab_drained(sim, tier, server, tickets);
    }

    /// With a 1 ns start spread every client starts at instant 0, so
    /// each first RPC takes its record inline at its launch post instead
    /// of after a start timer: a path no committed world reaches.
    #[test]
    fn tier_starting_every_client_at_its_post_accounts_every_write() {
        for clients in [1, 64] {
            let tickets = live_waiters();
            let (sim, tier, server) = run_tier_with(FlyTierConfig {
                start_spread: SimDuration(1),
                ..FlyTierConfig::new(clients, 8, NicSpec::gigabit())
            });
            assert_only_daemons_wait(&server, tickets);
            let slim = server.slim_stats();
            assert_eq!(slim.clients, u64::from(clients));
            assert_eq!(slim.writes, u64::from(clients) * 8);
            assert_eq!(slim.write_bytes, u64::from(clients) * 8 * 8192);
            assert_eq!(slim.commits, u64::from(clients));
            let per = tier.per_client_mbps();
            assert_eq!(per.len(), clients as usize);
            assert!(per.iter().all(|m| *m > 0.0));
            assert_slab_drained(sim, tier, server, tickets);
        }
    }

    /// The slab is in start order, but the start derived for each slab
    /// position is its own client's, drawn from that client's seed, and
    /// per-client results come back in client-id order (the megafleet
    /// mean and Jain index sum them in that order).
    #[test]
    fn per_client_results_follow_client_ids_not_the_slab_layout() {
        let (_sim, tier, _server) = run_tier(64, 2);
        assert!(
            tier.ids.iter().enumerate().any(|(p, &id)| p as u32 != id),
            "64 jittered starts left the slab in id order"
        );
        let config = &tier.config;
        assert_eq!(tier.launched_at, 0, "the tier launched at time zero");
        let starts: Vec<u64> = (0..64).map(|p| tier.first_emit(p)).collect();
        for (&start, &id) in starts.iter().zip(&tier.ids) {
            let mut seed = config
                .seed
                .wrapping_add((u64::from(id) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(
                start,
                splitmix64(&mut seed) % config.start_spread.0,
                "slab position of client {id} derives another client's start"
            );
        }
        let width = config.start_spread.0.div_ceil(64);
        assert!(
            starts.windows(2).all(|w| w[0] / width <= w[1] / width),
            "the slab is not in start order"
        );
        let per = tier.per_client_mbps();
        let bytes = u64::from(config.writes_per_client) * tier.model.write_payload;
        let slab = tier.slab.borrow();
        for ((c, &id), &start) in slab.iter().zip(&tier.ids).zip(&starts) {
            let own = mbps(bytes, SimTime(c.finish).since(SimTime(start)));
            assert_eq!(per[id as usize], own, "client {id}'s throughput");
        }
        let last = slab.iter().map(|c| c.finish).max().unwrap();
        let first = *starts.iter().min().unwrap();
        assert_eq!(tier.elapsed(), SimDuration(last - first));
    }

    #[test]
    fn start_order_puts_lone_and_simultaneous_clients_in_id_order() {
        assert_eq!(start_order(1, 1, |_| 0), [0]);
        assert_eq!(start_order(1, 1_000, |_| 999), [0]);
        assert_eq!(start_order(5, 1, |_| 0), [0, 1, 2, 3, 4]);
        assert_eq!(start_order(4, 4, |id| 3 - u64::from(id)), [3, 2, 1, 0]);
    }

    /// The launch layout is a bijection from client ids to slab
    /// positions that walks the spread's `n` buckets in order, ids
    /// ascending within a bucket, so equal instants keep id order.
    #[test]
    fn prop_start_order_is_a_stable_bucket_sort() {
        check(
            "prop_start_order_is_a_stable_bucket_sort",
            |g| {
                let spread = if g.any_bool() {
                    g.u64_in(1, 8)
                } else {
                    g.u64_in(1, 1 << 40)
                };
                let starts = g.vec(1, 48, |g| g.u64_in(0, spread));
                (spread, starts)
            },
            |(spread, starts)| {
                let n = starts.len() as u32;
                let position = start_order(n, *spread, |id| starts[id as usize]);
                let mut ids = vec![u32::MAX; starts.len()];
                for (id, &p) in position.iter().enumerate() {
                    prop_assert!((p as usize) < ids.len(), "position {p} past {n}");
                    prop_assert_eq!(ids[p as usize], u32::MAX);
                    ids[p as usize] = id as u32;
                }
                let width = spread.div_ceil(u64::from(n));
                for pair in ids.windows(2) {
                    let [a, b] = [pair[0], pair[1]].map(|id| starts[id as usize]);
                    prop_assert!(a / width <= b / width, "buckets out of order");
                    if a / width == b / width {
                        prop_assert!(pair[0] < pair[1], "ids out of order in a bucket");
                    }
                }
                CaseOutcome::Pass
            },
        );
    }

    /// A world ended mid-run, while a flyweight COMMIT flushes the disk
    /// and ops hold every service slot with more queued behind them,
    /// gives the ops up: the slots and the disk arm come back, and no
    /// waiter entry outlives the world.
    #[test]
    fn ending_a_world_mid_service_gives_up_its_flyweight_ops() {
        let tickets = live_waiters();
        let sim = Sim::new();
        let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(NicSpec::gigabit())));
        let server = NfsServer::new(&sim, ServerConfig::linux_knfsd());
        let tier = FlyTier::launch(
            &sim,
            &server,
            &fabric,
            toy_model(),
            FlyTierConfig::new(16, 64, NicSpec::gigabit()),
        );
        // 25 ms in, the first COMMIT has claimed the dirty pool and
        // flushes it while the other slots' ops wait at the disk.
        let s = sim.clone();
        sim.run_until(async move { s.sleep(SimDuration::from_millis(25)).await });
        let engine = Rc::clone(server.service_engine());
        assert_eq!(engine.in_flight(), engine.slots(), "every slot is held");
        assert!(engine.queued() > 0, "and more ops wait for one");
        assert_eq!(server.dirty_bytes(), Some(0), "a flush is under way");

        // The test's own handle keeps the tier past the world's end, so
        // its ops are given up outside any run: nothing may be woken.
        drop((sim, fabric));
        assert_eq!(
            engine.in_flight(),
            engine.slots(),
            "the tier still holds them"
        );
        drop(tier);
        assert_eq!(engine.in_flight(), 0, "the ended world kept service slots");
        let base = server.register_slim_clients(1);
        let mut op = server.begin_flyweight();
        let mut poll = || {
            server.poll_flyweight(&mut op, base, OpClass::Commit, 0, &mut || {
                std::task::Waker::noop().clone()
            })
        };
        assert!(matches!(poll(), FlyStep::Sleep(_)), "a free slot admits");
        assert!(
            matches!(poll(), FlyStep::Done),
            "the ended flush kept the disk arm"
        );
        drop((op, engine, server));
        assert_eq!(live_waiters(), tickets, "the ended world left waiters live");
    }

    #[test]
    fn tier_is_deterministic() {
        let (_a_sim, a, sa) = run_tier(32, 4);
        let (_b_sim, b, sb) = run_tier(32, 4);
        assert_eq!(a.per_client_mbps(), b.per_client_mbps());
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.rpc_latency(), b.rpc_latency());
        assert_eq!(sa.slim_stats(), sb.slim_stats());
    }

    #[test]
    fn flyweight_state_stays_under_256_bytes_per_client() {
        assert_eq!(
            std::mem::size_of::<FlyClient>(),
            56,
            "FlyClient is a 56-byte record"
        );
        assert_eq!(
            std::mem::size_of::<FlyRpc>(),
            48,
            "FlyRpc is a 48-byte record"
        );
        let (_sim, tier, _server) = run_tier(10_000, 2);
        let per = tier.bytes_per_client();
        assert!(
            per <= 256,
            "flyweight tier costs {per} resident bytes per client"
        );
    }

    /// The flyweight tier's direct stage traversal must work unchanged
    /// when the fabric's ports run DRR instead of FIFO: every write is
    /// still accounted, per-flow state is retired after the run, and the
    /// per-client memory bound still holds with scheduler state included.
    #[test]
    fn tier_completes_through_a_drr_fabric() {
        let run = |policy: nfsperf_net::PortPolicy| {
            let sim = Sim::new();
            let server_nic = NicSpec::gigabit();
            let config = FabricConfig {
                port_sched: policy,
                ..FabricConfig::new(server_nic)
            };
            let fabric = Rc::new(Fabric::new(&sim, config));
            let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
            let tier = FlyTier::launch(
                &sim,
                &server,
                &fabric,
                toy_model(),
                FlyTierConfig::new(512, 4, server_nic),
            );
            let t2 = Rc::clone(&tier);
            sim.run_until(async move { t2.wait_done().await });
            (sim, tier, server, fabric)
        };
        let tickets = live_waiters();
        let (sim, tier, server, fabric) = run(nfsperf_net::PortPolicy::drr());
        assert_only_daemons_wait(&server, tickets);
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 512);
        assert_eq!(slim.writes, 512 * 4);
        assert_eq!(slim.write_bytes, 512 * 4 * 8192);
        let mbps = tier.per_client_mbps();
        assert!(mbps.iter().all(|m| *m > 0.0));
        let drr_bytes = fabric.resident_bytes();
        drop(fabric);
        assert_slab_drained(sim, tier, server, tickets);
        // Quiescent DRR retires per-flow state: entries are gone, so only
        // empty map/ring capacities linger — O(peak live flows), well
        // under the flyweight budget, never O(queued datagrams).
        let (_fifo_sim, _, _, fifo_fabric) = run(nfsperf_net::PortPolicy::Fifo);
        let slack = drr_bytes - fifo_fabric.resident_bytes();
        assert!(
            slack < 512 * 256,
            "retired DRR fabric still holds {slack} bytes of scheduler state"
        );
        // Determinism holds under DRR too.
        let (_sim2, tier2, server2, _) = run(nfsperf_net::PortPolicy::drr());
        assert_eq!(mbps, tier2.per_client_mbps());
        assert_eq!(slim, server2.slim_stats());
    }

    #[test]
    fn emission_gaps_stay_inside_the_calibrated_range_pre_contention() {
        // One client, unconstrained window: planned emissions must march
        // by sampled gaps inside the quantile range.
        let m = toy_model();
        let mut state = 7u64;
        let mut last = 0u64;
        for _ in 0..100 {
            let g = m.sample_gap(&mut state).0;
            assert!(g >= m.gap_quantiles[0].0 && g <= m.gap_quantiles[GAP_QUANTILES - 1].0);
            last += g;
        }
        assert!(last > 0);
    }
}
