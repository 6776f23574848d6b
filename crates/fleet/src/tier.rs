//! The flyweight tier: up to a million behavioral clients in a slab.
//!
//! Per client the tier keeps one [`FlyClient`] record (~64 bytes: an RNG
//! cursor, an emission clock, three virtual NIC clocks, two timestamps,
//! two counters) — no pages, no flushd, no per-request locks, no NIC or
//! mount objects. Each RPC is a short-lived task chain: sleep to the
//! calibrated emission time, traverse the real aggregation and core
//! uplinks (queueing behind every other client, faithful ones included),
//! drain through the per-client server-port clock, run the server's
//! flyweight service path (real slots, NVRAM, checkpoints, dirty cache),
//! then unwind the reply the same way. Completion refills the client's
//! outstanding-RPC window, which emits the next requests — so the tier's
//! live-task count tracks in-flight RPCs, not client count.
//!
//! Per-client serialization that a real NIC would impose (receive drain
//! at the server port, transmit of the reply, receive at the client) is
//! modelled with virtual clocks: `free = max(now, free) + drain_time`,
//! exactly the arithmetic a dedicated `Nic` object's semaphore-plus-
//! sleep performs, without the object.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::task::Waker;

use nfsperf_net::{wire_bytes, Fabric, LaneAdmit, LinkDir, NicSpec};
use nfsperf_server::{FlyStep, FlyweightOp, NfsServer};
use nfsperf_sim::{mbps, EventHandlerId, Gate, LatencyDigest, Sim, SimDuration, SimTime};

use crate::model::{splitmix64, BehaviorModel, FlyOp};

/// UDP payload bytes of a WRITE reply (status + WCC + verifier framing).
const WRITE_REPLY_BYTES: usize = 160;
/// UDP payload bytes of a COMMIT reply.
const COMMIT_REPLY_BYTES: usize = 128;

/// One flyweight client's entire state. Kept `repr(C)` and packed into
/// a slab; the memory-accounting test holds its size (and the tier's
/// shared overhead amortized per client) under 256 bytes.
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
    /// When the first RPC left, ns (throughput denominator).
    first_emit: u64,
    /// When the last reply finished draining, ns.
    finish: u64,
    /// RPCs emitted so far.
    emitted: u32,
    /// RPCs completed so far.
    completed: u32,
}

/// Which machinery advances each of the tier's RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierEngine {
    /// Two spawned tasks per RPC (the original engine): a request task
    /// that sleeps, traverses, and drains, handing off to a service
    /// task for the server wait and the reply unwind.
    Tasks,
    /// One slab record per RPC advanced by timed events straight off the
    /// executor's wheel — no future, no task, no per-RPC allocation.
    /// Every await point of the task engine maps to one event, and both
    /// engines share the same fabric/server wait queues, so runs are
    /// bit-identical (asserted in tests) while the steady state skips
    /// all task machinery.
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
    /// Which machinery advances each RPC (events by default).
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
    /// Estimated resident bytes per client (slab + amortized shares).
    pub bytes_per_client: usize,
}

/// Resume point of one event-driven RPC: each variant names what the
/// record does when its next event dispatches. Stages mirror the task
/// engine's await points one-for-one, so both engines retire identical
/// event counts in identical order.
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

/// One in-flight event-driven RPC. Records live in a free-listed slab
/// sized by peak concurrent RPCs — the per-RPC state the task engine
/// kept in two spawned futures, without the futures. Transient like
/// those futures were, so (like them) not part of the tier's resident
/// per-client accounting.
struct FlyRpc {
    /// Owning client's tier index.
    idx: u32,
    /// The RPC's emission sequence number for that client.
    seq: u32,
    /// Free-list link (`u32::MAX` = end).
    next_free: u32,
    /// Wire bytes of the current datagram (request, then reply).
    wire: u32,
    /// UDP payload bytes of the current datagram.
    payload: u32,
    op: FlyOp,
    stage: RpcStage,
    /// When the request left the client (latency numerator start).
    emitted_at: SimTime,
    /// Admission scratch for the hop currently being traversed.
    lane: LaneAdmit,
    /// The server-side op, live from [`RpcStage::Service`] entry.
    srv: Option<FlyweightOp>,
    /// Shadow task-table slot standing in for the task the old engine
    /// would have spawned for the current half of this RPC (request,
    /// then service). Keeps the executor's slot-recycling sequence —
    /// and so the landing spot of any stale wake — identical across
    /// engines, which keeps deterministic event counts bit-identical.
    shadow: usize,
    /// Direct waker dispatching `step(record index)`, built once when
    /// the record first exists and reused by every park of every RPC
    /// that ever occupies it (the index never changes): parking is one
    /// waker clone, waking one ready-queue push.
    waker: Option<Waker>,
}

impl FlyRpc {
    fn vacant() -> FlyRpc {
        FlyRpc {
            idx: 0,
            seq: 0,
            next_free: u32::MAX,
            wire: 0,
            payload: 0,
            op: FlyOp::Write,
            stage: RpcStage::Start,
            emitted_at: SimTime::ZERO,
            lane: LaneAdmit::start(SimTime::ZERO),
            srv: None,
            shadow: 0,
            waker: None,
        }
    }
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
    fabric_base: u32,
    server_base: usize,
    slab: RefCell<Vec<FlyClient>>,
    rpcs: RefCell<RpcSlab>,
    handler: Cell<EventHandlerId>,
    latencies: RefCell<Vec<SimDuration>>,
    lat_counter: Cell<u64>,
    clients_done: Cell<u32>,
    finished: Gate,
}

impl FlyTier {
    /// Registers `config.clients` flyweights with the fabric and the
    /// server (faithful clients must be attached first) and emits each
    /// client's first request at its jittered start time.
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
        let spread = config.start_spread.0.max(1);
        let mut slab = Vec::with_capacity(config.clients as usize);
        for i in 0..config.clients {
            let mut seed = config
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let jitter = splitmix64(&mut seed) % spread;
            slab.push(FlyClient {
                rng: seed,
                planned: jitter,
                port_rx_free: 0,
                port_tx_free: 0,
                cli_rx_free: 0,
                first_emit: 0,
                finish: 0,
                emitted: 0,
                completed: 0,
            });
        }
        let window = model.window.min(config.window_cap).max(1);
        let total_ops = model.total_ops(config.writes_per_client);
        assert!(total_ops > 0, "clients must emit at least one RPC");
        let finished = Gate::new();
        finished.close();
        let tier = Rc::new(FlyTier {
            sim: sim.clone(),
            server: Rc::clone(server),
            fabric: Rc::clone(fabric),
            config,
            model,
            window,
            total_ops,
            fabric_base,
            server_base,
            slab: RefCell::new(slab),
            rpcs: RefCell::new(RpcSlab {
                slots: Vec::new(),
                free_head: u32::MAX,
            }),
            handler: Cell::new(sim.register_event_handler(Rc::new(|_| {}))),
            latencies: RefCell::new(Vec::new()),
            lat_counter: Cell::new(0),
            clients_done: Cell::new(0),
            finished,
        });
        if tier.config.engine == TierEngine::Events {
            let t = Rc::clone(&tier);
            tier.handler
                .set(sim.register_event_handler(Rc::new(move |data| t.step(data as u32))));
        }
        for i in 0..tier.config.clients {
            tier.try_emit(i);
        }
        tier
    }

    /// Resolves once every client has completed all of its RPCs.
    pub async fn wait_done(&self) {
        self.finished.pass().await;
    }

    /// Emits requests for client `idx` while its window has room: each
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
                if c.emitted == 0 {
                    c.first_emit = at;
                }
                let seq = c.emitted;
                c.emitted += 1;
                (seq, at)
            };
            match self.config.engine {
                TierEngine::Tasks => self.spawn_request(idx, seq, SimTime(at)),
                TierEngine::Events => {
                    // ≙ `spawn_request`: the shadow claims the task-table
                    // slot the request task would have, and the posted
                    // event sits in the same ready-queue position.
                    let r = self.alloc_rpc(idx, seq, SimTime(at));
                    self.rpcs.borrow_mut().slots[r as usize].shadow = self.sim.spawn_shadow();
                    self.sim.post_event(self.handler.get(), u64::from(r));
                }
            }
        }
    }

    /// Claims (or grows) an RPC record for one emission.
    fn alloc_rpc(&self, idx: u32, seq: u32, at: SimTime) -> u32 {
        let mut rpcs = self.rpcs.borrow_mut();
        let r = match rpcs.free_head {
            u32::MAX => {
                let r = rpcs.slots.len() as u32;
                let mut slot = FlyRpc::vacant();
                // Built once per record; the index (the waker's payload)
                // never changes, so every later RPC in this slot reuses it.
                slot.waker = Some(self.sim.direct_waker(self.handler.get(), r));
                rpcs.slots.push(slot);
                r
            }
            head => {
                rpcs.free_head = rpcs.slots[head as usize].next_free;
                head
            }
        };
        let rpc = &mut rpcs.slots[r as usize];
        rpc.idx = idx;
        rpc.seq = seq;
        rpc.next_free = u32::MAX;
        rpc.wire = 0;
        rpc.payload = 0;
        rpc.op = FlyOp::Write;
        rpc.stage = RpcStage::Start;
        rpc.emitted_at = at;
        rpc.lane = LaneAdmit::start(at);
        rpc.srv = None;
        r
    }

    /// Schedules RPC `data`'s next dispatch at `deadline` and returns
    /// `true`; returns `false` when the deadline is not in the future,
    /// in which case the caller continues inline — exactly the task
    /// engine's `Sleep`, which completes immediately without touching
    /// the wheel when its deadline has passed.
    fn sleep_then(&self, deadline: SimTime, data: u64) -> bool {
        if deadline > self.sim.now() {
            // Stage hops are never cancelled, so the timer can carry the
            // dispatch itself — no slab slot, no ready-queue round trip.
            self.sim.schedule_direct(deadline, self.handler.get(), data);
            true
        } else {
            false
        }
    }

    /// Advances one event-driven RPC until it parks in a wait queue,
    /// schedules its next dispatch, or retires. One dispatch of this
    /// handler corresponds to one poll of the task engine's request or
    /// service task, and every wait parks in the same fabric/server
    /// queues, so both engines interleave — and count events —
    /// identically.
    fn step(self: &Rc<Self>, r: u32) {
        let h = self.handler.get();
        let data = u64::from(r);
        let mut rpcs = self.rpcs.borrow_mut();
        let rpc = &mut rpcs.slots[r as usize];
        // Every park hands out a clone of the record's cached direct
        // waker: no slab arm, no generation — safe because each park is
        // woken at most once and the record cannot advance past the
        // parked stage until that wake dispatches.
        let waker = rpc.waker.clone().expect("rpc record waker");
        let mut wf = move || waker.clone();
        let flow = self.fabric_base + rpc.idx;
        let wire = |rpc: &FlyRpc| rpc.wire as usize;
        loop {
            match rpc.stage {
                RpcStage::Start => {
                    rpc.stage = RpcStage::Launch;
                    if rpc.emitted_at > self.sim.now() {
                        self.sim.schedule_direct(rpc.emitted_at, h, data);
                        return;
                    }
                }
                RpcStage::Launch => {
                    rpc.op = self.model.op_at(rpc.seq, self.config.writes_per_client);
                    let payload = match rpc.op {
                        FlyOp::Write => self.model.write_wire_bytes,
                        FlyOp::Commit => self.model.commit_wire_bytes,
                    };
                    rpc.payload = payload as u32;
                    rpc.wire = wire_bytes(payload, self.config.client_nic.mtu) as u32;
                    rpc.lane = LaneAdmit::start(self.sim.now());
                    rpc.stage = RpcStage::AggAdmit;
                }
                RpcStage::AggAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let w = wire(rpc);
                    if !agg.poll_admit(&mut rpc.lane, LinkDir::ToServer, flow, w, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::AggXfer;
                    let done = self.sim.now() + agg.spec().transfer_time(wire(rpc));
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::AggXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToServer, rpc.payload as usize);
                    rpc.lane = LaneAdmit::start(self.sim.now());
                    rpc.stage = RpcStage::CoreAdmit;
                }
                RpcStage::CoreAdmit => {
                    let core = self.fabric.core();
                    let w = wire(rpc);
                    if !core.poll_admit(&mut rpc.lane, LinkDir::ToServer, flow, w, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::CoreXfer;
                    let done = self.sim.now() + core.spec().transfer_time(wire(rpc));
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::CoreXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToServer, rpc.payload as usize);
                    rpc.stage = RpcStage::PortDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, data) {
                        return;
                    }
                }
                RpcStage::PortDrain => {
                    let drained =
                        self.advance_clock(rpc.idx, ClockId::PortRx, self.config.port_nic, wire(rpc));
                    rpc.stage = RpcStage::HandOff;
                    if self.sleep_then(drained, data) {
                        return;
                    }
                }
                RpcStage::HandOff => {
                    // ≙ `spawn_service`: the task engine hands the
                    // (possibly long) server-queue wait to a fresh task;
                    // mirror its ready-queue push with a posted event,
                    // and swap shadows in the task engine's order —
                    // service slot claimed first, request slot released
                    // when its task returns.
                    rpc.stage = RpcStage::Service;
                    let service_shadow = self.sim.spawn_shadow();
                    self.sim.post_event(h, data);
                    self.sim.drop_shadow(rpc.shadow);
                    rpc.shadow = service_shadow;
                    return;
                }
                RpcStage::Service => {
                    let client = self.server_base + rpc.idx as usize;
                    let op_kind = rpc.op;
                    let payload = self.model.write_payload;
                    let srv = rpc.srv.get_or_insert_with(|| match op_kind {
                        FlyOp::Write => self.server.begin_flyweight_write(client, payload),
                        FlyOp::Commit => self.server.begin_flyweight_commit(client),
                    });
                    loop {
                        match self.server.poll_flyweight(srv, &mut wf) {
                            FlyStep::Parked => return,
                            FlyStep::Sleep(d) => {
                                if d > SimDuration::ZERO {
                                    self.sim.schedule_direct(self.sim.now() + d, h, data);
                                    return;
                                }
                            }
                            FlyStep::Done => break,
                        }
                    }
                    rpc.srv = None;
                    let reply_payload = match rpc.op {
                        FlyOp::Write => WRITE_REPLY_BYTES,
                        FlyOp::Commit => COMMIT_REPLY_BYTES,
                    };
                    rpc.payload = reply_payload as u32;
                    rpc.wire = wire_bytes(reply_payload, self.config.port_nic.mtu) as u32;
                    let sent =
                        self.advance_clock(rpc.idx, ClockId::PortTx, self.config.port_nic, wire(rpc));
                    rpc.stage = RpcStage::CoreRStart;
                    if self.sleep_then(sent, data) {
                        return;
                    }
                }
                RpcStage::CoreRStart => {
                    rpc.lane = LaneAdmit::start(self.sim.now());
                    rpc.stage = RpcStage::CoreRAdmit;
                }
                RpcStage::CoreRAdmit => {
                    let core = self.fabric.core();
                    let w = wire(rpc);
                    if !core.poll_admit(&mut rpc.lane, LinkDir::ToClients, flow, w, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::CoreRXfer;
                    let done = self.sim.now() + core.spec().transfer_time(wire(rpc));
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::CoreRXfer => {
                    self.fabric
                        .core()
                        .finish_traverse(LinkDir::ToClients, rpc.payload as usize);
                    rpc.lane = LaneAdmit::start(self.sim.now());
                    rpc.stage = RpcStage::AggRAdmit;
                }
                RpcStage::AggRAdmit => {
                    let agg = self.fabric.agg_of(flow);
                    let w = wire(rpc);
                    if !agg.poll_admit(&mut rpc.lane, LinkDir::ToClients, flow, w, &mut wf) {
                        return;
                    }
                    rpc.stage = RpcStage::AggRXfer;
                    let done = self.sim.now() + agg.spec().transfer_time(wire(rpc));
                    if self.sleep_then(done, data) {
                        return;
                    }
                }
                RpcStage::AggRXfer => {
                    self.fabric
                        .agg_of(flow)
                        .finish_traverse(LinkDir::ToClients, rpc.payload as usize);
                    rpc.stage = RpcStage::CliDrain;
                    let woke = self.sim.now() + self.fabric.latency();
                    if self.sleep_then(woke, data) {
                        return;
                    }
                }
                RpcStage::CliDrain => {
                    let drained = self.advance_clock(
                        rpc.idx,
                        ClockId::CliRx,
                        self.config.client_nic,
                        wire(rpc),
                    );
                    rpc.stage = RpcStage::Complete;
                    if self.sleep_then(drained, data) {
                        return;
                    }
                }
                RpcStage::Complete => break,
            }
        }
        // Free the record before completing: `try_emit` inside
        // `complete` may immediately reuse it for this client's next
        // emission, and `complete` must see the slab borrow released.
        let (idx, seq, emitted_at, op, shadow) =
            (rpc.idx, rpc.seq, rpc.emitted_at, rpc.op, rpc.shadow);
        rpcs.slots[r as usize].next_free = rpcs.free_head;
        rpcs.free_head = r;
        drop(rpcs);
        self.complete(idx, seq, emitted_at, op);
        // The service task's slot is recycled only after its final poll
        // returned — i.e. after `complete` (and any emissions it
        // spawned) ran.
        self.sim.drop_shadow(shadow);
    }

    /// The request half of one RPC: wait for the emission instant, cross
    /// the aggregation and core uplinks, propagate, drain into the
    /// server port. Hands off to [`FlyTier::spawn_service`] so the
    /// (possibly long) queue wait at the server does not keep this
    /// larger future alive.
    fn spawn_request(self: &Rc<Self>, idx: u32, seq: u32, at: SimTime) {
        let tier = Rc::clone(self);
        self.sim.clone().spawn_detached(async move {
            tier.sim.sleep_until(at).await;
            let op = tier.model.op_at(seq, tier.config.writes_per_client);
            let payload = match op {
                FlyOp::Write => tier.model.write_wire_bytes,
                FlyOp::Commit => tier.model.commit_wire_bytes,
            };
            let wire = wire_bytes(payload, tier.config.client_nic.mtu);
            let flow = tier.fabric_base + idx;
            let agg = tier.fabric.agg_of(flow);
            agg.traverse(flow, LinkDir::ToServer, wire, payload).await;
            drop(agg);
            tier.fabric
                .core()
                .traverse(flow, LinkDir::ToServer, wire, payload)
                .await;
            tier.sim.sleep(tier.fabric.latency()).await;
            let drained = tier.advance_clock(idx, ClockId::PortRx, tier.config.port_nic, wire);
            tier.sim.sleep_until(drained).await;
            tier.spawn_service(idx, seq, at, op);
        });
    }

    /// The service-and-reply half: run the server's flyweight path, then
    /// unwind the reply through the fabric back into the client.
    fn spawn_service(self: &Rc<Self>, idx: u32, seq: u32, emitted_at: SimTime, op: FlyOp) {
        let tier = Rc::clone(self);
        self.sim.clone().spawn_detached(async move {
            let client = tier.server_base + idx as usize;
            let reply_payload = match op {
                FlyOp::Write => {
                    tier.server
                        .serve_flyweight_write(client, tier.model.write_payload)
                        .await;
                    WRITE_REPLY_BYTES
                }
                FlyOp::Commit => {
                    tier.server.serve_flyweight_commit(client).await;
                    COMMIT_REPLY_BYTES
                }
            };
            let wire = wire_bytes(reply_payload, tier.config.port_nic.mtu);
            let sent = tier.advance_clock(idx, ClockId::PortTx, tier.config.port_nic, wire);
            tier.sim.sleep_until(sent).await;
            let flow = tier.fabric_base + idx;
            tier.fabric
                .core()
                .traverse(flow, LinkDir::ToClients, wire, reply_payload)
                .await;
            tier.fabric
                .agg_of(flow)
                .traverse(flow, LinkDir::ToClients, wire, reply_payload)
                .await;
            tier.sim.sleep(tier.fabric.latency()).await;
            let drained = tier.advance_clock(idx, ClockId::CliRx, tier.config.client_nic, wire);
            tier.sim.sleep_until(drained).await;
            tier.complete(idx, seq, emitted_at, op);
        });
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

    fn complete(self: &Rc<Self>, idx: u32, _seq: u32, emitted_at: SimTime, op: FlyOp) {
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
                // handler → tier reference cycle so the tier frees when
                // its caller drops it.
                self.sim.clear_event_handler(self.handler.get());
            }
        } else {
            self.try_emit(idx);
        }
    }

    /// Each client's achieved throughput (payload bytes over its own
    /// first-emission-to-last-reply span), MB/s.
    pub fn per_client_mbps(&self) -> Vec<f64> {
        let bytes = u64::from(self.config.writes_per_client) * self.model.write_payload;
        self.slab
            .borrow()
            .iter()
            .map(|c| mbps(bytes, SimTime(c.finish).since(SimTime(c.first_emit))))
            .collect()
    }

    /// Time from the tier's first emission to its last completion.
    pub fn elapsed(&self) -> SimDuration {
        let slab = self.slab.borrow();
        let first = slab.iter().map(|c| c.first_emit).min().unwrap_or(0);
        let last = slab.iter().map(|c| c.finish).max().unwrap_or(0);
        SimDuration(last.saturating_sub(first))
    }

    /// Digest of the strided client-observed WRITE RPC latencies.
    /// Sorts the shared pool in place (`of_mut`) instead of snapshotting
    /// it: percentiles are order-independent, and the megafleet render
    /// path calls this per cell — no reason to clone a pool that can be
    /// megabytes at a million clients.
    pub fn rpc_latency(&self) -> LatencyDigest {
        LatencyDigest::of_mut(&mut self.latencies.borrow_mut())
    }

    /// Estimated resident bytes per client: the slab record plus this
    /// client's amortized share of the shared latency pool, the model,
    /// and the fabric's per-stage state. The whole point of the tier —
    /// asserted ≤ 256 in tests and reported in the megafleet CSV.
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

    fn run_tier_with(
        clients: u32,
        writes: u32,
        engine: TierEngine,
    ) -> (Rc<FlyTier>, Rc<NfsServer>, Sim) {
        let sim = Sim::new();
        let server_nic = NicSpec::gigabit();
        let fabric = Rc::new(Fabric::new(&sim, FabricConfig::new(server_nic)));
        let server = NfsServer::new(&sim, ServerConfig::netapp_f85());
        let tier = FlyTier::launch(
            &sim,
            &server,
            &fabric,
            toy_model(),
            FlyTierConfig {
                engine,
                ..FlyTierConfig::new(clients, writes, server_nic)
            },
        );
        let t2 = Rc::clone(&tier);
        sim.run_until(async move { t2.wait_done().await });
        (tier, server, sim)
    }

    fn run_tier(clients: u32, writes: u32) -> (Rc<FlyTier>, Rc<NfsServer>) {
        let (tier, server, _) = run_tier_with(clients, writes, TierEngine::Events);
        (tier, server)
    }

    #[test]
    fn tier_completes_and_accounts_every_write() {
        let (tier, server) = run_tier(64, 8);
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 64);
        assert_eq!(slim.writes, 64 * 8);
        assert_eq!(slim.write_bytes, 64 * 8 * 8192);
        assert_eq!(slim.commits, 64, "8 writes under wpc=16: one close COMMIT each");
        let per = tier.per_client_mbps();
        assert_eq!(per.len(), 64);
        assert!(per.iter().all(|m| *m > 0.0));
        assert!(tier.rpc_latency().p99 > SimDuration::ZERO);
        // No faithful clients attached: the server kept zero per-client
        // stats entries for the whole tier.
        assert!(server.per_client_stats().is_empty());
    }

    /// The taskless event engine must be observationally identical to
    /// the two-task-per-RPC engine it replaces: same per-client
    /// throughputs, same elapsed virtual time, same latency digest,
    /// same server counters — and the same *event count*, since every
    /// task poll maps one-for-one onto a slab-event dispatch (the
    /// megafleet CSV records `sim.events()`, so byte-identity of
    /// committed results rides on this).
    #[test]
    fn event_and_task_engines_are_bit_identical() {
        for (clients, writes) in [(1, 3), (32, 4), (128, 8)] {
            let (ta, sa, ma) = run_tier_with(clients, writes, TierEngine::Tasks);
            let (te, se, me) = run_tier_with(clients, writes, TierEngine::Events);
            assert_eq!(ta.per_client_mbps(), te.per_client_mbps());
            assert_eq!(ta.elapsed(), te.elapsed());
            assert_eq!(ta.rpc_latency(), te.rpc_latency());
            assert_eq!(sa.slim_stats(), se.slim_stats());
            assert_eq!(ma.now(), me.now());
            assert_eq!(
                ma.events(),
                me.events(),
                "event-count parity broke at {clients} clients x {writes} writes"
            );
        }
    }

    #[test]
    fn tier_is_deterministic() {
        let (a, sa) = run_tier(32, 4);
        let (b, sb) = run_tier(32, 4);
        assert_eq!(a.per_client_mbps(), b.per_client_mbps());
        assert_eq!(a.elapsed(), b.elapsed());
        assert_eq!(a.rpc_latency(), b.rpc_latency());
        assert_eq!(sa.slim_stats(), sb.slim_stats());
    }

    #[test]
    fn flyweight_state_stays_under_256_bytes_per_client() {
        assert!(
            std::mem::size_of::<FlyClient>() <= 72,
            "FlyClient grew to {} bytes",
            std::mem::size_of::<FlyClient>()
        );
        let (tier, _server) = run_tier(10_000, 2);
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
            (tier, server, fabric)
        };
        let (tier, server, fabric) = run(nfsperf_net::PortPolicy::drr());
        let slim = server.slim_stats();
        assert_eq!(slim.clients, 512);
        assert_eq!(slim.writes, 512 * 4);
        assert_eq!(slim.write_bytes, 512 * 4 * 8192);
        assert!(tier.per_client_mbps().iter().all(|m| *m > 0.0));
        // Quiescent DRR retires per-flow state: entries are gone, so only
        // empty map/ring capacities linger — O(peak live flows), well
        // under the flyweight budget, never O(queued datagrams).
        let (_, _, fifo_fabric) = run(nfsperf_net::PortPolicy::Fifo);
        let slack = fabric.resident_bytes() - fifo_fabric.resident_bytes();
        assert!(
            slack < 512 * 256,
            "retired DRR fabric still holds {slack} bytes of scheduler state"
        );
        // Determinism holds under DRR too.
        let (tier2, server2, _) = run(nfsperf_net::PortPolicy::drr());
        assert_eq!(tier.per_client_mbps(), tier2.per_client_mbps());
        assert_eq!(server.slim_stats(), server2.slim_stats());
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
