//! Shared-bottleneck switch model for multi-client topologies.
//!
//! The paper's test bed connects one client and one server through an
//! Extreme Networks Summit7i, so a single [`crate::Path`] between two
//! NICs is enough. Scaling the client side out changes that: every
//! client's traffic funnels into the *same* server uplink, and the
//! interesting question becomes which resource saturates first — the
//! shared wire, the server NIC, or the server's service loop.
//!
//! [`SharedLink`] models that funnel: one full-duplex link with a
//! serialization lane per direction. Any number of [`crate::Path`]s can
//! route `via` the link; datagrams from different paths contend for the
//! lane under a [`PortPolicy`] — arrival order by default, exactly as
//! frames queue on a switch uplink port, or per-flow DRR/WRR when the
//! experiment asks the switch to police a hog. [`Switch`] bundles the
//! bookkeeping for the common topology — N client NICs, one server
//! behind one uplink — so experiment code can attach clients one line at
//! a time.
//!
//! Each lane is a one-slot [`Arbiter`] keyed by the datagram's source
//! flow and wire bytes; the lane adds only its byte meters and strided
//! queue-delay samples. Under `port-fifo` the lane is the one-permit
//! `Semaphore` it once was, since a semaphore is now itself a FIFO
//! arbiter (fast-path barging, head-only wakes, re-queue on slot
//! steal): every wake, poll and queue transition happens in the
//! semaphore lane's order, and sweeps reproduce the pre-scheduling CSVs
//! byte for byte. A replay property test below, `nfsperf_sim`'s replay
//! of the semaphore against its pre-slab reference, and the committed
//! sweep artifacts hold this line.

use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;
use std::task::Waker;

use nfsperf_sim::arbiter::{Arbiter, Claim, Key};
use nfsperf_sim::{
    drive_poll, ByteMeter, Counter, LatencyDigest, Receiver, Sim, SimDuration, SimTime,
};

use crate::nic::{DatagramPayload, Nic, NicSpec};
use crate::sched::PortPolicy;
use crate::Path;

/// Which way a datagram crosses a [`SharedLink`].
///
/// The two directions are independent lanes (full duplex): replies never
/// contend with requests, matching switched Ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// From a client port toward the server uplink.
    ToServer,
    /// From the server uplink back toward a client port.
    ToClients,
}

impl LinkDir {
    /// The opposite direction (used by [`Path::reversed`]).
    pub fn flipped(self) -> LinkDir {
        match self {
            LinkDir::ToServer => LinkDir::ToClients,
            LinkDir::ToClients => LinkDir::ToServer,
        }
    }

    fn lane(self) -> usize {
        match self {
            LinkDir::ToServer => 0,
            LinkDir::ToClients => 1,
        }
    }
}

/// One directional lane: a one-slot arbiter plus its meters.
struct Lane {
    arbiter: Arbiter,
    meter: ByteMeter,
    datagrams: Counter,
    /// Sampled queue delays (arrival → slot grant). Sampling is strided
    /// and off by default (stride 0) so megafleet-scale runs carry no
    /// per-lane sample state unless an experiment asks for it.
    queue_delay: RefCell<Vec<SimDuration>>,
    sample_counter: Cell<u64>,
    sample_stride: Cell<u64>,
}

impl Lane {
    fn new(policy: &PortPolicy) -> Lane {
        Lane {
            arbiter: Arbiter::new(1, policy.build()),
            meter: ByteMeter::new(),
            datagrams: Counter::new(),
            queue_delay: RefCell::new(Vec::new()),
            sample_counter: Cell::new(0),
            sample_stride: Cell::new(0),
        }
    }

    fn sample_queue_delay(&self, delay: SimDuration) {
        let stride = self.sample_stride.get();
        if stride == 0 {
            return;
        }
        let n = self.sample_counter.get();
        self.sample_counter.set(n + 1);
        if n.is_multiple_of(stride) {
            self.queue_delay.borrow_mut().push(delay);
        }
    }

    /// Live bytes beyond the pinned arbiter model: policy state plus any
    /// enabled sample pool.
    fn extra_resident_bytes(&self) -> usize {
        self.arbiter.order().resident_bytes()
            + self.queue_delay.borrow().capacity() * std::mem::size_of::<SimDuration>()
    }
}

/// Modeled structural footprint of one shared link, pinned at the
/// semaphore-era measurement (`SharedLink` was 136 bytes when a lane was
/// `{Semaphore, ByteMeter, Counter}`). The flyweight memory ledger
/// charges this *model*, not the live Rust layout, so the per-client
/// budget stays comparable across scheduling policies and PRs; what
/// scheduling actually adds is charged live on top (see
/// [`SharedLink::resident_bytes`]).
const LINK_MODEL_BYTES: usize = 136;

/// Modeled per-lane arbiter footprint, pinned at the semaphore-era
/// value: the 80-byte semaphore plus a 32-byte allowance for pooled wait
/// nodes. It is a literal because the semaphore is now itself an
/// arbiter and changes size with it; reading the live size would move
/// megafleet's `bytes_per_client` column with every such change. The
/// arbiter's slot/wake cells and empty FIFO queue fit the same
/// allowance; DRR/WRR deficit state is charged live, not hand-waved
/// into this constant (that undercount is exactly what
/// [`SharedLink::resident_bytes`] now fixes).
const ARBITER_MODEL_BYTES: usize = 112;

/// In-flight state for one [`SharedLink::poll_admit`] traversal:
/// arrival time (for queue-delay sampling) plus the lane arbiter's
/// claim. Built per hop with [`LaneAdmit::start`] and must be driven to
/// admission once started — a queued claim holds its place in the
/// lane's order, just as a parked [`SharedLink::traverse`] task does.
/// An admitted `LaneAdmit` is spent: the next hop starts a new one.
pub struct LaneAdmit {
    arrival: SimTime,
    claim: Claim,
}

impl LaneAdmit {
    /// Begins an admission arriving at `now`.
    pub fn start(now: SimTime) -> LaneAdmit {
        LaneAdmit {
            arrival: now,
            claim: Claim::default(),
        }
    }
}

/// One full-duplex link shared by many paths — the server's uplink port.
///
/// Each traversal serializes the datagram's wire bytes at the link rate
/// while holding the directional lane, so concurrent senders queue
/// behind each other. The rate comes from a [`NicSpec`] so the link can
/// mirror the server's own interface (e.g. the knfsd's bus-limited NIC),
/// putting the fleet bottleneck where the paper's hardware had it. The
/// order waiters drain in is the lane's [`PortPolicy`].
pub struct SharedLink {
    sim: Sim,
    /// Link name (for reports).
    pub name: &'static str,
    spec: NicSpec,
    policy_label: &'static str,
    lanes: [Lane; 2],
}

impl SharedLink {
    /// Creates a shared link running at `spec`'s rate in each direction,
    /// FIFO lanes (the pre-subsystem behaviour).
    pub fn new(sim: &Sim, name: &'static str, spec: NicSpec) -> Rc<SharedLink> {
        SharedLink::with_policy(sim, name, spec, &PortPolicy::Fifo)
    }

    /// Creates a shared link whose lanes drain under `policy`.
    pub fn with_policy(
        sim: &Sim,
        name: &'static str,
        spec: NicSpec,
        policy: &PortPolicy,
    ) -> Rc<SharedLink> {
        Rc::new(SharedLink {
            sim: sim.clone(),
            name,
            spec,
            policy_label: policy.label(),
            lanes: [Lane::new(policy), Lane::new(policy)],
        })
    }

    /// The link's rate/MTU description.
    pub fn spec(&self) -> NicSpec {
        self.spec
    }

    /// The lane scheduling policy's name (`port-fifo`, `port-drr`, …).
    pub fn policy_label(&self) -> &'static str {
        self.policy_label
    }

    /// Enables queue-delay sampling on both lanes, keeping every
    /// `stride`-th sample (0 disables and is the default).
    pub fn set_queue_sampling(&self, stride: u64) {
        for lane in &self.lanes {
            lane.sample_stride.set(stride);
        }
    }

    /// Carries one datagram of `wire_len` wire bytes (`payload_len`
    /// payload) from `flow` across the link, queueing behind other
    /// traffic in the same direction under the lane's policy: drives
    /// [`SharedLink::poll_admit`], sleeps the wire time it hands back,
    /// then [`SharedLink::finish_traverse`].
    pub async fn traverse(&self, flow: u32, dir: LinkDir, wire_len: usize, payload_len: usize) {
        let mut st = LaneAdmit::start(self.sim.now());
        let wire_time =
            drive_poll(move |wf| self.poll_admit(&mut st, dir, flow, wire_len, wf)).await;
        self.sim.sleep(wire_time).await;
        self.finish_traverse(dir, payload_len);
    }

    /// Admits one datagram to the `dir` lane without a task: the lane
    /// arbiter's [`Arbiter::poll_claim`] keyed by `flow` and `wire_len`,
    /// which [`SharedLink::traverse`] drives for async callers. Returns
    /// the wire time once the serialization slot is held (the caller
    /// sleeps it, then calls [`SharedLink::finish_traverse`]), or `None`
    /// after parking a waker from `waker_factory`; call again when it
    /// fires. Every caller, task-driven or taskless, shares each lane's
    /// one arbiter, so mixed traffic drains in one order.
    pub fn poll_admit(
        &self,
        st: &mut LaneAdmit,
        dir: LinkDir,
        flow: u32,
        wire_len: usize,
        waker_factory: &mut dyn FnMut() -> Waker,
    ) -> Option<SimDuration> {
        let lane = &self.lanes[dir.lane()];
        let key = Key {
            flow,
            class: 0,
            cost: wire_len as u64,
        };
        if !lane.arbiter.poll_claim(key, &mut st.claim, waker_factory) {
            return None;
        }
        lane.sample_queue_delay(self.sim.now().since(st.arrival));
        Some(self.spec.transfer_time(wire_len))
    }

    /// Completes a traversal admitted by [`SharedLink::poll_admit`] once
    /// its wire time has elapsed: meters the payload while still holding
    /// the slot, so meters and datagram counts advance in dequeue order
    /// even when the policy reorders flows, then releases the slot to the
    /// lane's next pick.
    pub fn finish_traverse(&self, dir: LinkDir, payload_len: usize) {
        let lane = &self.lanes[dir.lane()];
        lane.meter.record(self.sim.now(), payload_len as u64);
        lane.datagrams.inc();
        // Lane orders never carry an in-flight quota (`PortPolicy::build`),
        // so the release reads no flow and any id will do.
        lane.arbiter.release(0);
    }

    /// Payload bytes carried in `dir` (excluding framing).
    pub fn bytes(&self, dir: LinkDir) -> u64 {
        self.lanes[dir.lane()].meter.bytes()
    }

    /// Datagrams carried in `dir`.
    pub fn datagrams(&self, dir: LinkDir) -> u64 {
        self.lanes[dir.lane()].datagrams.get()
    }

    /// Mean payload throughput in `dir` over the active period, MB/s.
    pub fn throughput_mbps(&self, dir: LinkDir) -> f64 {
        self.lanes[dir.lane()].meter.throughput_mbps()
    }

    /// Digest of sampled queue delays (arrival → slot grant) in `dir`.
    /// Empty unless [`SharedLink::set_queue_sampling`] enabled sampling.
    pub fn queue_delay(&self, dir: LinkDir) -> LatencyDigest {
        LatencyDigest::of_mut(&mut self.lanes[dir.lane()].queue_delay.borrow_mut())
    }

    /// Number of queue-delay samples retained in `dir`.
    pub fn queue_delay_samples(&self, dir: LinkDir) -> usize {
        self.lanes[dir.lane()].queue_delay.borrow().len()
    }

    /// Modeled resident bytes of this link: the pinned semaphore-era
    /// structural model (so the flyweight ledger is comparable across
    /// policies) plus the *live* per-lane scheduler state — DRR deficit
    /// tables, rings, queued-ticket storage — and any enabled
    /// queue-delay sample pools. Under FIFO with sampling off this is
    /// exactly the pre-refactor figure.
    pub fn resident_bytes(&self) -> usize {
        LINK_MODEL_BYTES
            + self
                .lanes
                .iter()
                .map(|lane| ARBITER_MODEL_BYTES + lane.extra_resident_bytes())
                .sum::<usize>()
    }
}

/// The common fleet topology: N clients, one server, one shared uplink.
///
/// Each attached client gets a dedicated server-side *port* NIC (the
/// switch port demultiplexes by source, as a UDP server demultiplexes by
/// peer address) and a [`Path`] routed `via` the shared uplink, so all
/// clients contend for the same wire into the server. Attach order
/// assigns each client a dense flow id, which is what the uplink's
/// DRR/WRR policies key on.
pub struct Switch {
    sim: Sim,
    uplink: Rc<SharedLink>,
    latency: nfsperf_sim::SimDuration,
    next_flow: Cell<u32>,
}

impl Switch {
    /// Creates a switch whose server uplink runs at `uplink_spec`'s rate,
    /// FIFO uplink lanes.
    pub fn new(sim: &Sim, uplink_spec: NicSpec, latency: nfsperf_sim::SimDuration) -> Switch {
        Switch::with_port_sched(sim, uplink_spec, latency, &PortPolicy::Fifo)
    }

    /// Creates a switch whose uplink lanes drain under `policy`.
    pub fn with_port_sched(
        sim: &Sim,
        uplink_spec: NicSpec,
        latency: nfsperf_sim::SimDuration,
        policy: &PortPolicy,
    ) -> Switch {
        Switch {
            sim: sim.clone(),
            uplink: SharedLink::with_policy(sim, "uplink", uplink_spec, policy),
            latency,
            next_flow: Cell::new(0),
        }
    }

    /// Attaches a client NIC: assigns the next flow id, creates the
    /// server-side port NIC, and returns the client→server path (routed
    /// via the uplink) plus the port's receive queue for the server to
    /// drain.
    pub fn attach(
        &self,
        client: &Rc<Nic>,
        port_spec: NicSpec,
    ) -> (Path, Receiver<DatagramPayload>) {
        let flow = self.next_flow.get();
        self.next_flow.set(flow + 1);
        let (port, port_rx) = Nic::new(&self.sim, "server-port", port_spec);
        let mut path = Path::new(Rc::clone(client), port, self.latency)
            .via_shared(Rc::clone(&self.uplink), LinkDir::ToServer);
        path.flow = flow;
        (path, port_rx)
    }

    /// The shared server uplink.
    pub fn uplink(&self) -> &Rc<SharedLink> {
        &self.uplink
    }
}

/// Parameters of a multi-stage [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Clients per aggregation switch (the edge fan-in of each tier-1
    /// device).
    pub fanout: usize,
    /// Each aggregation switch's uplink rate into the core. Provisioned
    /// well above the core by default, so the *server's* uplink — not the
    /// fabric — stays the bottleneck, as in the flat [`Switch`] topology.
    pub agg_spec: NicSpec,
    /// The core uplink into the server (normally the server NIC's rate).
    pub core_spec: NicSpec,
    /// One-way propagation + store-and-forward latency end to end.
    pub latency: SimDuration,
    /// Lane scheduling policy applied to every fabric stage (the core
    /// uplink and each aggregation uplink).
    pub port_sched: PortPolicy,
}

impl FabricConfig {
    /// A fabric whose core uplink runs at `core_spec`'s rate: 1024-way
    /// aggregation switches with 10 Gb/s uplinks, default path latency,
    /// FIFO lanes.
    pub fn new(core_spec: NicSpec) -> FabricConfig {
        FabricConfig {
            fanout: 1024,
            agg_spec: NicSpec {
                bandwidth_bps: 10_000_000_000,
                mtu: core_spec.mtu,
            },
            core_spec,
            latency: Path::default_latency(),
            port_sched: PortPolicy::Fifo,
        }
    }
}

/// A two-tier switch fabric: clients → aggregation switches → one core
/// uplink → the server.
///
/// The flat [`Switch`] keeps one `Path` per client; at 10k–1M clients
/// that is the only per-client network state this topology needs, and
/// flyweight clients skip even that by traversing the shared stages
/// directly. Routing is O(1) by construction: client `id` hangs off
/// aggregation switch `id / fanout` (a dense index, no lookup table or
/// linear attach scan), and every aggregation switch uplinks into the
/// same core link. The client id doubles as the flow id every stage's
/// scheduler keys on, so DRR fairness works for flyweight and faithful
/// clients alike.
pub struct Fabric {
    sim: Sim,
    config: FabricConfig,
    core: Rc<SharedLink>,
    /// Aggregation-tier uplinks, indexed by `client / fanout`; grown on
    /// demand as higher client ids route through the fabric.
    aggs: RefCell<Vec<Rc<SharedLink>>>,
    /// Next client id to assign (ids are dense, in attach order).
    next_id: Cell<u32>,
}

impl Fabric {
    /// Creates a fabric; aggregation switches materialize lazily as
    /// client ids route through them.
    pub fn new(sim: &Sim, config: FabricConfig) -> Fabric {
        assert!(config.fanout > 0, "a fabric needs a positive fanout");
        let core =
            SharedLink::with_policy(sim, "core-uplink", config.core_spec, &config.port_sched);
        Fabric {
            sim: sim.clone(),
            config,
            core,
            aggs: RefCell::new(Vec::new()),
            next_id: Cell::new(0),
        }
    }

    /// The fabric's parameters.
    pub fn config(&self) -> FabricConfig {
        self.config.clone()
    }

    /// The core uplink into the server.
    pub fn core(&self) -> Rc<SharedLink> {
        Rc::clone(&self.core)
    }

    /// One-way path latency through the fabric.
    pub fn latency(&self) -> SimDuration {
        self.config.latency
    }

    /// The aggregation switch client `id` hangs off (created on first
    /// touch). O(1): the route is the index `id / fanout`. Returns a
    /// borrow, so the per-hop lookup costs no refcount traffic; a caller
    /// that keeps the link clones the `Rc`. A link creation registers
    /// nothing with the simulator, so when it happens is unobservable.
    ///
    /// Panics if it must create a switch while an earlier borrow is held.
    pub fn agg_of(&self, id: u32) -> Ref<'_, Rc<SharedLink>> {
        let idx = id as usize / self.config.fanout;
        if idx >= self.aggs.borrow().len() {
            let mut aggs = self.aggs.borrow_mut();
            while aggs.len() <= idx {
                aggs.push(SharedLink::with_policy(
                    &self.sim,
                    "agg-uplink",
                    self.config.agg_spec,
                    &self.config.port_sched,
                ));
            }
        }
        Ref::map(self.aggs.borrow(), |aggs| &aggs[idx])
    }

    /// Aggregation switches materialized so far.
    pub fn agg_count(&self) -> usize {
        self.aggs.borrow().len()
    }

    /// Reserves `n` dense client ids and returns the first. Flyweight
    /// tiers claim whole ranges; [`Fabric::attach`] claims one at a time.
    pub fn alloc_ids(&self, n: u32) -> u32 {
        let base = self.next_id.get();
        self.next_id.set(base + n);
        base
    }

    /// The client→server shared-link stages for `id`, in traversal
    /// order: its aggregation uplink, then the core.
    pub fn stages_to_server(&self, id: u32) -> Vec<(Rc<SharedLink>, LinkDir)> {
        vec![
            (Rc::clone(&self.agg_of(id)), LinkDir::ToServer),
            (self.core(), LinkDir::ToServer),
        ]
    }

    /// Attaches one full-fidelity client NIC: assigns the next client
    /// id, creates the server-side port NIC, and returns the
    /// client→server path routed through the aggregation tier and the
    /// core uplink, plus the port's receive queue. The id is the path's
    /// flow id.
    pub fn attach(
        &self,
        client: &Rc<Nic>,
        port_spec: NicSpec,
    ) -> (u32, Path, Receiver<DatagramPayload>) {
        let id = self.alloc_ids(1);
        let (port, port_rx) = Nic::new(&self.sim, "server-port", port_spec);
        let mut path = Path::new(Rc::clone(client), port, self.config.latency);
        path.via = self.stages_to_server(id).into();
        path.flow = id;
        (id, path, port_rx)
    }

    /// Resident bytes of the fabric's shared state: the core plus every
    /// materialized aggregation switch, each charged at the pinned
    /// structural model plus its live scheduler/sample state (see
    /// [`SharedLink::resident_bytes`] — the old version hand-waved 32
    /// bytes per lane and would undercount DRR deficit tables). Used by
    /// the flyweight tier's per-client memory accounting.
    pub fn resident_bytes(&self) -> usize {
        self.core.resident_bytes()
            + self
                .aggs
                .borrow()
                .iter()
                .map(|agg| agg.resident_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimDuration;

    #[test]
    fn shared_lane_serializes_concurrent_senders() {
        let sim = Sim::new();
        // Two gigabit clients into a 100 Mb/s uplink: the shared lane,
        // not the client NICs, must pace delivery.
        let sw = Switch::new(&sim, NicSpec::fast_ethernet(), SimDuration::ZERO);
        let (a, _arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (b, _brx) = Nic::new(&sim, "b", NicSpec::gigabit());
        let (pa, rxa) = sw.attach(&a, NicSpec::gigabit());
        let (pb, rxb) = sw.attach(&b, NicSpec::gigabit());
        assert_eq!(pa.flow, 0, "attach order assigns dense flow ids");
        assert_eq!(pb.flow, 1);
        pa.send(vec![1u8; 1400]);
        pb.send(vec![2u8; 1400]);
        sim.run_until(async move {
            rxa.recv().await.unwrap();
            rxb.recv().await.unwrap();
        });
        // Each 1466-wire-byte frame takes ~117 µs at 100 Mb/s on the
        // shared lane; two frames must take at least two lane slots even
        // though the senders serialized concurrently at 1 Gb/s.
        assert!(sim.now().as_nanos() >= 2 * 117_000);
        assert_eq!(sw.uplink().datagrams(LinkDir::ToServer), 2);
        assert_eq!(sw.uplink().bytes(LinkDir::ToServer), 2 * 1400);
        assert_eq!(sw.uplink().policy_label(), "port-fifo");
    }

    #[test]
    fn reply_direction_does_not_contend_with_requests() {
        let sim = Sim::new();
        let sw = Switch::new(&sim, NicSpec::fast_ethernet(), SimDuration::ZERO);
        let (a, arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (path, port_rx) = sw.attach(&a, NicSpec::gigabit());
        let reply = path.reversed();
        path.send(vec![1u8; 1400]);
        reply.send(vec![2u8; 1400]);
        sim.run_until(async move {
            port_rx.recv().await.unwrap();
            arx.recv().await.unwrap();
        });
        assert_eq!(sw.uplink().datagrams(LinkDir::ToServer), 1);
        assert_eq!(sw.uplink().datagrams(LinkDir::ToClients), 1);
        // Full duplex: both frames fit in barely more than one lane slot.
        assert!(sim.now().as_nanos() < 2 * 117_000 + 60_000);
    }

    #[test]
    fn flipped_swaps_directions() {
        assert_eq!(LinkDir::ToServer.flipped(), LinkDir::ToClients);
        assert_eq!(LinkDir::ToClients.flipped(), LinkDir::ToServer);
    }

    #[test]
    fn queue_sampling_is_off_by_default_and_strided_when_on() {
        let sim = Sim::new();
        let link = SharedLink::new(&sim, "l", NicSpec::fast_ethernet());
        let base = link.resident_bytes();
        let l = Rc::clone(&link);
        sim.run_until(async move {
            for _ in 0..4 {
                l.traverse(0, LinkDir::ToServer, 1500, 1400).await;
            }
        });
        assert_eq!(link.queue_delay_samples(LinkDir::ToServer), 0);
        assert_eq!(link.resident_bytes(), base, "sampling off adds no state");

        link.set_queue_sampling(2);
        let l = Rc::clone(&link);
        sim.run_until(async move {
            for _ in 0..4 {
                l.traverse(0, LinkDir::ToServer, 1500, 1400).await;
            }
        });
        assert_eq!(link.queue_delay_samples(LinkDir::ToServer), 2);
        assert!(link.resident_bytes() > base, "sample pool charged live");
        let digest = link.queue_delay(LinkDir::ToServer);
        assert_eq!(digest.p50, SimDuration::ZERO, "uncontended: zero delay");
    }

    /// The pinned structural model: under FIFO with sampling off, a
    /// link's resident charge must equal the semaphore-era figure
    /// (SharedLink was 136 bytes; each lane charged the 80-byte
    /// semaphore plus 32), keeping megafleet's memory column stable
    /// across the scheduler refactor and the semaphore's own.
    #[test]
    fn fifo_link_resident_bytes_match_semaphore_era_model() {
        let sim = Sim::new();
        let link = SharedLink::new(&sim, "l", NicSpec::gigabit());
        assert_eq!(
            link.resident_bytes(),
            360,
            "semaphore-era per-link footprint"
        );
    }

    #[test]
    fn drr_link_resident_bytes_charge_live_scheduler_state() {
        let sim = Sim::new();
        let link = SharedLink::with_policy(&sim, "l", NicSpec::fast_ethernet(), &PortPolicy::drr());
        let idle = link.resident_bytes();
        assert_eq!(idle, 360, "idle DRR holds no flow state yet");
        // Pile up a backlog from many flows, then check mid-flight.
        let l = Rc::clone(&link);
        let probe = Rc::new(Cell::new(0usize));
        let p = Rc::clone(&probe);
        sim.run_until(async move {
            for flow in 0..32u32 {
                let l2 = Rc::clone(&l);
                l.spawn_traverse_for_test(flow, &l2);
            }
            // Let the backlog form, then record the live charge.
            l.sim_for_test().sleep(SimDuration::from_micros(50)).await;
            p.set(l.resident_bytes());
            l.sim_for_test().sleep(SimDuration::from_millis(100)).await;
        });
        assert!(probe.get() > idle, "backlogged DRR charges deficit state");
    }

    #[test]
    fn fabric_routes_by_division_and_grows_lazily() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            &sim,
            FabricConfig {
                fanout: 4,
                ..FabricConfig::new(NicSpec::gigabit())
            },
        );
        assert_eq!(fabric.agg_count(), 0, "no switches before first route");
        let a = Rc::clone(&fabric.agg_of(0));
        let b = Rc::clone(&fabric.agg_of(3));
        let c = Rc::clone(&fabric.agg_of(4));
        assert!(Rc::ptr_eq(&a, &b), "ids 0..4 share one aggregation switch");
        assert!(!Rc::ptr_eq(&a, &c), "id 4 hangs off the next switch");
        assert_eq!(fabric.agg_count(), 2);
        // A far-off id materializes the whole index range below it.
        fabric.agg_of(41);
        assert_eq!(fabric.agg_count(), 11);
        // 11 aggs + the core, each at the pinned FIFO model.
        assert_eq!(fabric.resident_bytes(), 12 * 360);
    }

    #[test]
    fn fabric_stages_inherit_the_port_policy() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            &sim,
            FabricConfig {
                port_sched: PortPolicy::drr(),
                ..FabricConfig::new(NicSpec::gigabit())
            },
        );
        assert_eq!(fabric.core().policy_label(), "port-drr");
        assert_eq!(fabric.agg_of(0).policy_label(), "port-drr");
        assert_eq!(fabric.config().port_sched, PortPolicy::drr());
    }

    #[test]
    fn fabric_path_crosses_agg_then_core_and_reverses() {
        let sim = Sim::new();
        let fabric = Fabric::new(
            &sim,
            FabricConfig {
                fanout: 2,
                ..FabricConfig::new(NicSpec::fast_ethernet())
            },
        );
        let (cnic, crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (id, path, port_rx) = fabric.attach(&cnic, NicSpec::gigabit());
        assert_eq!(id, 0);
        assert_eq!(path.flow, id, "client id doubles as flow id");
        assert_eq!(path.via.len(), 2, "agg stage then core stage");
        let reply = path.reversed();
        assert_eq!(reply.via.len(), 2);
        // Reply unwinds inside out: core first, then the agg.
        assert!(Rc::ptr_eq(&reply.via[0].0, &fabric.core()));
        assert_eq!(reply.via[0].1, LinkDir::ToClients);
        path.send(vec![1u8; 1400]);
        sim.run_until(async move { port_rx.recv().await.unwrap() });
        assert_eq!(fabric.agg_of(id).datagrams(LinkDir::ToServer), 1);
        assert_eq!(fabric.core().datagrams(LinkDir::ToServer), 1);
        reply.send(vec![2u8; 200]);
        sim.run_until(async move { crx.recv().await.unwrap() });
        assert_eq!(fabric.core().datagrams(LinkDir::ToClients), 1);
        assert_eq!(fabric.agg_of(id).datagrams(LinkDir::ToClients), 1);
    }

    #[test]
    fn fabric_alloc_ids_reserves_dense_ranges() {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, FabricConfig::new(NicSpec::gigabit()));
        let (cnic, _crx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (first, _, _) = fabric.attach(&cnic, NicSpec::gigabit());
        let base = fabric.alloc_ids(100_000);
        let (next, _, _) = fabric.attach(&cnic, NicSpec::gigabit());
        assert_eq!(first, 0);
        assert_eq!(base, 1);
        assert_eq!(next, 100_001, "flyweight range reserved densely");
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use nfsperf_sim::proptest::{check, CaseOutcome};
    use nfsperf_sim::{prop_assert_eq, Semaphore};

    /// One arrival: (spawn delay µs, wire bytes, source flow).
    type Arrival = (u64, u64, u32);

    /// Runs an arrival script through a [`SharedLink`] lane under
    /// `policy`; returns each datagram's traverse-completion nanosecond,
    /// indexed by script position.
    fn run_script_lane(policy: &PortPolicy, script: &[Arrival]) -> Vec<u64> {
        let sim = Sim::new();
        let link = SharedLink::with_policy(&sim, "replay", NicSpec::fast_ethernet(), policy);
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; script.len()]));
        let mut handles = Vec::new();
        for (i, &(delay, wire, flow)) in script.iter().enumerate() {
            let sim2 = sim.clone();
            let link = Rc::clone(&link);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                link.traverse(flow, LinkDir::ToServer, wire as usize, wire as usize)
                    .await;
                done.borrow_mut()[i] = sim2.now().as_nanos();
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        Rc::try_unwrap(done).unwrap().into_inner()
    }

    /// The same script against the raw one-permit semaphore lane the
    /// link used before port scheduling existed (the old `traverse`
    /// body, verbatim). The semaphore is a FIFO arbiter now, held to its
    /// pre-slab rules by `nfsperf_sim`'s reference replay.
    fn run_script_semaphore(script: &[Arrival]) -> Vec<u64> {
        let sim = Sim::new();
        let spec = NicSpec::fast_ethernet();
        let wire_sem = Rc::new(Semaphore::new(1));
        let done: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(vec![0; script.len()]));
        let mut handles = Vec::new();
        for (i, &(delay, wire, _flow)) in script.iter().enumerate() {
            let sim2 = sim.clone();
            let wire_sem = Rc::clone(&wire_sem);
            let done = Rc::clone(&done);
            handles.push(sim.spawn(async move {
                sim2.sleep(SimDuration::from_micros(delay)).await;
                {
                    let _wire = wire_sem.acquire().await;
                    sim2.sleep(spec.transfer_time(wire as usize)).await;
                }
                done.borrow_mut()[i] = sim2.now().as_nanos();
            }));
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        Rc::try_unwrap(done).unwrap().into_inner()
    }

    /// FIFO bit-compatibility: on randomized arrival scripts — bursts of
    /// simultaneous arrivals, barging, slot steals and all — the
    /// engine-backed FIFO lane must complete every datagram at the
    /// identical simulated nanosecond the raw semaphore lane did.
    #[test]
    fn prop_port_fifo_replays_semaphore_lane() {
        check(
            "prop_port_fifo_replays_semaphore_lane",
            |g| {
                g.vec(1, 24, |g| {
                    (g.u64_in(0, 300), g.u64_in(64, 9000), g.u32_in(0, 3))
                })
            },
            |script| {
                prop_assert_eq!(
                    run_script_lane(&PortPolicy::Fifo, script),
                    run_script_semaphore(script)
                );
                CaseOutcome::Pass
            },
        );
    }

    /// Fixed-script FIFO replay for the scenarios the property test may
    /// not hit every run: simultaneous arrivals and barge-prone gaps.
    #[test]
    fn port_fifo_replays_semaphore_on_barge_heavy_scripts() {
        let scripts: &[&[Arrival]] = &[
            &[(0, 1500, 0), (0, 1500, 1), (0, 1500, 2), (0, 1500, 0)],
            &[
                (0, 9000, 0),
                (100, 64, 1),
                (100, 64, 2),
                (700, 1500, 0),
                (701, 64, 1),
            ],
            &[
                (0, 64, 0),
                (1, 64, 0),
                (2, 64, 0),
                (3, 9000, 1),
                (3, 64, 2),
                (500, 128, 0),
            ],
        ];
        for (i, script) in scripts.iter().enumerate() {
            assert_eq!(
                run_script_lane(&PortPolicy::Fifo, script),
                run_script_semaphore(script),
                "script {i}"
            );
        }
    }

    /// S2 regression: meter/datagram accounting must be ordered with the
    /// scheduler's dequeues. A victim flow promoted past a hog backlog by
    /// DRR must observe, the instant its traverse returns, a byte meter
    /// equal to exactly the datagrams served before it plus itself — not
    /// a count lagging (or racing ahead of) the dequeue order.
    #[test]
    fn drr_meter_advances_in_dequeue_order() {
        let sim = Sim::new();
        // Quantum = one victim frame: the hand trace below is exact.
        let link = SharedLink::with_policy(
            &sim,
            "uplink",
            NicSpec::fast_ethernet(),
            &PortPolicy::Drr { quantum: 1500 },
        );
        const HOG_BYTES: u64 = 9000;
        const VICTIM_BYTES: u64 = 1500;
        // Hog floods eight jumbo frames at t=0; the victim's single small
        // frame arrives a hair later, behind the whole backlog.
        let mut handles = Vec::new();
        for _ in 0..8 {
            let link = Rc::clone(&link);
            handles.push(sim.spawn(async move {
                link.traverse(0, LinkDir::ToServer, HOG_BYTES as usize, HOG_BYTES as usize)
                    .await;
            }));
        }
        let observed: Rc<Cell<(u64, u64)>> = Rc::new(Cell::new((0, 0)));
        let obs = Rc::clone(&observed);
        let l = Rc::clone(&link);
        let s = sim.clone();
        handles.push(sim.spawn(async move {
            s.sleep(SimDuration::from_micros(1)).await;
            l.traverse(
                1,
                LinkDir::ToServer,
                VICTIM_BYTES as usize,
                VICTIM_BYTES as usize,
            )
            .await;
            obs.set((l.datagrams(LinkDir::ToServer), l.bytes(LinkDir::ToServer)));
        }));
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        let (datagrams_at_victim, bytes_at_victim) = observed.get();
        // DRR promotes the victim past the hog backlog: it completes
        // second, not ninth as FIFO would have it.
        assert_eq!(
            datagrams_at_victim, 2,
            "victim served right after the in-service hog frame"
        );
        // The meter at that instant covers exactly the dequeues so far:
        // one hog frame plus the victim. Nothing lagging, nothing early.
        assert_eq!(
            bytes_at_victim,
            HOG_BYTES + VICTIM_BYTES,
            "meter must match the dequeue prefix"
        );
        // Final accounting covers everything.
        assert_eq!(link.datagrams(LinkDir::ToServer), 9);
        assert_eq!(link.bytes(LinkDir::ToServer), 8 * HOG_BYTES + VICTIM_BYTES);
    }

    /// Two backlogged flows under DRR share the lane near 50/50 in bytes
    /// even when one sends frames six times larger.
    #[test]
    fn drr_lane_is_byte_fair_across_frame_sizes() {
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let link = SharedLink::with_policy(
            &sim,
            "uplink",
            NicSpec::fast_ethernet(),
            &PortPolicy::Drr { quantum: 9000 },
        );
        let mut handles = Vec::new();
        for (flow, wire, count) in [(0u32, 9000usize, 6u32), (1, 1500, 36)] {
            for _ in 0..count {
                let link = Rc::clone(&link);
                let order = Rc::clone(&order);
                handles.push(sim.spawn(async move {
                    link.traverse(flow, LinkDir::ToServer, wire, wire).await;
                    order.borrow_mut().push(flow);
                }));
            }
        }
        sim.run_until(async move {
            for h in handles {
                h.await;
            }
        });
        // In every prefix after the first rotation, flow 0's served bytes
        // (9000/frame) and flow 1's (1500/frame) stay within one quantum
        // plus one max frame of each other.
        let mut served = [0i64, 0i64];
        for (i, &flow) in order.borrow().iter().enumerate() {
            served[flow as usize] += if flow == 0 { 9000 } else { 1500 };
            if (2..40).contains(&i) {
                assert!(
                    (served[0] - served[1]).abs() <= 9000 + 9000,
                    "byte divergence {} at prefix {i}",
                    served[0] - served[1]
                );
            }
        }
    }
}

#[cfg(test)]
impl SharedLink {
    /// Test helper: spawn a traversal of one full-MTU frame from `flow`.
    fn spawn_traverse_for_test(&self, flow: u32, link: &Rc<SharedLink>) {
        let link = Rc::clone(link);
        self.sim.spawn(async move {
            link.traverse(flow, LinkDir::ToServer, 1500, 1400).await;
        });
    }

    fn sim_for_test(&self) -> Sim {
        self.sim.clone()
    }
}
