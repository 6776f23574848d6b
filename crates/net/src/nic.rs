//! Simulated network interfaces and point-to-point transmission.
//!
//! Each [`Nic`] has an egress rate, an ingress rate and an MTU. A
//! transmission serializes on the sender's egress link, crosses the switch
//! after a propagation delay, drains through the receiver's ingress link
//! (which is where a slow NIC or PCI bus backlogs — the knfsd in the paper
//! sits on a 32-bit/33 MHz PCI slot), and lands in the receiver's queue.
//!
//! `transmit` never blocks the calling task: like a real `sock_sendmsg`
//! over UDP, the caller pays only CPU time (charged by the RPC layer) and
//! the wire drains asynchronously. Backpressure comes from higher layers
//! (the RPC slot table), exactly as in the reproduced system.

use std::cell::RefCell;
use std::rc::Rc;

use nfsperf_sim::{
    channel, ByteMeter, Counter, Receiver, Semaphore, Sender, Sim, SimDuration, SimTime,
};

use crate::frame::{fragments_for, pool_put, wire_bytes};

/// Static description of a NIC.
#[derive(Debug, Clone, Copy)]
pub struct NicSpec {
    /// Link rate in bits per second.
    pub bandwidth_bps: u64,
    /// Maximum transmission unit in bytes.
    pub mtu: usize,
}

impl NicSpec {
    /// Gigabit Ethernet, standard frames — the paper's client and filer.
    pub fn gigabit() -> NicSpec {
        NicSpec {
            bandwidth_bps: 1_000_000_000,
            mtu: 1500,
        }
    }

    /// Gigabit Ethernet with 9000-byte jumbo frames (the paper's proposed
    /// future work; our ablation).
    pub fn gigabit_jumbo() -> NicSpec {
        NicSpec {
            bandwidth_bps: 1_000_000_000,
            mtu: 9000,
        }
    }

    /// Fast Ethernet — the paper's "slow server" comparison point.
    pub fn fast_ethernet() -> NicSpec {
        NicSpec {
            bandwidth_bps: 100_000_000,
            mtu: 1500,
        }
    }

    /// A gigabit NIC throttled by its host bus to `bytes_per_sec` of
    /// sustained throughput (models the knfsd's 32-bit/33 MHz PCI slot).
    pub fn bus_limited(bytes_per_sec: u64) -> NicSpec {
        NicSpec {
            bandwidth_bps: bytes_per_sec * 8,
            mtu: 1500,
        }
    }

    /// Time to move `wire_len` bytes at this link's rate.
    pub fn transfer_time(&self, wire_len: usize) -> SimDuration {
        SimDuration((wire_len as u64 * 8 * 1_000_000_000).div_ceil(self.bandwidth_bps))
    }
}

/// A received datagram: the UDP payload bytes.
pub type DatagramPayload = Vec<u8>;

/// A simulated network interface.
pub struct Nic {
    sim: Sim,
    /// Interface name (for reports).
    pub name: &'static str,
    spec: NicSpec,
    tx_link: Rc<Semaphore>,
    rx_link: Rc<Semaphore>,
    rx_push: Sender<DatagramPayload>,
    tx_meter: Rc<ByteMeter>,
    rx_meter: Rc<ByteMeter>,
    /// Departure log: (when serialization finished, payload bytes) —
    /// the tcpdump's-eye view used to confirm client stalls do not
    /// appear on the wire. `None` unless the owner asked for it with
    /// [`Nic::log_departures`]: it grows by one entry per datagram for
    /// the whole run, so no NIC keeps it by default.
    tx_log: RefCell<Option<Vec<(SimTime, usize)>>>,
    tx_fragments: Rc<Counter>,
    drops: Rc<Counter>,
    /// When set, each IP fragment is lost with this probability and a
    /// datagram survives only if all its fragments do (loss-path testing
    /// and the transport sweep; zero in all paper experiments).
    loss_probability: f64,
    rng_seed: u64,
    drop_rng: Rc<nfsperf_sim::SimRng>,
}

impl Nic {
    /// Creates a NIC, returning it and the receive queue its owner (the
    /// protocol stack above it) should drain.
    pub fn new(
        sim: &Sim,
        name: &'static str,
        spec: NicSpec,
    ) -> (Rc<Nic>, Receiver<DatagramPayload>) {
        Nic::with_loss(sim, name, spec, 0.0, 0)
    }

    /// Like [`Nic::new`] with a per-fragment loss probability (for tests
    /// of the RPC retransmission path and the UDP-vs-TCP loss sweep).
    pub fn with_loss(
        sim: &Sim,
        name: &'static str,
        spec: NicSpec,
        loss_probability: f64,
        rng_seed: u64,
    ) -> (Rc<Nic>, Receiver<DatagramPayload>) {
        let (tx, rx) = channel();
        let nic = Rc::new(Nic {
            sim: sim.clone(),
            name,
            spec,
            tx_link: Rc::new(Semaphore::new(1)),
            rx_link: Rc::new(Semaphore::new(1)),
            rx_push: tx,
            tx_meter: Rc::new(ByteMeter::new()),
            rx_meter: Rc::new(ByteMeter::new()),
            tx_log: RefCell::new(None),
            tx_fragments: Rc::new(Counter::new()),
            drops: Rc::new(Counter::new()),
            loss_probability,
            rng_seed,
            drop_rng: Rc::new(nfsperf_sim::SimRng::new(rng_seed ^ 0x6e65_7472_6e67)),
        });
        (nic, rx)
    }

    /// The NIC's static description.
    pub fn spec(&self) -> NicSpec {
        self.spec
    }

    /// Transmits `payload` to `dst` over a path with the given propagation
    /// `latency`. Returns immediately; delivery happens asynchronously.
    pub fn transmit(
        self: &Rc<Self>,
        dst: &Rc<Nic>,
        latency: SimDuration,
        payload: DatagramPayload,
    ) {
        self.transmit_routed(dst, latency, &Rc::from([]), 0, payload);
    }

    /// Like [`Nic::transmit`], additionally queueing for each shared
    /// bottleneck stage between serialization and propagation, in order —
    /// the switch-uplink hop every client in a fleet contends for, or the
    /// aggregation-then-core ladder of a multi-stage fabric. `flow` is
    /// the source flow id each stage's scheduler keys on.
    pub fn transmit_routed(
        self: &Rc<Self>,
        dst: &Rc<Nic>,
        latency: SimDuration,
        via: &Rc<[(Rc<crate::SharedLink>, crate::LinkDir)]>,
        flow: u32,
        payload: DatagramPayload,
    ) {
        let src = Rc::clone(self);
        let dst = Rc::clone(dst);
        let via = Rc::clone(via);
        let sim = self.sim.clone();
        self.sim.spawn_detached(async move {
            let wire_len = wire_bytes(payload.len(), src.spec.mtu);
            src.tx_fragments
                .add(fragments_for(payload.len(), src.spec.mtu) as u64);

            // Serialize onto our own wire.
            {
                let _tx = src.tx_link.acquire().await;
                sim.sleep(src.spec.transfer_time(wire_len)).await;
            }
            src.tx_meter.record(sim.now(), payload.len() as u64);
            if let Some(log) = src.tx_log.borrow_mut().as_mut() {
                log.push((sim.now(), payload.len()));
            }

            // Loss is sampled per IP fragment: a datagram survives only
            // if every fragment does, so a multi-fragment UDP datagram
            // (e.g. a 32 KB WRITE) is far more exposed than a
            // single-fragment TCP segment at the same wire loss rate —
            // one lost fragment destroys the whole datagram at
            // reassembly. All fragments are sampled so RNG consumption
            // depends only on the datagram's size.
            if src.loss_probability > 0.0 {
                let mut lost = false;
                for _ in 0..fragments_for(payload.len(), src.spec.mtu) {
                    lost |= src.drop_rng.chance(src.loss_probability);
                }
                if lost {
                    src.drops.inc();
                    // The datagram dies here; its buffer does not.
                    pool_put(payload);
                    return;
                }
            }

            // Queue for each shared bottleneck stage (aggregation switch,
            // then the server's core uplink), in path order. Lost
            // datagrams were dropped before reaching the first stage, as
            // on a real ingress port.
            for (link, dir) in via.iter() {
                link.traverse(flow, *dir, wire_len, payload.len()).await;
            }

            // Propagate through the switch.
            sim.sleep(latency).await;

            // Drain through the receiver's (possibly slower) side; the
            // switch buffers the queue that forms here.
            {
                let _rx = dst.rx_link.acquire().await;
                sim.sleep(dst.spec.transfer_time(wire_len)).await;
            }
            dst.rx_meter.record(sim.now(), payload.len() as u64);
            dst.rx_push.send(payload);
        });
    }

    /// Payload bytes transmitted (excluding framing).
    pub fn tx_bytes(&self) -> u64 {
        self.tx_meter.bytes()
    }

    /// Payload bytes received (excluding framing).
    pub fn rx_bytes(&self) -> u64 {
        self.rx_meter.bytes()
    }

    /// Mean transmit throughput over the active period, MB/s.
    pub fn tx_throughput_mbps(&self) -> f64 {
        self.tx_meter.throughput_mbps()
    }

    /// Mean receive throughput over the active period, MB/s.
    pub fn rx_throughput_mbps(&self) -> f64 {
        self.rx_meter.throughput_mbps()
    }

    /// Starts this NIC's departure log: from now on every datagram that
    /// finishes serializing is recorded with its payload size, for
    /// [`Nic::tx_events`] and [`Nic::max_tx_gap`]. The log costs 16 bytes
    /// per datagram for the rest of the run, so only a NIC whose owner
    /// reads it asks: the fleet's calibration probe and the single-client
    /// scenario worlds. Asking again keeps what is logged.
    pub fn log_departures(&self) {
        self.tx_log.borrow_mut().get_or_insert_with(Vec::new);
    }

    /// Departure log: when each datagram finished serializing, with its
    /// payload size — the on-the-wire view of client behaviour.
    ///
    /// # Panics
    ///
    /// Panics if the NIC never asked for a log ([`Nic::log_departures`]):
    /// an empty answer would read as a silent wire.
    pub fn tx_events(&self) -> Vec<(SimTime, usize)> {
        self.with_log(<[_]>::to_vec)
    }

    /// Largest gap between consecutive datagram departures of at least
    /// `min_bytes` payload (`None` with fewer than two such departures).
    ///
    /// # Panics
    ///
    /// Panics if the NIC never asked for a log, as [`Nic::tx_events`]
    /// does.
    pub fn max_tx_gap(&self, min_bytes: usize) -> Option<SimDuration> {
        self.with_log(|log| {
            let departures: Vec<SimTime> = log
                .iter()
                .filter(|(_, len)| *len >= min_bytes)
                .map(|&(t, _)| t)
                .collect();
            departures.windows(2).map(|w| w[1].since(w[0])).max()
        })
    }

    fn with_log<R>(&self, f: impl FnOnce(&[(SimTime, usize)]) -> R) -> R {
        match self.tx_log.borrow().as_deref() {
            Some(log) => f(log),
            None => panic!(
                "NIC {} keeps no departure log: call Nic::log_departures before the run",
                self.name
            ),
        }
    }

    /// IP fragments generated by this NIC so far.
    pub fn fragments_sent(&self) -> u64 {
        self.tx_fragments.get()
    }

    /// Datagrams dropped by injected loss.
    pub fn drops(&self) -> u64 {
        self.drops.get()
    }

    /// The seed used for this NIC's loss process.
    pub fn rng_seed(&self) -> u64 {
        self.rng_seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::SimTime;

    #[test]
    fn spec_transfer_time() {
        let g = NicSpec::gigabit();
        // 1250 bytes = 10,000 bits at 1 Gb/s = 10 µs.
        assert_eq!(g.transfer_time(1250).as_nanos(), 10_000);
        let f = NicSpec::fast_ethernet();
        assert_eq!(f.transfer_time(1250).as_nanos(), 100_000);
    }

    #[test]
    fn delivery_takes_tx_latency_rx() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "server", NicSpec::gigabit());
        a.transmit(&b, SimDuration::from_micros(50), vec![0u8; 1422]);
        let got = sim.run_until(async move { brx.recv().await });
        assert_eq!(got.unwrap().len(), 1422);
        // wire = 1422 + 8 + 20 + 38 = 1488B -> 11.904us each side + 50us.
        let expect = 11_904 + 50_000 + 11_904;
        assert_eq!(sim.now(), SimTime(expect));
    }

    #[test]
    fn slow_receiver_paces_throughput() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "slow", NicSpec::fast_ethernet());
        for _ in 0..10 {
            a.transmit(&b, SimDuration::from_micros(10), vec![0u8; 1422]);
        }
        let n = sim.run_until(async move {
            let mut n = 0;
            while n < 10 {
                brx.recv().await.unwrap();
                n += 1;
            }
            n
        });
        assert_eq!(n, 10);
        // Ten 1488-byte frames at 100 Mb/s ingress ≈ 119 µs each; the
        // total must be dominated by the receiver, not the sender.
        assert!(sim.now().as_nanos() > 10 * 119_000);
        assert!(b.rx_bytes() == 10 * 1422);
    }

    #[test]
    fn fragments_counted() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "server", NicSpec::gigabit());
        a.transmit(&b, SimDuration::ZERO, vec![0u8; 8248]);
        sim.run_until(async move { brx.recv().await });
        assert_eq!(a.fragments_sent(), 6);
    }

    #[test]
    fn jumbo_frames_send_one_fragment() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit_jumbo());
        let (b, brx) = Nic::new(&sim, "server", NicSpec::gigabit_jumbo());
        a.transmit(&b, SimDuration::ZERO, vec![0u8; 8248]);
        sim.run_until(async move { brx.recv().await });
        assert_eq!(a.fragments_sent(), 1);
    }

    #[test]
    fn transmit_does_not_block_caller() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (b, _brx) = Nic::new(&sim, "server", NicSpec::gigabit());
        let s = sim.clone();
        sim.run_until(async move {
            for _ in 0..100 {
                a.transmit(&b, SimDuration::from_micros(50), vec![0u8; 8248]);
            }
            // The caller spent no simulated time queueing transmissions.
            assert_eq!(s.now(), SimTime::ZERO);
            s.sleep(SimDuration::from_millis(100)).await;
        });
    }

    #[test]
    fn injected_loss_drops_datagrams() {
        let sim = Sim::new();
        let (a, _arx) = Nic::with_loss(&sim, "lossy", NicSpec::gigabit(), 1.0, 7);
        let (b, brx) = Nic::new(&sim, "server", NicSpec::gigabit());
        a.transmit(&b, SimDuration::ZERO, vec![0u8; 100]);
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(SimDuration::from_millis(1)).await;
        });
        assert_eq!(a.drops(), 1);
        assert!(brx.is_empty());
    }

    #[test]
    fn ordering_preserved_point_to_point() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "client", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "server", NicSpec::gigabit());
        for i in 0..5u8 {
            a.transmit(&b, SimDuration::from_micros(10), vec![i; 64]);
        }
        let order = sim.run_until(async move {
            let mut order = Vec::new();
            for _ in 0..5 {
                order.push(brx.recv().await.unwrap()[0]);
            }
            order
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    /// Sends three 1,000-byte datagrams from `a` to `b` and runs until
    /// `b` has them.
    fn send_three(sim: &Sim, a: &Rc<Nic>, b: &Rc<Nic>, brx: Receiver<DatagramPayload>) {
        for _ in 0..3 {
            a.transmit(b, SimDuration::from_micros(10), vec![0u8; 1000]);
        }
        sim.run_until(async move {
            for _ in 0..3 {
                brx.recv().await.unwrap();
            }
        });
    }

    #[test]
    fn tx_events_record_departures() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "b", NicSpec::gigabit());
        a.log_departures();
        send_three(&sim, &a, &b, brx);
        let events = a.tx_events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[1].0 >= w[0].0), "ordered");
        assert!(a.max_tx_gap(1).is_some());
        assert!(a.max_tx_gap(100_000).is_none(), "no big datagrams");
        assert!(b.tx_log.borrow().is_none(), "only the NIC that asked logs");
    }

    #[test]
    fn max_tx_gap_is_the_widest_spacing_of_large_departures() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "b", NicSpec::gigabit());
        a.log_departures();
        let s = sim.clone();
        sim.run_until(async move {
            for (at_us, len) in [(0, 5000), (40, 64), (100, 5000), (400, 5000)] {
                s.sleep_until(SimTime(at_us * 1000)).await;
                a.transmit(&b, SimDuration::ZERO, vec![0u8; len]);
            }
            for _ in 0..4 {
                brx.recv().await.unwrap();
            }
            // Each 5,000-byte datagram serializes for the same time, so
            // departure gaps equal send gaps: 100 µs, then 300 µs.
            assert_eq!(a.max_tx_gap(4096), Some(SimDuration::from_micros(300)));
            assert_eq!(a.max_tx_gap(1), Some(SimDuration::from_micros(300)));
        });
    }

    #[test]
    fn a_nic_that_never_asked_keeps_no_departure_log() {
        let sim = Sim::new();
        let (a, _arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "b", NicSpec::gigabit());
        send_three(&sim, &a, &b, brx);
        assert_eq!(a.tx_bytes(), 3000, "the datagrams left");
        assert!(a.tx_log.borrow().is_none(), "nothing kept per datagram");
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.tx_events()));
        assert!(read.is_err(), "reading a log never asked for panics");
        let gap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.max_tx_gap(1)));
        assert!(gap.is_err(), "so does its gap");
    }
}
