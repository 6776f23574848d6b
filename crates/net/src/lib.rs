//! Simulated network substrate: NICs, links, fragmentation, byte meters.
//!
//! The test bed of the paper is a gigabit Ethernet switch (Extreme
//! Networks Summit7i) connecting a dual-CPU client, a Network Appliance
//! F85 filer, and a four-way Linux NFS server whose NIC sits in a slow
//! 32-bit/33 MHz PCI slot. [`NicSpec`] captures each interface; transfers
//! pay for serialization at the sender, propagation through the switch,
//! and drain time at the (possibly slower) receiver, with IP fragmentation
//! computed from real datagram sizes ([`frame`]).

pub mod frame;
pub mod nic;
pub mod sched;
pub mod switch;

pub use frame::{
    fragments_for, pool_copy, pool_get, pool_get_for, pool_len, pool_put, wire_bytes,
    ETHERNET_OVERHEAD, IP_HEADER, SEGMENT_BYTES, UDP_HEADER,
};
pub use nic::{DatagramPayload, Nic, NicSpec};
pub use sched::{PortPolicy, PortTicket, WeightTable};
pub use switch::{Fabric, FabricConfig, LaneAdmit, LinkDir, SharedLink, Switch};

use nfsperf_sim::SimDuration;

/// A configured path between two NICs: who to send to and how far away.
///
/// The switch adds a fixed store-and-forward latency; the paper's
/// Summit7i is a few microseconds, and end-host interrupt coalescing adds
/// tens more, so the default one-way latency is 30 µs. A path may also
/// route `via` an ordered list of [`SharedLink`] stages — a single server
/// uplink for the flat fleet [`Switch`], or an aggregation switch *and*
/// the core uplink for the multi-stage [`switch::Fabric`] — in which case
/// every datagram additionally queues for each stage's directional lane,
/// in order.
#[derive(Clone)]
pub struct Path {
    /// The local interface.
    pub local: std::rc::Rc<Nic>,
    /// The remote interface.
    pub remote: std::rc::Rc<Nic>,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
    /// Shared bottleneck stages traversed between the endpoints, in
    /// transmit order (empty for a point-to-point path). Shared, so each
    /// datagram's hop holds the route by a reference count, not a copy.
    pub via: std::rc::Rc<[(std::rc::Rc<SharedLink>, LinkDir)]>,
    /// Source flow id the shared stages' schedulers key on — the
    /// client's dense id in a fleet (assigned by [`Switch::attach`] /
    /// [`switch::Fabric::attach`]); 0 for point-to-point paths, where no
    /// scheduler ever sees it.
    pub flow: u32,
}

impl Path {
    /// A direct path between two NICs (no shared bottleneck).
    pub fn new(local: std::rc::Rc<Nic>, remote: std::rc::Rc<Nic>, latency: SimDuration) -> Path {
        Path {
            local,
            remote,
            latency,
            via: std::rc::Rc::new([]),
            flow: 0,
        }
    }

    /// Appends a shared-link stage in direction `dir`; stages are
    /// traversed in the order they were added.
    pub fn via_shared(mut self, link: std::rc::Rc<SharedLink>, dir: LinkDir) -> Path {
        let mut via = self.via.to_vec();
        via.push((link, dir));
        self.via = via.into();
        self
    }

    /// Default one-way latency through the test-bed switch.
    pub fn default_latency() -> SimDuration {
        SimDuration::from_micros(30)
    }

    /// Sends one datagram along the path (asynchronously).
    pub fn send(&self, payload: DatagramPayload) {
        self.local
            .transmit_routed(&self.remote, self.latency, &self.via, self.flow, payload);
    }

    /// The reverse path: the same shared-link stages in reverse order,
    /// each on its opposite lane (replies unwind the fabric inside out).
    /// Replies keep the forward flow id: a reply lane shared by many
    /// clients schedules by the client the reply belongs to.
    pub fn reversed(&self) -> Path {
        Path {
            local: std::rc::Rc::clone(&self.remote),
            remote: std::rc::Rc::clone(&self.local),
            latency: self.latency,
            via: self
                .via
                .iter()
                .rev()
                .map(|(link, dir)| (std::rc::Rc::clone(link), dir.flipped()))
                .collect(),
            flow: self.flow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfsperf_sim::Sim;

    #[test]
    fn path_send_and_reverse() {
        let sim = Sim::new();
        let (a, arx) = Nic::new(&sim, "a", NicSpec::gigabit());
        let (b, brx) = Nic::new(&sim, "b", NicSpec::gigabit());
        let ab = Path::new(a, b, Path::default_latency());
        let ba = ab.reversed();
        ab.send(vec![1; 10]);
        ba.send(vec![2; 20]);
        let (got_b, got_a) =
            sim.run_until(async move { (brx.recv().await.unwrap(), arx.recv().await.unwrap()) });
        assert_eq!(got_b, vec![1; 10]);
        assert_eq!(got_a, vec![2; 20]);
    }
}
