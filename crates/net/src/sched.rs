//! Per-port scheduling policy for shared-link lanes.
//!
//! Every contended lane of a [`crate::SharedLink`] — the flat fleet
//! switch uplink and both tiers of the multi-stage fabric — is a
//! one-slot [`nfsperf_sim::arbiter::Arbiter`], the same arbiter the
//! server's service engine runs over its slots. [`PortPolicy`] picks the
//! arbiter's order:
//!
//! - `port-fifo` — arrival order, bit-compatible with the bare
//!   `Semaphore` the lane used before port scheduling existed, which is
//!   now a FIFO arbiter itself (asserted by a replay property test, by
//!   `nfsperf_sim`'s replay of the semaphore against its pre-slab
//!   reference, and by byte-identical sweep CSVs under the default
//!   policy);
//! - `port-drr` — deficit round robin keyed by the datagram's *source
//!   flow id* with byte-weighted quanta: a flow sending jumbo datagrams
//!   and a flow sending small ones get equal wire *bytes*, not equal
//!   frames;
//! - `port-wrr` — the same DRR driven by a per-flow [`WeightTable`]: each
//!   rotation tops a flow's deficit up by `quantum × weight`, so an SLA
//!   can hand one client 4× the wire share of another.

pub use nfsperf_sim::arbiter::{Ticket as PortTicket, WeightTable};

use nfsperf_sim::arbiter::{Order, DEFAULT_QUANTUM};

/// Port scheduling policy selection, carried by switch and fabric
/// configs (and the `--port-sched` CLI flag).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum PortPolicy {
    /// Arrival order (the default; the paper's Summit7i serves frames
    /// FIFO, and the reproduced figures must not move).
    #[default]
    Fifo,
    /// Deficit round robin across source flows.
    Drr {
        /// Wire-byte credit added per ring rotation.
        quantum: u64,
    },
    /// Weighted DRR from a per-flow weight table.
    Wrr {
        /// Base wire-byte credit added per ring rotation (scaled by each
        /// flow's weight).
        quantum: u64,
        /// Per-flow weights.
        weights: WeightTable,
    },
}

impl PortPolicy {
    /// DRR with the default quantum.
    pub fn drr() -> PortPolicy {
        PortPolicy::Drr {
            quantum: DEFAULT_QUANTUM,
        }
    }

    /// WRR with the default quantum and the given table.
    pub fn wrr(weights: WeightTable) -> PortPolicy {
        PortPolicy::Wrr {
            quantum: DEFAULT_QUANTUM,
            weights,
        }
    }

    /// Policy name for reports and CSV cells.
    pub fn label(&self) -> &'static str {
        match self {
            PortPolicy::Fifo => "port-fifo",
            PortPolicy::Drr { .. } => "port-drr",
            PortPolicy::Wrr { .. } => "port-wrr",
        }
    }

    /// Parses a CLI policy name (`port-fifo`, `port-drr`, `port-wrr`;
    /// the bare `fifo`/`drr`/`wrr` spellings also work), with default
    /// parameters — a parsed WRR starts from the uniform table and takes
    /// real weights from the experiment config.
    pub fn parse(s: &str) -> Option<PortPolicy> {
        match s {
            "port-fifo" | "fifo" => Some(PortPolicy::Fifo),
            "port-drr" | "drr" => Some(PortPolicy::drr()),
            "port-wrr" | "wrr" => Some(PortPolicy::wrr(WeightTable::uniform())),
            _ => None,
        }
    }

    /// Builds one lane's arbiter order: DRR keyed by source flow, one
    /// class, no in-flight quota.
    pub fn build(&self) -> Order {
        match self {
            PortPolicy::Fifo => Order::fifo(),
            PortPolicy::Drr { quantum } => Order::drr(*quantum, WeightTable::uniform(), 1, None),
            PortPolicy::Wrr { quantum, weights } => Order::drr(*quantum, weights.clone(), 1, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_and_label_roundtrip() {
        for (s, label) in [
            ("port-fifo", "port-fifo"),
            ("fifo", "port-fifo"),
            ("port-drr", "port-drr"),
            ("drr", "port-drr"),
            ("port-wrr", "port-wrr"),
            ("wrr", "port-wrr"),
        ] {
            assert_eq!(PortPolicy::parse(s).expect("parse").label(), label);
        }
        assert!(PortPolicy::parse("edf").is_none());
        assert_eq!(PortPolicy::default(), PortPolicy::Fifo);
    }
}
