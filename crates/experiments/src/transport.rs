//! UDP-versus-TCP transport ablation under packet loss.
//!
//! The paper's testbed ran NFS over UDP on a clean gigabit link, where
//! RPC-layer retransmission is nearly free. This sweep asks what that
//! choice costs when the link is *not* clean: each lost datagram over UDP
//! stalls a whole RPC until the 700 ms retransmit timer fires (and a
//! jumbo-frame write loses 9 KB per drop), while TCP recovers at segment
//! granularity with fast retransmit and a sub-second adaptive RTO.
//!
//! Three mounts — UDP, UDP with jumbo frames, TCP — run the same
//! write-then-flush workload at loss rates from 0 to 5%. At zero loss the
//! transports should be within a rounding error of each other (same CPU
//! costs, same BKL structure); as loss rises UDP's throughput collapses
//! and TCP's degrades gracefully.

use nfsperf_client::ClientTuning;
use nfsperf_sim::runner;
use nfsperf_sunrpc::Transport;

use crate::render::ascii_table;
use crate::scenario::{run_bonnie, RunOutput, Scenario, ServerKind};

/// Loss rates swept by [`transport_sweep`]'s callers: clean link, one in a
/// thousand, one in a hundred, one in twenty.
pub const LOSS_RATES: &[f64] = &[0.0, 0.001, 0.01, 0.05];

/// One (mount flavour, loss rate) cell of the sweep.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// Mount flavour: "udp", "udp+jumbo" or "tcp".
    pub label: &'static str,
    /// Client-side datagram loss probability.
    pub loss: f64,
    /// Sequential write throughput (dirtying pages, mostly async).
    pub write_mbps: f64,
    /// Flush throughput — the loss-sensitive number: every lost request
    /// or reply stalls completion.
    pub flush_mbps: f64,
    /// RPC-layer retransmissions (UDP timer fires; TCP connection replays).
    pub rpc_retransmits: u64,
    /// Datagrams dropped by the client NIC.
    pub drops: u64,
    /// TCP segment-level retransmissions (0 for UDP mounts).
    pub tcp_retransmits: u64,
    /// TCP fast retransmits out of those (triple duplicate ACK).
    pub tcp_fast_retransmits: u64,
}

/// The full sweep: one row per mount flavour per loss rate.
#[derive(Debug, Clone)]
pub struct TransportSweep {
    /// Rows grouped by flavour, loss ascending within each.
    pub rows: Vec<TransportRow>,
    /// Bytes written per run.
    pub file_size: u64,
}

/// The three mount flavours compared.
fn flavours() -> Vec<(&'static str, Scenario)> {
    let base = |transport| {
        let mut s =
            Scenario::new(ClientTuning::full_patch(), ServerKind::Filer).with_transport(transport);
        s.record_latencies = false;
        s
    };
    vec![
        ("udp", base(Transport::Udp)),
        ("udp+jumbo", base(Transport::Udp).with_jumbo_frames()),
        ("tcp", base(Transport::Tcp)),
    ]
}

fn row(label: &'static str, loss: f64, out: &RunOutput) -> TransportRow {
    TransportRow {
        label,
        loss,
        write_mbps: out.report.write_mbps(),
        flush_mbps: out.report.flush_mbps(),
        rpc_retransmits: out.xprt_stats.retransmits,
        drops: out.client_drops,
        tcp_retransmits: out.tcp_stats.map_or(0, |t| t.retransmits),
        tcp_fast_retransmits: out.tcp_stats.map_or(0, |t| t.fast_retransmits),
    }
}

/// Builds the matrix's work-list: one [`runner::Cell`] per
/// `(flavour, loss)` pair, flavour-major like the rendered table.
pub fn transport_cells(file_size: u64, loss_rates: &[f64]) -> Vec<runner::Cell<TransportRow>> {
    let mut cells = Vec::new();
    for (label, scenario) in flavours() {
        for &loss in loss_rates {
            let scenario = scenario.clone();
            cells.push(runner::Cell::new(move || {
                let out = run_bonnie(&scenario.with_loss(loss), file_size);
                row(label, loss, &out)
            }));
        }
    }
    cells
}

/// Runs the matrix on up to `jobs` worker threads: each flavour at each
/// loss rate, writing `file_size` bytes then flushing. Deterministic for
/// a fixed scenario seed at any `jobs` value.
pub fn transport_sweep(file_size: u64, loss_rates: &[f64], jobs: usize) -> TransportSweep {
    TransportSweep {
        rows: runner::run_cells(jobs, transport_cells(file_size, loss_rates)),
        file_size,
    }
}

impl TransportSweep {
    /// The row for a given flavour and loss rate, if present.
    pub fn cell(&self, label: &str, loss: f64) -> Option<&TransportRow> {
        self.rows
            .iter()
            .find(|r| r.label == label && r.loss == loss)
    }

    /// One CSV row per cell, in sweep order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "transport,loss,write_mbps,flush_mbps,drops,rpc_retransmits,tcp_retransmits,\
             tcp_fast_retransmits\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{},{},{},{}\n",
                r.label,
                r.loss,
                r.write_mbps,
                r.flush_mbps,
                r.drops,
                r.rpc_retransmits,
                r.tcp_retransmits,
                r.tcp_fast_retransmits,
            ));
        }
        out
    }

    /// Renders the matrix as an ASCII table, followed by the TCP/UDP
    /// flush-throughput ratio at 1% loss when the sweep has both cells.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.2}%", r.loss * 100.0),
                    format!("{:.1}", r.write_mbps),
                    format!("{:.1}", r.flush_mbps),
                    r.drops.to_string(),
                    r.rpc_retransmits.to_string(),
                    r.tcp_retransmits.to_string(),
                    r.tcp_fast_retransmits.to_string(),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "transport",
                "loss",
                "write MB/s",
                "flush MB/s",
                "drops",
                "rpc rexmit",
                "tcp rexmit",
                "fast rexmit",
            ],
            &rows,
        );
        if let (Some(udp), Some(tcp)) = (self.cell("udp", 0.01), self.cell("tcp", 0.01)) {
            out.push_str(&format!(
                "at 1% loss, flush throughput: tcp {:.1} MB/s vs udp {:.1} MB/s ({:.1}x)\n",
                tcp.flush_mbps,
                udp.flush_mbps,
                tcp.flush_mbps / udp.flush_mbps.max(0.001)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_matrix() {
        let sweep = transport_sweep(1 << 20, &[0.0, 0.01], 1);
        assert_eq!(sweep.rows.len(), 6);
        for label in ["udp", "udp+jumbo", "tcp"] {
            for loss in [0.0, 0.01] {
                let r = sweep.cell(label, loss).expect("cell present");
                assert!(r.write_mbps > 0.0, "{label} at {loss} wrote nothing");
            }
        }
    }

    #[test]
    fn clean_link_never_drops_or_retransmits() {
        let sweep = transport_sweep(1 << 20, &[0.0], 1);
        for r in &sweep.rows {
            assert_eq!(r.drops, 0, "{}: drops on clean link", r.label);
            assert_eq!(r.rpc_retransmits, 0, "{}: rpc rexmit", r.label);
            assert_eq!(r.tcp_retransmits, 0, "{}: tcp rexmit", r.label);
        }
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let sweep = transport_sweep(1 << 20, &[0.0, 0.01], 1);
        let csv = sweep.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + sweep.rows.len());
        assert!(lines[0].starts_with("transport,loss,"));
        assert!(lines[1].starts_with("udp,0,"), "{}", lines[1]);
        assert!(lines[6].starts_with("tcp,0.01,"), "{}", lines[6]);
    }

    #[test]
    fn render_mentions_every_flavour() {
        let sweep = transport_sweep(1 << 20, &[0.01], 1);
        let table = sweep.render();
        assert!(table.contains("udp+jumbo"));
        assert!(table.contains("tcp"));
        assert!(table.contains("flush MB/s"));
        let (udp, tcp) = (
            sweep.cell("udp", 0.01).unwrap(),
            sweep.cell("tcp", 0.01).unwrap(),
        );
        let ratio = format!(
            "at 1% loss, flush throughput: tcp {:.1} MB/s vs udp {:.1} MB/s",
            tcp.flush_mbps, udp.flush_mbps
        );
        assert!(table.contains(&ratio), "{table}");
    }
}
