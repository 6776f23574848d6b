//! CAWL regime sweep: client RAM × server speed × file size.
//!
//! The paper's Figures 1 and 7 show one slice of a bigger phase diagram:
//! application-observed write throughput is bimodal in how the benchmark
//! file compares to client memory. Below the dirty ratio (7/8 of RAM by
//! default) writes land in the page cache at memory speed and the server
//! only matters through reply processing; past it the writer is throttled
//! against writeback and throughput collapses to server speed. This
//! module sweeps all three axes — RAM {64 MB, 256 MB, 1 GB}, server
//! {filer, knfsd, fast prototype}, file size {½×, 1×, 2×, 4× RAM} —
//! under the [`ClientTuning::cawl`] client (full patch + foreground
//! throttling) and marks each cell's regime, reproducing the CAWL
//! cache-fit vs writeback-bound split with the knee at the dirty-ratio
//! boundary. It also re-tests the paper's counter-intuitive "faster
//! server, slower client" result in the cache-fit column.

use nfsperf_client::ClientTuning;
use nfsperf_sim::runner;

use crate::render::ascii_table;
use crate::scenario::{run_bonnie, Scenario, ServerKind};

/// RAM sizes for the full sweep.
pub const CAWL_RAM_SIZES: [u64; 3] = [64 << 20, 256 << 20, 1 << 30];

/// RAM sizes for the quick smoke sweep.
pub const CAWL_QUICK_RAM_SIZES: [u64; 1] = [16 << 20];

/// Servers for the full sweep.
pub const CAWL_SERVERS: [ServerKind; 3] =
    [ServerKind::Filer, ServerKind::Knfsd, ServerKind::Fast];

/// Servers for the quick smoke sweep.
pub const CAWL_QUICK_SERVERS: [ServerKind; 2] = [ServerKind::Filer, ServerKind::Fast];

/// File sizes as multiples of RAM, in halves: ½×, 1×, 2×, 4×.
pub const CAWL_FILE_HALVES: [u64; 4] = [1, 2, 4, 8];

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct CawlCell {
    /// Client RAM in bytes.
    pub ram_bytes: u64,
    /// Server under test.
    pub server: ServerKind,
    /// File size in units of RAM/2 (1 = ½×, 8 = 4×).
    pub file_halves: u64,
    /// Application-observed write-phase throughput, MB/s.
    pub app_mbps: f64,
    /// Throughput through the final flush, MB/s.
    pub flush_mbps: f64,
    /// Times a writer hit the dirty ratio.
    pub throttle_events: u64,
    /// Total time writers spent throttled, milliseconds.
    pub throttle_ms: f64,
    /// Peak pinned pages.
    pub peak_dirty_pages: usize,
    /// The client's dirty-page hard limit, in pages.
    pub hard_limit_pages: usize,
}

impl CawlCell {
    /// The file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.ram_bytes / 2 * self.file_halves
    }

    /// File size over RAM as a ratio (0.5, 1, 2, 4).
    pub fn file_over_ram(&self) -> f64 {
        self.file_halves as f64 / 2.0
    }

    /// Regime marker. A cell that throttled is writeback-bound: the
    /// writer pinned at the hard limit and collapsed to server speed. A
    /// cell whose whole file fits under the dirty ratio is cache-fit by
    /// construction. The remaining case — file bigger than the ratio
    /// but zero throttles — means concurrent background writeback
    /// drained fast enough that the writer never reached the limit
    /// (a fast server erases the knee entirely).
    pub fn regime(&self) -> &'static str {
        if self.throttle_events > 0 {
            "writeback-bound"
        } else if self.file_bytes() <= self.hard_limit_pages as u64 * nfsperf_kernel::PAGE_SIZE {
            "cache-fit"
        } else {
            "drain-keeps-up"
        }
    }
}

/// Runs one cell: a Bonnie sequential write of `file_halves × RAM/2`
/// bytes on a `ram_bytes` client against `server`, under the CAWL
/// client tuning. Deterministic for a given input.
pub fn run_cawl(ram_bytes: u64, server: ServerKind, file_halves: u64, seed: u64) -> CawlCell {
    let mut scenario = Scenario::new(ClientTuning::cawl(), server);
    scenario.ram_bytes = ram_bytes;
    scenario.seed = seed;
    scenario.record_latencies = false;
    let out = run_bonnie(&scenario, ram_bytes / 2 * file_halves);
    CawlCell {
        ram_bytes,
        server,
        file_halves,
        app_mbps: out.report.write_mbps(),
        flush_mbps: out.report.flush_mbps(),
        throttle_events: out.throttle_events,
        throttle_ms: out.throttle_time.as_nanos() as f64 / 1e6,
        peak_dirty_pages: out.peak_dirty_pages,
        hard_limit_pages: out.hard_limit_pages,
    }
}

/// Builds the work-list: one independent world per RAM × server × file
/// size, each deriving its own seed, in row order.
pub fn cawl_cells(
    rams: &[u64],
    servers: &[ServerKind],
    seed: u64,
) -> Vec<runner::Cell<CawlCell>> {
    let mut cells = Vec::new();
    let mut i = 0u64;
    for &ram in rams {
        for &server in servers {
            for &halves in &CAWL_FILE_HALVES {
                // SplitMix-style spread so per-cell jitter streams are
                // distinct but reproducible.
                let cell_seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
                i += 1;
                cells.push(runner::Cell::new(move || {
                    run_cawl(ram, server, halves, cell_seed)
                }));
            }
        }
    }
    cells
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct CawlSweep {
    /// All cells in RAM × server × file-size order.
    pub rows: Vec<CawlCell>,
}

/// Runs the sweep on up to `jobs` worker threads. Cells are independent
/// worlds, deterministic for a given input — rows (and the CSV) are
/// bit-identical at any `jobs` value.
pub fn cawl_sweep(rams: &[u64], servers: &[ServerKind], jobs: usize) -> CawlSweep {
    CawlSweep {
        rows: runner::run_cells(jobs, cawl_cells(rams, servers, 0xCA31)),
    }
}

impl CawlSweep {
    /// The sweep as CSV (also what [`CawlSweep::write_csv`] writes).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "ram_mb,server,file_mb,file_over_ram,app_mbps,flush_mbps,\
             throttle_events,throttle_ms,peak_dirty_pages,hard_limit_pages,regime\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.1},{:.3},{:.3},{},{:.3},{},{},{}\n",
                r.ram_bytes >> 20,
                r.server.label(),
                r.file_bytes() >> 20,
                r.file_over_ram(),
                r.app_mbps,
                r.flush_mbps,
                r.throttle_events,
                r.throttle_ms,
                r.peak_dirty_pages,
                r.hard_limit_pages,
                r.regime(),
            ));
        }
        out
    }

    /// Writes the CSV to `path`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }

    /// Renders an ASCII table plus regime-knee and faster-server
    /// verdicts.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}", r.ram_bytes >> 20),
                    r.server.label().to_owned(),
                    format!("{:.1}x", r.file_over_ram()),
                    format!("{:.2}", r.app_mbps),
                    format!("{:.2}", r.flush_mbps),
                    format!("{}", r.throttle_events),
                    format!("{:.1}", r.throttle_ms),
                    r.regime().to_owned(),
                ]
            })
            .collect();
        let mut out = ascii_table(
            &[
                "RAM MB",
                "server",
                "file/RAM",
                "app MB/s",
                "flush MB/s",
                "throttles",
                "throttle ms",
                "regime",
            ],
            &rows,
        );
        // Knee check: files under the dirty ratio (the ½× column) never
        // throttle, and a cell that does throttle pinned exactly at the
        // hard limit — the knee sits at the dirty-ratio boundary.
        let half_fit = self
            .rows
            .iter()
            .filter(|r| r.file_halves == 1)
            .all(|r| r.regime() == "cache-fit");
        let pinned_at_knee = self
            .rows
            .iter()
            .filter(|r| r.throttle_events > 0)
            .all(|r| r.peak_dirty_pages == r.hard_limit_pages);
        out.push_str(&format!(
            "knee at the dirty ratio: 0.5x cells cache-fit: {half_fit}; \
             throttled cells peak exactly at the hard limit: {pinned_at_knee}\n"
        ));
        // Where each server's knee shows up (first file multiple that
        // throttles), per RAM size.
        for &ram in &unique_rams(&self.rows) {
            for server in unique_servers(&self.rows) {
                let first = self
                    .rows
                    .iter()
                    .filter(|r| r.ram_bytes == ram && r.server == server)
                    .find(|r| r.throttle_events > 0);
                match first {
                    Some(r) => out.push_str(&format!(
                        "{}M {}: writeback-bound from {:.1}x RAM\n",
                        ram >> 20,
                        server.label(),
                        r.file_over_ram()
                    )),
                    None => out.push_str(&format!(
                        "{}M {}: drain keeps up at every file size (no knee)\n",
                        ram >> 20,
                        server.label()
                    )),
                }
            }
        }
        // The paper's "faster server, slower client": in the cache-fit
        // column the server only matters through reply processing, so a
        // faster server can cost the writer CPU.
        for &ram in &unique_rams(&self.rows) {
            let fit: Vec<&CawlCell> = self
                .rows
                .iter()
                .filter(|r| r.ram_bytes == ram && r.file_halves == 1)
                .collect();
            if fit.len() < 2 {
                continue;
            }
            let fastest_server = fit
                .iter()
                .max_by(|a, b| a.flush_mbps.total_cmp(&b.flush_mbps))
                .unwrap();
            let best_app = fit
                .iter()
                .max_by(|a, b| a.app_mbps.total_cmp(&b.app_mbps))
                .unwrap();
            out.push_str(&format!(
                "{}M cache-fit: best app rate on {} ({:.1} MB/s); fastest flusher {} \
                 ({:.1} MB/s app)\n",
                ram >> 20,
                best_app.server.label(),
                best_app.app_mbps,
                fastest_server.server.label(),
                fastest_server.app_mbps,
            ));
        }
        out
    }
}

/// The distinct RAM sizes present, in row order.
fn unique_rams(rows: &[CawlCell]) -> Vec<u64> {
    let mut rams = Vec::new();
    for r in rows {
        if !rams.contains(&r.ram_bytes) {
            rams.push(r.ram_bytes);
        }
    }
    rams
}

/// The distinct servers present, in row order.
fn unique_servers(rows: &[CawlCell]) -> Vec<ServerKind> {
    let mut servers = Vec::new();
    for r in rows {
        if !servers.contains(&r.server) {
            servers.push(r.server);
        }
    }
    servers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_geometry() {
        let cells = cawl_cells(&CAWL_QUICK_RAM_SIZES, &CAWL_QUICK_SERVERS, 1);
        assert_eq!(cells.len(), 2 * 4);
    }

    #[test]
    fn file_size_arithmetic() {
        let c = CawlCell {
            ram_bytes: 256 << 20,
            server: ServerKind::Filer,
            file_halves: 8,
            app_mbps: 0.0,
            flush_mbps: 0.0,
            throttle_events: 0,
            throttle_ms: 0.0,
            peak_dirty_pages: 0,
            hard_limit_pages: 0,
        };
        assert_eq!(c.file_bytes(), 1 << 30);
        assert_eq!(c.file_over_ram(), 4.0);
        assert_eq!(c.regime(), "drain-keeps-up");
        let fits = CawlCell {
            file_halves: 1,
            hard_limit_pages: 57_344,
            ..c.clone()
        };
        assert_eq!(fits.regime(), "cache-fit");
        let bound = CawlCell {
            throttle_events: 9,
            ..c.clone()
        };
        assert_eq!(bound.regime(), "writeback-bound");
    }
}
