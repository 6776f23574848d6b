//! The paper's evaluation, figure by figure and table by table.
//!
//! [`exhibit_cells`] splits the seven figures, Table 1 and the §3.5
//! slow-server comparison into independent simulated worlds;
//! [`assemble_exhibits`] folds their results into [`Exhibits`], which
//! renders the nine CSVs and a measured-vs-paper summary. `nfsperf
//! figures` is the one entry point; EXPERIMENTS.md records the numbers.

use std::fmt;

use nfsperf_client::ClientTuning;
use nfsperf_sim::{runner, Histogram, SimDuration};

use crate::render::{ascii_table, Series, Sweep};
use crate::scenario::{run_bonnie, run_local, write_throughput_mbps, Scenario, ServerKind};

/// The paper's file-size sweep: 25 MB to 450 MB in 25 MB steps.
pub fn paper_file_sizes() -> Vec<u64> {
    (1..=18).map(|i| (i * 25) << 20).collect()
}

/// A reduced sweep for quick runs and CI.
pub fn quick_file_sizes() -> Vec<u64> {
    [50u64, 150, 250, 350, 450]
        .iter()
        .map(|m| m << 20)
        .collect()
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// One `(file size MB, write MB/s)` measurement of figure 1/7: local
/// ext2 when `server` is `None`, else NFS against that server.
fn throughput_point(tuning: ClientTuning, server: Option<ServerKind>, size: u64) -> (f64, f64) {
    match server {
        None => (mb(size), run_local(size, false).write_mbps()),
        Some(kind) => (
            mb(size),
            write_throughput_mbps(&Scenario::new(tuning, kind), size),
        ),
    }
}

/// Folds the per-point results (work-list order: local, filer, knfsd
/// per size) back into the three-series sweep.
fn sweep_from_points(sizes_len: usize, points: &[(f64, f64)]) -> Sweep {
    const BACKENDS: usize = 3;
    assert_eq!(points.len(), sizes_len * BACKENDS, "3 backends per size");
    let mut local = Vec::with_capacity(sizes_len);
    let mut filer = Vec::with_capacity(sizes_len);
    let mut knfsd = Vec::with_capacity(sizes_len);
    for chunk in points.chunks_exact(BACKENDS) {
        local.push(chunk[0]);
        filer.push(chunk[1]);
        knfsd.push(chunk[2]);
    }
    Sweep {
        series: vec![
            Series::new("local ext2", local),
            Series::new("netapp filer", filer),
            Series::new("linux nfs server", knfsd),
        ],
        x_label: "file size (MB)".into(),
        y_label: "write throughput (MB/s)".into(),
    }
}

/// Figures 1 and 7 share a shape: local ext2 vs NFS on both servers,
/// write throughput against file size. Each `(size, backend)` point is
/// an isolated world, fanned across up to `jobs` worker threads; results
/// come back in work-list order, so the sweep (and its CSV) is
/// bit-identical at any `jobs` value.
pub fn throughput_sweep(tuning: ClientTuning, sizes: &[u64], jobs: usize) -> Sweep {
    let mut cells: Vec<runner::Cell<(f64, f64)>> = Vec::new();
    for &size in sizes {
        cells.push(runner::Cell::new(move || {
            throughput_point(tuning, None, size)
        }));
        cells.push(runner::Cell::new(move || {
            throughput_point(tuning, Some(ServerKind::Filer), size)
        }));
        cells.push(runner::Cell::new(move || {
            throughput_point(tuning, Some(ServerKind::Knfsd), size)
        }));
    }
    let points = runner::run_cells(jobs, cells);
    sweep_from_points(sizes.len(), &points)
}

/// Figure 1: local vs NFS memory write performance with the **stock**
/// 2.4.4 client. NFS throughput stays pinned at network/server speed
/// while local writes run at memory speed until RAM is exhausted.
pub fn figure1(sizes: &[u64], jobs: usize) -> Sweep {
    throughput_sweep(ClientTuning::linux_2_4_4(), sizes, jobs)
}

/// Figure 7: the same sweep with the **fully patched** client. NFS write
/// throughput approaches local memory speed while RAM lasts, and the
/// filer sustains more than the Linux server past exhaustion.
pub fn figure7(sizes: &[u64], jobs: usize) -> Sweep {
    throughput_sweep(ClientTuning::full_patch(), sizes, jobs)
}

/// Result of a latency-trace experiment (Figures 2, 3 and 4).
pub struct LatencyTrace {
    /// Which configuration produced it.
    pub label: &'static str,
    /// Per-call `write()` latencies, in call order.
    pub latencies: Vec<SimDuration>,
    /// Mean latency over the whole run.
    pub mean: SimDuration,
    /// Mean excluding calls above 1 ms (the paper's comparison).
    pub mean_excluding_spikes: SimDuration,
    /// Calls above 1 ms.
    pub spikes: usize,
    /// Write-phase throughput, MB/s.
    pub write_mbps: f64,
}

fn latency_trace(label: &'static str, tuning: ClientTuning, size: u64) -> LatencyTrace {
    let scenario = Scenario::new(tuning, ServerKind::Filer);
    let out = run_bonnie(&scenario, size);
    let ms1 = SimDuration::from_millis(1);
    LatencyTrace {
        label,
        mean: out.report.mean_latency(),
        mean_excluding_spikes: out.report.mean_latency_excluding(ms1),
        spikes: out.report.spikes(ms1),
        write_mbps: out.report.write_mbps(),
        latencies: out.report.latencies,
    }
}

impl LatencyTrace {
    /// CSV rows: `call,latency_us`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("call,latency_us\n");
        for (i, l) in self.latencies.iter().enumerate() {
            out.push_str(&format!("{},{:.3}\n", i, l.as_micros_f64()));
        }
        out
    }

    /// Gaps between consecutive spikes (in calls) — the paper's "every 80
    /// to 90 system calls".
    pub fn spike_periods(&self, threshold: SimDuration) -> Vec<usize> {
        let spikes: Vec<usize> = self
            .latencies
            .iter()
            .enumerate()
            .filter(|(_, l)| **l > threshold)
            .map(|(i, _)| i)
            .collect();
        spikes.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Result of a latency-histogram experiment (Figures 5 and 6).
pub struct HistogramPair {
    /// Which configuration produced it.
    pub label: &'static str,
    /// Latency histogram against the filer.
    pub filer: Histogram,
    /// Latency histogram against the Linux server.
    pub knfsd: Histogram,
    /// Mean latency against the filer.
    pub filer_mean: SimDuration,
    /// Mean latency against the Linux server.
    pub knfsd_mean: SimDuration,
    /// Maximum latency against the filer (excluding the first call, as
    /// the paper does).
    pub filer_max: SimDuration,
    /// Maximum latency against the Linux server (excluding the first
    /// call).
    pub knfsd_max: SimDuration,
}

/// One server's per-call latencies for a figure-5/6 histogram half.
fn histogram_half(tuning: ClientTuning, kind: ServerKind, size: u64) -> Vec<SimDuration> {
    run_bonnie(&Scenario::new(tuning, kind), size)
        .report
        .latencies
}

/// Combines the two halves' raw latencies into the rendered pair.
fn pair_from_latencies(
    label: &'static str,
    filer_lat: &[SimDuration],
    knfsd_lat: &[SimDuration],
) -> HistogramPair {
    // The paper excludes the first data point (cold-start, ~1 ms).
    let f_lat = &filer_lat[1..];
    let k_lat = &knfsd_lat[1..];
    HistogramPair {
        label,
        filer: Histogram::from_samples(SimDuration::from_micros(60), 8, f_lat),
        knfsd: Histogram::from_samples(SimDuration::from_micros(60), 8, k_lat),
        filer_mean: nfsperf_bonnie::mean(f_lat),
        knfsd_mean: nfsperf_bonnie::mean(k_lat),
        filer_max: f_lat.iter().copied().max().unwrap_or(SimDuration::ZERO),
        knfsd_max: k_lat.iter().copied().max().unwrap_or(SimDuration::ZERO),
    }
}

fn histogram_pair(label: &'static str, tuning: ClientTuning, size: u64) -> HistogramPair {
    let filer = histogram_half(tuning, ServerKind::Filer, size);
    let knfsd = histogram_half(tuning, ServerKind::Knfsd, size);
    pair_from_latencies(label, &filer, &knfsd)
}

impl HistogramPair {
    /// CSV rows: `bin_low_us,filer,knfsd` (last row is overflow).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bin_low_us,netapp_filer,linux_nfs_server\n");
        let w = self.filer.bin_width().as_micros();
        for (i, (f, k)) in self
            .filer
            .bins()
            .iter()
            .zip(self.knfsd.bins().iter())
            .enumerate()
        {
            out.push_str(&format!("{},{},{}\n", i as u64 * w, f, k));
        }
        out.push_str(&format!(
            "overflow,{},{}\n",
            self.filer.overflow(),
            self.knfsd.overflow()
        ));
        out
    }
}

/// Table 1: client memory write throughput (5 MB file) before and after
/// the lock modification, against both servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Filer, BKL held (paper: 115 MB/s).
    pub filer_normal: f64,
    /// Filer, lock released (paper: 140 MB/s).
    pub filer_no_lock: f64,
    /// Linux server, BKL held (paper: 138 MB/s).
    pub linux_normal: f64,
    /// Linux server, lock released (paper: 147 MB/s).
    pub linux_no_lock: f64,
}

/// Runs Table 1 (the paper's 5 MB file).
pub fn table1() -> Table1 {
    table1_sized(5 << 20)
}

/// Runs Table 1 at an arbitrary file size (tests use tiny files).
pub fn table1_sized(size: u64) -> Table1 {
    Table1 {
        filer_normal: write_throughput_mbps(
            &Scenario::new(ClientTuning::hash_table(), ServerKind::Filer),
            size,
        ),
        filer_no_lock: write_throughput_mbps(
            &Scenario::new(ClientTuning::full_patch(), ServerKind::Filer),
            size,
        ),
        linux_normal: write_throughput_mbps(
            &Scenario::new(ClientTuning::hash_table(), ServerKind::Knfsd),
            size,
        ),
        linux_no_lock: write_throughput_mbps(
            &Scenario::new(ClientTuning::full_patch(), ServerKind::Knfsd),
            size,
        ),
    }
}

/// The §3.5 comparison: memory write throughput against servers of
/// decreasing speed, with the stock (lock-holding) RPC layer, plus where
/// the writer's lock waits go.
pub struct SlowServerComparison {
    /// Memory write throughput against the filer, MB/s.
    pub filer_mbps: f64,
    /// Against the Linux server.
    pub knfsd_mbps: f64,
    /// Against the 100 Mb/s server.
    pub slow_mbps: f64,
    /// Fraction of all lock wait time blamed on the RPC transmit section
    /// (which contains `sock_sendmsg`) in the filer run.
    pub xmit_wait_fraction: f64,
    /// Sustained client network throughput during the filer run, MB/s.
    pub filer_net_mbps: f64,
    /// Sustained client network throughput during the knfsd run, MB/s.
    pub knfsd_net_mbps: f64,
}

/// One server's run of the §3.5 comparison, reduced to plain numbers.
#[derive(Debug, Clone, Copy)]
pub struct SlowRun {
    /// Memory write throughput, MB/s.
    pub write_mbps: f64,
    /// Sustained client network throughput, MB/s.
    pub net_mbps: f64,
    /// Fraction of all lock wait time blamed on the RPC transmit section.
    pub xmit_wait_fraction: f64,
}

/// Runs one server of the slow-server comparison (BKL held).
fn slow_server_run(kind: ServerKind, size: u64) -> SlowRun {
    let out = run_bonnie(&Scenario::new(ClientTuning::hash_table(), kind), size);
    let xmit_wait = out.lock_stats.wait_blamed_on("rpc_xmit").as_nanos() as f64;
    let total_wait = out.lock_stats.total_wait.as_nanos().max(1) as f64;
    SlowRun {
        write_mbps: out.report.write_mbps(),
        net_mbps: out.net_tx_mbps,
        xmit_wait_fraction: xmit_wait / total_wait,
    }
}

/// Folds the three per-server runs (filer, knfsd, slow) into the
/// comparison.
fn slow_server_from_runs(filer: SlowRun, knfsd: SlowRun, slow: SlowRun) -> SlowServerComparison {
    SlowServerComparison {
        filer_mbps: filer.write_mbps,
        knfsd_mbps: knfsd.write_mbps,
        slow_mbps: slow.write_mbps,
        xmit_wait_fraction: filer.xmit_wait_fraction,
        filer_net_mbps: filer.net_mbps,
        knfsd_net_mbps: knfsd.net_mbps,
    }
}

/// Runs the slow-server comparison (5 MB file, BKL held).
pub fn slow_server_comparison() -> SlowServerComparison {
    slow_server_comparison_sized(5 << 20)
}

/// [`slow_server_comparison`] at an arbitrary file size.
pub fn slow_server_comparison_sized(size: u64) -> SlowServerComparison {
    slow_server_from_runs(
        slow_server_run(ServerKind::Filer, size),
        slow_server_run(ServerKind::Knfsd, size),
        slow_server_run(ServerKind::Slow100, size),
    )
}

/// Table 1 in the CSV shape `nfsperf figures` writes.
pub fn table1_csv(t: &Table1) -> String {
    format!(
        "server,normal_mbps,no_lock_mbps\nnetapp-filer,{:.1},{:.1}\nlinux-nfs-server,{:.1},{:.1}\n",
        t.filer_normal, t.filer_no_lock, t.linux_normal, t.linux_no_lock
    )
}

/// The slow-server comparison in the CSV shape `nfsperf figures` writes.
pub fn slow_server_csv(c: &SlowServerComparison) -> String {
    format!(
        "server,write_mbps\nnetapp-filer,{:.1}\nlinux-nfs-server,{:.1}\nslow-100bt,{:.1}\n",
        c.filer_mbps, c.knfsd_mbps, c.slow_mbps
    )
}

/// File sizes for the fixed-size exhibits (figures 2–6, Table 1, the
/// slow-server comparison). Defaults are the paper's sizes; tests shrink
/// every field to run the full phased-vs-monolithic equivalence check on
/// tiny files.
#[derive(Debug, Clone, Copy)]
pub struct ExhibitSizes {
    /// Figure 2's file (paper: 40 MB).
    pub figure2_bytes: u64,
    /// Figure 3's file (paper: 100 MB).
    pub figure3_bytes: u64,
    /// Figure 4's file (paper: 100 MB).
    pub figure4_bytes: u64,
    /// Figures 5/6's file (paper: 30 MB).
    pub histogram_bytes: u64,
    /// Table 1's file (paper: 5 MB).
    pub table1_bytes: u64,
    /// The slow-server comparison's file (paper: 5 MB).
    pub slow_bytes: u64,
}

impl Default for ExhibitSizes {
    fn default() -> ExhibitSizes {
        ExhibitSizes {
            figure2_bytes: 40 << 20,
            figure3_bytes: 100 << 20,
            figure4_bytes: 100 << 20,
            histogram_bytes: 30 << 20,
            table1_bytes: 5 << 20,
            slow_bytes: 5 << 20,
        }
    }
}

impl ExhibitSizes {
    /// Every exhibit at the same (small) file size, for tests.
    pub fn uniform(bytes: u64) -> ExhibitSizes {
        ExhibitSizes {
            figure2_bytes: bytes,
            figure3_bytes: bytes,
            figure4_bytes: bytes,
            histogram_bytes: bytes,
            table1_bytes: bytes,
            slow_bytes: bytes,
        }
    }
}

/// One phased exhibit cell's result. [`assemble_exhibits`] consumes
/// these in work-list order; the variant encodes which kind of
/// measurement the cell was.
pub enum ExhibitPart {
    /// One `(size MB, MB/s)` throughput point of figure 1 or 7.
    Point((f64, f64)),
    /// One full latency trace (figures 2–4).
    Trace(LatencyTrace),
    /// One server's per-call latencies (half of figure 5 or 6).
    Latencies(Vec<SimDuration>),
    /// One Table 1 throughput entry.
    Mbps(f64),
    /// One server's slow-server-comparison run.
    Slow(SlowRun),
}

impl ExhibitPart {
    fn kind(&self) -> &'static str {
        match self {
            ExhibitPart::Point(_) => "Point",
            ExhibitPart::Trace(_) => "Trace",
            ExhibitPart::Latencies(_) => "Latencies",
            ExhibitPart::Mbps(_) => "Mbps",
            ExhibitPart::Slow(_) => "Slow",
        }
    }
}

/// The *phased* work-list behind `nfsperf figures` and
/// `examples/run_all`: every exhibit split into its independent
/// simulated worlds — one cell per figure-1/7 `(size, backend)` point,
/// per figure-5/6 server half, per Table 1 entry, and per slow-server
/// run — so a worker pool is never starved by one monolithic exhibit.
/// Results pair back up in [`assemble_exhibits`]; the CSVs are
/// byte-identical to the monolithic list
/// ([`monolithic_exhibit_cells_with`]) at any `--jobs` value.
pub fn exhibit_cells(sizes: &[u64]) -> Vec<runner::Cell<ExhibitPart>> {
    exhibit_cells_with(sizes, ExhibitSizes::default())
}

/// [`exhibit_cells`] with explicit fixed-exhibit sizes (tests use tiny
/// files).
pub fn exhibit_cells_with(sizes: &[u64], ex: ExhibitSizes) -> Vec<runner::Cell<ExhibitPart>> {
    let mut cells: Vec<runner::Cell<ExhibitPart>> = Vec::new();
    let point = |tuning: ClientTuning, server: Option<ServerKind>, size: u64| {
        runner::Cell::new(move || ExhibitPart::Point(throughput_point(tuning, server, size)))
    };
    for &size in sizes {
        let t = ClientTuning::linux_2_4_4();
        cells.push(point(t, None, size));
        cells.push(point(t, Some(ServerKind::Filer), size));
        cells.push(point(t, Some(ServerKind::Knfsd), size));
    }
    cells.push(runner::Cell::new(move || {
        ExhibitPart::Trace(latency_trace(
            "linux-2.4.4",
            ClientTuning::linux_2_4_4(),
            ex.figure2_bytes,
        ))
    }));
    cells.push(runner::Cell::new(move || {
        ExhibitPart::Trace(latency_trace(
            "no-flush",
            ClientTuning::no_flush(),
            ex.figure3_bytes,
        ))
    }));
    cells.push(runner::Cell::new(move || {
        ExhibitPart::Trace(latency_trace(
            "hash-table",
            ClientTuning::hash_table(),
            ex.figure4_bytes,
        ))
    }));
    // Figure 5 (normal, BKL held), then Figure 6 (no lock).
    for tuning in [ClientTuning::hash_table(), ClientTuning::full_patch()] {
        for kind in [ServerKind::Filer, ServerKind::Knfsd] {
            cells.push(runner::Cell::new(move || {
                ExhibitPart::Latencies(histogram_half(tuning, kind, ex.histogram_bytes))
            }));
        }
    }
    // Table 1: {filer, linux} x {normal, no-lock}.
    for (tuning, kind) in [
        (ClientTuning::hash_table(), ServerKind::Filer),
        (ClientTuning::full_patch(), ServerKind::Filer),
        (ClientTuning::hash_table(), ServerKind::Knfsd),
        (ClientTuning::full_patch(), ServerKind::Knfsd),
    ] {
        cells.push(runner::Cell::new(move || {
            ExhibitPart::Mbps(write_throughput_mbps(
                &Scenario::new(tuning, kind),
                ex.table1_bytes,
            ))
        }));
    }
    for &size in sizes {
        let t = ClientTuning::full_patch();
        cells.push(point(t, None, size));
        cells.push(point(t, Some(ServerKind::Filer), size));
        cells.push(point(t, Some(ServerKind::Knfsd), size));
    }
    for kind in [ServerKind::Filer, ServerKind::Knfsd, ServerKind::Slow100] {
        cells.push(runner::Cell::new(move || {
            ExhibitPart::Slow(slow_server_run(kind, ex.slow_bytes))
        }));
    }
    cells
}

/// The pre-split *monolithic* work-list: one cell per whole exhibit,
/// each rendering `(file name, CSV body)` with its inner sweep run
/// serially. Kept as the reference implementation the phased list is
/// proven byte-identical against (`tests/runner.rs`).
pub fn monolithic_exhibit_cells_with(
    sizes: &[u64],
    ex: ExhibitSizes,
) -> Vec<runner::Cell<(&'static str, String)>> {
    let s1 = sizes.to_vec();
    let s7 = sizes.to_vec();
    vec![
        runner::Cell::new(move || ("figure1.csv", figure1(&s1, 1).to_csv())),
        runner::Cell::new(move || {
            (
                "figure2.csv",
                latency_trace("linux-2.4.4", ClientTuning::linux_2_4_4(), ex.figure2_bytes)
                    .to_csv(),
            )
        }),
        runner::Cell::new(move || {
            (
                "figure3.csv",
                latency_trace("no-flush", ClientTuning::no_flush(), ex.figure3_bytes).to_csv(),
            )
        }),
        runner::Cell::new(move || {
            (
                "figure4.csv",
                latency_trace("hash-table", ClientTuning::hash_table(), ex.figure4_bytes).to_csv(),
            )
        }),
        runner::Cell::new(move || {
            (
                "figure5.csv",
                histogram_pair(
                    "normal (BKL held)",
                    ClientTuning::hash_table(),
                    ex.histogram_bytes,
                )
                .to_csv(),
            )
        }),
        runner::Cell::new(move || {
            (
                "figure6.csv",
                histogram_pair("no lock", ClientTuning::full_patch(), ex.histogram_bytes).to_csv(),
            )
        }),
        runner::Cell::new(move || ("table1.csv", table1_csv(&table1_sized(ex.table1_bytes)))),
        runner::Cell::new(move || ("figure7.csv", figure7(&s7, 1).to_csv())),
        runner::Cell::new(move || {
            (
                "slow_server.csv",
                slow_server_csv(&slow_server_comparison_sized(ex.slow_bytes)),
            )
        }),
    ]
}

/// Every exhibit of the paper's evaluation, assembled from the phased
/// cells.
pub struct Exhibits {
    /// Figure 1: local vs NFS throughput, stock 2.4.4 client.
    pub figure1: Sweep,
    /// Figure 2: per-call latency, stock client (flush spikes).
    pub figure2: LatencyTrace,
    /// Figure 3: per-call latency without the periodic flush.
    pub figure3: LatencyTrace,
    /// Figure 4: per-call latency with the hash-table index.
    pub figure4: LatencyTrace,
    /// Figure 5: latency histograms, kernel lock held across
    /// `sock_sendmsg`.
    pub figure5: HistogramPair,
    /// Figure 6: latency histograms, lock released.
    pub figure6: HistogramPair,
    /// Table 1: memory write throughput before and after the lock fix.
    pub table1: Table1,
    /// Figure 7: local vs NFS throughput, fully patched client.
    pub figure7: Sweep,
    /// §3.5: slower servers allow faster memory writes.
    pub slow_server: SlowServerComparison,
}

/// Reassembles the phased results (in [`exhibit_cells_with`] work-list
/// order) into the exhibits the monolithic cells render.
///
/// # Panics
///
/// Panics when `parts` does not match the work-list shape for `sizes`.
pub fn assemble_exhibits(sizes: &[u64], parts: Vec<ExhibitPart>) -> Exhibits {
    let mut it = parts.into_iter();
    let mut next = |expect: &'static str| {
        let part = it
            .next()
            .unwrap_or_else(|| panic!("missing exhibit part: expected {expect}"));
        let kind = part.kind();
        assert_eq!(
            kind, expect,
            "exhibit part mismatch: expected {expect}, got {kind}"
        );
        part
    };
    let points = |n: usize, next: &mut dyn FnMut(&'static str) -> ExhibitPart| {
        (0..n * 3)
            .map(|_| match next("Point") {
                ExhibitPart::Point(p) => p,
                _ => unreachable!(),
            })
            .collect::<Vec<_>>()
    };
    let trace = |part: ExhibitPart| match part {
        ExhibitPart::Trace(t) => t,
        _ => unreachable!(),
    };
    let lats = |part: ExhibitPart| match part {
        ExhibitPart::Latencies(l) => l,
        _ => unreachable!(),
    };
    let mbps = |part: ExhibitPart| match part {
        ExhibitPart::Mbps(m) => m,
        _ => unreachable!(),
    };
    let slow = |part: ExhibitPart| match part {
        ExhibitPart::Slow(s) => s,
        _ => unreachable!(),
    };

    let figure1 = sweep_from_points(sizes.len(), &points(sizes.len(), &mut next));
    let figure2 = trace(next("Trace"));
    let figure3 = trace(next("Trace"));
    let figure4 = trace(next("Trace"));
    let (f5f, f5k) = (lats(next("Latencies")), lats(next("Latencies")));
    let (f6f, f6k) = (lats(next("Latencies")), lats(next("Latencies")));
    let table1 = Table1 {
        filer_normal: mbps(next("Mbps")),
        filer_no_lock: mbps(next("Mbps")),
        linux_normal: mbps(next("Mbps")),
        linux_no_lock: mbps(next("Mbps")),
    };
    let figure7 = sweep_from_points(sizes.len(), &points(sizes.len(), &mut next));
    let slow_server =
        slow_server_from_runs(slow(next("Slow")), slow(next("Slow")), slow(next("Slow")));
    assert!(it.next().is_none(), "unconsumed exhibit parts");

    Exhibits {
        figure1,
        figure2,
        figure3,
        figure4,
        figure5: pair_from_latencies("normal (BKL held)", &f5f, &f5k),
        figure6: pair_from_latencies("no lock", &f6f, &f6k),
        table1,
        figure7,
        slow_server,
    }
}

impl Exhibits {
    /// The nine `(file name, CSV body)` pairs, byte-identical to the
    /// monolithic cells' output and in the same file order.
    pub fn csvs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("figure1.csv", self.figure1.to_csv()),
            ("figure2.csv", self.figure2.to_csv()),
            ("figure3.csv", self.figure3.to_csv()),
            ("figure4.csv", self.figure4.to_csv()),
            ("figure5.csv", self.figure5.to_csv()),
            ("figure6.csv", self.figure6.to_csv()),
            ("table1.csv", table1_csv(&self.table1)),
            ("figure7.csv", self.figure7.to_csv()),
            ("slow_server.csv", slow_server_csv(&self.slow_server)),
        ]
    }
}

/// The measured-vs-paper summary `nfsperf figures` prints: every
/// exhibit's headline numbers beside the paper's in brackets, one
/// section per CSV, titled `== <exhibit> (<file>.csv): ... ==`.
impl fmt::Display for Exhibits {
    fn fmt(&self, o: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms1 = SimDuration::from_millis(1);
        writeln!(
            o,
            "
== Figure 1 (figure1.csv): local vs NFS throughput, stock client ==
{}  [paper: NFS pinned at network/server speed, local at memory speed until RAM runs out]",
            self.figure1.ascii_plot(64, 18)
        )?;

        let f2 = &self.figure2;
        let calls = f2.latencies.len();
        writeln!(
            o,
            "
== Figure 2 (figure2.csv): write() latency, {} client ==
  spikes >1ms: {} of {calls} calls ({:.2}%)   [paper: 37 of 2560, 1.4%]",
            f2.label,
            f2.spikes,
            100.0 * f2.spikes as f64 / calls.max(1) as f64
        )?;
        let periods = f2.spike_periods(ms1);
        if !periods.is_empty() {
            let period = periods.iter().sum::<usize>() as f64 / periods.len() as f64;
            writeln!(
                o,
                "  mean spike period: {period:.0} calls   [paper: every 80-90]"
            )?;
        }
        let mut spikes: Vec<SimDuration> =
            f2.latencies.iter().copied().filter(|l| *l > ms1).collect();
        spikes.sort();
        if let (Some(median), Some(max)) = (spikes.get(spikes.len() / 2), spikes.last()) {
            writeln!(
                o,
                "  spike magnitude: median {median}, max {max}   [paper: ~19 ms]"
            )?;
        }
        writeln!(
            o,
            "  mean: {}   mean excl >1ms: {}   [paper: 482.1 us vs 139.6 us]
  write throughput: {:.1} MB/s",
            f2.mean, f2.mean_excluding_spikes, f2.write_mbps
        )?;

        let f3 = &self.figure3;
        let deciles: Vec<String> = nfsperf_bonnie::decile_means(&f3.latencies)
            .iter()
            .map(|d| d.to_string())
            .collect();
        writeln!(
            o,
            "
== Figure 3 (figure3.csv): write() latency, {} client ==
  calls: {}   spikes >1ms: {}   mean: {}   [paper: no spikes, mean 484.7 us]
  decile means: {}
  growth last/first decile: x{:.2}   [paper: grows with the request list]",
            f3.label,
            f3.latencies.len(),
            f3.spikes,
            f3.mean,
            deciles.join(" "),
            nfsperf_bonnie::trend_ratio(&f3.latencies)
        )?;

        let f4 = &self.figure4;
        let deciles = nfsperf_bonnie::decile_means(&f4.latencies);
        let zero = SimDuration::ZERO;
        writeln!(
            o,
            "
== Figure 4 (figure4.csv): write() latency, {} client ==
  calls: {}   mean: {}   [paper: 136.9 us]
  first decile {} -> last decile {}, growth x{:.2}   [paper: flat]
  write throughput: {:.1} MB/s   [paper: ~115]",
            f4.label,
            f4.latencies.len(),
            f4.mean,
            deciles.first().unwrap_or(&zero),
            deciles.last().unwrap_or(&zero),
            nfsperf_bonnie::trend_ratio(&f4.latencies),
            f4.write_mbps
        )?;

        for (n, pair, paper) in [
            (5, &self.figure5, "filer 149 us max 381 us, linux 113 us"),
            (6, &self.figure6, "filer 127 us max 292 us, linux 105 us"),
        ] {
            write!(
                o,
                "
== Figure {n} (figure{n}.csv): write() latency histograms, {} ==
  filer mean {} max {}   linux mean {} max {}   [paper: {paper}]
  filer histogram:
{}  linux histogram:
{}",
                pair.label,
                pair.filer_mean,
                pair.filer_max,
                pair.knfsd_mean,
                pair.knfsd_max,
                pair.filer,
                pair.knfsd
            )?;
        }

        let t = &self.table1;
        let mbps = |v: f64| format!("{v:.0} MB/s");
        let rows = [
            [
                "NetApp filer",
                &mbps(t.filer_normal),
                &mbps(t.filer_no_lock),
                "115 MB/s",
                "140 MB/s",
            ],
            [
                "Linux NFS server",
                &mbps(t.linux_normal),
                &mbps(t.linux_no_lock),
                "138 MB/s",
                "147 MB/s",
            ],
        ]
        .map(|row| row.map(String::from).to_vec());
        let headers = ["", "Normal", "No lock", "paper Normal", "paper No lock"];
        write!(
            o,
            "
== Table 1 (table1.csv): memory write throughput, lock held vs released ==
{}",
            ascii_table(&headers, &rows)
        )?;

        writeln!(
            o,
            "
== Figure 7 (figure7.csv): local vs NFS throughput, fully patched client ==
{}  [paper: NFS near memory speed while RAM lasts; past it the filer outlasts the Linux server]",
            self.figure7.ascii_plot(64, 18)
        )?;

        let c = &self.slow_server;
        writeln!(
            o,
            "
== §3.5 (slow_server.csv): slower servers allow faster memory writes ==
  filer {:.1} MB/s, linux {:.1} MB/s, slow-100bt {:.1} MB/s   [paper: filer < linux < slow]
  lock waits blamed on rpc_xmit/sock_sendmsg: {:.0}%   [paper: ~90%]
  network during run: filer {:.1} MB/s, linux {:.1} MB/s   [paper: 38 vs 26]",
            c.filer_mbps,
            c.knfsd_mbps,
            c.slow_mbps,
            100.0 * c.xmit_wait_fraction,
            c.filer_net_mbps,
            c.knfsd_net_mbps
        )
    }
}
