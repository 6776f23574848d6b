//! Regenerates every table and figure, writing CSVs under `results/`.
//!
//! ```sh
//! cargo run --release --example run_all [--quick] [--jobs N]
//! ```
//!
//! The exhibits split into mutually independent simulated worlds — one
//! cell per figure-1/7 throughput point, per figure-5/6 histogram half,
//! per Table 1 entry, per slow-server run — fanned across `--jobs`
//! worker threads (default: `NFSPERF_JOBS`, else the machine's
//! parallelism) through [`nfsperf_sim::runner`]. The parts are
//! reassembled in work-list order, so every CSV is bit-identical at any
//! jobs count. The total wall-clock goes to stdout, never into
//! `results/`, so a run leaves nothing behind but the CSVs (the
//! committed `results/run_all.log` keeps earlier runs' lines).

use nfsperf_experiments::figures;
use nfsperf_sim::runner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(runner::default_jobs);
    let sizes = if quick {
        figures::quick_file_sizes()
    } else {
        figures::paper_file_sizes()
    };
    std::fs::create_dir_all("results").expect("mkdir results");

    let cells = figures::exhibit_cells(&sizes);
    eprintln!("{} exhibit cells on {} worker(s) ...", cells.len(), jobs);
    let start = std::time::Instant::now();
    let parts = runner::run_cells(jobs, cells);
    let wall = start.elapsed();
    let outputs = figures::assemble_exhibits(&sizes, parts);
    let exhibits = outputs.len();
    for (name, body) in outputs {
        std::fs::write(format!("results/{name}"), body).unwrap();
    }
    println!(
        "run_all: {} exhibits, jobs={}, wall={:.3}s, quick={}",
        exhibits,
        jobs,
        wall.as_secs_f64(),
        quick
    );
    println!("all results written under results/");
}
