//! Unfair-workload QoS sweep: one hog vs N−1 victims, across servers and
//! scheduling policies. Writes `results/qos.csv` and prints the table.
//!
//! Run with `cargo run --release --example qos_sweep [-- --quick]`.
//!
//! Cells fan out over `NFSPERF_JOBS` worker threads (default: the
//! machine's parallelism); the CSV is bit-identical at any value.

use nfsperf_experiments::{qos_sweep, ServerKind};
use nfsperf_server::SchedPolicy;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scheds = [
        SchedPolicy::Fifo,
        SchedPolicy::drr(),
        SchedPolicy::classed_drr(),
    ];
    let (servers, victims, bytes): (&[ServerKind], usize, u64) = if quick {
        (&[ServerKind::Filer], 4, 1 << 20)
    } else {
        (&[ServerKind::Filer, ServerKind::Knfsd], 7, 2 << 20)
    };
    let sweep = qos_sweep(
        servers,
        &scheds,
        victims,
        bytes,
        nfsperf_sim::default_jobs(),
    );
    print!("{}", sweep.render());
    let path = std::path::Path::new("results/qos.csv");
    sweep.write_csv(path).expect("write results/qos.csv");
    println!("wrote {}", path.display());
}
