//! Figure 1: local vs NFS memory write performance, stock 2.4.4 client.
//!
//! ```sh
//! cargo run --release --example figure1 [--quick]
//! ```
//!
//! Writes `results/figure1.csv` and prints an ASCII rendition.

use nfsperf_experiments::{figures, write_csv};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick {
        figures::quick_file_sizes()
    } else {
        figures::paper_file_sizes()
    };
    let sweep = figures::figure1(&sizes, nfsperf_sim::default_jobs());
    let path = std::path::Path::new("results/figure1.csv");
    write_csv(path, &sweep.to_csv()).expect("write csv");
    println!("Figure 1 - Local v. NFS write throughput (stock 2.4.4 client)");
    println!("{}", sweep.ascii_plot(64, 18));
    println!("wrote {}", path.display());
}
