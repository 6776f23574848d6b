//! Figure 7: local vs NFS write throughput with the fully patched client.
//!
//! ```sh
//! cargo run --release --example figure7 [--quick]
//! ```
//!
//! Writes `results/figure7.csv` and prints an ASCII rendition.

use nfsperf_experiments::{figures, write_csv};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes = if quick {
        figures::quick_file_sizes()
    } else {
        figures::paper_file_sizes()
    };
    let sweep = figures::figure7(&sizes, nfsperf_sim::default_jobs());
    let path = std::path::Path::new("results/figure7.csv");
    write_csv(path, &sweep.to_csv()).expect("write csv");
    println!("Figure 7 - Local v. NFS write throughput (enhanced client)");
    println!("{}", sweep.ascii_plot(64, 18));
    println!("wrote {}", path.display());
}
