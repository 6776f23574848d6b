//! Table 1: client memory write throughput before and after the kernel
//! lock modification (5 MB file).
//!
//! ```sh
//! cargo run --release --example table1
//! ```
//!
//! Prints the measured table beside the paper's figures and writes
//! `results/table1.csv` in the shape `nfsperf figures` writes.

use nfsperf_experiments::{ascii_table, figures, write_csv};

fn main() {
    let t = figures::table1();
    let rows = vec![
        vec![
            "NetApp filer".to_string(),
            format!("{:.0}", t.filer_normal),
            format!("{:.0}", t.filer_no_lock),
            "115".into(),
            "140".into(),
        ],
        vec![
            "Linux NFS server".to_string(),
            format!("{:.0}", t.linux_normal),
            format!("{:.0}", t.linux_no_lock),
            "138".into(),
            "147".into(),
        ],
    ];
    println!("Table 1 - memory write throughput (MB/s), 5 MB file");
    println!(
        "{}",
        ascii_table(
            &[
                "server",
                "Normal",
                "No lock",
                "paper Normal",
                "paper No lock"
            ],
            &rows
        )
    );
    let path = std::path::Path::new("results/table1.csv");
    write_csv(path, &figures::table1_csv(&t)).expect("write csv");
    println!("wrote {}", path.display());
}
