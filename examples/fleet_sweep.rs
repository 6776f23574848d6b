//! Fleet scaling sweep: 1 → 32 clients against one shared server.
//!
//! Every client is a whole simulated machine writing its own file; all
//! of them funnel through one switch uplink running at the server NIC's
//! rate. The sweep reports aggregate and per-client throughput, Jain's
//! fairness index, and the saturation knee for each server × transport
//! curve, and writes `results/fleet.csv`.
//!
//! ```sh
//! cargo run --release --example fleet_sweep [-- --quick]
//! ```
//!
//! Cells fan out over `NFSPERF_JOBS` worker threads (default: the
//! machine's parallelism); the CSV is bit-identical at any value.

use nfsperf_experiments as exp;
use nfsperf_sunrpc::Transport;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let counts: &[usize] = if quick {
        &[1, 2, 4]
    } else {
        exp::FLEET_CLIENT_COUNTS
    };
    let bytes_per_client: u64 = if quick { 1 << 20 } else { 4 << 20 };

    println!(
        "== fleet scaling sweep ({} MB per client, shared uplink) ==",
        bytes_per_client >> 20
    );
    let sweep = exp::fleet_sweep(
        counts,
        &[exp::ServerKind::Filer, exp::ServerKind::Knfsd],
        &[Transport::Udp, Transport::Tcp],
        bytes_per_client,
        nfsperf_sim::default_jobs(),
    );
    println!("{}", sweep.render());

    let out = std::path::Path::new("results/fleet.csv");
    sweep.write_csv(out).expect("write results/fleet.csv");
    println!("wrote {}", out.display());
}
