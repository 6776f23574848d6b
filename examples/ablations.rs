//! Ablation sweeps beyond the paper: soft-limit, RPC slots, NVRAM size,
//! jumbo frames, CPU count, COMMIT threshold.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use nfsperf_experiments as exp;

fn main() {
    println!("== MAX_REQUEST_SOFT sweep (stock client, 10 MB vs filer) ==");
    for (limit, mbps, spikes) in exp::soft_limit_sweep(&[64, 128, 192, 256, 384]) {
        println!("  soft={limit:>4}  write {mbps:>6.1} MB/s  spikes {spikes}");
    }

    println!("\n== RPC slot-table sweep (patched client, 10 MB vs filer) ==");
    let sweep = exp::slot_table_sweep(&[2, 4, 8, 16, 32, 64]);
    for s in &sweep.series {
        print!("  {:18}", s.name);
        for (x, y) in &s.points {
            print!("  {x:.0}:{y:.1}");
        }
        println!();
    }

    println!("\n== jumbo frames (MTU 9000) ==");
    let mtu = exp::mtu_ablation();
    println!(
        "  standard: {:>6.1} MB/s at {:.1} fragments/RPC",
        mtu.standard_mbps, mtu.standard_frags_per_rpc
    );
    println!(
        "  jumbo   : {:>6.1} MB/s at {:.1} fragments/RPC",
        mtu.jumbo_mbps, mtu.jumbo_frags_per_rpc
    );

    println!("\n== filer NVRAM sweep (300 MB file, patched client) ==");
    for (cap, mbps) in exp::nvram_sweep(&[16 << 20, 64 << 20, 256 << 20]) {
        println!("  nvram {:>4} MB -> {mbps:>6.1} MB/s", cap >> 20);
    }

    println!("\n== CPU count (5 MB vs filer, BKL held) ==");
    let cpu = exp::cpu_ablation();
    println!(
        "  1 CPU : {:>6.1} MB/s, lock wait {} ns/call",
        cpu.one_cpu_mbps, cpu.one_cpu_wait_ns
    );
    println!(
        "  2 CPUs: {:>6.1} MB/s, lock wait {} ns/call",
        cpu.two_cpu_mbps, cpu.two_cpu_wait_ns
    );

    println!("\n== COMMIT threshold sweep (20 MB vs Linux server) ==");
    for (t, mbps) in exp::commit_threshold_sweep(&[64 << 10, 1 << 20, 8 << 20]) {
        println!(
            "  threshold {:>5} KB -> flush-inclusive {mbps:>6.1} MB/s",
            t >> 10
        );
    }

    println!("\n== wsize sweep (20 MB vs filer, patched client) ==");
    for (w, write, flush) in exp::wsize_sweep(&[4096, 8192, 16384, 32768]) {
        println!("  wsize {w:>5} -> write {write:>6.1} MB/s, flush {flush:>6.1} MB/s");
    }

    println!("\n== workload pattern: sequential vs random, list vs hash ==");
    let wc = exp::workload_comparison();
    println!(
        "  sequential: list {:>7.1} us   hash {:>6.1} us",
        wc.seq_list_us, wc.seq_hash_us
    );
    println!(
        "  random    : list {:>7.1} us   hash {:>6.1} us",
        wc.rand_list_us, wc.rand_hash_us
    );
}
