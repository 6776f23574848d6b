//! `nfsperf` — command-line driver for the reproduction.
//!
//! ```text
//! nfsperf run --tuning full-patch --server filer --size-mb 100 [options]
//! nfsperf figures [--quick] [--out DIR] [--jobs N]
//! nfsperf table1
//! nfsperf concurrency
//! nfsperf transport [--quick] [--out FILE] [--jobs N]
//! nfsperf fleet [--quick] [--out FILE] [--jobs N]
//! nfsperf megafleet [--quick] [--counts LIST] [--out FILE] [--jobs N]
//! nfsperf qos [--quick] [--out FILE] [--jobs N]
//! nfsperf netqos [--quick] [--port-sched P] [--out FILE] [--jobs N]
//! nfsperf cawl [--quick] [--out FILE] [--jobs N]
//! nfsperf help
//! ```
//!
//! Sweep commands fan their independent cells across `--jobs` worker
//! threads (default: `NFSPERF_JOBS`, else the machine's parallelism) via
//! [`nfsperf_sim::runner`]; output is bit-identical at any jobs count.
//!
//! Argument parsing is deliberately hand rolled: the workspace has no
//! CLI-framework dependency and the grammar is tiny.

use std::process::ExitCode;

use nfsperf_client::ClientTuning;
use nfsperf_experiments::{
    cawl_sweep, figures, fleet_sweep, megafleet_sweep, netqos_sweep, qos_sweep, run_bonnie,
    transport_sweep, NetSched, Scenario, ServerKind, TrafficMix, CAWL_QUICK_RAM_SIZES,
    CAWL_QUICK_SERVERS, CAWL_RAM_SIZES, CAWL_SERVERS, FLEET_CLIENT_COUNTS, LOSS_RATES,
    MEGAFLEET_COUNTS, MEGAFLEET_QUICK_COUNTS,
};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::{runner, SimDuration};
use nfsperf_sunrpc::Transport;

fn usage() -> &'static str {
    "nfsperf — Linux NFS Client Write Performance (Lever & Honeyman 2002), simulated

USAGE:
    nfsperf run [--tuning T] [--server S] [--size-mb N] [--cpus N]
                [--ram-mb N] [--slots N] [--jumbo] [--seed N]
                [--transport X] [--loss P] [--latencies FILE]
    nfsperf figures [--quick] [--out DIR] [--jobs N]
    nfsperf table1
    nfsperf concurrency
    nfsperf transport [--quick] [--out FILE] [--jobs N]
    nfsperf fleet [--quick] [--out FILE] [--jobs N]
    nfsperf megafleet [--quick] [--counts LIST] [--out FILE] [--jobs N]
    nfsperf qos [--quick] [--out FILE] [--jobs N]
    nfsperf netqos [--quick] [--port-sched P] [--out FILE] [--jobs N]
    nfsperf cawl [--quick] [--out FILE] [--jobs N]
    nfsperf help

OPTIONS (run):
    --tuning    linux-2.4.4 | no-flush | hash-table | full-patch
                | cawl (full patch + foreground throttling)        [full-patch]
    --server    filer | knfsd | slow | fast                        [filer]
    --size-mb   file size in MB                                    [100]
    --cpus      client CPUs                                        [2]
    --ram-mb    client RAM in MB                                   [256]
    --slots     RPC slot-table size                                [16]
    --jumbo     9000-byte MTU on both ends
    --seed      RNG seed                                           [0x1f5]
    --transport udp | tcp                                          [udp]
    --loss      per-fragment datagram loss probability             [0]
    --latencies write per-call latencies as CSV to FILE

COMMANDS:
    transport   UDP vs UDP+jumbo vs TCP matrix across loss rates
                (8 MB per cell; --quick for 2 MB); writes CSV to --out
                [results/transport.csv]
    fleet       client scaling sweep, 1-32 clients x {filer, knfsd} x
                {udp, tcp} through one shared uplink (4 MB per client;
                --quick for 1-4 clients at 1 MB); writes CSV to --out
                [results/fleet.csv]
    megafleet   flyweight fleet sweep: 1k-1M behavioral clients (plus 4
                embedded faithful clients) through a two-tier switch
                fabric into {filer, knfsd}; per-cell calibration against
                the target server; reports aggregate MB/s, per-tier Jain,
                p99s, and resident bytes per flyweight. --quick stops at
                100k clients; --counts takes a comma list (e.g.
                1000,100000). Writes CSV to --out [results/megafleet.csv]
    qos         unfair-workload sweep: one hog (gigabit NIC, 64 RPC
                slots, 32 KB writes, periodic fsync) vs 7 victims,
                {filer, knfsd} x {fifo, drr, classed-drr} (--quick for
                filer only with 4 victims); writes CSV to --out
                [results/qos.csv]
    netqos      network-QoS sweep: open-loop heavy-tailed aggressors
                (hog / incast / sync-storm mixes) vs 7 NFS victims at the
                shared switch uplink, {filer, knfsd} x {port-fifo,
                port-drr, port-wrr} (--quick for knfsd only at 1 MB per
                victim); --port-sched restricts to one policy; writes CSV
                to --out [results/netqos.csv]
    cawl        cache-aware memory-model regime sweep: client RAM
                {64 MB, 256 MB, 1 GB} x server {filer, knfsd, fast} x
                file size {0.5x, 1x, 2x, 4x RAM} under the cawl tuning;
                marks each cell cache-fit or writeback-bound (--quick
                for 16 MB RAM x {filer, fast}); writes CSV to --out
                [results/cawl.csv]

    --jobs N    worker threads for a sweep's independent cells
                [NFSPERF_JOBS, else the machine's parallelism]; results
                are bit-identical at any value
"
}

fn parse_tuning(s: &str) -> Option<ClientTuning> {
    Some(match s {
        "linux-2.4.4" | "stock" => ClientTuning::linux_2_4_4(),
        "no-flush" => ClientTuning::no_flush(),
        "hash-table" | "normal" => ClientTuning::hash_table(),
        "full-patch" | "no-lock" => ClientTuning::full_patch(),
        "cawl" => ClientTuning::cawl(),
        _ => return None,
    })
}

fn parse_server(s: &str) -> Option<ServerKind> {
    Some(match s {
        "filer" | "netapp" => ServerKind::Filer,
        "knfsd" | "linux" => ServerKind::Knfsd,
        "slow" | "100bt" => ServerKind::Slow100,
        "fast" => ServerKind::Fast,
        _ => return None,
    })
}

struct Args {
    items: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.items.iter().position(|a| a == name) {
            self.items.remove(i);
            true
        } else {
            false
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        if let Some(i) = self.items.iter().position(|a| a == name) {
            if i + 1 >= self.items.len() {
                return Err(format!("{name} needs a value"));
            }
            let v = self.items.remove(i + 1);
            self.items.remove(i);
            Ok(Some(v))
        } else {
            Ok(None)
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("bad value for {name}: {v}")),
            None => Ok(None),
        }
    }

    fn finish(&self) -> Result<(), String> {
        if self.items.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognised arguments: {:?}", self.items))
        }
    }

    /// `--jobs N` if given (must be positive), else the runner default
    /// (`NFSPERF_JOBS`, else the machine's parallelism).
    fn jobs(&mut self) -> Result<usize, String> {
        match self.parsed::<usize>("--jobs")? {
            Some(0) => Err("--jobs must be at least 1".into()),
            Some(n) => Ok(n),
            None => Ok(runner::default_jobs()),
        }
    }
}

fn cmd_run(mut args: Args) -> Result<(), String> {
    let tuning = match args.value("--tuning")? {
        Some(v) => parse_tuning(&v).ok_or(format!("unknown tuning {v}"))?,
        None => ClientTuning::full_patch(),
    };
    let server = match args.value("--server")? {
        Some(v) => parse_server(&v).ok_or(format!("unknown server {v}"))?,
        None => ServerKind::Filer,
    };
    let size_mb: u64 = args.parsed("--size-mb")?.unwrap_or(100);
    let mut scenario = Scenario::new(tuning, server);
    if let Some(cpus) = args.parsed("--cpus")? {
        scenario.ncpus = cpus;
    }
    if let Some(ram_mb) = args.parsed::<u64>("--ram-mb")? {
        scenario.ram_bytes = ram_mb << 20;
    }
    if let Some(slots) = args.parsed("--slots")? {
        scenario.mount.slots = slots;
    }
    if let Some(seed) = args.parsed("--seed")? {
        scenario.seed = seed;
    }
    if args.flag("--jumbo") {
        scenario = scenario.with_jumbo_frames();
    }
    let transport = match args.value("--transport")? {
        Some(v) => Transport::parse(&v).ok_or(format!("unknown transport {v}"))?,
        None => Transport::Udp,
    };
    scenario = scenario.with_transport(transport);
    if let Some(loss) = args.parsed::<f64>("--loss")? {
        if !(0.0..1.0).contains(&loss) {
            return Err(format!("--loss {loss} not in [0, 1)"));
        }
        scenario = scenario.with_loss(loss);
    }
    let latency_file = args.value("--latencies")?;
    args.finish()?;

    let out = run_bonnie(&scenario, size_mb << 20);
    let r = &out.report;
    println!(
        "run: tuning={} server={} transport={} size={}MB cpus={} ram={}MB slots={}",
        tuning.label(),
        server.label(),
        transport.label(),
        size_mb,
        scenario.ncpus,
        scenario.ram_bytes >> 20,
        scenario.mount.slots,
    );
    println!("  write throughput : {:>8.1} MB/s", r.write_mbps());
    println!("  through flush    : {:>8.1} MB/s", r.flush_mbps());
    println!("  through close    : {:>8.1} MB/s", r.close_mbps());
    println!("  mean latency     : {}", r.mean_latency());
    println!(
        "  mean excl >1ms   : {}",
        r.mean_latency_excluding(SimDuration::from_millis(1))
    );
    println!(
        "  calls >1ms       : {}",
        r.spikes(SimDuration::from_millis(1))
    );
    println!(
        "  rpcs             : {} WRITE, {} COMMIT, {} retransmits",
        out.mount_stats.write_rpcs, out.mount_stats.commit_rpcs, out.xprt_stats.retransmits
    );
    println!(
        "  lock             : {} acquisitions, total wait {}",
        out.lock_stats.acquisitions, out.lock_stats.total_wait
    );
    println!("  net tx           : {:>8.1} MB/s", out.net_tx_mbps);
    if let Some(t) = out.tcp_stats {
        println!(
            "  tcp              : {} connects, {} retransmits ({} fast), {} RTOs",
            t.connects, t.retransmits, t.fast_retransmits, t.rto_timeouts
        );
    }
    if out.client_drops > 0 {
        println!("  client drops     : {}", out.client_drops);
    }
    println!("  profile top 3    :");
    for row in out.profile.iter().take(3) {
        println!("      {:22} {}", row.label, row.time);
    }
    if let Some(path) = latency_file {
        let mut csv = String::from("call,latency_us\n");
        for (i, l) in r.latencies.iter().enumerate() {
            csv.push_str(&format!("{},{:.3}\n", i, l.as_micros_f64()));
        }
        std::fs::write(&path, csv).map_err(|e| format!("write {path}: {e}"))?;
        println!("  latencies        : wrote {path}");
    }
    Ok(())
}

fn cmd_figures(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out_dir = args.value("--out")?.unwrap_or_else(|| "results".into());
    let jobs = args.jobs()?;
    args.finish()?;
    let sizes = if quick {
        figures::quick_file_sizes()
    } else {
        figures::paper_file_sizes()
    };
    let dir = std::path::Path::new(&out_dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    // Phased work-list: every exhibit split into its independent worlds
    // (one cell per throughput point, histogram half, table entry, ...)
    // so the pool always has work; `assemble_exhibits` pairs the parts
    // back into CSVs byte-identical to the monolithic exhibits.
    let cells = figures::exhibit_cells(&sizes);
    eprintln!("rendering {} exhibit cells on {} worker(s) ...", cells.len(), jobs);
    let parts = runner::run_cells(jobs, cells);
    for (name, body) in figures::assemble_exhibits(&sizes, parts) {
        std::fs::write(dir.join(name), body).map_err(|e| e.to_string())?;
    }
    println!("wrote figures to {out_dir}/");
    Ok(())
}

fn cmd_table1(args: Args) -> Result<(), String> {
    args.finish()?;
    let t = figures::table1();
    println!("Table 1 — memory write throughput (MB/s), 5 MB file");
    println!("                      Normal   No lock");
    println!(
        "  NetApp filer        {:>6.0}   {:>7.0}",
        t.filer_normal, t.filer_no_lock
    );
    println!(
        "  Linux NFS server    {:>6.0}   {:>7.0}",
        t.linux_normal, t.linux_no_lock
    );
    Ok(())
}

fn cmd_concurrency(args: Args) -> Result<(), String> {
    args.finish()?;
    println!("two concurrent writers, 8 MB each:");
    for (label, r) in nfsperf_experiments::future_work_comparison(8 << 20) {
        println!(
            "  {label:28} 1w {:>6.1} MB/s  2w {:>6.1} MB/s  x{:.2}",
            r.one_writer_mbps,
            r.two_writers_mbps,
            r.scaling()
        );
    }
    Ok(())
}

fn cmd_transport(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/transport.csv".into());
    let jobs = args.jobs()?;
    args.finish()?;
    let size: u64 = if quick { 2 << 20 } else { 8 << 20 };
    println!(
        "transport x loss sweep: {} MB sequential write, full patch, filer server",
        size >> 20
    );
    let sweep = transport_sweep(size, LOSS_RATES, jobs);
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_fleet(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/fleet.csv".into());
    let jobs = args.jobs()?;
    args.finish()?;
    let counts: &[usize] = if quick { &[1, 2, 4] } else { FLEET_CLIENT_COUNTS };
    let bytes_per_client: u64 = if quick { 1 << 20 } else { 4 << 20 };
    println!(
        "fleet scaling sweep: {} MB per client, shared uplink at the server NIC rate",
        bytes_per_client >> 20
    );
    let sweep = fleet_sweep(
        counts,
        &[ServerKind::Filer, ServerKind::Knfsd],
        &[Transport::Udp, Transport::Tcp],
        bytes_per_client,
        jobs,
    );
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_megafleet(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/megafleet.csv".into());
    let counts: Vec<u32> = match args.value("--counts")? {
        Some(list) => {
            let parsed: Result<Vec<u32>, _> = list.split(',').map(|s| s.trim().parse()).collect();
            let parsed = parsed.map_err(|_| format!("bad --counts list: {list}"))?;
            if parsed.is_empty() || parsed.contains(&0) {
                return Err(format!("bad --counts list: {list}"));
            }
            parsed
        }
        None if quick => MEGAFLEET_QUICK_COUNTS.to_vec(),
        None => MEGAFLEET_COUNTS.to_vec(),
    };
    let jobs = args.jobs()?;
    args.finish()?;
    println!(
        "megafleet sweep: {{{}}} flyweights + 4 faithful through a two-tier fabric",
        counts
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let sweep = megafleet_sweep(
        &counts,
        &[ServerKind::Filer, ServerKind::Knfsd],
        quick,
        jobs,
    );
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_qos(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/qos.csv".into());
    let jobs = args.jobs()?;
    args.finish()?;
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
    println!(
        "qos sweep: 1 hog (gigabit NIC, 64 slots, 32 KB writes, periodic fsync) \
         vs {} victims, {} MB per victim",
        victims,
        bytes >> 20
    );
    let sweep = qos_sweep(servers, &scheds, victims, bytes, jobs);
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_netqos(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/netqos.csv".into());
    let port_sched = args.value("--port-sched")?;
    let jobs = args.jobs()?;
    args.finish()?;
    let scheds: Vec<NetSched> = match port_sched.as_deref() {
        None => NetSched::ALL.to_vec(),
        Some(s) => vec![NetSched::parse(s).ok_or_else(|| {
            format!("unknown --port-sched {s} (port-fifo | port-drr | port-wrr)")
        })?],
    };
    let (servers, victims, bytes): (&[ServerKind], usize, u64) = if quick {
        (&[ServerKind::Knfsd], 7, 1 << 20)
    } else {
        (&[ServerKind::Filer, ServerKind::Knfsd], 7, 2 << 20)
    };
    println!(
        "netqos sweep: open-loop {{hog, incast, storm}} aggressors vs {} victims, \
         {} MB per victim",
        victims,
        bytes >> 20
    );
    let sweep = netqos_sweep(servers, &scheds, &TrafficMix::ALL, victims, bytes, jobs);
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_cawl(mut args: Args) -> Result<(), String> {
    let quick = args.flag("--quick");
    let out = args
        .value("--out")?
        .unwrap_or_else(|| "results/cawl.csv".into());
    let jobs = args.jobs()?;
    args.finish()?;
    let (rams, servers): (&[u64], &[ServerKind]) = if quick {
        (&CAWL_QUICK_RAM_SIZES, &CAWL_QUICK_SERVERS)
    } else {
        (&CAWL_RAM_SIZES, &CAWL_SERVERS)
    };
    println!(
        "cawl sweep: RAM {:?} MB x {} server(s) x file {{0.5, 1, 2, 4}}x RAM, cawl tuning",
        rams.iter().map(|r| r >> 20).collect::<Vec<_>>(),
        servers.len()
    );
    let sweep = cawl_sweep(rams, servers, jobs);
    println!("{}", sweep.render());
    sweep
        .write_csv(std::path::Path::new(&out))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cmd = argv.remove(0);
    let args = Args { items: argv };
    let result = match cmd.as_str() {
        "run" => cmd_run(args),
        "figures" => cmd_figures(args),
        "table1" => cmd_table1(args),
        "concurrency" => cmd_concurrency(args),
        "transport" => cmd_transport(args),
        "fleet" => cmd_fleet(args),
        "megafleet" => cmd_megafleet(args),
        "qos" => cmd_qos(args),
        "netqos" => cmd_netqos(args),
        "cawl" => cmd_cawl(args),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
