//! The benchmark binaries' command line. Each invocation runs one world
//! in a fresh process and prints one JSON object on stdout; `run.py`
//! drives the invocations and aggregates them.
//!
//! ```text
//! simbench once   --workload W --seed N   # setup + run + teardown, untraced
//! simbench setup  --workload W --seed N [--repeat K]  # K setups, no run
//! simbench-traced traced --workload W --seed N  # spans, allocations, replays
//! ```

use std::fmt::Write as _;

use nfsperf_net::PortPolicy;
use nfsperf_server::SchedPolicy;

use crate::replay;
use crate::worlds::{build, Outcome, Workload};

/// Heap acquisitions and bytes acquired so far, from the traced binary's
/// counting allocator.
pub type AllocCounts = fn() -> (u64, u64);

/// Resident and peak-resident memory of this process, MiB.
pub fn rss_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// A flat JSON object writer for the one-line reports.
struct Json(String);

impl Json {
    fn new() -> Json {
        Json(String::from("{"))
    }

    fn key(&mut self, k: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{k}\": ");
    }

    fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        // Non-finite values have no JSON spelling; none is expected.
        let _ = write!(self.0, "{}", if v.is_finite() { v } else { -1.0 });
    }

    fn raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(v);
    }

    fn strings(&mut self, k: &str, vs: &[String]) {
        let quoted: Vec<String> = vs
            .iter()
            .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        self.raw(k, &format!("[{}]", quoted.join(", ")));
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// `{"name": value, ...}` for a list of named numbers.
fn object(pairs: &[(&str, f64)]) -> String {
    let mut j = Json::new();
    for (k, v) in pairs {
        j.num(k, *v);
    }
    j.finish()
}

fn usage() -> ! {
    eprintln!(
        "usage: simbench (once|setup|traced) --workload <paper-1g|megafleet-1m|fleet-tcp-drr> \
         --seed <n> [--repeat <k>]"
    );
    std::process::exit(2);
}

/// Entry point shared by both binaries; `allocs` is `Some` only in the
/// traced one.
pub fn main(allocs: Option<AllocCounts>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().cloned().unwrap_or_else(|| usage());
    let mut workload = None;
    let mut seed = None;
    let mut repeat = 1;
    let mut it = args.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--repeat" => repeat = value.parse::<usize>().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        usage()
    };
    let line = match mode.as_str() {
        "once" => once(workload, seed),
        "setup" => setup_only(workload, seed, repeat),
        "traced" => traced(
            workload,
            seed,
            allocs.unwrap_or_else(|| {
                eprintln!("traced mode needs the simbench-traced binary");
                std::process::exit(2)
            }),
        ),
        _ => usage(),
    };
    println!("{line}");
}

fn outcome_fields(j: &mut Json, out: &Outcome) {
    j.num("rpcs", out.rpcs as f64);
    j.num("setup_s", out.spans.setup_s);
    j.num("run_s", out.spans.run_s);
    j.num("teardown_s", out.spans.teardown_s);
    j.strings("failures", &out.failures);
    j.raw("counters", &object(&out.counters));
}

fn once(workload: Workload, seed: u64) -> String {
    let out = build(workload.spec(), seed).run();
    let mut j = Json::new();
    outcome_fields(&mut j, &out);
    j.num("vm_hwm_mib", rss_mib().1);
    j.finish()
}

fn setup_only(workload: Workload, seed: u64, repeat: usize) -> String {
    let setups: Vec<f64> = (0..repeat.max(1))
        .map(|_| {
            let world = build(workload.spec(), seed);
            let setup_s = world.spans().setup_s;
            // Never run: skip the drop (worlds hold reference cycles
            // through their daemon tasks); the process exit reclaims them.
            std::mem::forget(world);
            setup_s
        })
        .collect();
    let list: Vec<String> = setups.iter().map(|s| s.to_string()).collect();
    let mut j = Json::new();
    j.raw("setups_s", &format!("[{}]", list.join(", ")));
    j.finish()
}

fn traced(workload: Workload, seed: u64, allocs: AllocCounts) -> String {
    let world = build(workload.spec(), seed);
    let rss_after_setup = rss_mib().0;
    let (a0, b0) = allocs();
    // The allocation window covers run and teardown, the same span
    // rpcs_per_s divides by.
    let out = world.run();
    let (a1, b1) = allocs();
    let rss_after_run = rss_mib().0;
    let rpcs = out.rpcs.max(1) as f64;
    let shape = out.shape;
    let events = out.counters[0].1;

    let pop = shape.wheel_population.max(1);
    let timer_ns = replay::sim_timer_ns(pop, 200_000, false);
    let direct_ns = replay::sim_timer_ns(pop, 200_000, true);
    let task_ns = replay::sim_task_wake_ns(100_000);
    let mem_ns = replay::mem_pin_release_ns(shape.mem_limits, shape.index_peak, 200_000);
    let index_peak = shape.index_peak.max(1);
    let index_ns = replay::req_index_cycle_ns(shape.index_kind, index_peak, 20_000);
    let index_1k_ns = replay::req_index_cycle_ns(shape.index_kind, 1_000, 20_000);
    let batch_ns = replay::dirty_batch_ns(shape.index_kind, index_peak, shape.wsize_pages, 10_000);
    let enc_ns = replay::write3_encode_ns(50_000);
    let dec_ns = replay::write3_decode_ns(50_000);
    let record_ns = replay::record_ns(50_000);
    let tcp_ns = replay::tcp_transfer_ns_per_kib(512);
    let lane_flows = shape.clients.min(shape.lane_backlog.max(1));
    let lane_fifo_ns =
        replay::lane_admit_ns(&PortPolicy::Fifo, shape.lane_backlog, lane_flows, 200_000);
    let lane_drr_ns =
        replay::lane_admit_ns(&PortPolicy::drr(), shape.lane_backlog, lane_flows, 200_000);
    let pool_ns = replay::payload_pool_ns(500_000);
    let sched = |policy| {
        replay::server_sched_ns(
            policy,
            shape.sched_slots,
            shape.sched_backlog,
            shape.clients,
            100_000,
        )
    };
    let sched_fifo_ns = sched(SchedPolicy::Fifo);
    let sched_drr_ns = sched(SchedPolicy::drr());
    let sched_classed_ns = sched(SchedPolicy::classed_drr());

    // Host time by layer: replayed cost per operation × the operations
    // the world performed, as a share of the run phase.
    let ops = out.ops;
    let run_ns = (out.spans.run_s + out.spans.teardown_s) * 1e9;
    let sched_ns = match shape.sched {
        SchedPolicy::Fifo => sched_fifo_ns,
        SchedPolicy::Drr { .. } => sched_drr_ns,
        SchedPolicy::ClassedDrr { .. } => sched_classed_ns,
    };
    let shares = [
        ("share.sim", events * timer_ns / 2.0),
        ("share.kernel", ops.faithful_pages as f64 * mem_ns),
        ("share.client", ops.faithful_writes as f64 * batch_ns),
        ("share.xdr", ops.faithful_writes as f64 * (enc_ns + dec_ns)),
        ("share.sunrpc", ops.tcp_writes as f64 * record_ns),
        ("share.tcp", ops.tcp_kib as f64 * tcp_ns),
        (
            "share.net",
            ops.lane_admits as f64 * lane_fifo_ns + ops.datagrams as f64 * pool_ns,
        ),
        ("share.server", ops.server_ops as f64 * sched_ns),
    ]
    .map(|(k, ns)| (k, ns / run_ns));
    let attributed: f64 = shares.iter().map(|s| s.1).sum();

    let mut rows: Vec<(&str, f64)> = vec![
        ("sim.timer_ns", timer_ns),
        ("sim.direct_dispatch_ns", direct_ns),
        ("sim.task_wake_ns", task_ns),
        ("sim.events_per_rpc", events / rpcs),
        ("kernel.mem_pin_release_ns", mem_ns),
        ("client.req_index_cycle_ns", index_ns),
        ("client.req_index_cycle_ns.1k", index_1k_ns),
        ("client.dirty_batch_ns", batch_ns),
        ("xdr.write3_encode_ns", enc_ns),
        ("xdr.write3_decode_ns", dec_ns),
        ("sunrpc.record_ns", record_ns),
        ("tcp.transfer_ns_per_kib", tcp_ns),
        ("net.lane_admit_ns.fifo", lane_fifo_ns),
        ("net.lane_admit_ns.drr", lane_drr_ns),
        ("net.payload_pool_ns", pool_ns),
        ("server.sched_ns.fifo", sched_fifo_ns),
        ("server.sched_ns.drr", sched_drr_ns),
        ("server.sched_ns.classed", sched_classed_ns),
        ("fleet.calibrate_s", out.spans.calibrate_s),
        (
            "fleet.launch_ns_per_client",
            if out.flyweights > 0 {
                out.spans.launch_s * 1e9 / f64::from(out.flyweights)
            } else {
                0.0
            },
        ),
        ("fleet.bytes_per_client", out.fly_bytes_per_client as f64),
        ("span.rss_after_setup_mb", rss_after_setup),
        ("span.rss_after_run_mb", rss_after_run),
        ("host.allocs_per_rpc", (a1 - a0) as f64 / rpcs),
        ("host.alloc_bytes_per_rpc", (b1 - b0) as f64 / rpcs),
        ("span.setup_s", out.spans.setup_s),
        ("span.run_s", out.spans.run_s),
        ("span.teardown_s", out.spans.teardown_s),
        ("shape.wheel_population", shape.wheel_population as f64),
        ("shape.index_peak", shape.index_peak as f64),
        ("shape.lane_backlog", shape.lane_backlog as f64),
        ("shape.sched_backlog", shape.sched_backlog as f64),
    ];
    rows.extend(shares);
    rows.push(("share.unattributed", 1.0 - attributed));
    rows.extend(out.counters.iter().copied());

    let mut j = Json::new();
    outcome_fields(&mut j, &out);
    j.raw("per_layer", &object(&rows));
    j.finish()
}
