//! Each hand-built benchmark world must produce the same simulated
//! outputs as the experiment runner it mirrors (`run_bonnie`,
//! `run_megafleet`, `run_fleet`) for the same config, at small sizes —
//! and must pass its own conservation checks.

use nfsperf_client::ClientTuning;
use nfsperf_experiments::{
    run_bonnie, run_fleet, run_megafleet, FleetConfig, MegaConfig, Scenario, ServerKind,
};
use nfsperf_server::SchedPolicy;
use nfsperf_sim::profile::take_thread_events;
use nfsperf_simbench::worlds::{build, Outcome, Spec, DEFAULT_SEED, MEGA_FAITHFUL};
use nfsperf_sunrpc::Transport;

const SEEDS: [u64; 2] = [DEFAULT_SEED, 7];

fn counter(out: &Outcome, name: &str) -> f64 {
    out.counters
        .iter()
        .find(|(k, _)| *k == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .1
}

fn ms(d: nfsperf_sim::SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn run_world(spec: Spec, seed: u64) -> Outcome {
    let out = build(spec, seed).run();
    assert!(
        out.failures.is_empty(),
        "conservation failed: {:?}",
        out.failures
    );
    out
}

#[test]
fn bonnie_world_matches_run_bonnie() {
    for seed in SEEDS {
        let file_size = 4 << 20;
        let scenario = Scenario {
            seed,
            ..Scenario::new(ClientTuning::full_patch(), ServerKind::Filer)
        };
        take_thread_events();
        let reference = run_bonnie(&scenario, file_size);
        let events = take_thread_events();
        let out = run_world(Spec::Bonnie { file_size }, seed);

        assert_eq!(counter(&out, "sim.events"), events as f64);
        assert_eq!(
            counter(&out, "sim.close_mbps"),
            reference.report.close_mbps()
        );
        assert_eq!(
            counter(&out, "client.write_rpcs"),
            reference.mount_stats.write_rpcs as f64
        );
        assert_eq!(
            counter(&out, "client.commit_rpcs"),
            reference.mount_stats.commit_rpcs as f64
        );
        assert_eq!(
            counter(&out, "kernel.bkl_wait_ms"),
            ms(reference.lock_stats.total_wait)
        );
        assert_eq!(
            counter(&out, "kernel.peak_dirty_pages"),
            reference.peak_dirty_pages as f64
        );
        assert_eq!(
            counter(&out, "sunrpc.retransmits"),
            reference.xprt_stats.retransmits as f64
        );
        assert_eq!(
            counter(&out, "server.writes"),
            reference.server_stats.writes as f64
        );
        assert_eq!(
            counter(&out, "server.commits"),
            reference.server_stats.commits as f64
        );
    }
}

#[test]
fn mega_world_matches_run_megafleet() {
    for seed in SEEDS {
        let (flyweights, bytes_per_client) = (64, 64 << 10);
        let reference = run_megafleet(&MegaConfig {
            seed,
            ..MegaConfig::new(ServerKind::Filer, flyweights, bytes_per_client)
        });
        let out = run_world(
            Spec::Mega {
                flyweights,
                bytes_per_client,
            },
            seed,
        );

        assert_eq!(reference.faithful, MEGA_FAITHFUL);
        assert_eq!(counter(&out, "sim.events"), reference.events as f64);
        assert_eq!(counter(&out, "sim.close_mbps"), reference.aggregate_mbps);
        assert_eq!(counter(&out, "fleet.rpc_p99_ms"), reference.fly_rpc_p99_ms);
        assert_eq!(
            counter(&out, "server.svc_p99_ms"),
            reference.faithful_svc_p99_ms
        );
        assert_eq!(
            counter(&out, "server.writes"),
            reference.server_stats.writes as f64
        );
        assert_eq!(
            counter(&out, "server.commits"),
            reference.server_stats.commits as f64
        );
        assert_eq!(
            out.rpcs,
            reference.server_stats.writes + reference.server_stats.commits
        );
        assert_eq!(out.flyweights as u64, reference.slim_stats.clients);
    }
}

#[test]
fn fleet_world_matches_run_fleet() {
    for seed in SEEDS {
        let (clients, bytes_per_client) = (4, 1 << 20);
        let reference = run_fleet(&FleetConfig {
            seed,
            sched: SchedPolicy::drr(),
            ..FleetConfig::new(ServerKind::Knfsd, Transport::Tcp, clients, bytes_per_client)
        });
        let out = run_world(
            Spec::Fleet {
                clients,
                bytes_per_client,
            },
            seed,
        );

        let worst = |f: &dyn Fn(&nfsperf_server::PerClientStats) -> f64| {
            reference
                .per_client_server
                .iter()
                .map(f)
                .fold(0.0, f64::max)
        };
        assert_eq!(counter(&out, "sim.close_mbps"), reference.aggregate_mbps);
        assert_eq!(
            counter(&out, "server.writes"),
            reference.server_stats.writes as f64
        );
        assert_eq!(
            counter(&out, "server.commits"),
            reference.server_stats.commits as f64
        );
        assert_eq!(
            counter(&out, "server.svc_p99_ms"),
            worst(&|c| ms(c.service.p99))
        );
        assert_eq!(
            counter(&out, "server.queue_p99_ms"),
            worst(&|c| ms(c.queue_delay.p99))
        );
    }
}

/// The model counters are a pure function of the seed.
#[test]
fn model_counters_repeat_exactly() {
    let spec = Spec::Fleet {
        clients: 2,
        bytes_per_client: 1 << 20,
    };
    let a = run_world(spec, 11);
    let b = run_world(spec, 11);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.rpcs, b.rpcs);
}
