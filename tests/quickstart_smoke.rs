//! Smoke test guarding the end-to-end write path every figure runner
//! shares: the same world `examples/quickstart.rs` builds (client kernel,
//! gigabit NICs, filer server, fully patched mount) must run to
//! completion and produce non-zero throughput. `scripts/verify.sh`
//! additionally runs the example binary itself and checks its output.

use std::rc::Rc;

use nfsperf_client::{ClientTuning, MountConfig, NfsMount};
use nfsperf_kernel::{Kernel, KernelConfig};
use nfsperf_net::{Nic, NicSpec, Path};
use nfsperf_server::{NfsServer, ServerConfig};
use nfsperf_sim::Sim;

#[test]
fn quickstart_world_completes_with_nonzero_throughput() {
    let sim = Sim::new();

    let kernel = Kernel::new(&sim, KernelConfig::default());
    let (client_nic, client_rx) = Nic::new(&sim, "client", NicSpec::gigabit());
    let (server_nic, server_rx) = Nic::new(&sim, "server", NicSpec::gigabit());
    let to_server = Path::new(Rc::clone(&client_nic), server_nic, Path::default_latency());

    let server = NfsServer::spawn(
        &sim,
        server_rx,
        to_server.reversed(),
        ServerConfig::netapp_f85(),
    );

    let mount = NfsMount::mount(
        &kernel,
        to_server,
        client_rx,
        MountConfig {
            tuning: ClientTuning::full_patch(),
            ..MountConfig::default()
        },
    );

    let mount2 = Rc::clone(&mount);
    let sim2 = sim.clone();
    let report = sim.run_until(async move {
        let file = mount2.create("quickstart.dat").await.expect("create");
        nfsperf_bonnie::run(&sim2, &file, &nfsperf_bonnie::BonnieConfig::new(4 << 20)).await
    });

    assert_eq!(report.file_size, 4 << 20, "must write the whole file");
    assert!(
        report.write_mbps() > 0.0,
        "write throughput must be non-zero, got {}",
        report.write_mbps()
    );
    assert!(
        report.flush_mbps() > 0.0,
        "flush throughput must be non-zero"
    );
    assert!(
        report.close_mbps() > 0.0,
        "close throughput must be non-zero"
    );

    let xprt = mount.xprt().stats();
    assert!(xprt.calls > 0, "the mount must have issued RPCs");
    assert_eq!(xprt.replies, xprt.calls, "every call must be answered");

    let srv = server.stats();
    assert!(srv.writes > 0, "the server must have seen WRITEs");
    assert_eq!(srv.write_bytes, 4 << 20, "every byte must reach the server");
}
