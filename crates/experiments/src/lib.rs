//! Experiment runners reproducing the paper's evaluation.
//!
//! [`figures`] renders every exhibit (Figures 1–7, Table 1, the §3.5
//! slow-server comparison) from one phased work-list; [`ablations`]
//! sweeps the design parameters; [`transport`] compares UDP and TCP
//! mounts under packet loss; [`fleet`] scales client count against one
//! shared server; [`megafleet`] pushes that to 10k–1M flyweight clients
//! through a multi-stage fabric; [`scenario`] assembles worlds;
//! [`render`] writes CSVs and ASCII charts.

pub mod ablations;
pub mod arrivals;
pub mod cawl;
pub mod concurrency;
pub mod figures;
pub mod fleet;
pub mod megafleet;
pub mod netqos;
pub mod qos;
pub mod render;
pub mod scenario;
pub mod transport;

pub use ablations::{
    commit_threshold_sweep, cpu_ablation, mtu_ablation, nvram_sweep, slot_table_sweep,
    soft_limit_sweep, workload_comparison, wsize_sweep, CpuAblation, MtuAblation,
    WorkloadComparison,
};
pub use arrivals::{OpenLoop, TrafficMix};
pub use cawl::{
    cawl_cells, cawl_sweep, run_cawl, CawlCell, CawlSweep, CAWL_FILE_HALVES, CAWL_QUICK_RAM_SIZES,
    CAWL_QUICK_SERVERS, CAWL_RAM_SIZES, CAWL_SERVERS,
};
pub use concurrency::{concurrent_writers, future_work_comparison, ConcurrencyResult, Topology};
pub use figures::{
    paper_file_sizes, quick_file_sizes, slow_server_comparison, table1, Exhibits, HistogramPair,
    LatencyTrace, SlowServerComparison, Table1,
};
pub use fleet::{
    fleet_cells, fleet_sweep, jain_index, run_fleet, FleetCell, FleetConfig, FleetRun, FleetSweep,
    FLEET_CLIENT_COUNTS,
};
pub use megafleet::{
    bytes_for_count, megafleet_cells, megafleet_sweep, run_megafleet, MegaCell, MegaConfig,
    MegaRun, MegaSweep, MEGAFLEET_COUNTS, MEGAFLEET_FAITHFUL, MEGAFLEET_QUICK_COUNTS,
};
pub use netqos::{
    netqos_sweep, run_netqos, NetQosCell, NetQosConfig, NetQosRun, NetQosSweep, NetSched,
};
pub use qos::{
    assemble_qos_rows, qos_run_cells, qos_sweep, run_qos, QosCell, QosConfig, QosRun, QosSweep,
};
pub use render::{ascii_table, write_csv, Series, Sweep};
pub use scenario::{
    run_bonnie, run_custom, run_local, run_local_with_ram, write_throughput_mbps, RunOutput,
    Scenario, ServerKind,
};
pub use transport::{transport_cells, transport_sweep, TransportRow, TransportSweep, LOSS_RATES};
