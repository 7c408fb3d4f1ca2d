//! # vnet-workloads — workload generators for the vNetTracer evaluation
//!
//! Simulation-native counterparts of the benchmark tools the paper drives
//! its experiments with:
//!
//! * [`sockperf`] — fixed-rate UDP request/echo latency measurement
//!   (Figs. 7a, 8, 9, 10a, 11),
//! * [`iperf`] — open-loop UDP flooding for congestion (Figs. 8, 9, 12),
//! * [`netperf`] — closed-loop fixed-window TCP streaming (Figs. 7b, 12),
//! * [`tcp_stream`] — AIMD (Reno-style) TCP bulk sender whose offered
//!   load breathes with congestion, as the paper's default-TCP iPerf
//!   does,
//! * [`memcached`] — the CloudSuite Data Caching GET/SET mix (Fig. 10b),
//! * [`stats`] — shared latency/throughput recorders the harness reads
//!   after a run,
//! * [`datacenter_rack`] — the rack-scale scenario (hundreds of VM
//!   nodes, thousands of container apps, ≥1M concurrent flows over an
//!   OVS/VXLAN overlay): the event loop at scale.
//!
//! Every generator implements [`vnet_sim::app::App`] and plugs into any
//! topology built on the simulator. CPU-hog "workloads" need no app: they
//! are `always_runnable` vCPUs registered with the hypervisor scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datacenter_rack;
pub mod iperf;
pub mod memcached;
pub mod netperf;
pub mod sockperf;
pub mod stats;
pub mod tcp_stream;
pub mod wire;

pub use datacenter_rack::{FlowFanClient, RackConfig, RackScenario};
pub use iperf::{IperfClient, IperfServer};
pub use memcached::{DataCachingClient, DataCachingServer, MemcachedProxy};
pub use netperf::{NetperfClient, NetperfServer};
pub use sockperf::{SockperfClient, SockperfServer};
pub use stats::{LatencyRecorder, ThroughputRecorder};
pub use tcp_stream::{TcpStreamClient, TcpStreamStats};
