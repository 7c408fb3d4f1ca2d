//! Umbrella crate for the vNetTracer reproduction: the runnable examples
//! and cross-crate integration tests live in this package; the substance
//! is in the workspace crates (`vnettracer`, `vnet-sim`, `vnet-ebpf`,
//! `vnet-tsdb`, `vnet-workloads`, `vnet-testbed`).

#![forbid(unsafe_code)]

pub use vnet_ebpf as ebpf;
pub use vnet_sim as sim;
pub use vnet_testbed as testbed;
pub use vnet_tsdb as tsdb;
pub use vnet_workloads as workloads;
pub use vnettracer as tracer;
