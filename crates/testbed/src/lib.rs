//! # vnet-testbed — prebuilt evaluation scenarios
//!
//! One module per experiment of the paper's §IV, each assembling the
//! topology, workloads and trace-script packages so that examples,
//! integration tests and the benchmark harness drive identical setups:
//!
//! * [`two_host`] — Fig. 7(a): Sockperf between two KVM VMs on two hosts,
//!   with and without vNetTracer.
//! * [`netperf_xen`] — Fig. 7(b): Netperf TCP into a Xen VM; vNetTracer
//!   vs SystemTap at `tcp_recvmsg`, 1 GbE and 10 GbE.
//! * [`ovs`] — Figs. 8–9: Sockperf + iPerf congestion through Open
//!   vSwitch; latency decomposition and ingress rate limiting.
//! * [`xen`] — Figs. 10–11: the credit2 rate-limit tail-latency problem
//!   under CPU consolidation, Sockperf and Data Caching.
//! * [`container`] — Figs. 12–13: VM versus container-overlay (VXLAN)
//!   networking; softirq rates, distribution and data paths.
//! * [`rack`] — the `datacenter_rack` scale scenario with a tracing
//!   agent on every node.
//! * [`emulate`] — trace-driven adversarial link conditions (LEO
//!   handover, congested WAN, flapping, asymmetric skew, bursty loss)
//!   replayed against the two-host and rack testbeds, with the
//!   `vnet-live` anomaly detector scored against ground truth.
//! * [`drop_lab`] — engineered drop lanes (one per typed
//!   [`vnet_sim::device::DropReason`]) plus an OVS fabric bridge: the
//!   ground-truth scenario for the `skb-drop` and `ovs-flow` modules.
//! * [`memcached_chain`] — client → proxy → backend memcached tiers with
//!   the in-band trace ID carried across the proxy hop: the
//!   `request-trace` module's cross-tier decomposition scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod container;
pub mod drop_lab;
pub mod emulate;
pub mod memcached_chain;
pub mod netperf_xen;
pub mod ovs;
pub mod rack;
pub mod two_host;
pub mod xen;

use vnet_sim::world::World;

/// What a front end needs to trace any of these scenarios: its world.
/// The tracer comes from the world too, with an agent on each of its
/// nodes ([`vnettracer::VNetTracer::for_world`]).
pub trait Testbed {
    /// The world the scenario runs in.
    fn world(&mut self) -> &mut World;
}
