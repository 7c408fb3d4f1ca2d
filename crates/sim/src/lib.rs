//! # vnet-sim — a discrete-event simulator of virtualized networks
//!
//! This crate is the substrate on which the [vNetTracer (ICDCS 2018)]
//! reproduction runs. It models, at packet granularity and with real byte
//! buffers, the virtualized network stacks the paper traces:
//!
//! * **Packets** ([`packet`]) — Ethernet/IPv4/TCP/UDP/VXLAN frames with
//!   genuine encode/decode and checksums, including the byte-level
//!   trace-ID patch ([`packet::trace_id`]).
//! * **Devices** ([`device`]) — NICs, Open vSwitch ports and fabric,
//!   Linux bridges, veth pairs, VXLAN endpoints and guest stacks, each a
//!   queue + serving process with configurable service models, ingress
//!   policing and forwarding.
//! * **Schedulers** ([`sched`]) — Xen credit1/credit2 vCPU schedulers with
//!   the context-switch rate limit behind Case Study II.
//! * **Softirqs** ([`softirq`]) — per-CPU softirq serialization and
//!   steering (IRQ affinity / RPS) behind Case Study III.
//! * **Probes** ([`probe`]) — named kernel-function and device hooks where
//!   tracers attach; probe execution cost feeds back into packet
//!   processing time, so tracing overhead perturbs the system exactly as
//!   it would on a live kernel.
//! * **The world** ([`world`]) — the single-threaded event loop tying
//!   nodes, devices, schedulers, applications and probes together.
//!   Canonical event keys ([`event::PushKey`]) and per-node RNG streams
//!   make the simulation a function of its seed: bit-identical across
//!   repeated runs and however a run is stepped.
//!
//! The crate deliberately knows nothing about eBPF or vNetTracer itself;
//! those live in `vnet-ebpf` and `vnettracer` and plug in through
//! [`probe::ProbeSink`].
//!
//! ## Example
//!
//! ```
//! use vnet_sim::device::{DeviceConfig, Forwarding};
//! use vnet_sim::node::NodeClock;
//! use vnet_sim::time::{SimDuration, SimTime};
//! use vnet_sim::world::World;
//!
//! let mut world = World::new(7);
//! let host = world.add_node("server1", 20, NodeClock::perfect());
//! let nic = world.add_device(DeviceConfig::new("eth0", host));
//! let stack = world.add_device(DeviceConfig::new("rx", host).forwarding(Forwarding::Deliver));
//! world.connect(nic, stack, SimDuration::from_micros(30));
//! world.run_until(SimTime::from_millis(10));
//! assert_eq!(world.now(), SimTime::from_millis(10));
//! ```
//!
//! [vNetTracer (ICDCS 2018)]: https://doi.org/10.1109/ICDCS.2018.00151

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod device;
pub mod event;
pub mod ids;
pub mod node;
pub mod packet;
pub mod probe;
pub mod profile;
pub mod sched;
pub mod softirq;
pub mod time;
pub mod world;

pub use ids::{AppId, CpuId, DeviceId, NodeId, VcpuId};
pub use time::{SimDuration, SimTime};
pub use world::World;
