//! # vnettracer — efficient and programmable packet tracing for
//! virtualized networks
//!
//! A from-scratch reproduction of **vNetTracer** (Suo, Zhao, Chen, Rao —
//! IEEE ICDCS 2018): an eBPF-based tracing framework that follows
//! individual packets across the protection-domain boundaries of a
//! virtualized network (guest OS ↔ hypervisor ↔ virtual switches ↔
//! overlay devices) with negligible overhead, reconfigurable at runtime.
//!
//! The architecture mirrors the paper's Fig. 2:
//!
//! * [`dispatcher`] — the master-side *control data dispatcher* formats
//!   user input (filter rules, tracepoints, actions, global config) into
//!   JSON control packages, one per monitored node;
//! * [`agent`] — per-node daemons compile each trace spec to eBPF
//!   ([`compile`]), load it through the verifier, attach it at kprobes /
//!   kretprobes / device taps, and periodically dump the kernel-side perf
//!   buffers;
//! * [`collector`] — the master-side *raw data collector* ingests record
//!   batches into a per-tracepoint trace database (`vnet-tsdb`) and
//!   doubles as a heartbeat monitor;
//! * the 4-byte per-packet trace ID embedded in TCP options or appended
//!   to UDP payloads ([`vnet_sim::packet::trace_id`], written by devices
//!   in the [`Inject`](vnet_sim::device::TraceIdRole::Inject) role) is
//!   what lets records from isolated domains be joined (the 32-byte
//!   record itself is [`vnet_tsdb::CompactRecord`], from the eBPF stack
//!   to the store);
//! * [`clock_sync`] — Cristian's-algorithm skew estimation, and the
//!   offline alignment of every node's timestamps onto the master clock;
//! * [`metrics`] — offline computation over the trace database:
//!   throughput, latency (t2 − t1 joined by trace ID, on aligned clocks)
//!   and its end-to-end decomposition, incomplete records, jitter and
//!   packet loss, called as `metrics::f(tracer.db(), …)`.
//!
//! The traced "virtualized network" is the deterministic simulator in
//! `vnet-sim`; the eBPF runtime is `vnet-ebpf`. See `DESIGN.md` at the
//! repository root for the full substitution map against the paper's
//! testbed.
//!
//! ## Quickstart
//!
//! The repository's `examples/quickstart.rs` walks through the paper's
//! §III-A example — measuring latency between two VXLAN devices of a
//! multi-host container network:
//!
//! ```
//! use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};
//!
//! // 1. Describe what to trace (the user input of §III-A).
//! let spec = TraceSpec {
//!     name: "flannel1_rx".into(),
//!     node: "server1".into(),
//!     hook: HookSpec::DeviceRx("flannel.1".into()),
//!     filter: FilterRule::udp_flow(
//!         ("10.32.0.2".parse().unwrap(), 9000),
//!         ("10.40.0.2".parse().unwrap(), 7),
//!     ),
//!     action: Action::RecordPacketInfo,
//! };
//! // 2. The dispatcher ships it as a formatted control package…
//! let package = ControlPackage::new(vec![spec]);
//! let json = package.to_json();
//! assert!(json.contains("flannel1_rx"));
//! // 3. …agents install it into the live network; see the examples for
//! //    the full deploy / run / collect / analyze cycle.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agent;
pub mod clock_sync;
pub mod collector;
pub mod compile;
pub mod config;
pub mod dispatcher;
pub mod error;
pub mod metrics;
pub mod modules;
pub mod tracer;

pub use agent::{Agent, ScriptId, ScriptStats};
pub use clock_sync::{estimate_skew, SkewEstimate, SkewSample};
pub use collector::{Collector, IngestSubscriber};
pub use config::{Action, ControlPackage, FilterRule, GlobalConfig, HookSpec, TraceSpec};
pub use dispatcher::Dispatcher;
pub use error::{Result, TracerError};
pub use modules::{MetricSpec, ModuleRegistry, ModuleScope, OvsTap, TapSpec};
pub use tracer::{DeployedScript, VNetTracer};
