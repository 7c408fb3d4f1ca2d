//! # vnet-baselines — comparison tracers
//!
//! The paper positions vNetTracer against SystemTap (§II, §IV-B): both can
//! attach to the same kernel functions, but SystemTap pays per-event
//! kernel→user copies and a heavyweight runtime, while eBPF keeps trace
//! data in kernel memory. [`systemtap::SystemTapProbe`] models those costs
//! as a [`vnet_sim::probe::ProbeSink`] so the two tracers can be attached
//! at the *same* tracepoints in the *same* scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod systemtap;

pub use systemtap::SystemTapProbe;
