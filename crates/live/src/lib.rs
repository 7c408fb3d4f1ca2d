//! # vnet-live — streaming analysis over the live trace stream
//!
//! The offline pipeline (`vnettracer::metrics` over `vnet-tsdb`) answers
//! questions *after* a run by scanning the whole trace database; its
//! cost grows with trace size. This crate answers the same questions
//! *during* the run: a [`LiveEngine`] subscribes to the collector's
//! ingest path ([`vnettracer::IngestSubscriber`]) and folds every record
//! batch into incremental per-window operators the moment it arrives.
//! Resident state is bounded by the number of open windows, the pairing
//! caps and a fixed closed-window ring — independent of how many records
//! the trace database accumulates.
//!
//! The pieces:
//!
//! * [`window`] — event-time tumbling windows plus a
//!   [`WatermarkTracker`] that decides when a window's input is complete,
//!   driven by per-agent heartbeats widened by each agent's
//!   [`SkewEstimate`](vnettracer::clock_sync::SkewEstimate) residual;
//!   records below the watermark are counted, not silently dropped;
//! * [`operators`] — incremental throughput (the offline path's own
//!   [`ThroughputWindow`]), latency (log-bucketed
//!   [`LogHistogram`](vnet_tsdb::sketch::LogHistogram) percentiles, within
//!   a fixed 1.5 % relative error, plus RFC 3550 jitter) and loss, the
//!   last two fed by one engine-wide pending table that pairs every
//!   tracked `(from, to)` by trace ID —
//!   a record is entered once however many pairs its tracepoint is in —
//!   with exact timeout eviction and one cap on what it keeps;
//! * [`alert`] — EWMA baseline detectors emitting typed [`Alert`]s for
//!   latency spikes, loss bursts, throughput collapses and stalled
//!   agents (a heartbeat 50 ms behind the leading agent's); every
//!   threshold is a constant;
//! * [`engine`] — the [`LiveEngine`] tying it together: align → late
//!   check → route → evict → finalize → detect.
//!
//! ## Attaching to a tracer
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
//!
//! let cfg = LiveConfig::new(WindowSpec::tumbling(1_000_000)) // 1 ms
//!     .track_throughput("flannel1_rx")
//!     .track_latency("flannel1_rx", "flannel2_rx")
//!     .track_loss("flannel1_rx", "flannel2_rx");
//! let mut engine = LiveEngine::new(cfg);
//! engine.register_agent("server1", None);
//! engine.register_agent("server2", None);
//! let engine = Rc::new(RefCell::new(engine));
//! // tracer.subscribe(engine.clone());
//! // …run the scenario; then:
//! engine.borrow_mut().finish();
//! for w in engine.borrow_mut().drain_closed() {
//!     println!("window {}..{}", w.start_ns, w.end_ns);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alert;
pub mod engine;
pub mod operators;
pub mod window;

pub use alert::{Alert, AlertKind, AnomalyDetector};
pub use engine::{EngineState, LiveConfig, LiveEngine, WindowResult};
pub use operators::{LatencySummary, LossWindow};
pub use vnettracer::metrics::ThroughputWindow;
pub use window::{WatermarkTracker, WindowSpec};
