//! The built-in modules: the default packet-path probe set plus the
//! drop-reason / OVS-upcall / request-tracing scenario pack.

use crate::config::{Action, HookSpec, TraceSpec};

use super::{MetricSpec, ModuleScope, RecordSchema, TapSpec};

/// A tracing module: trace programs + record schema + metric operators,
/// bundled under one name. The set is closed — a new module is a new
/// variant here plus a row in the profile table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Module {
    /// The default module: the per-device packet taps every testbed
    /// deploys (the paper's original probe set), with latency/jitter/loss
    /// pairs and throughput tables over them.
    PacketPath,
    /// Packet-drop root-cause tracing: one `kfree_skb` tap per traced
    /// node, with the typed drop reason (policer, HTB/ring overflow, loss
    /// profile, device-down, no-route) captured into record flag bits —
    /// the data behind per-reason counters and the `vnt drops` breakdown.
    SkbDrop,
    /// Flow-table lookup and upcall tracing on OVS fabric devices:
    /// entry/return records around `ovs_flow_tbl_lookup` give per-packet
    /// lookup latency, and `ovs_dp_upcall` records (fired only on megaflow
    /// misses) give the upcall rate.
    OvsFlow,
    /// Nahida-style in-band request tracing: the packet-ID technique
    /// extended to request chains — each tier propagates the trace ID into
    /// the packets it forwards, and latency between consecutive tier taps
    /// decomposes end-to-end request latency per tier.
    RequestTrace,
}

/// The schema of every table holding plain packet records.
const PACKET_RECORD: RecordSchema = RecordSchema {
    name: "packet-record",
    tags: &["node", "flow", "direction", "trace_id?"],
    fields: &["pkt_len", "cpu"],
};

fn spec_from_tap(tap: &TapSpec, action: Action) -> TraceSpec {
    TraceSpec {
        name: tap.table.clone(),
        node: tap.node.clone(),
        hook: tap.hook.clone(),
        filter: tap.filter,
        action,
    }
}

fn specs_from_taps(taps: &[TapSpec], action: Action) -> Vec<TraceSpec> {
    taps.iter().map(|t| spec_from_tap(t, action)).collect()
}

/// The `ovs-flow` module's three tables for a fabric prefix: lookup
/// entry, lookup return, upcall.
fn ovs_tables(prefix: &str) -> [String; 3] {
    [
        format!("{prefix}_lookup"),
        format!("{prefix}_lookup_ret"),
        format!("{prefix}_upcall"),
    ]
}

impl Module {
    /// Every module, in listing order.
    pub(super) const ALL: [Module; 4] = [
        Module::PacketPath,
        Module::SkbDrop,
        Module::OvsFlow,
        Module::RequestTrace,
    ];

    /// The module's name, as `vnt modules` and the profiles list it.
    pub(super) fn name(self) -> &'static str {
        match self {
            Module::PacketPath => "packet-path",
            Module::SkbDrop => "skb-drop",
            Module::OvsFlow => "ovs-flow",
            Module::RequestTrace => "request-trace",
        }
    }

    /// One-line description for `vnt modules`.
    pub(super) fn description(self) -> &'static str {
        match self {
            Module::PacketPath => {
                "per-device packet records along the datapath (the built-in probe set)"
            }
            Module::SkbDrop => {
                "drop tracing at kfree_skb with typed reasons (queue-full, policed, ...)"
            }
            Module::OvsFlow => "OVS flow-table lookup latency and upcall-rate tracing",
            Module::RequestTrace => {
                "in-band request-chain tracing with per-tier latency decomposition"
            }
        }
    }

    /// The record schema of the tables this module creates.
    pub(super) fn schema(self) -> RecordSchema {
        match self {
            Module::SkbDrop => RecordSchema {
                name: "drop-record",
                tags: &["node", "flow", "direction", "trace_id?", "drop_reason"],
                fields: &["pkt_len", "cpu"],
            },
            Module::PacketPath | Module::OvsFlow | Module::RequestTrace => PACKET_RECORD,
        }
    }

    /// The alert kinds this module's metrics can raise in `vnet-live`.
    pub(super) fn alert_kinds(self) -> &'static [&'static str] {
        match self {
            Module::PacketPath => &["latency-spike", "loss-burst", "throughput-collapse"],
            Module::SkbDrop => &["throughput-collapse"],
            Module::OvsFlow => &["latency-spike", "throughput-collapse"],
            Module::RequestTrace => &["latency-spike", "loss-burst"],
        }
    }

    /// The trace programs to install for `scope`.
    pub(super) fn programs(self, scope: &ModuleScope) -> Vec<TraceSpec> {
        match self {
            Module::PacketPath => specs_from_taps(&scope.packet_taps, Action::RecordPacketInfo),
            Module::SkbDrop => specs_from_taps(&scope.drop_taps, Action::RecordDropInfo),
            Module::RequestTrace => specs_from_taps(&scope.request_taps, Action::RecordPacketInfo),
            Module::OvsFlow => {
                let mut out = Vec::new();
                for tap in &scope.ovs_taps {
                    let hooks = [
                        HookSpec::Kprobe("ovs_flow_tbl_lookup".to_owned()),
                        HookSpec::Kretprobe("ovs_flow_tbl_lookup".to_owned()),
                        HookSpec::Kprobe("ovs_dp_upcall".to_owned()),
                    ];
                    for (table, hook) in ovs_tables(&tap.prefix).into_iter().zip(hooks) {
                        out.push(TraceSpec {
                            name: table,
                            node: tap.node.clone(),
                            hook,
                            filter: tap.filter,
                            action: Action::RecordPacketInfo,
                        });
                    }
                }
                out
            }
        }
    }

    /// The streaming metrics to compute for `scope`.
    pub(super) fn metrics(self, scope: &ModuleScope) -> Vec<MetricSpec> {
        let mut out = Vec::new();
        match self {
            Module::PacketPath => {
                for (from, to) in &scope.latency_pairs {
                    out.push(MetricSpec::Latency {
                        from: from.clone(),
                        to: to.clone(),
                    });
                    out.push(MetricSpec::Loss {
                        upstream: from.clone(),
                        downstream: to.clone(),
                    });
                }
                for table in &scope.throughput_tables {
                    out.push(MetricSpec::Throughput {
                        table: table.clone(),
                    });
                }
            }
            // The windowed rate of each drop table is the drop rate.
            Module::SkbDrop => {
                for t in &scope.drop_taps {
                    out.push(MetricSpec::Throughput {
                        table: t.table.clone(),
                    });
                }
            }
            Module::OvsFlow => {
                for tap in &scope.ovs_taps {
                    let [lookup, lookup_ret, upcall] = ovs_tables(&tap.prefix);
                    out.push(MetricSpec::Latency {
                        from: lookup,
                        to: lookup_ret,
                    });
                    out.push(MetricSpec::Throughput { table: upcall });
                }
            }
            Module::RequestTrace => {
                let taps = &scope.request_taps;
                // Per-tier segments between consecutive taps...
                for pair in taps.windows(2) {
                    out.push(MetricSpec::Latency {
                        from: pair[0].table.clone(),
                        to: pair[1].table.clone(),
                    });
                }
                // ...plus the end-to-end chain they decompose, once there
                // is more than one segment.
                if let [first, _, .., last] = &taps[..] {
                    out.push(MetricSpec::Latency {
                        from: first.table.clone(),
                        to: last.table.clone(),
                    });
                }
            }
        }
        out
    }
}
