//! Per-flow metrics.
//!
//! Combining filter rules with trace records tagged by flow gives the
//! "advanced tracing information, like per-flow throughput" of §III-D
//! (Fig. 6) — the capability Case Study I leans on to separate the
//! Sockperf flow from the competing iPerf flows inside OVS.

use std::collections::BTreeMap;

use vnet_tsdb::TraceDb;

use super::loss::PacketLoss;
use super::scan_table;
use super::throughput::ThroughputWindow;

/// Computes throughput per flow (grouped by the `flow` tag) at a
/// tracepoint's table. Returns `(flow, bits/sec)` sorted by flow name.
pub fn per_flow_throughput(db: &TraceDb, measurement: &str) -> Vec<(String, f64)> {
    let mut flows: BTreeMap<String, ThroughputWindow> = BTreeMap::new();
    for e in scan_table(db, measurement).entries() {
        let r = e.record();
        let acc = flows.entry(r.flow()).or_default();
        acc.push(r.timestamp_ns, r.pkt_len, r.has_trace_id());
    }
    flows.into_iter().map(|(f, acc)| (f, acc.bps())).collect()
}

/// Computes packet loss per flow between two tracepoints, grouping by
/// the `flow` tag — the per-flow counterpart of
/// [`super::loss::packet_loss`], which lets a user tell *which* flow a
/// congested device is dropping. Returns `(flow, loss)` sorted by flow.
pub fn per_flow_loss(db: &TraceDb, upstream: &str, downstream: &str) -> Vec<(String, PacketLoss)> {
    let count_by_flow = |measurement: &str| -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for e in scan_table(db, measurement).entries() {
            *out.entry(e.record().flow()).or_insert(0) += 1;
        }
        out
    };
    let up = count_by_flow(upstream);
    let down = count_by_flow(downstream);
    up.into_iter()
        .map(|(flow, n_i)| {
            let n_j = down.get(&flow).copied().unwrap_or(0);
            (flow, PacketLoss::between(n_i, n_j))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    /// A record of the flow `10.0.0.<host>:<host> -> 10.0.0.2:2`.
    fn of_flow(host: u8, timestamp_ns: u64, pkt_len: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns,
            pkt_len,
            saddr: 0x0a00_0000 + u32::from(host),
            daddr: 0x0a00_0002,
            sport: u16::from(host),
            dport: 2,
            ..Default::default()
        }
    }

    #[test]
    fn groups_by_flow_tag() {
        // Flow 1: 10 x 1000B over 1ms; flow 3: 10 x 100B over 1ms.
        let db = db_of((0..10u64).flat_map(|i| {
            [
                ("ovs", "n", of_flow(1, i * 111_111, 1000)),
                ("ovs", "n", of_flow(3, i * 111_111, 100)),
            ]
        }));
        let flows = per_flow_throughput(&db, "ovs");
        assert_eq!(flows.len(), 2);
        assert_eq!(flows[0].0, "10.0.0.1:1->10.0.0.2:2");
        assert!(
            flows[0].1 > flows[1].1 * 9.0,
            "1000B flow ~10x the 100B flow"
        );
        assert!(per_flow_throughput(&db, "absent").is_empty());
    }

    #[test]
    fn per_flow_loss_separates_victims() {
        // Flow 1: 10 in, 4 out (congested). Flow 3: 5 in, 5 out.
        let mut rows = Vec::new();
        for i in 0..10u64 {
            rows.push(("up", "n", of_flow(1, i, 60)));
            if i < 4 {
                rows.push(("down", "n", of_flow(1, i, 60)));
            }
        }
        for i in 0..5u64 {
            rows.push(("up", "n", of_flow(3, 100 + i, 60)));
            rows.push(("down", "n", of_flow(3, 100 + i, 60)));
        }
        let db = db_of(rows);
        let losses = per_flow_loss(&db, "up", "down");
        assert_eq!(losses.len(), 2);
        assert_eq!(losses[0].0, "10.0.0.1:1->10.0.0.2:2");
        assert_eq!(losses[0].1.lost, 6);
        assert!((losses[0].1.rate - 0.6).abs() < 1e-12);
        assert_eq!(losses[1].1.lost, 0);
        assert!(per_flow_loss(&db, "absent", "down").is_empty());
    }
}
