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
        if let (Some(flow), Some(len)) = (e.tag("flow"), e.field_u64("pkt_len")) {
            let acc = flows.entry(flow.into_owned()).or_default();
            acc.push(e.timestamp_ns(), len as u32, e.trace_key().is_some());
        }
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
            if let Some(flow) = e.tag("flow") {
                *out.entry(flow.into_owned()).or_insert(0) += 1;
            }
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
    use vnet_tsdb::DataPoint;

    #[test]
    fn groups_by_flow_tag() {
        let mut db = TraceDb::new();
        // Flow A: 10 x 1000B over 1ms; flow B: 10 x 100B over 1ms.
        for i in 0..10u64 {
            db.insert(
                DataPoint::new("ovs", i * 111_111)
                    .tag("flow", "10.0.0.1:1->10.0.0.2:2")
                    .field("pkt_len", 1000u64),
            );
            db.insert(
                DataPoint::new("ovs", i * 111_111)
                    .tag("flow", "10.0.0.3:3->10.0.0.2:2")
                    .field("pkt_len", 100u64),
            );
        }
        let flows = per_flow_throughput(&db, "ovs");
        assert_eq!(flows.len(), 2);
        assert!(
            flows[0].1 > flows[1].1 * 9.0,
            "1000B flow ~10x the 100B flow"
        );
        assert!(per_flow_throughput(&db, "absent").is_empty());
    }

    #[test]
    fn per_flow_loss_separates_victims() {
        let mut db = TraceDb::new();
        // Flow A: 10 in, 4 out (congested). Flow B: 5 in, 5 out.
        for i in 0..10u64 {
            db.insert(DataPoint::new("up", i).tag("flow", "A"));
            if i < 4 {
                db.insert(DataPoint::new("down", i).tag("flow", "A"));
            }
        }
        for i in 0..5u64 {
            db.insert(DataPoint::new("up", 100 + i).tag("flow", "B"));
            db.insert(DataPoint::new("down", 100 + i).tag("flow", "B"));
        }
        let losses = per_flow_loss(&db, "up", "down");
        assert_eq!(losses.len(), 2);
        assert_eq!(losses[0].0, "A");
        assert_eq!(losses[0].1.lost, 6);
        assert!((losses[0].1.rate - 0.6).abs() < 1e-12);
        assert_eq!(losses[1].1.lost, 0);
        assert!(per_flow_loss(&db, "absent", "down").is_empty());
    }

    #[test]
    fn untagged_points_skipped() {
        let mut db = TraceDb::new();
        db.insert(DataPoint::new("m", 0).field("pkt_len", 10u64));
        db.insert(
            DataPoint::new("m", 10)
                .tag("flow", "f")
                .field("pkt_len", 10u64),
        );
        db.insert(
            DataPoint::new("m", 1_000)
                .tag("flow", "f")
                .field("pkt_len", 10u64),
        );
        let flows = per_flow_throughput(&db, "m");
        assert_eq!(flows.len(), 1);
        assert!(flows[0].1 > 0.0);
    }

    #[test]
    fn per_flow_metrics_survive_a_cold_reopen() {
        use vnet_tsdb::{CompactRecord, RecordBatch};
        let mut batch = RecordBatch::new();
        for i in 0..120u64 {
            // Three flows by source port; the third loses every other
            // packet between the two tracepoints.
            let record = CompactRecord {
                timestamp_ns: i * 1_000,
                pkt_len: 100 + (i % 3) as u32 * 400,
                saddr: 0x0a00_0001,
                daddr: 0x0a00_0002,
                sport: 1_000 + (i % 3) as u16,
                dport: 7,
                ..Default::default()
            };
            batch.push("up", "vm1", record);
            if i % 3 != 2 || i % 2 == 0 {
                batch.push("down", "vm2", record);
            }
        }
        let (mem, cold) = crate::metrics::testutil::mem_and_cold("flow", &batch);
        let flows = per_flow_throughput(&cold.db, "up");
        assert_eq!(flows.len(), 3);
        assert!(flows.iter().all(|f| f.1 > 0.0));
        assert_eq!(flows, per_flow_throughput(&mem, "up"));
        let losses = per_flow_loss(&cold.db, "up", "down");
        let lost: Vec<u64> = losses.iter().map(|l| l.1.lost).collect();
        assert_eq!(lost, vec![0, 0, 20]);
        assert_eq!(losses, per_flow_loss(&mem, "up", "down"));
    }
}
