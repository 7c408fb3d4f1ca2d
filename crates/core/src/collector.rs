//! The raw-data collector (master side).
//!
//! "The raw data collector also executes on the master node. It collects
//! the raw tracing data from the agents and performs offline analysis
//! based on the tracing data. … As the raw data collector periodically
//! receives tracing data from the agents, it also acts as a heartbeat
//! monitor to guarantee that the agents work properly." (§III-A, §III-C)
//!
//! The collector ingests whole [`RecordBatch`]es through
//! [`Collector::ingest_batch`] — one call per agent per collection cycle
//! — and keeps per-agent ingest statistics (records, batches, bytes,
//! perf-ring losses, heartbeat lag) that [`Collector::stats`] exposes as
//! the tracer's self-observability surface.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use vnet_sim::time::{SimDuration, SimTime};
use vnet_tsdb::{RecordBatch, StorageStats, TraceDb, COMPACT_RECORD_BYTES};

/// An online consumer of the collector's ingest stream.
///
/// Subscribers registered via [`Collector::subscribe`] see every record
/// batch *at ingest time* — before it disappears into the trace
/// database — plus every agent heartbeat. This is the hook a streaming
/// analysis engine (e.g. `vnet-live`) attaches to: it can maintain
/// windowed metrics incrementally instead of rescanning the database,
/// and derive watermarks from the heartbeat stream.
pub trait IngestSubscriber: fmt::Debug {
    /// Called once per ingested batch, before the heartbeat it carries
    /// is forwarded (so watermark-style consumers see the records ahead
    /// of the frontier advance that covers them). `lost_records` is the
    /// agent's cumulative perf-ring loss counter; `now` is the master
    /// clock at ingest.
    fn on_batch(
        &mut self,
        node: &str,
        heartbeat_seq: u64,
        batch: &RecordBatch,
        lost_records: u64,
        now: SimTime,
    );

    /// Called on every heartbeat (standalone or batch-borne). Default:
    /// ignored.
    fn on_heartbeat(&mut self, node: &str, seq: u64, now: SimTime) {
        let _ = (node, seq, now);
    }
}

/// Running ingest totals, kept per agent and summed for the collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Records ingested into the database.
    pub records: u64,
    /// Batches ingested.
    pub batches: u64,
    /// Wire bytes those records represent.
    pub bytes: u64,
}

impl IngestStats {
    fn add(&mut self, records: u64, bytes: u64) {
        self.records += records;
        self.batches += 1;
        self.bytes += bytes;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct AgentHealth {
    last_seq: u64,
    last_seen: SimTime,
    lost_records: u64,
    stats: IngestStats,
}

/// One agent's row in the collector's stats report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentStatus {
    /// The agent's node name.
    pub node: String,
    /// Last heartbeat sequence number received.
    pub last_seq: u64,
    /// Time since the last heartbeat.
    pub lag: SimDuration,
    /// Records the agent reported lost to perf-ring overflow.
    pub lost_records: u64,
    /// Ingest totals for this agent.
    pub stats: IngestStats,
}

/// Snapshot of the collector's self-observability counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorStats {
    /// Ingest totals across all agents.
    pub totals: IngestStats,
    /// Total records lost to perf-ring overflow across all agents.
    pub lost_records: u64,
    /// Per-agent status rows, sorted by node name.
    pub agents: Vec<AgentStatus>,
    /// Segment-store state when the trace database is disk-backed
    /// (`None` for the in-memory store): segments, WAL backlog, seal
    /// and compaction counters.
    pub storage: Option<StorageStats>,
}

/// The collector: ingests agent batches into the trace database and
/// monitors agent liveness.
#[derive(Debug, Default)]
pub struct Collector {
    db: TraceDb,
    health: HashMap<String, AgentHealth>,
    subscribers: Vec<Rc<RefCell<dyn IngestSubscriber>>>,
}

impl Collector {
    /// Creates a collector over an existing database — e.g. one opened
    /// on a directory with [`TraceDb::open`], so every ingested batch is
    /// journaled and sealed to disk.
    pub fn with_db(db: TraceDb) -> Self {
        Collector {
            db,
            ..Self::default()
        }
    }

    /// Registers an online subscriber; every subsequent batch and
    /// heartbeat is forwarded to it at ingest time. The caller keeps its
    /// own `Rc` to query the subscriber's state between cycles.
    pub fn subscribe(&mut self, subscriber: Rc<RefCell<dyn IngestSubscriber>>) {
        self.subscribers.push(subscriber);
    }

    /// Ingests a whole record batch from `node`'s agent, which doubles as
    /// a heartbeat. `lost_records` is the agent's cumulative perf-ring
    /// loss counter, carried alongside the batch. Returns the number of
    /// records ingested.
    pub fn ingest_batch(
        &mut self,
        node: &str,
        heartbeat_seq: u64,
        batch: &RecordBatch,
        lost_records: u64,
        now: SimTime,
    ) -> u64 {
        let ingested = self.db.insert_batch(batch);
        for sub in &self.subscribers {
            sub.borrow_mut()
                .on_batch(node, heartbeat_seq, batch, lost_records, now);
        }
        // The heartbeat is notified after the batch it rode in on: it
        // asserts "nothing below `now` remains on this agent", which only
        // holds once the batch has been delivered — subscribers deriving
        // watermarks from heartbeats would otherwise count the batch's
        // own records as late.
        self.heartbeat(node, heartbeat_seq, now);
        let health = self.health.get_mut(node).expect("heartbeat inserted it");
        health.lost_records = lost_records;
        health.stats.add(ingested, ingested * COMPACT_RECORD_BYTES);
        ingested
    }

    /// Records a standalone heartbeat from `node`.
    pub fn heartbeat(&mut self, node: &str, seq: u64, now: SimTime) {
        // Looked up before inserting: a known agent's heartbeat allocates
        // no key.
        let health = match self.health.get_mut(node) {
            Some(health) => health,
            None => self.health.entry(node.to_owned()).or_default(),
        };
        health.last_seq = seq;
        health.last_seen = now;
        for sub in &self.subscribers {
            sub.borrow_mut().on_heartbeat(node, seq, now);
        }
    }

    /// Snapshot of ingest totals and per-agent status at time `now`
    /// (heartbeat lag is computed against it).
    pub fn stats(&self, now: SimTime) -> CollectorStats {
        let mut agents: Vec<AgentStatus> = self
            .health
            .iter()
            .map(|(node, h)| AgentStatus {
                node: node.clone(),
                last_seq: h.last_seq,
                lag: now.saturating_since(h.last_seen),
                lost_records: h.lost_records,
                stats: h.stats,
            })
            .collect();
        agents.sort_by(|a, b| a.node.cmp(&b.node));
        let mut totals = IngestStats::default();
        let mut lost_records = 0;
        for a in &agents {
            totals.records += a.stats.records;
            totals.batches += a.stats.batches;
            totals.bytes += a.stats.bytes;
            lost_records += a.lost_records;
        }
        CollectorStats {
            totals,
            lost_records,
            agents,
            storage: self.db.storage_stats(),
        }
    }

    /// The trace database.
    pub fn db(&self) -> &TraceDb {
        &self.db
    }

    /// Mutably borrows the trace database — e.g. to
    /// [`flush`](TraceDb::flush) a disk-backed store before shutdown.
    pub fn db_mut(&mut self) -> &mut TraceDb {
        &mut self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::CompactRecord;

    fn record(ts: u64) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id: 7,
            flags: 1,
            ..Default::default()
        }
    }

    #[test]
    fn ingest_batch_fills_tables_and_stats() {
        let mut c = Collector::default();
        let mut batch = RecordBatch::new();
        batch.push("tp_a", "server1", record(10));
        batch.push("tp_a", "server1", record(20));
        batch.push("tp_b", "server1", record(30));
        let n = c.ingest_batch("server1", 1, &batch, 2, SimTime::from_micros(5));
        assert_eq!(n, 3);
        assert_eq!(c.db().table("tp_a").unwrap().len(), 2);
        assert_eq!(c.db().table("tp_b").unwrap().len(), 1);
        let scan = crate::metrics::scan_table(c.db(), "tp_a");
        assert!(scan.entries().iter().all(|e| e.node() == "server1"));

        let stats = c.stats(SimTime::from_micros(9));
        assert_eq!(stats.totals.records, 3);
        assert_eq!(stats.totals.batches, 1);
        assert_eq!(stats.totals.bytes, 3 * COMPACT_RECORD_BYTES);
        assert_eq!(stats.lost_records, 2);
        assert_eq!(stats.agents.len(), 1);
        let a = &stats.agents[0];
        assert_eq!(a.node, "server1");
        assert_eq!(a.last_seq, 1);
        assert_eq!(a.lag, SimDuration::from_micros(4));
        assert_eq!(a.lost_records, 2);
    }

    #[test]
    fn stats_aggregate_multiple_agents_sorted() {
        let mut c = Collector::default();
        let mut batch = RecordBatch::new();
        batch.push("tp", "n2", record(1));
        c.ingest_batch("n2", 1, &batch, 0, SimTime::from_micros(1));
        batch.clear();
        batch.push("tp", "n1", record(2));
        batch.push("tp", "n1", record(3));
        c.ingest_batch("n1", 4, &batch, 1, SimTime::from_micros(2));

        let stats = c.stats(SimTime::from_micros(2));
        assert_eq!(stats.totals.records, 3);
        assert_eq!(stats.totals.batches, 2);
        assert_eq!(stats.lost_records, 1);
        let nodes: Vec<&str> = stats.agents.iter().map(|a| a.node.as_str()).collect();
        assert_eq!(nodes, vec!["n1", "n2"], "sorted by node");
        assert_eq!(stats.agents[0].last_seq, 4);
        assert_eq!(stats.agents[0].lag, SimDuration::ZERO);
        // Table "tp" keeps each record's node, in ingest order.
        let scan = crate::metrics::scan_table(c.db(), "tp");
        let entries = scan.entries();
        let nodes: Vec<&str> = entries.iter().map(|e| e.node()).collect();
        assert_eq!(nodes, ["n2", "n1", "n1"]);
    }

    #[test]
    fn heartbeat_monitoring() {
        let mut c = Collector::default();
        c.heartbeat("a", 1, SimTime::from_millis(0));
        c.heartbeat("b", 1, SimTime::from_millis(100));
        let lags = |c: &Collector, now| -> Vec<(String, u64, SimDuration)> {
            let agents = c.stats(SimTime::from_millis(now)).agents;
            agents
                .into_iter()
                .map(|a| (a.node, a.last_seq, a.lag))
                .collect()
        };
        let ms = SimDuration::from_millis;
        assert_eq!(
            lags(&c, 150),
            [("a".to_owned(), 1, ms(150)), ("b".to_owned(), 1, ms(50))]
        );
        // Agent `a` reports again and is healthy; `b` (last seen at
        // 100ms) has now fallen behind.
        c.heartbeat("a", 2, SimTime::from_millis(160));
        assert_eq!(
            lags(&c, 200),
            [("a".to_owned(), 2, ms(40)), ("b".to_owned(), 1, ms(100))]
        );
    }

    #[derive(Debug, Default)]
    struct CountingSub {
        batches: u64,
        records: u64,
        heartbeats: u64,
        last_now: SimTime,
    }

    impl IngestSubscriber for CountingSub {
        fn on_batch(
            &mut self,
            _node: &str,
            _seq: u64,
            batch: &RecordBatch,
            _lost: u64,
            now: SimTime,
        ) {
            self.batches += 1;
            self.records += batch.len() as u64;
            self.last_now = now;
        }

        fn on_heartbeat(&mut self, _node: &str, _seq: u64, _now: SimTime) {
            self.heartbeats += 1;
        }
    }

    #[test]
    fn subscribers_see_batches_and_heartbeats_at_ingest() {
        let mut c = Collector::default();
        let sub = std::rc::Rc::new(std::cell::RefCell::new(CountingSub::default()));
        c.subscribe(sub.clone());

        let mut batch = RecordBatch::new();
        batch.push("tp", "n1", record(10));
        batch.push("tp", "n1", record(20));
        c.ingest_batch("n1", 1, &batch, 0, SimTime::from_micros(3));
        c.heartbeat("n1", 2, SimTime::from_micros(5));

        let s = sub.borrow();
        assert_eq!(s.batches, 1);
        assert_eq!(s.records, 2);
        // The batch-borne heartbeat and the standalone one both arrive.
        assert_eq!(s.heartbeats, 2);
        assert_eq!(s.last_now, SimTime::from_micros(3));
    }
}
