//! The `VNetTracer` façade: dispatcher + agents + collector wired
//! together (Fig. 2 of the paper).

use std::collections::BTreeMap;

use vnet_ebpf::program::Loader;
use vnet_ebpf::vm::standard_helpers;
use vnet_sim::world::World;
use vnet_tsdb::{RecordBatch, TraceDb};

use crate::agent::{Agent, ScriptId, ScriptStats};
use crate::collector::{Collector, CollectorStats};
use crate::config::ControlPackage;
use crate::dispatcher::Dispatcher;
use crate::error::{Result, TracerError};

/// A handle to one deployed script: the node it runs on and its id there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployedScript {
    /// Script (table) name.
    pub name: String,
    /// Node name.
    pub node: String,
    /// Agent-local script id.
    pub id: ScriptId,
}

/// Run statistics of one deployed script, with its deployment identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptRunStats {
    /// Script (table) name.
    pub name: String,
    /// Node name.
    pub node: String,
    /// The script's execution counters.
    pub stats: ScriptStats,
}

/// The whole tracing system: a control-data dispatcher and raw-data
/// collector on the master, plus one agent per monitored node.
///
/// # Examples
///
/// See the crate-level documentation and `examples/quickstart.rs` for an
/// end-to-end walkthrough.
#[derive(Debug, Default)]
pub struct VNetTracer {
    dispatcher: Dispatcher,
    agents: BTreeMap<String, Agent>,
    collector: Collector,
    deployed: Vec<DeployedScript>,
    batch: RecordBatch,
}

impl VNetTracer {
    /// Creates a tracer with no agents.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracer whose collector writes into an existing database
    /// — typically a disk-backed one from [`TraceDb::open`], so every
    /// collected batch is journaled to the write-ahead log and sealed
    /// into columnar segments as it grows.
    pub fn with_db(db: TraceDb) -> Self {
        VNetTracer {
            collector: Collector::with_db(db),
            ..Self::default()
        }
    }

    /// Registers an agent for its node. Replaces any previous agent with
    /// the same node name.
    pub fn add_agent(&mut self, agent: Agent) {
        self.agents.insert(agent.node_name().to_owned(), agent);
    }

    /// Deploys a control package: the dispatcher formats per-node control
    /// messages (JSON), each agent parses its message and installs its
    /// scripts into the live world. The verifier walks each distinct
    /// program once per deploy ([`vnet_ebpf::Loader`]); every script is
    /// still relocated against its agent's maps and checked against the
    /// probe budget.
    ///
    /// # Errors
    ///
    /// Returns a [`TracerError`] if validation, compilation or
    /// installation fails. Scripts installed before the failure stay
    /// installed (matching the incremental nature of runtime
    /// reconfiguration); call [`VNetTracer::undeploy_all`] to roll back.
    pub fn deploy(
        &mut self,
        world: &mut World,
        package: &ControlPackage,
    ) -> Result<Vec<DeployedScript>> {
        let messages = self.dispatcher.dispatch(package)?;
        // One loader for the whole deploy: every agent's copy of the same
        // bytecode is walked once. It is dropped on return, so nothing of
        // the verifier outlives the deploy.
        let helpers = standard_helpers();
        let mut loader = Loader::new(&helpers);
        let mut newly = Vec::new();
        for message in messages {
            let agent = self
                .agents
                .get_mut(&message.node)
                .ok_or_else(|| TracerError::UnknownNode(message.node.clone()))?;
            let sub = ControlPackage::from_json(&message.payload)?;
            for spec in &sub.traces {
                let id = agent.install_with(world, spec, &sub.global, &mut loader)?;
                let handle = DeployedScript {
                    name: spec.name.clone(),
                    node: message.node.clone(),
                    id,
                };
                self.deployed.push(handle.clone());
                newly.push(handle);
            }
        }
        Ok(newly)
    }

    /// Detaches every deployed script, flushing pending kernel buffers to
    /// the collector first so no records are lost.
    pub fn undeploy_all(&mut self, world: &mut World) {
        self.collect(world);
        for handle in self.deployed.drain(..) {
            if let Some(agent) = self.agents.get_mut(&handle.node) {
                let _ = agent.uninstall(world, handle.id);
            }
        }
    }

    /// Detaches one set of deployed scripts (e.g. everything a profile's
    /// `deploy` call returned), flushing pending kernel buffers to the
    /// collector first. Handles that are not (or no longer) deployed are
    /// ignored, so detach is idempotent.
    pub fn undeploy(&mut self, world: &mut World, handles: &[DeployedScript]) {
        self.collect(world);
        for handle in handles {
            let Some(i) = self.deployed.iter().position(|d| d == handle) else {
                continue;
            };
            self.deployed.remove(i);
            if let Some(agent) = self.agents.get_mut(&handle.node) {
                let _ = agent.uninstall(world, handle.id);
            }
        }
    }

    /// Currently deployed scripts.
    pub fn deployed(&self) -> &[DeployedScript] {
        &self.deployed
    }

    /// Kernel-style run stats for every deployed script, in deployment
    /// order — run count, accumulated run time and instruction/op
    /// counters, alongside the script's identity.
    pub fn run_stats(&self) -> Vec<ScriptRunStats> {
        self.deployed
            .iter()
            .filter_map(|d| {
                let stats = self.agents.get(&d.node)?.stats(d.id)?;
                Some(ScriptRunStats {
                    name: d.name.clone(),
                    node: d.node.clone(),
                    stats,
                })
            })
            .collect()
    }

    /// Per-CPU counter values of a deployed [`crate::config::Action::CountPerCpu`]
    /// script, by name.
    pub fn counter_per_cpu(&self, name: &str) -> Option<Vec<u64>> {
        let handle = self.deployed.iter().find(|d| d.name == name)?;
        self.agents.get(&handle.node)?.counter_per_cpu(handle.id)
    }

    /// Records lost to perf-buffer overflow for a deployed script.
    pub fn lost_records(&self, name: &str) -> u64 {
        let Some(handle) = self.deployed.iter().find(|d| d.name == name) else {
            return 0;
        };
        self.agents
            .get(&handle.node)
            .map_or(0, |a| a.lost_records(handle.id))
    }

    /// The periodic collection cycle: every agent drains its kernel
    /// buffers into the tracer's reusable batch, which the collector
    /// ingests whole (with a heartbeat and the agent's loss counter).
    /// Returns the number of records collected.
    pub fn collect(&mut self, world: &World) -> usize {
        let now = world.now();
        let mut total = 0;
        // Agents are visited in node-name order.
        for (name, agent) in &mut self.agents {
            self.batch.clear();
            total += agent.drain_into(&mut self.batch);
            let seq = agent.heartbeat();
            let lost = agent.lost_records_total();
            self.collector
                .ingest_batch(name, seq, &self.batch, lost, now);
        }
        self.batch.clear();
        total
    }

    /// Registers an online subscriber on the collector: every batch an
    /// agent drains (and every heartbeat) is forwarded to it during
    /// [`VNetTracer::collect`], before the records reach the database —
    /// the attachment point for streaming analysis engines.
    pub fn subscribe(
        &mut self,
        subscriber: std::rc::Rc<std::cell::RefCell<dyn crate::collector::IngestSubscriber>>,
    ) {
        self.collector.subscribe(subscriber);
    }

    /// Snapshot of the collector's self-observability counters (ingest
    /// totals, per-agent heartbeat lag and perf-ring losses) at the
    /// world's current time.
    pub fn stats(&self, world: &World) -> CollectorStats {
        self.collector.stats(world.now())
    }

    /// The trace database accumulated so far.
    pub fn db(&self) -> &TraceDb {
        self.collector.db()
    }

    /// Flushes the underlying database: seals the hot tail into a
    /// columnar segment, finishes any in-flight compaction and syncs the
    /// write-ahead log. A no-op for in-memory databases.
    ///
    /// # Errors
    ///
    /// Returns a [`vnet_tsdb::StoreError`] if sealing or syncing fails.
    pub fn flush_db(&mut self) -> std::result::Result<(), vnet_tsdb::StoreError> {
        self.collector.db_mut().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Action, FilterRule, HookSpec, TraceSpec};
    use crate::metrics;
    use std::net::Ipv4Addr;
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use vnet_sim::time::{SimDuration, SimTime};

    /// Two devices in series on one node; probes at both; UDP flow with
    /// injected trace IDs.
    fn setup() -> (World, VNetTracer, vnet_sim::DeviceId) {
        let mut w = World::new(3);
        let n = w.add_node("server1", 4, NodeClock::perfect());
        let d0 = w.add_device(
            DeviceConfig::new("eth0", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(5)))
                .trace_id(vnet_sim::device::TraceIdRole::Inject),
        );
        let d1 = w.add_device(
            DeviceConfig::new("eth1", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(d0, d1, SimDuration::from_micros(10));

        let mut tracer = VNetTracer::new();
        tracer.add_agent(Agent::new(n, "server1", 4));
        (w, tracer, d0)
    }

    fn flow_spec(name: &str, hook: HookSpec) -> TraceSpec {
        TraceSpec {
            name: name.into(),
            node: "server1".into(),
            hook,
            filter: FilterRule::udp_flow(
                (Ipv4Addr::new(10, 0, 0, 1), 1000),
                (Ipv4Addr::new(10, 0, 0, 2), 2000),
            ),
            action: Action::RecordPacketInfo,
        }
    }

    fn send_packets(w: &mut World, d0: vnet_sim::DeviceId, n: usize) {
        // Inject via a sender app so the trace-ID patch applies.
        struct Sender {
            count: usize,
        }
        impl vnet_sim::app::App for Sender {
            fn on_start(&mut self, ctx: &mut vnet_sim::app::AppCtx<'_>) {
                for _ in 0..self.count {
                    let flow = FlowKey::udp(
                        SocketAddrV4::sock("10.0.0.1", 1000),
                        SocketAddrV4::sock("10.0.0.2", 2000),
                    );
                    ctx.send(PacketBuilder::udp(flow, vec![1u8; 56]).build());
                }
            }
            fn on_packet(
                &mut self,
                _: &mut vnet_sim::app::AppCtx<'_>,
                _: vnet_sim::packet::Packet,
            ) {
            }
        }
        w.add_app(vnet_sim::NodeId(0), d0, Box::new(Sender { count: n }));
    }

    #[test]
    fn end_to_end_deploy_trace_collect_analyze() {
        let (mut w, mut tracer, d0) = setup();
        let pkg = ControlPackage::new(vec![
            flow_spec("eth0_rx", HookSpec::DeviceRx("eth0".into())),
            flow_spec("eth1_rx", HookSpec::DeviceRx("eth1".into())),
        ]);
        let deployed = tracer.deploy(&mut w, &pkg).unwrap();
        assert_eq!(deployed.len(), 2);
        send_packets(&mut w, d0, 10);
        w.run_until(SimTime::from_millis(5));
        let collected = tracer.collect(&w);
        assert_eq!(collected, 20, "10 packets at 2 tracepoints");
        // Latency eth0->eth1 = 5us service + 10us link (+probe overhead).
        // All 10 packets are injected at t=0, so they queue at eth0's
        // 5us server: packet i leaves at 5us*(i+1) and crosses the 10us
        // link, while its eth0_rx record was stamped at arrival (t=0).
        // Every packet also waits out the one-time compile charge eth0's
        // program pays on its first firing, so both windows move by it.
        let compile_ns = {
            let (program, _) = crate::compile::compile(&pkg.traces[0], Some(0), None).unwrap();
            vnet_ebpf::vm::jit_compile_cost_ns(program.insns.len())
        };
        let mut lat = metrics::latency_between(tracer.db(), "eth0_rx", "eth1_rx");
        lat.sort_unstable();
        assert_eq!(lat.len(), 10);
        assert!(
            (15_000 + compile_ns..17_000 + compile_ns).contains(&lat[0]),
            "fastest packet ~15us + compile charge + probe overhead, got {}ns",
            lat[0]
        );
        assert!(
            (60_000 + compile_ns..62_000 + compile_ns).contains(&lat[9]),
            "slowest packet queued behind 9 others, got {}ns",
            lat[9]
        );
        // No loss between the two tracepoints.
        let loss = metrics::packet_loss(tracer.db(), "eth0_rx", "eth1_rx");
        assert_eq!(loss.lost, 0);
        // Decomposition over the chain gives one segment.
        let segs = metrics::decompose(tracer.db(), &["eth0_rx", "eth1_rx"]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].stats.count, 10);
        // Throughput at eth1_rx (timestamps spread by eth0's service
        // times) is positive; at eth0_rx all records share one arrival
        // instant, so the T_N − T_1 denominator is zero.
        assert!(metrics::throughput_at(tracer.db(), "eth1_rx") > 0.0);
        assert_eq!(metrics::throughput_at(tracer.db(), "eth0_rx"), 0.0);
        // Stats: every firing matched.
        let stats = tracer.run_stats()[0].stats;
        assert_eq!(stats.executions, 10);
        assert_eq!(stats.matched, 10);
        assert_eq!(stats.errors, 0);
        // Self-observability: one batch of 20 records, nothing lost.
        let cstats = tracer.stats(&w);
        assert_eq!(cstats.totals.records, 20);
        assert_eq!(cstats.totals.batches, 1);
        assert_eq!(cstats.totals.bytes, 20 * vnet_tsdb::COMPACT_RECORD_BYTES);
        assert_eq!(cstats.lost_records, 0);
        assert_eq!(cstats.agents.len(), 1);
        assert_eq!(cstats.agents[0].node, "server1");
        assert_eq!(cstats.agents[0].last_seq, 1, "one heartbeat recorded");
        // Records landed in the table, all from the one node.
        let scan = crate::metrics::scan_table(tracer.db(), "eth0_rx");
        let entries = scan.entries();
        assert!(!entries.is_empty());
        assert!(entries.iter().all(|e| e.node() == "server1"));
    }

    #[test]
    fn threaded_code_runs_fused_and_within_its_certificate() {
        // Interpreter == threaded code is the `tiers_agree_*` proptests'
        // job (crates/ebpf/tests/proptests.rs); this pins what only the
        // tracer's own counters show.
        let (mut w, mut tracer, d0) = setup();
        let pkg = ControlPackage::new(vec![
            flow_spec("eth0_rx", HookSpec::DeviceRx("eth0".into())),
            flow_spec("eth1_rx", HookSpec::DeviceRx("eth1".into())),
        ]);
        tracer.deploy(&mut w, &pkg).unwrap();
        send_packets(&mut w, d0, 10);
        w.run_until(SimTime::from_millis(5));
        tracer.collect(&w);
        let stats = tracer.run_stats()[0].stats;
        assert_eq!(stats.executions, 10);
        assert!(stats.fused_hits > 0, "trace programs contain fusable runs");
        assert!(
            stats.ops_executed < stats.insns_retired,
            "fusion dispatches fewer ops ({}) than it retires instructions ({})",
            stats.ops_executed,
            stats.insns_retired
        );
        assert!(
            stats.run_time_ns <= stats.executions * stats.certified_cost_ns,
            "dynamic cost bounded by the certificate"
        );
        // Run stats surface one entry per deployed script.
        let run_stats = tracer.run_stats();
        assert_eq!(run_stats.len(), 2);
        assert!(run_stats.iter().all(|s| s.node == "server1"));
        assert!(run_stats.iter().all(|s| s.stats.avg_run_ns() > 0));
    }

    #[test]
    fn package_with_retired_members_still_deploys() {
        // A package as the tracer used to write it, with two global
        // members it has since dropped: members it does not know are
        // ignored.
        let json = r#"{
          "global": {
            "buffer_size": 65536,
            "database": "vnettracer",
            "exec_tier": "Interp",
            "mode": "Offline",
            "probe_budget": null
          },
          "traces": [
            {
              "action": "RecordPacketInfo",
              "filter": {
                "dst_ip": "10.0.0.2",
                "dst_port": 2000,
                "ether_type": 2048,
                "protocol": "Udp",
                "src_ip": "10.0.0.1",
                "src_port": 1000
              },
              "hook": {"DeviceRx": "eth0"},
              "name": "eth0_rx",
              "node": "server1"
            }
          ]
        }"#;
        let pkg = ControlPackage::from_json(json).unwrap();
        assert_eq!(
            pkg,
            ControlPackage::new(vec![flow_spec(
                "eth0_rx",
                HookSpec::DeviceRx("eth0".into())
            )])
        );
        let (mut w, mut tracer, d0) = setup();
        tracer.deploy(&mut w, &pkg).unwrap();
        send_packets(&mut w, d0, 3);
        w.run_until(SimTime::from_millis(1));
        assert_eq!(tracer.collect(&w), 3);
    }

    #[test]
    fn deploy_unknown_node_fails() {
        let (mut w, mut tracer, _) = setup();
        let mut spec = flow_spec("x", HookSpec::DeviceRx("eth0".into()));
        spec.node = "mars".into();
        let err = tracer
            .deploy(&mut w, &ControlPackage::new(vec![spec]))
            .unwrap_err();
        assert!(matches!(err, TracerError::UnknownNode(_)));
    }

    #[test]
    fn undeploy_stops_tracing() {
        let (mut w, mut tracer, d0) = setup();
        let pkg = ControlPackage::new(vec![flow_spec(
            "eth0_rx",
            HookSpec::DeviceRx("eth0".into()),
        )]);
        tracer.deploy(&mut w, &pkg).unwrap();
        send_packets(&mut w, d0, 2);
        w.run_until(SimTime::from_millis(1));
        tracer.undeploy_all(&mut w);
        assert!(tracer.deployed().is_empty());
        // Undeploy flushed the pending records first.
        assert_eq!(tracer.db().table("eth0_rx").unwrap().len(), 2);
        // New traffic after undeploy is not traced.
        send_packets(&mut w, d0, 3);
        w.run_until(SimTime::from_millis(2));
        assert_eq!(tracer.collect(&w), 0);
        assert_eq!(tracer.db().table("eth0_rx").unwrap().len(), 2);
    }

    #[test]
    fn runtime_reconfiguration_swaps_scripts() {
        let (mut w, mut tracer, d0) = setup();
        let pkg1 =
            ControlPackage::new(vec![flow_spec("phase1", HookSpec::DeviceRx("eth0".into()))]);
        tracer.deploy(&mut w, &pkg1).unwrap();
        send_packets(&mut w, d0, 1);
        w.run_until(SimTime::from_millis(1));
        tracer.undeploy_all(&mut w);
        // Reconfigure at runtime: different tracepoint, different table.
        let pkg2 =
            ControlPackage::new(vec![flow_spec("phase2", HookSpec::DeviceRx("eth1".into()))]);
        tracer.deploy(&mut w, &pkg2).unwrap();
        send_packets(&mut w, d0, 1);
        w.run_until(SimTime::from_millis(2));
        tracer.collect(&w);
        assert_eq!(tracer.db().table("phase1").unwrap().len(), 1);
        assert_eq!(tracer.db().table("phase2").unwrap().len(), 1);
    }
}
