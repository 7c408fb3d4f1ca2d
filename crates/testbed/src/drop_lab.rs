//! The drop lab: a single host engineered so that every typed drop cause
//! fires a known number of times, plus an OVS fabric bridge for flow-table
//! tracing — the ground-truth scenario behind the `skb-drop` and
//! `ovs-flow` modules.
//!
//! Six parallel lanes share one node, each a source device feeding a lane
//! device built to exercise exactly one behaviour:
//!
//! * **queue-full** — a slow lane (200us service) with a 2-packet queue,
//!   flooded faster than it drains;
//! * **policed** — an ingress policer whose burst is smaller than one
//!   frame, so nothing is ever admitted;
//! * **device-down** — the lane NIC is administratively down from t=0;
//! * **no-route** — a bridge with an empty forwarding table;
//! * **link-loss** — a wire carrying a `loss_rate = 1.0` link profile;
//! * **ovs** — an [`ServiceModel::OvsFabric`] bridge that switches its
//!   lane cleanly, firing `ovs_flow_tbl_lookup`/`ovs_dp_upcall` hooks.
//!
//! The per-device [`vnet_sim::device::DeviceCounters`] are the ground
//! truth: the scenario-pack test asserts the `skb-drop` breakdown from
//! the trace database matches them *exactly*.

use std::net::{Ipv4Addr, SocketAddrV4};

use vnet_sim::device::{DeviceConfig, Forwarding, PolicerConfig, ServiceModel};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::profile::{LinkProfile, LinkSegment};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::world::World;
use vnet_sim::{DeviceId, NodeId};
use vnet_workloads::stats::ThroughputRecorder;
use vnet_workloads::{IperfClient, IperfServer};
use vnettracer::config::{ControlPackage, FilterRule, GlobalConfig};
use vnettracer::modules::{ModuleRegistry, ModuleScope, OvsTap, TapSpec};
use vnettracer::{Agent, VNetTracer};

/// The lab's sink address; every lane sends to it on its own port.
pub const SINK_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 9);
/// UDP payload bytes per injected packet (1600 bits on the policer).
pub const PKT_SIZE: usize = 200;
/// The drop table the `skb-drop` module fills on this testbed.
pub const DROP_TABLE: &str = "lab_drops";
/// Table prefix of the `ovs-flow` module on this testbed.
pub const OVS_PREFIX: &str = "lab_ovs";

/// Knobs for one lab run.
#[derive(Debug, Clone)]
pub struct DropLabConfig {
    /// World RNG seed.
    pub seed: u64,
    /// Packets injected into each lane.
    pub packets_per_lane: u64,
    /// Injection interval per lane.
    pub interval: SimDuration,
}

impl Default for DropLabConfig {
    fn default() -> Self {
        DropLabConfig {
            seed: 11,
            packets_per_lane: 40,
            interval: SimDuration::from_micros(20),
        }
    }
}

/// The built lab.
#[derive(Debug)]
pub struct DropLab {
    /// The simulated world.
    pub world: World,
    /// The single lab host.
    pub node: NodeId,
    /// Every device in the lab, for ground-truth counter sums.
    pub devices: Vec<DeviceId>,
    cfg: DropLabConfig,
}

impl DropLab {
    /// Builds the six lanes.
    pub fn build(cfg: &DropLabConfig) -> Self {
        let mut w = World::new(cfg.seed);
        let node = w.add_node("labhost", 8, NodeClock::perfect());
        let fast = || ServiceModel::Fixed(SimDuration::from_nanos(100));

        let sink = w.add_device(
            DeviceConfig::new("sink", node)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .forwarding(Forwarding::Deliver),
        );
        let sink_tx = w.add_device(DeviceConfig::new("sink-tx", node).service(fast()));

        // queue-full: slower than the flood, 2-deep queue.
        let qf_src = w.add_device(DeviceConfig::new("qf-src", node).service(fast()));
        let qf = w.add_device(
            DeviceConfig::new("qf", node)
                .service(ServiceModel::Fixed(SimDuration::from_micros(200)))
                .queue_capacity(2),
        );
        w.connect(qf_src, qf, SimDuration::ZERO);
        w.connect(qf, sink, SimDuration::ZERO);

        // policed: burst (1 kb = 1000 bits) below one 200-byte frame.
        let po_src = w.add_device(DeviceConfig::new("po-src", node).service(fast()));
        let po = w.add_device(DeviceConfig::new("po", node).service(fast()).policer(
            PolicerConfig {
                rate_kbps: 1,
                burst_kb: 1,
            },
        ));
        w.connect(po_src, po, SimDuration::ZERO);
        w.connect(po, sink, SimDuration::ZERO);

        // device-down from t=0.
        let dn_src = w.add_device(DeviceConfig::new("dn-src", node).service(fast()));
        let dn = w.add_device(DeviceConfig::new("dn", node).service(fast()));
        w.connect(dn_src, dn, SimDuration::ZERO);
        w.connect(dn, sink, SimDuration::ZERO);
        w.schedule_device_down(dn, SimTime::ZERO, true);

        // no-route: an empty forwarding table, no default.
        let nr_src = w.add_device(DeviceConfig::new("nr-src", node).service(fast()));
        let nr = w.add_device(DeviceConfig::new("nr", node).service(fast()).forwarding(
            Forwarding::ByDstIp {
                routes: std::collections::BTreeMap::new(),
                default: None,
            },
        ));
        w.connect(nr_src, nr, SimDuration::ZERO);
        w.connect(nr, sink, SimDuration::ZERO);

        // link-loss: a certain-loss profile on the lane's wire, so every
        // frame dies on the link without perturbing the RNG stream.
        let ll_src = w.add_device(DeviceConfig::new("ll-src", node).service(fast()));
        let ll = w.add_device(DeviceConfig::new("ll", node).service(fast()));
        w.connect(ll_src, ll, SimDuration::ZERO);
        let ll_port = w.connect(ll, sink, SimDuration::ZERO);
        let lossy = LinkProfile::new(vec![LinkSegment {
            start: SimTime::ZERO,
            delay: SimDuration::from_micros(1),
            loss_rate: 1.0,
            rate_bps: None,
        }])
        .expect("valid profile");
        w.attach_link_profile(ll, ll_port, lossy);

        // ovs: a clean fabric lane with a megaflow cache.
        let ovs_src = w.add_device(DeviceConfig::new("ovs-src", node).service(fast()));
        let ovs_br = w.add_device(DeviceConfig::new("ovs-br", node).service(
            ServiceModel::OvsFabric {
                base: SimDuration::from_micros(1),
                per_extra_port: SimDuration::from_nanos(500),
                port_active_window: SimDuration::from_micros(50),
            },
        ));
        w.connect(ovs_src, ovs_br, SimDuration::ZERO);
        w.connect(ovs_br, sink, SimDuration::ZERO);

        let devices = vec![
            sink, sink_tx, qf_src, qf, po_src, po, dn_src, dn, nr_src, nr, ll_src, ll, ovs_src,
            ovs_br,
        ];

        // One injector per lane, one shared sink server.
        let tput = ThroughputRecorder::shared();
        let server = w.add_app(node, sink_tx, Box::new(IperfServer::new(tput)));
        let lanes = [
            (qf_src, 7001u16),
            (po_src, 7002),
            (dn_src, 7003),
            (nr_src, 7004),
            (ll_src, 7005),
            (ovs_src, 7006),
        ];
        for (i, (src, port)) in lanes.into_iter().enumerate() {
            let flow = FlowKey::udp(
                SocketAddrV4::new(Ipv4Addr::new(10, 1, 0, 1 + i as u8), 30_000 + port),
                SocketAddrV4::new(SINK_IP, port),
            );
            let client = w.add_app(
                node,
                src,
                Box::new(IperfClient::new(
                    flow,
                    PKT_SIZE,
                    cfg.interval,
                    cfg.packets_per_lane,
                )),
            );
            let _ = client;
            w.bind_app(sink, port, server);
        }

        DropLab {
            world: w,
            node,
            devices,
            cfg: cfg.clone(),
        }
    }

    /// Where the module profiles attach: the `skb-drop` tap and the
    /// `ovs-flow` tap, both unfiltered — this lab has no packet-path
    /// chain of its own.
    pub fn module_scope(&self) -> ModuleScope {
        ModuleScope {
            drop_taps: vec![TapSpec::drops(DROP_TABLE, "labhost", FilterRule::any())],
            ovs_taps: vec![OvsTap {
                prefix: OVS_PREFIX.into(),
                node: "labhost".into(),
                filter: FilterRule::any(),
            }],
            ..Default::default()
        }
    }

    /// Packages a named profile (`drops`, `ovs`, `full`, ...) over the
    /// lab's scope.
    ///
    /// # Panics
    ///
    /// Panics if `profile` is not defined in the builtin registry.
    pub fn control_package(&self, profile: &str) -> ControlPackage {
        ModuleRegistry::builtin()
            .package(profile, &self.module_scope(), GlobalConfig::default())
            .expect("builtin profile resolves")
    }

    /// A tracer with an agent on the lab host.
    pub fn make_tracer(&self) -> VNetTracer {
        self.make_tracer_with_db(vnet_tsdb::TraceDb::new())
    }

    /// Like [`DropLab::make_tracer`] with a caller-provided trace
    /// database (e.g. a disk-backed one).
    pub fn make_tracer_with_db(&self, db: vnet_tsdb::TraceDb) -> VNetTracer {
        let mut tracer = VNetTracer::with_db(db);
        tracer.add_agent(Agent::new(self.node, "labhost", 8));
        tracer
    }

    /// Runs the injection phase plus the slow queue's drain time.
    pub fn run(&mut self) {
        let send =
            SimDuration::from_nanos(self.cfg.interval.as_nanos() * (self.cfg.packets_per_lane + 2));
        self.world.run_for(send + SimDuration::from_millis(15));
    }

    /// The per-reason drop ground truth from the device counters, summed
    /// across every device and sorted by reason name — the exact shape
    /// [`vnettracer::metrics::drop_breakdown`] reports, so the two can be
    /// compared with `assert_eq!`. Reasons with zero drops are omitted.
    pub fn ground_truth(&self) -> Vec<(String, u64)> {
        let mut sums = [0u64; 5];
        for &d in &self.devices {
            let c = self.world.device_counters(d);
            sums[0] += c.dropped_down;
            sums[1] += c.dropped_link;
            sums[2] += c.dropped_no_route;
            sums[3] += c.dropped_policed;
            sums[4] += c.dropped_queue_full;
        }
        // Alphabetical by reason name, matching the breakdown's BTreeMap.
        let names = [
            "device-down",
            "link-loss",
            "no-route",
            "policed",
            "queue-full",
        ];
        names
            .into_iter()
            .zip(sums)
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| (name.to_owned(), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engineered_cause_fires() {
        let mut lab = DropLab::build(&DropLabConfig::default());
        lab.run();
        let truth = lab.ground_truth();
        assert_eq!(truth.len(), 5, "all five causes must drop: {truth:?}");
        for (reason, n) in &truth {
            assert!(*n > 0, "{reason} must have drops");
        }
        // device-down, no-route and link-loss lanes lose everything.
        let count = |name: &str| {
            truth
                .iter()
                .find(|(r, _)| r == name)
                .map(|&(_, n)| n)
                .unwrap()
        };
        assert_eq!(count("device-down"), 40);
        assert_eq!(count("no-route"), 40);
        assert_eq!(count("link-loss"), 40);
        assert_eq!(count("policed"), 40);
    }

    #[test]
    fn untraced_lab_is_deterministic() {
        let run = || {
            let mut lab = DropLab::build(&DropLabConfig::default());
            lab.run();
            (lab.ground_truth(), lab.world.events_processed())
        };
        assert_eq!(run(), run());
    }
}
