//! The `datacenter_rack` scenario wired up with vNetTracer: the
//! rack-scale topology from `vnet-workloads` with a tracing agent on
//! every node and trace scripts at every OVS bridge and VM ethernet
//! port — the configuration the scale and determinism tests run.

use vnet_sim::world::World;
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::config::{ControlPackage, FilterRule, GlobalConfig};
use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};
use vnettracer::VNetTracer;

use crate::Testbed;

/// The rack testbed: scenario plus tracer wiring.
#[derive(Debug)]
pub struct RackTestbed {
    /// The scale configuration the rack was built with.
    pub cfg: RackConfig,
    /// The built scenario (world, nodes, recorders).
    pub scenario: RackScenario,
}

impl RackTestbed {
    /// Builds the rack.
    pub fn build(cfg: &RackConfig) -> Self {
        RackTestbed {
            cfg: cfg.clone(),
            scenario: RackScenario::build(cfg),
        }
    }

    /// Where the module profiles attach on the rack: one unfiltered
    /// packet tap per host OVS bridge and per VM ethernet port, plus a
    /// drop tap per host for the `skb-drop` module.
    pub fn module_scope(&self) -> ModuleScope {
        let mut scope = ModuleScope::default();
        for h in 0..self.cfg.hosts {
            scope.packet_taps.push(TapSpec::rx(
                &format!("h{h}_ovs_br"),
                &format!("host{h}"),
                "ovs-br",
                FilterRule::any(),
            ));
            for v in 0..self.cfg.vms_per_host {
                scope.packet_taps.push(TapSpec::rx(
                    &format!("vm{h}_{v}_ens3"),
                    &format!("vm{h}-{v}"),
                    "ens3",
                    FilterRule::any(),
                ));
            }
            scope.drop_taps.push(TapSpec::drops(
                &format!("h{h}_drops"),
                &format!("host{h}"),
                FilterRule::any(),
            ));
        }
        scope
    }

    /// Trace scripts at every hook in the rack — the registry's
    /// `default` profile over [`RackTestbed::module_scope`].
    pub fn control_package(&self) -> ControlPackage {
        ModuleRegistry::builtin()
            .package("default", &self.module_scope(), GlobalConfig::default())
            .expect("builtin default profile resolves")
    }

    /// [`VNetTracer::for_world`] over the rack, in memory: an agent on
    /// every node (ToR, hosts and VMs). Kept as a method only for the
    /// `bench_e2e` harness, which calls it by this name.
    pub fn make_tracer(&self) -> VNetTracer {
        VNetTracer::for_world(&self.scenario.world, vnet_tsdb::TraceDb::new())
    }

    /// Runs the send phase plus drain margin.
    pub fn run(&mut self) {
        let cfg = self.cfg.clone();
        self.scenario.run(&cfg);
    }
}

impl Testbed for RackTestbed {
    fn world(&mut self) -> &mut World {
        &mut self.scenario.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::TraceDb;

    /// The documented distortion bound for the traced rack: with one
    /// unfiltered record-producing script on every bridge and VM port,
    /// measured per-flow goodput must stay within 10% of the untraced
    /// run, and no packet may be lost to tracing. This encodes the
    /// edge-testbed paper's caution — if tracing ever skews the
    /// workload's own measurements beyond this, the reproduction is no
    /// longer trustworthy.
    const DISTORTION_BOUND: f64 = 0.10;

    #[test]
    fn tracing_does_not_distort_rack_measurements() {
        let cfg = RackConfig::small();

        let mut base = RackTestbed::build(&cfg);
        base.run();
        let base_packets = base.scenario.delivered_packets();
        assert_eq!(base_packets, cfg.total_packets());

        let mut traced = RackTestbed::build(&cfg);
        let pkg = traced.control_package();
        let mut tracer = VNetTracer::for_world(&traced.scenario.world, TraceDb::new());
        tracer.deploy(&mut traced.scenario.world, &pkg).unwrap();
        traced.run();
        tracer.collect(&traced.scenario.world);

        // No packet is lost to tracing, and byte counts agree exactly.
        assert_eq!(traced.scenario.delivered_packets(), base_packets);
        let bytes = |s: &RackTestbed| -> u64 {
            s.scenario
                .delivery_fingerprint()
                .iter()
                .map(|&(_, b)| b)
                .sum()
        };
        assert_eq!(bytes(&traced), bytes(&base));

        // Per-VM goodput may shift (probe cost perturbs timing) but must
        // stay within the documented bound.
        for (vm, (b, t)) in base
            .scenario
            .delivered
            .iter()
            .zip(&traced.scenario.delivered)
            .enumerate()
        {
            let b = b.borrow_mut().throughput_bps();
            let t = t.borrow_mut().throughput_bps();
            if b > 0.0 {
                let delta = (t - b).abs() / b;
                assert!(
                    delta <= DISTORTION_BOUND,
                    "vm {vm}: traced goodput {t:.0} vs untraced {b:.0} bps \
                     ({:+.2}% > {:.0}% bound)",
                    delta * 100.0,
                    DISTORTION_BOUND * 100.0
                );
            }
        }

        // The tracer actually observed the traffic at every hook.
        assert!(traced.scenario.world.probes_fired() > 0);
        let db = tracer.db();
        for h in 0..cfg.hosts {
            assert!(
                db.table(&format!("h{h}_ovs_br"))
                    .is_some_and(|t| !t.is_empty()),
                "host {h} bridge table should have records"
            );
        }
    }

    /// The traced counterpart of `vnet-workloads`'
    /// `rack_event_counts_are_pinned` (925 984 events untraced): probe
    /// cost is simulated time, so tracing moves the event count, and one
    /// firing more or fewer moves it again.
    #[test]
    fn traced_rack_counts_are_pinned() {
        let cfg = RackConfig {
            packets_per_app: 2_000,
            ..RackConfig::small()
        };
        let mut tb = RackTestbed::build(&cfg);
        let pkg = tb.control_package();
        let mut tracer = VNetTracer::for_world(&tb.scenario.world, TraceDb::new());
        tracer.deploy(&mut tb.scenario.world, &pkg).unwrap();
        tb.run();
        assert_eq!(tb.scenario.world.events_processed(), 943_984);
        assert_eq!(tb.scenario.world.probes_fired(), 96_000);
        assert_eq!(tb.scenario.delivered_packets(), 32_000);
    }
}
