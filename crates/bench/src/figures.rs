//! One runner per table/figure of the paper's evaluation (§IV).
//!
//! Each function builds the corresponding testbed scenario, runs it, and
//! returns a printable [`Table`] with the same rows/series the paper
//! reports. `EXPERIMENTS.md` at the repository root records a full run
//! against the paper's numbers.

use vnet_testbed::container::{run_throughput, ContainerScenario, NetMode, Transport};
use vnet_testbed::netperf_xen::{run_netperf, TracerKind};
use vnet_testbed::ovs::{
    sockperf_latency, CongestionTransport, Mitigation, OvsCase, OvsConfig, OvsScenario,
};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_testbed::xen::{run_latency, Consolidation, XenConfig, XenScenario, XenWorkload};
use vnet_tsdb::TraceDb;
use vnettracer::metrics;
use vnettracer::VNetTracer;

use crate::report::{mbps, us, Table};

/// Workload sizes for the figure runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sockperf/memcached request counts.
    pub messages: u64,
    /// Netperf segment counts.
    pub segments: u64,
}

impl Scale {
    /// Fast sizes for CI / `cargo bench`.
    pub fn quick() -> Self {
        Scale {
            messages: 300,
            segments: 1_000,
        }
    }

    /// Full sizes for the recorded reproduction.
    pub fn full() -> Self {
        Scale {
            messages: 2_000,
            segments: 5_000,
        }
    }
}

/// Fig. 7(a): Sockperf latency with and without vNetTracer.
pub fn fig7a(scale: Scale) -> Table {
    let cfg = TwoHostConfig {
        messages: scale.messages,
        ..Default::default()
    };
    let run = |traced: bool| {
        let mut s = TwoHostScenario::build(&cfg);
        let mut tracer = None;
        if traced {
            let pkg = s.control_package();
            let mut t = VNetTracer::for_world(&s.world, TraceDb::new());
            t.deploy(&mut s.world, &pkg).expect("deploys");
            tracer = Some(t);
        }
        s.run(&cfg);
        if let Some(t) = tracer.as_mut() {
            t.collect(&s.world);
        }
        let summary = s.latency.borrow_mut().summary().expect("samples");
        (summary.mean_ns, summary.p999_ns as f64)
    };
    let (base_avg, base_tail) = run(false);
    let (tr_avg, tr_tail) = run(true);
    let mut t = Table::new(
        "Fig 7(a): Sockperf latency with/without vNetTracer (us)",
        &["config", "avg", "p99.9"],
    );
    t.row(&["no tracing".into(), us(base_avg), us(base_tail)]);
    t.row(&["vNetTracer (4 scripts)".into(), us(tr_avg), us(tr_tail)]);
    t.row(&[
        "overhead".into(),
        format!("{:+.2}%", 100.0 * (tr_avg - base_avg) / base_avg),
        format!("{:+.2}%", 100.0 * (tr_tail - base_tail) / base_tail),
    ]);
    t.note("paper: average latency increased less than 1%, no traffic burst in the tail");
    t
}

/// Fig. 7(b): Netperf throughput — vNetTracer vs SystemTap at
/// `tcp_recvmsg`, on 1 GbE and 10 GbE.
pub fn fig7b(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 7(b): Netperf throughput under tracing (Mbps)",
        &[
            "link",
            "baseline",
            "vNetTracer",
            "SystemTap",
            "vNT loss",
            "STP loss",
        ],
    );
    for gbps in [1.0, 10.0] {
        let base = run_netperf(gbps, scale.segments, TracerKind::None);
        let vnt = run_netperf(gbps, scale.segments, TracerKind::VNetTracer);
        let stp = run_netperf(gbps, scale.segments, TracerKind::SystemTap);
        t.row(&[
            format!("{gbps:.0}G"),
            format!("{base:.0}"),
            format!("{vnt:.0}"),
            format!("{stp:.0}"),
            format!("{:.1}%", 100.0 * (base - vnt) / base),
            format!("{:.1}%", 100.0 * (base - stp) / base),
        ]);
    }
    t.note("paper: SystemTap ~10% loss on 1G and 26.5% on 10G; vNetTracer marginal");
    t
}

/// Fig. 8(b): Sockperf latency in OVS, Cases I–III+, with the congesting
/// iPerf clients run both as open-loop UDP (sustained overload) and as
/// AIMD TCP (iPerf's default, whose breathing load gives the avg ≪ p99.9
/// structure of the paper's figure).
pub fn fig8b(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 8(b): Sockperf latency under OVS congestion (us)",
        &[
            "case",
            "avg (UDP)",
            "p99.9 (UDP)",
            "avg (TCP)",
            "p99.9 (TCP)",
        ],
    );
    for case in OvsCase::ALL {
        let run = |transport| {
            sockperf_latency(&OvsConfig {
                case,
                transport,
                messages: scale.messages,
                ..Default::default()
            })
        };
        let (udp, tcp) = (run(CongestionTransport::Udp), run(CongestionTransport::Tcp));
        t.row(&[
            case.label().into(),
            us(udp.mean_ns),
            us(udp.p999_ns as f64),
            us(tcp.mean_ns),
            us(tcp.p999_ns as f64),
        ]);
    }
    t.note("paper: tail latency inflates significantly in Cases II/III vs the uncongested Case I;");
    t.note("with TCP congestion the queue oscillates, separating avg from p99.9");
    t
}

/// Fig. 9(a): latency decomposition (sender stack / OVS / receiver
/// stack) per case.
pub fn fig9a(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 9(a): latency decomposition (mean us)",
        &["case", "sender stack", "OVS", "receiver stack"],
    );
    for case in OvsCase::ALL {
        let cfg = OvsConfig {
            case,
            messages: scale.messages,
            ..Default::default()
        };
        let mut s = OvsScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).expect("deploys");
        s.run(&cfg);
        tracer.collect(&s.world);
        let segs = metrics::decompose(tracer.db(), &OvsScenario::decomposition_chain());
        let seg_us = |from: &str| {
            segs.iter()
                .find(|x| x.from == from)
                .map(|x| us(x.stats.mean_ns))
                .unwrap_or_else(|| "-".into())
        };
        t.row(&[
            case.label().into(),
            seg_us("sock_em0"),
            seg_us("sock_vnet0"),
            seg_us("sock_em2_in"),
        ]);
    }
    t.note("paper: the time spent inside the OVS dominates; II+ tracks II (queue saturated),");
    t.note("III+ > III (per-ingress-port processing)");
    t
}

/// Fig. 9(b): ingress policing restores Sockperf latency.
pub fn fig9b(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 9(b): OVS ingress rate limiting, 1e5 kbps / 1e4 kb burst (us)",
        &[
            "case",
            "avg",
            "p99.9",
            "avg policed",
            "p99.9 policed",
            "avg HTB",
            "p99.9 HTB",
        ],
    );
    for case in [OvsCase::II, OvsCase::III] {
        let run = |mitigation| {
            sockperf_latency(&OvsConfig {
                case,
                mitigation,
                messages: scale.messages,
                ..Default::default()
            })
        };
        let without = run(Mitigation::None);
        let policed = run(Mitigation::Policing);
        let htb = run(Mitigation::Htb);
        t.row(&[
            case.label().into(),
            us(without.mean_ns),
            us(without.p999_ns as f64),
            us(policed.mean_ns),
            us(policed.p999_ns as f64),
            us(htb.mean_ns),
            us(htb.p999_ns as f64),
        ]);
    }
    t.note("paper: both average and tail latency decrease significantly with the rate limit;");
    t.note("HTB QoS at the virtual port has a similar effect");
    t
}

/// Fig. 10(a): Sockperf latency under CPU consolidation (Xen credit2).
pub fn fig10a(scale: Scale) -> Table {
    fig10(
        XenWorkload::Sockperf,
        "Fig 10(a): Sockperf latency, Xen credit2 (us)",
        scale,
    )
}

/// Fig. 10(b): Data Caching latency under CPU consolidation.
pub fn fig10b(scale: Scale) -> Table {
    fig10(
        XenWorkload::DataCaching,
        "Fig 10(b): Data Caching (memcached, 5000 rps) latency (us)",
        scale,
    )
}

fn fig10(workload: XenWorkload, title: &str, scale: Scale) -> Table {
    let mut t = Table::new(title, &["config", "avg", "p99.9"]);
    let configs = [
        ("I/O VM alone", Consolidation::Alone),
        (
            "shared pCPU (ratelimit 1ms)",
            Consolidation::SharedDefaultRatelimit,
        ),
        (
            "shared pCPU (ratelimit 0)",
            Consolidation::SharedNoRatelimit,
        ),
    ];
    let mut results = Vec::new();
    for (label, consolidation) in configs {
        let s = run_latency(&XenConfig {
            workload,
            consolidation,
            requests: scale.messages,
            ..Default::default()
        });
        results.push((label, s));
        let s = &results.last().expect("just pushed").1;
        t.row(&[label.into(), us(s.mean_ns), us(s.p999_ns as f64)]);
    }
    let base = &results[0].1;
    let shared = &results[1].1;
    t.note(format!(
        "inflation under the default ratelimit: avg {:.1}x, p99.9 {:.1}x",
        shared.mean_ns / base.mean_ns,
        shared.p999_ns as f64 / base.p999_ns as f64
    ));
    match workload {
        XenWorkload::Sockperf => {
            t.note("paper: 99.9th percentile increased 22x; ratelimit=0 close to baseline")
        }
        XenWorkload::DataCaching => {
            t.note("paper: avg 4.7x and tail 7.5x; ratelimit=0 close to baseline")
        }
    };
    t
}

/// Fig. 11: one-way latency decomposition across the five tracepoints,
/// alone vs consolidated, plus the per-packet sawtooth statistics.
pub fn fig11(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 11: latency decomposition eth0->xenbr0->vif1.0->eth1->veth (mean us)",
        &[
            "config",
            "eth0->xenbr0",
            "xenbr0->vif",
            "vif->eth1",
            "eth1->veth",
            "vif->eth1 share",
        ],
    );
    for (label, consolidation) in [
        ("I/O alone", Consolidation::Alone),
        ("I/O + CPU shared", Consolidation::SharedDefaultRatelimit),
    ] {
        let cfg = XenConfig {
            consolidation,
            requests: scale.messages,
            ..Default::default()
        };
        let mut s = XenScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).expect("deploys");
        s.run(&cfg);
        tracer.collect(&s.world);
        let segs = metrics::decompose(tracer.db(), &XenScenario::decomposition_chain());
        let total: f64 = segs.iter().map(|x| x.stats.mean_ns).sum();
        let cell = |from: &str| {
            segs.iter()
                .find(|x| x.from == from)
                .map(|x| us(x.stats.mean_ns))
                .unwrap_or_else(|| "-".into())
        };
        let vif_share = segs
            .iter()
            .find(|x| x.from == "tp_vif")
            .map(|x| format!("{:.1}%", 100.0 * x.stats.mean_ns / total))
            .unwrap_or_else(|| "-".into());
        t.row(&[
            label.into(),
            cell("tp_eth0"),
            cell("tp_xenbr0"),
            cell("tp_vif"),
            cell("tp_eth1"),
            vif_share,
        ]);
        if consolidation == Consolidation::SharedDefaultRatelimit {
            let rows =
                metrics::per_packet_segments(tracer.db(), &XenScenario::decomposition_chain());
            let delays: Vec<u64> = rows.iter().filter_map(|(_, s)| s[2]).collect();
            let peak = delays.iter().copied().max().unwrap_or(0);
            let resets = delays.windows(2).filter(|w| w[1] > w[0] + 500_000).count();
            t.note(format!(
                "Fig 11(b) sawtooth: peak vif->eth1 delay {} us, {} resets over {} packets",
                peak / 1000,
                resets,
                delays.len()
            ));
        }
    }
    t.note("paper: >90% of one-way latency lands between vif1.0 and eth1 when sharing;");
    t.note("the delay climbs to ~1000us then descends (Fig 11b sawtooth)");
    t
}

/// Fig. 12(b): VM vs container throughput.
pub fn fig12b(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 12(b): VM vs container throughput (Mbps)",
        &["transport", "VM", "container", "ratio"],
    );
    for (label, transport) in [
        ("netperf TCP", Transport::NetperfTcp),
        ("netperf UDP", Transport::NetperfUdp),
        ("iperf TCP", Transport::IperfTcp),
    ] {
        let (vm, _, _) = run_throughput(NetMode::VmDirect, transport, scale.segments);
        let (ov, _, _) = run_throughput(NetMode::Overlay, transport, scale.segments);
        t.row(&[
            label.into(),
            mbps(vm * 1e6),
            mbps(ov * 1e6),
            format!("{:.1}%", 100.0 * ov / vm),
        ]);
    }
    t.note("paper: container netperf TCP/UDP at 16.8% / 22.9% of the VM numbers");
    t
}

/// Fig. 13(a): `net_rx_action` rate and per-CPU softirq distribution.
pub fn fig13a(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 13(a): net_rx_action executions and distribution (receiver VM)",
        &[
            "mode",
            "per packet",
            "cpu0",
            "cpu1",
            "cpu2",
            "cpu3",
            "busiest share",
        ],
    );
    for (label, mode) in [("VM", NetMode::VmDirect), ("container", NetMode::Overlay)] {
        let cfg = vnet_testbed::container::ContainerConfig {
            mode,
            transport: Transport::NetperfTcp,
            count: scale.segments,
        };
        let mut s = ContainerScenario::build(&cfg);
        s.run(&cfg);
        let per_cpu = s.vm2_net_rx_per_cpu();
        let delivered = s.throughput.borrow_mut().packets().max(1);
        let total: u64 = per_cpu.iter().sum();
        t.row(&[
            label.into(),
            format!("{:.2}", total as f64 / delivered as f64),
            per_cpu[0].to_string(),
            per_cpu[1].to_string(),
            per_cpu[2].to_string(),
            per_cpu[3].to_string(),
            format!("{:.1}%", 100.0 * s.vm2_concentration()),
        ]);
    }
    t.note("paper: container rate = 4.54x the VM rate; 99.7% (VM) and 62.9% (container)");
    t.note("of net_rx_action executions land on CPU 0");
    t
}

/// Fig. 13(b): the data path of a packet, VM vs container.
pub fn fig13b(_scale: Scale) -> Table {
    let mut t = Table::new("Fig 13(b): data path depth", &["mode", "hops", "path"]);
    for (label, mode) in [("VM", NetMode::VmDirect), ("container", NetMode::Overlay)] {
        let path = ContainerScenario::data_path(mode);
        t.row(&[label.into(), path.len().to_string(), path.join(" -> ")]);
    }
    t.note("paper: container packets travel across the network layers repeatedly");
    t
}

/// All figures in paper order.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        fig7a(scale),
        fig7b(scale),
        fig8b(scale),
        fig9a(scale),
        fig9b(scale),
        fig10a(scale),
        fig10b(scale),
        fig11(scale),
        fig12b(scale),
        fig13a(scale),
        fig13b(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: the cheapest figure runners produce well-formed tables.
    #[test]
    fn fig13b_renders() {
        let t = fig13b(Scale::quick());
        let s = t.to_string();
        assert!(s.contains("container"));
        assert!(s.contains("->"));
    }
}
