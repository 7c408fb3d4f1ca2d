//! Property-based tests for the tracer core: the compiled eBPF filter
//! agrees with a host-side reference matcher on arbitrary packets and
//! rules, and records round-trip.

use proptest::prelude::*;
use std::net::{Ipv4Addr, SocketAddrV4};
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::load;
use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
use vnet_sim::packet::{FlowKey, IpProtocol, Packet, PacketBuilder, TcpFlags};
use vnet_tsdb::CompactRecord;
use vnettracer::compile::compile;
use vnettracer::config::{Action, FilterRule, HookSpec, Proto, TraceSpec};

// A small IP space so random rules and packets collide often.
fn small_ip() -> impl Strategy<Value = Ipv4Addr> {
    (0u8..=1, 1u8..=3).prop_map(|(c, d)| Ipv4Addr::new(10, 0, c, d))
}

fn small_port() -> impl Strategy<Value = u16> {
    prop_oneof![Just(7u16), Just(80), Just(5001), Just(9000)]
}

fn arb_flow() -> impl Strategy<Value = FlowKey> {
    (
        small_ip(),
        small_ip(),
        small_port(),
        small_port(),
        any::<bool>(),
    )
        .prop_map(|(src, dst, sp, dp, tcp)| {
            if tcp {
                FlowKey::tcp(SocketAddrV4::new(src, sp), SocketAddrV4::new(dst, dp))
            } else {
                FlowKey::udp(SocketAddrV4::new(src, sp), SocketAddrV4::new(dst, dp))
            }
        })
}

fn arb_rule() -> impl Strategy<Value = FilterRule> {
    (
        proptest::option::of(prop_oneof![Just(Proto::Tcp), Just(Proto::Udp)]),
        proptest::option::of(small_ip()),
        proptest::option::of(small_ip()),
        proptest::option::of(small_port()),
        proptest::option::of(small_port()),
    )
        .prop_map(
            |(protocol, src_ip, dst_ip, src_port, dst_port)| FilterRule {
                ether_type: Some(0x0800),
                protocol,
                src_ip,
                dst_ip,
                src_port,
                dst_port,
            },
        )
}

/// Host-side reference implementation of rule matching.
fn reference_match(rule: &FilterRule, pkt: &Packet) -> bool {
    let Ok(parsed) = pkt.parse() else {
        return false;
    };
    let flow = parsed.flow();
    if let Some(p) = rule.protocol {
        let want = match p {
            Proto::Tcp => IpProtocol::Tcp,
            Proto::Udp => IpProtocol::Udp,
        };
        if flow.protocol != want {
            return false;
        }
    }
    rule.src_ip.is_none_or(|ip| ip == flow.src_ip)
        && rule.dst_ip.is_none_or(|ip| ip == flow.dst_ip)
        && rule.src_port.is_none_or(|p| p == flow.src_port)
        && rule.dst_port.is_none_or(|p| p == flow.dst_port)
}

fn run_compiled(rule: FilterRule, pkt: &Packet) -> (bool, Vec<CompactRecord>) {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(65536), 1).unwrap();
    let spec = TraceSpec {
        name: "t".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("d".into()),
        filter: rule,
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = compile(&spec, Some(perf_fd), None).unwrap();
    let loaded = load(prog, &maps, &standard_helpers()).unwrap();
    let ctx = TraceContext {
        pkt_len: pkt.len() as u32,
        ..Default::default()
    };
    let mut env = FixedEnv::default();
    let out = Vm::new()
        .execute(&loaded, &ctx, pkt.bytes(), &mut maps, &mut env)
        .unwrap();
    let recs = maps
        .get_mut(perf_fd)
        .unwrap()
        .perf_drain_all()
        .iter()
        .map(|b| CompactRecord::decode(b).unwrap())
        .collect();
    (out.ret == 1, recs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled eBPF filter and the host-side reference matcher agree
    /// on every (rule, packet) pair.
    #[test]
    fn compiled_filter_matches_reference(
        rule in arb_rule(),
        flow in arb_flow(),
        payload_len in 0usize..256,
    ) {
        let pkt = match flow.protocol {
            IpProtocol::Tcp => {
                PacketBuilder::tcp(flow, 1, 2, TcpFlags::ACK, vec![0xab; payload_len]).build()
            }
            _ => PacketBuilder::udp(flow, vec![0xab; payload_len]).build(),
        };
        let (matched, recs) = run_compiled(rule, &pkt);
        prop_assert_eq!(matched, reference_match(&rule, &pkt), "rule {:?} flow {}", rule, flow);
        prop_assert_eq!(recs.len(), usize::from(matched));
        if let Some(r) = recs.first() {
            prop_assert_eq!(r.sport, flow.src_port);
            prop_assert_eq!(r.dport, flow.dst_port);
            prop_assert_eq!(Ipv4Addr::from(r.saddr), flow.src_ip);
            prop_assert_eq!(Ipv4Addr::from(r.daddr), flow.dst_ip);
            prop_assert_eq!(r.pkt_len as usize, pkt.len());
        }
    }

    /// Trace IDs injected by the (simulated) kernel patch are recovered
    /// verbatim by the compiled extractor, for both protocols.
    #[test]
    fn trace_id_extraction_agrees_with_injection(
        flow in arb_flow(),
        payload_len in 0usize..256,
        id in any::<u32>(),
    ) {
        let mut pkt = match flow.protocol {
            IpProtocol::Tcp => {
                PacketBuilder::tcp(flow, 1, 2, TcpFlags::ACK, vec![0u8; payload_len]).build()
            }
            _ => PacketBuilder::udp(flow, vec![0u8; payload_len]).build(),
        };
        match flow.protocol {
            IpProtocol::Tcp => {
                vnet_sim::packet::trace_id::inject_tcp_option(&mut pkt, id).unwrap()
            }
            _ => vnet_sim::packet::trace_id::inject_udp_trailer(&mut pkt, id).unwrap(),
        }
        let (matched, recs) = run_compiled(FilterRule::any(), &pkt);
        prop_assert!(matched);
        prop_assert!(recs[0].has_trace_id());
        prop_assert_eq!(recs[0].trace_id, id);
    }

    /// Record encode/decode round-trips for arbitrary field values.
    #[test]
    fn record_round_trip(
        timestamp_ns in any::<u64>(),
        trace_id in any::<u32>(),
        pkt_len in any::<u32>(),
        saddr in any::<u32>(),
        daddr in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        cpu in any::<u16>(),
        direction in 0u8..2,
        flags in 0u8..4,
    ) {
        let r = CompactRecord {
            timestamp_ns, trace_id, pkt_len, saddr, daddr, sport, dport, cpu, direction, flags,
        };
        prop_assert_eq!(CompactRecord::decode(&r.encode()), Some(r));
    }
}
