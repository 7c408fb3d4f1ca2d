//! Compiles trace specifications into eBPF programs.
//!
//! This is vNetTracer's "customized tracing scripts" generator (§III-D):
//! the dispatcher formats the user's filter rules, tracepoint locations
//! and actions into per-script configuration, and this module turns each
//! into verified eBPF bytecode:
//!
//! * the **filter** parses the packet's Ethernet/IPv4/transport headers
//!   in-place (through the context's `data`/`data_end` pointers, every
//!   access bounds-checked) and bails out early on mismatch, so
//!   "network packets which do not match the tracing rules will not be
//!   traced" at a cost of a few instructions;
//! * the **trace-ID extractor** pulls the 4-byte packet ID from the UDP
//!   payload trailer, or scans the TCP options for the experimental
//!   option kind 253 — with a bounded, *unrolled* scan, since verified
//!   programs cannot loop;
//! * the **action** either emits a 32-byte [`CompactRecord`] into the
//!   perf buffer or bumps a per-CPU counter.
//!
//! [`CompactRecord`]: vnet_tsdb::CompactRecord

use vnet_ebpf::asm::{reg::*, AluOp, Asm, Cond, Size};
use vnet_ebpf::context::{
    CTX_OFF_AUX, CTX_OFF_DATA, CTX_OFF_DATA_END, CTX_OFF_DIRECTION, CTX_OFF_PKT_LEN,
};
use vnet_ebpf::program::{AttachType, Program};
use vnet_ebpf::vm::helper_ids;
use vnet_tsdb::record::offsets;
use vnet_tsdb::COMPACT_RECORD_BYTES;

use crate::config::{Action, FilterRule, HookSpec, Proto, TraceSpec};
use crate::error::{Result, TracerError};

// Frame offsets: Ethernet header is 14 bytes, IPv4 fixed 20 (the
// simulated stack never emits IP options), so L4 starts at 34.
const OFF_ETHERTYPE: i16 = 12;
const OFF_PROTO: i16 = 23;
const OFF_SADDR: i16 = 26;
const OFF_DADDR: i16 = 30;
const OFF_SPORT: i16 = 34;
const OFF_DPORT: i16 = 36;
const OFF_TCP_DOFF: i16 = 46;
const OFF_TCP_OPTS: i32 = 54;
/// Smallest frame the filter needs to parse through the L4 ports.
const MIN_PARSE_LEN: i32 = 38;
/// Iterations of the unrolled TCP option scan (each option is ≥1 byte;
/// 10 iterations cover any realistic option mix in a 40-byte area).
const TCP_OPT_SCAN_ITERS: usize = 10;
/// TCP option kind carrying the trace ID.
const TRACE_ID_OPTION_KIND: i32 = 253;

const R_SIZE: i16 = COMPACT_RECORD_BYTES as i16;

/// Record field offset → frame-pointer-relative stack offset.
fn fp_off(field: usize) -> i16 {
    field as i16 - R_SIZE
}

/// Converts a [`HookSpec`] into an eBPF attach type.
pub fn attach_type(hook: &HookSpec) -> AttachType {
    match hook {
        HookSpec::Kprobe(f) => AttachType::Kprobe(f.clone()),
        HookSpec::Kretprobe(f) => AttachType::Kretprobe(f.clone()),
        HookSpec::Tracepoint(f) => AttachType::Tracepoint(f.clone()),
        HookSpec::DeviceRx(d) => AttachType::SocketRx(d.clone()),
        HookSpec::DeviceTx(d) => AttachType::SocketTx(d.clone()),
        HookSpec::Uprobe(a) => AttachType::Uprobe(a.clone()),
    }
}

/// Compiles `spec` into an eBPF program.
///
/// `perf_fd` must be provided for [`Action::RecordPacketInfo`] and
/// `counter_fd` for [`Action::CountPerCpu`]; the agent creates the maps
/// and passes their fds.
///
/// # Errors
///
/// Returns [`TracerError::Config`] when the needed map fd is missing, or
/// [`TracerError::Assemble`] if the generated program fails to assemble
/// (an internal invariant violation).
pub fn compile(spec: &TraceSpec, perf_fd: Option<i32>, counter_fd: Option<i32>) -> Result<Program> {
    let asm = match spec.action {
        Action::RecordPacketInfo | Action::RecordDropInfo => {
            let fd = perf_fd.ok_or_else(|| {
                TracerError::Config(format!("script `{}` needs a perf buffer", spec.name))
            })?;
            emit_record_program(&spec.filter, fd, spec.action == Action::RecordDropInfo)
        }
        Action::CountPerCpu => {
            let fd = counter_fd.ok_or_else(|| {
                TracerError::Config(format!("script `{}` needs a counter map", spec.name))
            })?;
            emit_count_program(&spec.filter, fd)
        }
    };
    let insns = asm.build()?;
    Ok(Program::new(
        spec.name.clone(),
        attach_type(&spec.hook),
        insns,
    ))
}

/// Emits the shared prologue: load the packet region bounds into
/// `r7`/`r8` and verify the frame is long enough to parse (jumping to
/// `miss` otherwise).
fn emit_prologue(asm: Asm) -> Asm {
    asm.ldx(Size::DW, R7, R1, CTX_OFF_DATA)
        .ldx(Size::DW, R8, R1, CTX_OFF_DATA_END)
        .mov64(R2, R7)
        .add64_imm(R2, MIN_PARSE_LEN)
        .jmp_reg(Cond::Gt, R2, R8, "miss")
}

/// Emits the filter-rule checks; each mismatch jumps to `miss`.
fn emit_filter(mut asm: Asm, rule: &FilterRule) -> Asm {
    if let Some(et) = rule.ether_type {
        asm = asm.ldx(Size::H, R2, R7, OFF_ETHERTYPE).be16(R2).jmp32_imm(
            Cond::Ne,
            R2,
            i32::from(et),
            "miss",
        );
    }
    if let Some(proto) = rule.protocol {
        let p = match proto {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        };
        asm = asm
            .ldx(Size::B, R2, R7, OFF_PROTO)
            .jmp32_imm(Cond::Ne, R2, p, "miss");
    }
    if let Some(ip) = rule.src_ip {
        asm = asm.ldx(Size::W, R2, R7, OFF_SADDR).be32(R2).jmp32_imm(
            Cond::Ne,
            R2,
            u32::from(ip) as i32,
            "miss",
        );
    }
    if let Some(ip) = rule.dst_ip {
        asm = asm.ldx(Size::W, R2, R7, OFF_DADDR).be32(R2).jmp32_imm(
            Cond::Ne,
            R2,
            u32::from(ip) as i32,
            "miss",
        );
    }
    if let Some(port) = rule.src_port {
        asm = asm.ldx(Size::H, R2, R7, OFF_SPORT).be16(R2).jmp32_imm(
            Cond::Ne,
            R2,
            i32::from(port),
            "miss",
        );
    }
    if let Some(port) = rule.dst_port {
        asm = asm.ldx(Size::H, R2, R7, OFF_DPORT).be16(R2).jmp32_imm(
            Cond::Ne,
            R2,
            i32::from(port),
            "miss",
        );
    }
    asm
}

/// Emits trace-ID extraction into the record's `TRACE_ID` and `FLAGS`
/// stack slots; all paths continue at `emit`.
fn emit_trace_id(mut asm: Asm) -> Asm {
    // Default: no ID.
    asm = asm
        .st(Size::W, R10, fp_off(offsets::TRACE_ID), 0)
        .st(Size::B, R10, fp_off(offsets::FLAGS), 0)
        .ldx(Size::B, R2, R7, OFF_PROTO)
        .jmp32_imm(Cond::Eq, R2, 17, "udp_id")
        .jmp32_imm(Cond::Eq, R2, 6, "tcp_id")
        .jump("emit");

    // UDP: the 4-byte trailer appended by `udp_send_skb` sits at the very
    // end of the datagram.
    asm = asm
        .label("udp_id")
        .mov64(R2, R8)
        .add64_imm(R2, -4)
        .mov64(R4, R7)
        .add64_imm(R4, 42) // eth(14) + ip(20) + udp(8): payload start
        .jmp_reg(Cond::Lt, R2, R4, "emit")
        .ldx(Size::W, R3, R2, 0)
        .be32(R3)
        .stx(Size::W, R10, R3, fp_off(offsets::TRACE_ID))
        .st(Size::B, R10, fp_off(offsets::FLAGS), 1)
        .jump("emit");

    // TCP: unrolled scan of the options area for kind 253.
    asm = asm
        .label("tcp_id")
        .ldx(Size::B, R2, R7, OFF_TCP_DOFF)
        .alu64_imm(AluOp::Rsh, R2, 4)
        .alu64_imm(AluOp::Lsh, R2, 2)
        .mov64(R5, R7)
        .add64_imm(R5, OFF_SPORT as i32) // L4 start
        .add64(R5, R2) // options end
        .jmp_reg(Cond::Gt, R5, R8, "emit") // malformed header
        .mov64(R9, R7)
        .add64_imm(R9, OFF_TCP_OPTS); // cursor

    for i in 0..TCP_OPT_SCAN_ITERS {
        // The last iteration leaves for `emit` on every path, so it does
        // not advance a cursor nothing reads again.
        let last = i + 1 == TCP_OPT_SCAN_ITERS;
        if i > 0 {
            asm = asm.label(&format!("opt{i}"));
        }
        asm = asm
            .jmp_reg(Cond::Ge, R9, R5, "emit")
            .ldx(Size::B, R2, R9, 0)
            .jmp32_imm(Cond::Eq, R2, 0, "emit") // end-of-options
            .jmp32_imm(Cond::Ne, R2, 1, &format!("notnop{i}"));
        asm = if last {
            asm.jump("emit")
        } else {
            asm.add64_imm(R9, 1).jump(&format!("opt{}", i + 1))
        };
        asm = asm
            .label(&format!("notnop{i}"))
            .jmp32_imm(Cond::Ne, R2, TRACE_ID_OPTION_KIND, &format!("skip{i}"))
            // Found the trace-ID option: ensure its 6 bytes fit.
            .mov64(R2, R9)
            .add64_imm(R2, 6)
            .jmp_reg(Cond::Gt, R2, R5, "emit")
            .ldx(Size::W, R3, R9, 2)
            .be32(R3)
            .stx(Size::W, R10, R3, fp_off(offsets::TRACE_ID))
            .st(Size::B, R10, fp_off(offsets::FLAGS), 1)
            .jump("emit")
            .label(&format!("skip{i}"))
            .ldx(Size::B, R4, R9, 1)
            .jmp32_imm(Cond::Lt, R4, 2, "emit"); // malformed option
        if !last {
            asm = asm.add64(R9, R4);
        }
    }
    asm
}

/// Emits the record-building action and the `miss` tail. With
/// `capture_aux`, the hook's auxiliary context word (the typed
/// drop-reason code at `kfree_skb`) is folded into flag bits 1–3.
fn emit_record_action(asm: Asm, perf_fd: i32, capture_aux: bool) -> Asm {
    let mut asm = asm
        .label("emit")
        // Timestamp from the node's CLOCK_MONOTONIC (§III-B).
        .call(helper_ids::KTIME_GET_NS)
        .stx(Size::DW, R10, R0, fp_off(offsets::TIMESTAMP))
        .call(helper_ids::GET_SMP_PROCESSOR_ID)
        .stx(Size::H, R10, R0, fp_off(offsets::CPU))
        // Packet length and direction from the context.
        .ldx(Size::W, R2, R6, CTX_OFF_PKT_LEN)
        .stx(Size::W, R10, R2, fp_off(offsets::PKT_LEN))
        .ldx(Size::W, R2, R6, CTX_OFF_DIRECTION)
        .stx(Size::B, R10, R2, fp_off(offsets::DIRECTION));
    if capture_aux {
        asm = asm
            .ldx(Size::W, R2, R6, CTX_OFF_AUX)
            .alu64_imm(AluOp::And, R2, 7)
            .alu64_imm(AluOp::Lsh, R2, 1)
            .ldx(Size::B, R3, R10, fp_off(offsets::FLAGS))
            .alu64(AluOp::Or, R3, R2)
            .stx(Size::B, R10, R3, fp_off(offsets::FLAGS));
    }
    asm
        // Flow tuple from the packet bytes.
        .ldx(Size::W, R2, R7, OFF_SADDR)
        .be32(R2)
        .stx(Size::W, R10, R2, fp_off(offsets::SADDR))
        .ldx(Size::W, R2, R7, OFF_DADDR)
        .be32(R2)
        .stx(Size::W, R10, R2, fp_off(offsets::DADDR))
        .ldx(Size::H, R2, R7, OFF_SPORT)
        .be16(R2)
        .stx(Size::H, R10, R2, fp_off(offsets::SPORT))
        .ldx(Size::H, R2, R7, OFF_DPORT)
        .be16(R2)
        .stx(Size::H, R10, R2, fp_off(offsets::DPORT))
        // Ship the record.
        .mov64(R1, R6)
        .ld_map_fd(R2, perf_fd)
        .mov32_imm(R3, -1) // BPF_F_CURRENT_CPU
        .mov64(R4, R10)
        .add64_imm(R4, -(R_SIZE as i32))
        .mov64_imm(R5, R_SIZE as i32)
        .call(helper_ids::PERF_EVENT_OUTPUT)
        .mov64_imm(R0, 1)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit()
}

fn emit_record_program(rule: &FilterRule, perf_fd: i32, capture_aux: bool) -> Asm {
    // The record action reads the context after helper calls have
    // clobbered `r1`, so it is saved in `r6`; the counter never does.
    let mut asm = emit_prologue(Asm::new().mov64(R6, R1));
    asm = emit_filter(asm, rule);
    asm = emit_trace_id(asm);
    emit_record_action(asm, perf_fd, capture_aux)
}

fn emit_count_program(rule: &FilterRule, counter_fd: i32) -> Asm {
    let mut asm = Asm::new();
    let filtered = !rule.is_empty();
    if filtered {
        asm = emit_prologue(asm);
        asm = emit_filter(asm, rule);
    }
    asm = asm
        .st(Size::W, R10, -4, 0)
        .ld_map_fd(R1, counter_fd)
        .mov64(R2, R10)
        .add64_imm(R2, -4)
        .call(helper_ids::MAP_LOOKUP_ELEM)
        .jmp_imm(Cond::Eq, R0, 0, "miss")
        .ldx(Size::DW, R2, R0, 0)
        .add64_imm(R2, 1)
        .stx(Size::DW, R0, R2, 0)
        .mov64_imm(R0, 1)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit();
    asm
}

// `vnet-ebpf`'s test programs, for their seeded mutant generator.
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../ebpf/src/test_programs.rs"]
mod test_programs;

#[cfg(test)]
mod tests {
    use super::test_programs::{mutants, Rng};
    use super::*;
    use std::net::Ipv4Addr;
    use std::net::SocketAddrV4;
    use vnet_ebpf::context::TraceContext;
    use vnet_ebpf::map::{MapDef, MapRegistry};
    use vnet_ebpf::program::load;
    use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
    use vnet_sim::packet::{
        trace_id, FlowKey, PacketBuilder, SocketAddrV4Ext, TcpFlags, TcpOption,
    };

    fn spec(filter: FilterRule, action: Action) -> TraceSpec {
        TraceSpec {
            name: "t".into(),
            node: "n".into(),
            hook: HookSpec::DeviceRx("eth0".into()),
            filter,
            action,
        }
    }

    fn udp_rule() -> FilterRule {
        FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 9000),
            (Ipv4Addr::new(10, 0, 0, 2), 7),
        )
    }

    fn udp_flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 9000),
            SocketAddrV4::sock("10.0.0.2", 7),
        )
    }

    /// Runs a compiled record program against a packet; returns
    /// (matched, drained perf records).
    fn run_record(rule: FilterRule, pkt: &[u8]) -> (bool, Vec<vnet_tsdb::CompactRecord>) {
        let mut maps = MapRegistry::new();
        let perf_fd = maps.create(MapDef::perf(4096), 2).unwrap();
        let prog = compile(&spec(rule, Action::RecordPacketInfo), Some(perf_fd), None).unwrap();
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let ctx = TraceContext {
            timestamp_ns: 5555,
            pkt_len: pkt.len() as u32,
            cpu: 1,
            node: 0,
            device: 0,
            direction: 0,
            aux: 0,
        };
        let mut env = FixedEnv {
            time_ns: 5555,
            cpu: 1,
            ..Default::default()
        };
        let out = Vm::new()
            .execute(&loaded, &ctx, pkt, &mut maps, &mut env)
            .unwrap();
        let recs = maps
            .get_mut(perf_fd)
            .unwrap()
            .perf_drain_all()
            .iter()
            .map(|b| vnet_tsdb::CompactRecord::decode(b).unwrap())
            .collect();
        (out.ret == 1, recs)
    }

    #[test]
    fn matching_udp_packet_produces_record_with_trace_id() {
        let mut pkt = PacketBuilder::udp(udp_flow(), vec![7u8; 56]).build();
        trace_id::inject_udp_trailer(&mut pkt, 0xfeedc0de).unwrap();
        let (matched, recs) = run_record(udp_rule(), pkt.bytes());
        assert!(matched);
        assert_eq!(recs.len(), 1);
        // The bytes the script assembled on its stack and pushed through
        // the perf ring decode to exactly this record.
        assert_eq!(
            recs[0],
            vnet_tsdb::CompactRecord {
                timestamp_ns: 5555,
                trace_id: 0xfeedc0de,
                pkt_len: pkt.len() as u32,
                saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
                daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
                sport: 9000,
                dport: 7,
                cpu: 1,
                direction: 0,
                flags: 1,
            }
        );
    }

    #[test]
    fn non_matching_packets_filtered_out() {
        // Wrong dst port.
        let other = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 9000),
            SocketAddrV4::sock("10.0.0.2", 8),
        );
        let pkt = PacketBuilder::udp(other, vec![0; 16]).build();
        let (matched, recs) = run_record(udp_rule(), pkt.bytes());
        assert!(!matched);
        assert!(recs.is_empty());
        // Wrong src ip.
        let other = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.9", 9000),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        let pkt = PacketBuilder::udp(other, vec![0; 16]).build();
        assert!(!run_record(udp_rule(), pkt.bytes()).0);
        // Wrong protocol (TCP packet against a UDP rule).
        let tcp = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 9000),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        let pkt = PacketBuilder::tcp(tcp, 0, 0, TcpFlags::ACK, vec![]).build();
        assert!(!run_record(udp_rule(), pkt.bytes()).0);
    }

    #[test]
    fn udp_without_trailer_reports_no_id() {
        // A 56-byte payload without injection: the "trailer" would be
        // payload bytes; but the packet is still recorded. The program
        // cannot distinguish, so it reports whatever the last 4 bytes
        // hold — with flag set. To test the *absent* case use a packet
        // whose payload is empty (no room for a trailer).
        let pkt = PacketBuilder::udp(udp_flow(), vec![]).build();
        let (matched, recs) = run_record(udp_rule(), pkt.bytes());
        assert!(matched);
        assert_eq!(recs.len(), 1);
        assert!(!recs[0].has_trace_id());
    }

    #[test]
    fn tcp_option_scan_finds_trace_id() {
        let tcp = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 9000),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        let rule = FilterRule {
            protocol: Some(Proto::Tcp),
            ..FilterRule::udp_flow(
                (Ipv4Addr::new(10, 0, 0, 1), 9000),
                (Ipv4Addr::new(10, 0, 0, 2), 7),
            )
        };
        // Trace ID as the only option.
        let pkt = PacketBuilder::tcp(tcp, 1, 2, TcpFlags::ACK, vec![1, 2, 3])
            .tcp_option(TcpOption::TraceId(0xabcd1234))
            .build();
        let (matched, recs) = run_record(rule, pkt.bytes());
        assert!(matched);
        assert_eq!(recs[0].trace_id, 0xabcd1234);
        assert!(recs[0].has_trace_id());
        // Trace ID after an MSS option.
        let pkt = PacketBuilder::tcp(tcp, 1, 2, TcpFlags::ACK, vec![])
            .tcp_option(TcpOption::Mss(1460))
            .tcp_option(TcpOption::TraceId(0x00c0ffee))
            .build();
        let (_, recs) = run_record(rule, pkt.bytes());
        assert_eq!(recs[0].trace_id, 0x00c0ffee);
        // No options at all: no id.
        let pkt = PacketBuilder::tcp(tcp, 1, 2, TcpFlags::ACK, vec![]).build();
        let (matched, recs) = run_record(rule, pkt.bytes());
        assert!(matched);
        assert!(!recs[0].has_trace_id());
        // Unrelated option only.
        let pkt = PacketBuilder::tcp(tcp, 1, 2, TcpFlags::ACK, vec![])
            .tcp_option(TcpOption::Other(99, vec![1, 2]))
            .build();
        let (_, recs) = run_record(rule, pkt.bytes());
        assert!(!recs[0].has_trace_id());
    }

    #[test]
    fn drop_record_program_captures_aux_reason() {
        let mut maps = MapRegistry::new();
        let perf_fd = maps.create(MapDef::perf(4096), 2).unwrap();
        let prog = compile(
            &spec(udp_rule(), Action::RecordDropInfo),
            Some(perf_fd),
            None,
        )
        .unwrap();
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let mut pkt = PacketBuilder::udp(udp_flow(), vec![7u8; 56]).build();
        trace_id::inject_udp_trailer(&mut pkt, 0xfeedc0de).unwrap();
        for aux in [0u32, 2, 5] {
            let ctx = TraceContext {
                pkt_len: pkt.len() as u32,
                aux,
                ..Default::default()
            };
            let mut env = FixedEnv::default();
            let out = Vm::new()
                .execute(&loaded, &ctx, pkt.bytes(), &mut maps, &mut env)
                .unwrap();
            assert_eq!(out.ret, 1);
            let recs: Vec<_> = maps
                .get_mut(perf_fd)
                .unwrap()
                .perf_drain_all()
                .iter()
                .map(|b| vnet_tsdb::CompactRecord::decode(b).unwrap())
                .collect();
            assert_eq!(recs.len(), 1);
            assert_eq!(u32::from(recs[0].drop_reason_code()), aux);
            assert!(recs[0].has_trace_id(), "trace id survives aux capture");
            assert_eq!(recs[0].trace_id, 0xfeedc0de);
        }
    }

    #[test]
    fn count_program_counts_per_cpu() {
        let mut maps = MapRegistry::new();
        let counter_fd = maps.create(MapDef::per_cpu_array(8, 1), 4).unwrap();
        let prog = compile(
            &spec(FilterRule::any(), Action::CountPerCpu),
            None,
            Some(counter_fd),
        )
        .unwrap();
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        for cpu in [0u32, 0, 2] {
            let mut env = FixedEnv {
                cpu,
                ..Default::default()
            };
            let out = Vm::new()
                .execute(&loaded, &TraceContext::default(), &[], &mut maps, &mut env)
                .unwrap();
            assert_eq!(out.ret, 1);
        }
        let map = maps.get_mut(counter_fd).unwrap();
        let v0 = u64::from_le_bytes(
            map.lookup(&0u32.to_le_bytes(), 0)
                .unwrap()
                .try_into()
                .unwrap(),
        );
        let v2 = u64::from_le_bytes(
            map.lookup(&0u32.to_le_bytes(), 2)
                .unwrap()
                .try_into()
                .unwrap(),
        );
        assert_eq!((v0, v2), (2, 1));
    }

    #[test]
    fn filtered_count_program_respects_rule() {
        let mut maps = MapRegistry::new();
        let counter_fd = maps.create(MapDef::per_cpu_array(8, 1), 1).unwrap();
        let prog = compile(
            &spec(udp_rule(), Action::CountPerCpu),
            None,
            Some(counter_fd),
        )
        .unwrap();
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let matching = PacketBuilder::udp(udp_flow(), vec![0; 8]).build();
        let other = PacketBuilder::udp(udp_flow().reversed(), vec![0; 8]).build();
        for pkt in [&matching, &other, &matching] {
            let ctx = TraceContext {
                pkt_len: pkt.len() as u32,
                ..Default::default()
            };
            let mut env = FixedEnv::default();
            Vm::new()
                .execute(&loaded, &ctx, pkt.bytes(), &mut maps, &mut env)
                .unwrap();
        }
        let map = maps.get_mut(counter_fd).unwrap();
        let v = u64::from_le_bytes(
            map.lookup(&0u32.to_le_bytes(), 0)
                .unwrap()
                .try_into()
                .unwrap(),
        );
        assert_eq!(v, 2, "only the two matching packets counted");
    }

    #[test]
    fn compile_rejects_missing_maps() {
        assert!(compile(&spec(udp_rule(), Action::RecordPacketInfo), None, None).is_err());
        assert!(compile(&spec(udp_rule(), Action::CountPerCpu), None, None).is_err());
    }

    #[test]
    fn compiled_programs_pass_the_verifier() {
        // `load` runs the verifier; exercise all rule shapes.
        let mut maps = MapRegistry::new();
        let perf = maps.create(MapDef::perf(4096), 1).unwrap();
        let counter = maps.create(MapDef::per_cpu_array(8, 1), 1).unwrap();
        let rules = [
            FilterRule::any(),
            udp_rule(),
            FilterRule {
                dst_port: Some(80),
                ..FilterRule::any()
            },
            FilterRule {
                protocol: Some(Proto::Tcp),
                ..FilterRule::any()
            },
        ];
        for rule in rules {
            let p = compile(&spec(rule, Action::RecordPacketInfo), Some(perf), None).unwrap();
            assert!(p.insns.len() <= vnet_ebpf::MAX_INSNS);
            load(p, &maps, &standard_helpers()).expect("record program verifies");
            let p = compile(&spec(rule, Action::CountPerCpu), None, Some(counter)).unwrap();
            load(p, &maps, &standard_helpers()).expect("count program verifies");
        }
    }

    /// Every program the compiler can emit, in a fixed order: the 64
    /// subsets of the six filter fields (bit `i` of the mask keeps field
    /// `i` of one UDP flow rule) × {UDP, TCP} as the protocol value × the
    /// three actions. Subsets without the protocol field appear once per
    /// protocol value, so each action contributes 128 programs.
    fn emitted_space() -> Vec<(Action, FilterRule, Program)> {
        let full = FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 1000),
            (Ipv4Addr::new(10, 0, 0, 2), 2000),
        );
        let mut out = Vec::new();
        for mask in 0u8..64 {
            for proto in [Proto::Udp, Proto::Tcp] {
                let rule = FilterRule {
                    ether_type: full.ether_type.filter(|_| mask & 1 != 0),
                    protocol: Some(proto).filter(|_| mask & 2 != 0),
                    src_ip: full.src_ip.filter(|_| mask & 4 != 0),
                    dst_ip: full.dst_ip.filter(|_| mask & 8 != 0),
                    src_port: full.src_port.filter(|_| mask & 16 != 0),
                    dst_port: full.dst_port.filter(|_| mask & 32 != 0),
                };
                for action in [
                    Action::RecordPacketInfo,
                    Action::RecordDropInfo,
                    Action::CountPerCpu,
                ] {
                    let prog = compile(&spec(rule, action), Some(0), Some(0)).unwrap();
                    out.push((action, rule, prog));
                }
            }
        }
        out
    }

    /// Slot count of the program for (`rule`, `action`).
    fn slots(rule: FilterRule, action: Action) -> usize {
        compile(&spec(rule, action), Some(0), Some(0))
            .unwrap()
            .insns
            .len()
    }

    #[test]
    fn emitted_streams_are_pinned() {
        // The gate the load-time optimizer was deleted behind: these are
        // the streams it handed back for every program the compiler can
        // emit, and the compiler now emits them itself. An emitter change
        // that moves the digest has to say so here — in particular one
        // that reintroduces an instruction nothing reads.
        let (mut bytes, mut total) = (Vec::new(), [0usize; 3]);
        for (action, _, prog) in emitted_space() {
            total[action as usize] += prog.insns.len();
            // The kernel's 8-byte slot: opcode, registers, offset, immediate.
            for insn in &prog.insns {
                bytes.extend([insn.opcode, (insn.src << 4) | insn.dst]);
                bytes.extend(insn.off.to_le_bytes());
                bytes.extend(insn.imm.to_le_bytes());
            }
        }
        assert_eq!(total[Action::RecordPacketInfo as usize], 31_936);
        assert_eq!(total[Action::RecordDropInfo as usize], 32_704);
        assert_eq!(total[Action::CountPerCpu as usize], 3_510);
        assert_eq!(vnet_tsdb::codec::crc32(&bytes), 0xb244_897a);
        for (action, any, flow) in [
            (Action::RecordPacketInfo, 241, 258),
            (Action::RecordDropInfo, 247, 264),
            (Action::CountPerCpu, 14, 36),
        ] {
            assert_eq!(slots(FilterRule::any(), action), any, "{action:?}");
            assert_eq!(slots(udp_rule(), action), flow, "{action:?}");
        }
    }

    #[test]
    fn emitted_programs_have_no_unreachable_instruction() {
        // Every instruction of every emitted program is reachable, and
        // what the verifier produces for them is pinned: one CRC-32 over
        // each program's cost certificate (a `None` row as `u64::MAX`)
        // and the joined register state at every slot (each register's
        // `Display` form, `-` for a slot no path reaches).
        let mut digest = Vec::new();
        for (action, rule, prog) in emitted_space() {
            let analysis = vnet_ebpf::analyze(&prog.insns, &standard_helpers());
            assert!(analysis.ok(), "{action:?} {rule:?}");
            let mut pc = 0;
            while pc < prog.insns.len() {
                assert!(
                    analysis.state_at(pc).is_some(),
                    "{action:?} {rule:?}: insn {pc} is unreachable"
                );
                pc += if prog.insns[pc].is_lddw() { 2 } else { 1 };
            }
            let cert = vnet_ebpf::certify(&prog.insns, |pc| analysis.state_at(pc).is_some());
            digest.extend(cert.worst_case_ns.to_le_bytes());
            digest.extend(cert.worst_case_insns.to_le_bytes());
            for row in &cert.worst_to_here_ns {
                digest.extend(row.unwrap_or(u64::MAX).to_le_bytes());
            }
            for pc in 0..prog.insns.len() {
                match analysis.state_at(pc) {
                    Some(regs) => {
                        for r in regs {
                            digest.extend(format!("{r};").bytes());
                        }
                    }
                    None => digest.push(b'-'),
                }
                digest.push(b'\n');
            }
        }
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0x823b_a1f9);
    }

    #[test]
    fn emitted_programs_lower_and_run_pinned() {
        // How every program the compiler can emit lowers to threaded code
        // and what it does on four packets: a UDP flow packet carrying a
        // trace-ID trailer, the reversed flow, TCP with an MSS option
        // before the trace-ID option, and an empty frame. The interpreter
        // is the oracle for every run; the digest folds the op counts,
        // the threaded tier's outcome and the records it emitted, so a
        // change to the lowering that alters any of them has to say so.
        let (src, dst) = (
            SocketAddrV4::sock("10.0.0.1", 1000),
            SocketAddrV4::sock("10.0.0.2", 2000),
        );
        let flow = FlowKey::udp(src, dst);
        let mut udp = PacketBuilder::udp(flow, vec![7u8; 24]).build();
        trace_id::inject_udp_trailer(&mut udp, 0x0bad_cafe).unwrap();
        let reversed = PacketBuilder::udp(flow.reversed(), vec![3u8; 24]).build();
        let tcp = PacketBuilder::tcp(FlowKey::tcp(src, dst), 1, 2, TcpFlags::ACK, vec![5u8; 8])
            .tcp_option(TcpOption::Mss(1460))
            .tcp_option(TcpOption::TraceId(0x00c0_ffee))
            .build();
        let packets: [&[u8]; 4] = [udp.bytes(), reversed.bytes(), tcp.bytes(), &[]];

        let registry = || {
            let mut maps = MapRegistry::new();
            assert_eq!(maps.create(MapDef::perf(4096), 2).unwrap(), 0);
            assert_eq!(maps.create(MapDef::per_cpu_array(8, 1), 2).unwrap(), 1);
            maps
        };
        let (mut digest, mut ops, mut fused) = (Vec::new(), 0usize, 0usize);
        for (action, rule, _) in emitted_space() {
            let mut maps = registry();
            let prog = compile(&spec(rule, action), Some(0), Some(1)).unwrap();
            let loaded = load(prog, &maps, &standard_helpers()).unwrap();
            let compiled = vnet_ebpf::compile(&loaded);
            ops += compiled.op_count();
            fused += compiled.fused_op_count();
            digest.extend((compiled.op_count() as u32).to_le_bytes());
            digest.extend((compiled.fused_op_count() as u32).to_le_bytes());
            let mut oracle_maps = registry();
            for (i, pkt) in packets.iter().enumerate() {
                let ctx = TraceContext {
                    timestamp_ns: 5555 + i as u64,
                    pkt_len: pkt.len() as u32,
                    cpu: 1,
                    node: 0,
                    device: 0,
                    direction: 1,
                    aux: 3,
                };
                let env = || FixedEnv {
                    time_ns: 7777 + i as u64,
                    cpu: 1,
                    ..Default::default()
                };
                let oracle = Vm::new()
                    .execute(&loaded, &ctx, pkt, &mut oracle_maps, &mut env())
                    .unwrap();
                let run = compiled.execute(&ctx, pkt, &mut maps, &mut env()).unwrap();
                assert_eq!(
                    (oracle.ret, oracle.insns_executed, oracle.cost_ns),
                    (run.ret, run.insns_retired, run.cost_ns),
                    "{action:?} {rule:?} packet {i}"
                );
                for v in [
                    run.ret,
                    run.insns_retired,
                    run.ops_executed,
                    run.fused_hits,
                    run.cost_ns,
                ] {
                    digest.extend(v.to_le_bytes());
                }
                let records = maps.get_mut(0).unwrap().perf_drain_all();
                assert_eq!(records, oracle_maps.get_mut(0).unwrap().perf_drain_all());
                for rec in records {
                    digest.extend((rec.len() as u32).to_le_bytes());
                    digest.extend(rec);
                }
                let counter = |m: &mut MapRegistry| {
                    let map = m.get_mut(1).unwrap();
                    map.lookup(&0u32.to_le_bytes(), 1).unwrap().to_vec()
                };
                let count = counter(&mut maps);
                assert_eq!(count, counter(&mut oracle_maps));
                digest.extend(count);
            }
        }
        assert_eq!((ops, fused), (46_328, 16_510));
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0x95c1_9b00);
    }

    /// The emitted programs' mutants (by index among the mutants) that
    /// report more than one diagnostic, grouped by how many. A change to
    /// the walk may drop a trailing diagnostic; none may add one.
    const MULTI: [(usize, &[usize]); 2] = [
        (
            2,
            &[
                11, 17, 32, 117, 245, 265, 332, 415, 440, 443, 456, 545, 698, 743, 779, 821, 842,
                898, 928, 953, 1040, 1076, 1118, 1159, 1182, 1334, 1409, 1516, 1549, 1564, 1637,
                1837, 1933, 1940, 1988, 2041, 2044, 2091, 2095, 2168, 2172, 2262, 2324, 2326, 2352,
            ],
        ),
        (3, &[552]),
    ];

    #[test]
    fn emitted_verdicts_are_pinned() {
        // The verdict of every emitted program (all accepted) and of
        // 2 400 seeded mutants of them: accepted, or the first
        // diagnostic's error and instruction. Register states are left
        // out, so this holds across any change to the walk that keeps
        // what the verifier decides.
        let programs: Vec<_> = emitted_space()
            .into_iter()
            .map(|(_, _, p)| p.insns)
            .collect();
        let helpers = standard_helpers();
        let mut digest = Vec::new();
        for insns in &programs {
            assert!(vnet_ebpf::analyze(insns, &helpers).ok());
        }
        let mut kinds = [0usize; 2];
        for (i, m) in mutants(&mut Rng(0x5eed_c0de), &programs, 2_400)
            .iter()
            .enumerate()
        {
            let a = vnet_ebpf::analyze(m, &helpers);
            match a.diagnostics().first() {
                None => digest.extend(b"accepted"),
                Some(d) => digest.extend(format!("{:?}@{}", d.error, d.insn).bytes()),
            }
            digest.push(b'\n');
            kinds[usize::from(!a.ok())] += 1;
            let n = a.diagnostics().len();
            let bound = MULTI
                .iter()
                .find(|(_, ids)| ids.contains(&i))
                .map_or(usize::from(n > 0), |&(n, _)| n);
            assert!(
                n <= bound,
                "mutant {i} gained a diagnostic: {:?}",
                a.diagnostics()
            );
        }
        assert_eq!(kinds, [1442, 958], "mutant mix");
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0xd995_5e55);
    }

    #[test]
    fn load_agrees_with_analyze_on_emitted_programs() {
        // The loader's walk records which instructions it reaches, not
        // their register states. For every emitted program and the
        // 2 400 mutants of `emitted_verdicts_are_pinned`, `verify` and
        // `load` reject with `analyze`'s first error, and an admitted
        // program's certificate is the one `analyze`'s reachability
        // gives, with a worst-to-here row exactly where `state_at` has
        // one.
        let programs: Vec<_> = emitted_space()
            .into_iter()
            .map(|(_, _, p)| p.insns)
            .collect();
        let mutants = mutants(&mut Rng(0x5eed_c0de), &programs, 2_400);
        let mut maps = MapRegistry::new();
        maps.create(MapDef::perf(4096), 2).unwrap();
        let helpers = standard_helpers();
        let mut kinds = [0usize; 3];
        for (i, insns) in programs.iter().chain(&mutants).enumerate() {
            let a = vnet_ebpf::analyze(insns, &helpers);
            let verdict = vnet_ebpf::verify(insns, &helpers);
            assert_eq!(
                verdict.as_ref().err(),
                a.diagnostics().first().map(|d| &d.error),
                "program {i}"
            );
            let prog = Program::new(
                "p",
                vnet_ebpf::AttachType::Kprobe("f".into()),
                insns.clone(),
            );
            match load(prog, &maps, &helpers) {
                Ok(loaded) => {
                    kinds[0] += 1;
                    let cert = loaded.certificate();
                    let want = vnet_ebpf::certify(insns, |pc| a.state_at(pc).is_some());
                    assert_eq!(*cert, want, "program {i}");
                    for (pc, row) in cert.worst_to_here_ns.iter().enumerate() {
                        assert_eq!(
                            row.is_some(),
                            a.state_at(pc).is_some(),
                            "program {i} pc {pc}"
                        );
                    }
                }
                Err(vnet_ebpf::program::LoadError::Verify(e)) => {
                    kinds[1] += 1;
                    assert_eq!(
                        Some(&e),
                        a.diagnostics().first().map(|d| &d.error),
                        "program {i}"
                    );
                }
                Err(e) => {
                    kinds[2] += 1;
                    assert!(a.ok(), "program {i}: {e}");
                }
            }
        }
        assert_eq!(kinds, [1816, 958, 10], "load mix");
    }

    #[test]
    fn rack_record_listings_are_what_the_compiler_emits() {
        // `vnet-ebpf` checks its verifier against the two record
        // programs the racks load; it reads them as listings because it
        // cannot depend on this crate. They must stay the compiler's.
        let flow = FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 2), 1024),
            (Ipv4Addr::new(10, 1, 0, 2), 20_000),
        );
        for (file, rule) in [
            ("record_flow.bpf", flow),
            ("record_any.bpf", FilterRule::any()),
        ] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../ebpf/tests")
                .join(file);
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let listed = vnet_ebpf::parse::parse_program(&lines).unwrap();
            let prog = compile(&spec(rule, Action::RecordPacketInfo), Some(0), None).unwrap();
            assert_eq!(listed, prog.insns, "{file}");
        }
    }

    #[test]
    fn record_program_ignores_packetless_hooks() {
        // No packet bytes: bounds check fails, nothing recorded.
        let (matched, recs) = run_record(FilterRule::any(), &[]);
        assert!(!matched);
        assert!(recs.is_empty());
    }
}
