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
//!   traced" at a cost of a few instructions. Its checks are emitted
//!   from one table per rule ([`Check`]), which the probe sink also
//!   reads to decide a miss without running the program;
//! * the **trace-ID extractor** pulls the 4-byte packet ID from the UDP
//!   payload trailer, or scans the TCP options for the experimental
//!   option kind 253 — with a bounded, *unrolled* scan, since verified
//!   programs cannot loop. A rule that pins UDP gets the trailer read
//!   alone: its filter lets no TCP frame through, so the 188-slot scan
//!   would be code no frame reaches that the verifier still walks at
//!   every load. TCP-pinned and unpinned rules get both;
//! * the **action** either emits a 32-byte [`CompactRecord`] into the
//!   perf buffer or bumps a per-CPU counter.
//!
//! [`CompactRecord`]: vnet_tsdb::CompactRecord

use vnet_ebpf::asm::{reg::*, AluOp, Asm, Cond, Size};
use vnet_ebpf::context::{
    CTX_OFF_AUX, CTX_OFF_DATA, CTX_OFF_DATA_END, CTX_OFF_DIRECTION, CTX_OFF_PKT_LEN,
};
use vnet_ebpf::program::Program;
use vnet_ebpf::vm::helper_ids;
use vnet_tsdb::record::offsets;
use vnet_tsdb::COMPACT_RECORD_BYTES;

use crate::config::{Action, FilterRule, Proto, TraceSpec};
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

/// One check a compiled filter makes, as a row of its table: the frame
/// must hold bytes `off..off + width`, and a field check's bytes there
/// must equal `want`'s first `width`, big-endian. Row 0 of every table
/// is the length check (the 38 bytes from offset 0 through the L4 ports,
/// no `want`); the field checks follow in [`FilterRule`]'s field order.
/// The program emits its compare-and-branch instructions from these
/// rows, and leaves through its `miss` exit (returning 0, before any
/// helper call or map access) at the first row a frame fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    /// First frame byte the check reads.
    pub off: usize,
    /// Bytes it reads: 1, 2 or 4 for a field, the whole prefix for the
    /// length check.
    pub width: usize,
    /// The field's value in big-endian bytes; `None` for the length
    /// check, which asks only that the bytes exist.
    pub want: Option<[u8; 4]>,
}

impl Check {
    /// Whether `frame` passes this check: it holds bytes
    /// `off..off + width` and, for a field row, they equal `want`'s first
    /// `width`. A 1-, 2- or 4-byte field compares as a fixed-size array
    /// (one integer compare), not a slice, since a filter miss makes
    /// this walk on every firing the program would reject.
    pub fn passes(&self, frame: &[u8]) -> bool {
        let Some(want) = self.want else {
            return frame.len() >= self.off + self.width;
        };
        let Some(at) = frame.get(self.off..) else {
            return false;
        };
        match self.width {
            1 => at.first() == Some(&want[0]),
            2 => at.first_chunk::<2>() == want.first_chunk::<2>(),
            4 => at.first_chunk::<4>() == Some(&want),
            width => at.get(..width).is_some_and(|b| b == &want[..width]),
        }
    }

    /// A field row reading `want` at `off`.
    fn field(off: i16, want: &[u8]) -> Check {
        let mut bytes = [0; 4];
        bytes[..want.len()].copy_from_slice(want);
        Check {
            off: off as usize,
            width: want.len(),
            want: Some(bytes),
        }
    }
}

/// The table of the checks a program compiled from `rule` makes: the
/// length check, then one row per field the rule sets.
fn filter_checks(rule: &FilterRule) -> Vec<Check> {
    let mut checks = vec![Check {
        off: 0,
        width: MIN_PARSE_LEN as usize,
        want: None,
    }];
    if let Some(et) = rule.ether_type {
        checks.push(Check::field(OFF_ETHERTYPE, &et.to_be_bytes()));
    }
    if let Some(proto) = rule.protocol {
        let p = match proto {
            Proto::Tcp => 6,
            Proto::Udp => 17,
        };
        checks.push(Check::field(OFF_PROTO, &[p]));
    }
    if let Some(ip) = rule.src_ip {
        checks.push(Check::field(OFF_SADDR, &ip.octets()));
    }
    if let Some(ip) = rule.dst_ip {
        checks.push(Check::field(OFF_DADDR, &ip.octets()));
    }
    if let Some(port) = rule.src_port {
        checks.push(Check::field(OFF_SPORT, &port.to_be_bytes()));
    }
    if let Some(port) = rule.dst_port {
        checks.push(Check::field(OFF_DPORT, &port.to_be_bytes()));
    }
    checks
}

/// Compiles `spec` into an eBPF program, handed out beside the table of
/// the filter checks it makes before anything else (empty for an
/// unfiltered count program, which makes none).
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
pub fn compile(
    spec: &TraceSpec,
    perf_fd: Option<i32>,
    counter_fd: Option<i32>,
) -> Result<(Program, Vec<Check>)> {
    let checks = match spec.action {
        Action::CountPerCpu if spec.filter.is_empty() => Vec::new(),
        _ => filter_checks(&spec.filter),
    };
    let asm = match spec.action {
        Action::RecordPacketInfo | Action::RecordDropInfo => {
            let fd = perf_fd.ok_or_else(|| {
                TracerError::Config(format!("script `{}` needs a perf buffer", spec.name))
            })?;
            let capture_aux = spec.action == Action::RecordDropInfo;
            emit_record_program(&checks, spec.filter.protocol, fd, capture_aux)
        }
        Action::CountPerCpu => {
            let fd = counter_fd.ok_or_else(|| {
                TracerError::Config(format!("script `{}` needs a counter map", spec.name))
            })?;
            emit_count_program(&checks, fd)
        }
    };
    let insns = asm.build()?;
    let program = Program::new(spec.name.clone(), insns);
    Ok((program, checks))
}

/// Emits the shared prologue: load the packet region bounds into
/// `r7`/`r8` and make the length check `len`, jumping to `miss` when the
/// frame is too short to parse.
fn emit_prologue(asm: Asm, len: &Check) -> Asm {
    asm.ldx(Size::DW, R7, R1, CTX_OFF_DATA)
        .ldx(Size::DW, R8, R1, CTX_OFF_DATA_END)
        .mov64(R2, R7)
        .add64_imm(R2, (len.off + len.width) as i32)
        .jmp_reg(Cond::Gt, R2, R8, "miss")
}

/// Emits the field checks, one load, byte swap and compare per row;
/// each mismatch jumps to `miss`.
fn emit_filter(mut asm: Asm, fields: &[Check]) -> Asm {
    for check in fields {
        let want = check.want.expect("a field check has a value");
        let value = want[..check.width]
            .iter()
            .fold(0u32, |v, &b| (v << 8) | u32::from(b));
        let off = check.off as i16;
        asm = match check.width {
            1 => asm.ldx(Size::B, R2, R7, off),
            2 => asm.ldx(Size::H, R2, R7, off).be16(R2),
            _ => asm.ldx(Size::W, R2, R7, off).be32(R2),
        };
        asm = asm.jmp32_imm(Cond::Ne, R2, value as i32, "miss");
    }
    asm
}

/// Emits trace-ID extraction into the record's `TRACE_ID` and `FLAGS`
/// stack slots; all paths continue at `emit`. A rule that pins UDP gets
/// no TCP option scan: its filter has already sent every other protocol
/// to `miss`, so the scan is code no frame reaches, and leaving it out
/// changes no frame's path, only what the verifier walks at load.
fn emit_trace_id(mut asm: Asm, protocol: Option<Proto>) -> Asm {
    let scan_tcp = protocol != Some(Proto::Udp);
    // Default: no ID.
    asm = asm
        .st(Size::W, R10, fp_off(offsets::TRACE_ID), 0)
        .st(Size::B, R10, fp_off(offsets::FLAGS), 0)
        .ldx(Size::B, R2, R7, OFF_PROTO)
        .jmp32_imm(Cond::Eq, R2, 17, "udp_id");
    if scan_tcp {
        asm = asm.jmp32_imm(Cond::Eq, R2, 6, "tcp_id");
    }
    asm = asm.jump("emit");

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
    if !scan_tcp {
        return asm;
    }

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

fn emit_record_program(
    checks: &[Check],
    protocol: Option<Proto>,
    perf_fd: i32,
    capture_aux: bool,
) -> Asm {
    // The record action reads the context after helper calls have
    // clobbered `r1`, so it is saved in `r6`; the counter never does.
    let mut asm = emit_prologue(Asm::new().mov64(R6, R1), &checks[0]);
    asm = emit_filter(asm, &checks[1..]);
    asm = emit_trace_id(asm, protocol);
    emit_record_action(asm, perf_fd, capture_aux)
}

fn emit_count_program(checks: &[Check], counter_fd: i32) -> Asm {
    let mut asm = Asm::new();
    if let Some((len, fields)) = checks.split_first() {
        asm = emit_prologue(asm, len);
        asm = emit_filter(asm, fields);
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
    use crate::config::HookSpec;
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
        let (prog, _) =
            compile(&spec(rule, Action::RecordPacketInfo), Some(perf_fd), None).unwrap();
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
        let (prog, _) = compile(
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
        let (prog, _) = compile(
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
        let (prog, _) = compile(
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
            let (p, _) = compile(&spec(rule, Action::RecordPacketInfo), Some(perf), None).unwrap();
            assert!(p.insns.len() <= vnet_ebpf::MAX_INSNS);
            load(p, &maps, &standard_helpers()).expect("record program verifies");
            let (p, _) = compile(&spec(rule, Action::CountPerCpu), None, Some(counter)).unwrap();
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
                    let (prog, _) = compile(&spec(rule, action), Some(0), Some(0)).unwrap();
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
            .0
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
        assert_eq!(total[Action::RecordPacketInfo as usize], 25_920);
        assert_eq!(total[Action::RecordDropInfo as usize], 26_688);
        assert_eq!(total[Action::CountPerCpu as usize], 3_510);
        assert_eq!(vnet_tsdb::codec::crc32(&bytes), 0x5223_6a68);
        for (action, any, flow) in [
            (Action::RecordPacketInfo, 241, 70),
            (Action::RecordDropInfo, 247, 76),
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
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0xcb95_c4b9);
    }

    /// The three packets the emitted programs are run on, beside an
    /// empty frame: a UDP packet of the emitted rules' flow carrying a
    /// trace-ID trailer, the reversed flow, and TCP with an MSS option
    /// before the trace-ID option.
    fn flow_packets() -> [vnet_sim::packet::Packet; 3] {
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
        [udp, reversed, tcp]
    }

    /// The maps the emitted programs are compiled against: the perf ring
    /// at fd 0 and the counter at fd 1, on two CPUs.
    fn emitted_registry() -> MapRegistry {
        let mut maps = MapRegistry::new();
        assert_eq!(maps.create(MapDef::perf(4096), 2).unwrap(), 0);
        assert_eq!(maps.create(MapDef::per_cpu_array(8, 1), 2).unwrap(), 1);
        maps
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
        let [udp, reversed, tcp] = flow_packets();
        let packets: [&[u8]; 4] = [udp.bytes(), reversed.bytes(), tcp.bytes(), &[]];

        let (mut digest, mut ops, mut fused) = (Vec::new(), 0usize, 0usize);
        for (action, rule, _) in emitted_space() {
            let mut maps = emitted_registry();
            let (prog, _) = compile(&spec(rule, action), Some(0), Some(1)).unwrap();
            let loaded = load(prog, &maps, &standard_helpers()).unwrap();
            let compiled = vnet_ebpf::compile(&loaded);
            ops += compiled.op_count();
            fused += compiled.fused_op_count();
            digest.extend((compiled.op_count() as u32).to_le_bytes());
            digest.extend((compiled.fused_op_count() as u32).to_le_bytes());
            let mut oracle_maps = emitted_registry();
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
        assert_eq!((ops, fused), (37_624, 13_822));
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0xa67c_f828);
    }

    /// The 48 packets the emitted programs' filters are probed with: the
    /// four of `emitted_programs_lower_and_run_pinned`, each with the
    /// first and the last byte of each filter field inverted in turn,
    /// and prefixes of the UDP one at the lengths around each header
    /// edge.
    fn field_packets() -> Vec<Vec<u8>> {
        let [udp, reversed, tcp] = flow_packets();
        let shapes: [&[u8]; 4] = [udp.bytes(), reversed.bytes(), tcp.bytes(), &[]];
        let mut packets: Vec<Vec<u8>> = shapes.iter().map(|p| p.to_vec()).collect();
        for shape in shapes {
            for (off, width) in [
                (OFF_ETHERTYPE, 2),
                (OFF_PROTO, 1),
                (OFF_SADDR, 4),
                (OFF_DADDR, 4),
                (OFF_SPORT, 2),
                (OFF_DPORT, 2),
            ] {
                for at in [off as usize, off as usize + width - 1] {
                    if at < shape.len() {
                        let mut p = shape.to_vec();
                        p[at] ^= 0xff;
                        packets.push(p);
                    }
                }
            }
        }
        for len in [0, 1, 14, 34, 37, 38, 42, 63] {
            packets.push(udp.bytes()[..len].to_vec());
        }
        packets
    }

    #[test]
    fn emitted_programs_run_pinned() {
        // What every program the compiler can emit does with each of
        // [`field_packets`] on the threaded tier, and nothing about how:
        // one CRC-32 over each run's return value, retired instructions,
        // toll and the records it left in the perf ring (and the counter
        // it bumped). Op counts and instruction streams are left out, so
        // an emitter change that drops code no frame can reach keeps this
        // digest; one that moves any frame's path does not.
        let packets = field_packets();
        let mut digest = Vec::new();
        for (action, rule, _) in emitted_space() {
            let mut maps = emitted_registry();
            let (prog, _) = compile(&spec(rule, action), Some(0), Some(1)).unwrap();
            let loaded = load(prog, &maps, &standard_helpers()).unwrap();
            let compiled = vnet_ebpf::compile(&loaded);
            for (i, pkt) in packets.iter().enumerate() {
                let ctx = TraceContext {
                    timestamp_ns: 5555 + i as u64,
                    pkt_len: pkt.len() as u32,
                    cpu: 1,
                    direction: 1,
                    aux: 3,
                    ..TraceContext::default()
                };
                let mut env = FixedEnv {
                    time_ns: 7777 + i as u64,
                    cpu: 1,
                    ..Default::default()
                };
                let run = compiled.execute(&ctx, pkt, &mut maps, &mut env).unwrap();
                for v in [run.ret, run.insns_retired, run.cost_ns] {
                    digest.extend(v.to_le_bytes());
                }
                for rec in maps.get_mut(0).unwrap().perf_drain_all() {
                    digest.extend((rec.len() as u32).to_le_bytes());
                    digest.extend(rec);
                }
                let counter = maps.get_mut(1).unwrap();
                digest.extend_from_slice(counter.lookup(&0u32.to_le_bytes(), 1).unwrap());
            }
        }
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0x4cea_78fa);
    }

    #[test]
    fn the_check_table_predicts_every_miss() {
        // For every program the compiler can emit, the check table
        // predicts what the threaded tier does with a packet: where a row
        // fails, the run leaves through `miss` with exactly the outcome
        // the first failing row was calibrated to (return value, retired
        // instructions, ops, fused hits and toll); where every row
        // passes, the program matches. The packets are [`field_packets`].
        // Every row of every table is the first failing row of some
        // packet.
        let packets = field_packets();
        let mut outcomes = [0usize; 2];
        for (action, rule, _) in emitted_space() {
            let mut maps = emitted_registry();
            let (prog, checks) = compile(&spec(rule, action), Some(0), Some(1)).unwrap();
            let filtered = !(action == Action::CountPerCpu && rule.is_empty());
            assert_eq!(
                checks.len(),
                usize::from(filtered) * (1 + rule_fields(&rule))
            );
            let loaded = load(prog, &maps, &standard_helpers()).unwrap();
            let compiled = vnet_ebpf::compile(&loaded);
            let misses = crate::agent::calibrate(&compiled, &checks).unwrap();
            // Each row's miss retires more than the row before it, so an
            // outcome names the row it left at.
            for pair in misses.windows(2) {
                assert!(pair[0].1.insns_retired < pair[1].1.insns_retired);
            }
            let mut hit = vec![false; checks.len()];
            for (i, pkt) in packets.iter().enumerate() {
                let ctx = TraceContext {
                    timestamp_ns: 5555,
                    pkt_len: pkt.len() as u32,
                    cpu: 1,
                    direction: 1,
                    aux: 3,
                    ..TraceContext::default()
                };
                let mut env = FixedEnv {
                    time_ns: 7777,
                    cpu: 1,
                    ..Default::default()
                };
                let run = compiled.execute(&ctx, pkt, &mut maps, &mut env).unwrap();
                match misses.iter().position(|(check, _)| !check.passes(pkt)) {
                    Some(k) => {
                        assert_eq!(run, misses[k].1, "{action:?} {rule:?} packet {i} row {k}");
                        hit[k] = true;
                        outcomes[0] += 1;
                    }
                    None => {
                        assert_eq!(run.ret, 1, "{action:?} {rule:?} packet {i} ran");
                        outcomes[1] += 1;
                    }
                }
            }
            assert!(
                hit.iter().all(|&h| h),
                "{action:?} {rule:?}: a row no packet fails"
            );
        }
        assert_eq!(
            outcomes,
            [13_128, 5_304],
            "misses and runs over 384 × 48 packets"
        );
    }

    /// The slice definition [`Check::passes`] had before its fixed-width
    /// compare, kept as the oracle that compare is held to.
    fn passes_by_slice(check: &Check, frame: &[u8]) -> bool {
        match (frame.get(check.off..check.off + check.width), check.want) {
            (Some(bytes), Some(want)) => bytes == &want[..check.width],
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// The check table of every program in [`emitted_space`], in order.
    fn emitted_tables() -> Vec<Vec<Check>> {
        emitted_space()
            .into_iter()
            .map(|(action, rule, _)| compile(&spec(rule, action), Some(0), Some(0)).unwrap().1)
            .collect()
    }

    #[test]
    fn the_fixed_width_compare_is_the_slice_compare() {
        // Every row of every emitted table answers as the slice oracle
        // does on: a seeded frame of every length 0..=64; the table's
        // matching frame cut to every length 0..=64 (37, 38 and 39 among
        // them: one byte either side of the 38-byte prefix); and the
        // matching frame with each single field byte inverted. Every row
        // both passes and fails some frame, so no row is held vacuously.
        let mut rng = Rng(0x00f1_e1d5);
        let seeded: Vec<Vec<u8>> = (0..=64)
            .map(|len| (0..len).map(|_| rng.next() as u8).collect())
            .collect();
        let mut answers = [0usize; 2];
        for table in emitted_tables() {
            let mut matching = seeded[64].clone();
            for check in &table {
                if let Some(want) = check.want {
                    matching[check.off..check.off + check.width]
                        .copy_from_slice(&want[..check.width]);
                }
            }
            let mut frames = seeded.clone();
            frames.extend((0..=64).map(|len| matching[..len].to_vec()));
            for check in table.iter().filter(|c| c.want.is_some()) {
                for at in check.off..check.off + check.width {
                    let mut frame = matching.clone();
                    frame[at] ^= 0xff;
                    frames.push(frame);
                }
            }
            for check in &table {
                let mut seen = [false; 2];
                for frame in &frames {
                    let passes = check.passes(frame);
                    assert_eq!(passes, passes_by_slice(check, frame), "{check:?} {frame:?}");
                    seen[usize::from(passes)] = true;
                    answers[usize::from(passes)] += 1;
                }
                assert_eq!(seen, [true, true], "{check:?}");
            }
        }
        assert!(answers[0] > 0 && answers[1] > 0, "{answers:?}");
    }

    #[test]
    fn every_field_row_lies_inside_the_length_checks_prefix() {
        // Row 0 asks for the bytes every field row reads, so a frame
        // that passes it is long enough for the rest of the table: the
        // length check is the only row a short frame can fail first.
        let mut fields = 0;
        for table in emitted_tables() {
            let Some((len, rows)) = table.split_first() else {
                continue;
            };
            assert_eq!((len.off, len.width, len.want), (0, 38, None));
            for check in rows {
                assert!(check.want.is_some() && matches!(check.width, 1 | 2 | 4));
                assert!(check.off + check.width <= len.off + len.width, "{check:?}");
                fields += 1;
            }
        }
        assert_eq!(fields, 3 * 2 * 6 * 32, "every field row of the space");
    }

    /// How many of its six fields `rule` sets.
    fn rule_fields(rule: &FilterRule) -> usize {
        [
            rule.ether_type.is_some(),
            rule.protocol.is_some(),
            rule.src_ip.is_some(),
            rule.dst_ip.is_some(),
            rule.src_port.is_some(),
            rule.dst_port.is_some(),
        ]
        .into_iter()
        .filter(|&set| set)
        .count()
    }

    /// The emitted programs' mutants (by index among the mutants) that
    /// report more than one diagnostic, grouped by how many. A change to
    /// the walk may drop a trailing diagnostic; none may add one.
    const MULTI: [(usize, &[usize]); 2] = [
        (
            2,
            &[
                11, 17, 32, 46, 90, 117, 245, 265, 332, 415, 440, 443, 456, 519, 545, 698, 743,
                749, 842, 898, 928, 940, 953, 1040, 1118, 1159, 1182, 1239, 1334, 1409, 1516, 1564,
                1628, 1637, 1837, 1877, 1933, 1940, 1988, 2041, 2091, 2095, 2168, 2262, 2324, 2326,
                2352,
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
        assert_eq!(kinds, [1404, 996], "mutant mix");
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0x20cf_fbb2);
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
            let prog = Program::new("p", insns.clone());
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
        assert_eq!(kinds, [1778, 996, 10], "load mix");
    }

    #[test]
    fn a_warm_load_of_an_emitted_program_is_the_cold_one() {
        // One `Loader` loads every emitted program twice. Each distinct
        // stream is walked once, at its first load, and every other
        // load of it returns what a cold `load` does: the same relocated
        // stream and certificate.
        let mut maps = MapRegistry::new();
        maps.create(MapDef::perf(4096), 2).unwrap();
        let helpers = standard_helpers();
        let mut loader = vnet_ebpf::Loader::new(&helpers);
        let mut distinct = std::collections::HashSet::new();
        let (mut loads, mut walks) = (0, 0);
        for (_, _, prog) in emitted_space() {
            distinct.insert(prog.insns.clone());
            let cold = load(prog.clone(), &maps, &helpers).unwrap();
            assert!(cold.verified_insns() > 0);
            for _ in 0..2 {
                let warm = loader.load(prog.clone(), &maps).unwrap();
                assert_eq!(warm.insns(), cold.insns());
                assert_eq!(warm.certificate(), cold.certificate());
                walks += usize::from(warm.verified_insns() > 0);
                loads += 1;
            }
        }
        assert_eq!((loads, walks), (768, distinct.len()));
        assert!(walks < 384, "the space repeats itself: {walks}");
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
            let (prog, _) = compile(&spec(rule, Action::RecordPacketInfo), Some(0), None).unwrap();
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
