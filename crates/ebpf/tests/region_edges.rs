//! Region-boundary edge cases, run on both execution tiers.
//!
//! The VM exposes four tagged memory regions to programs — context,
//! packet, stack and map values. These tests pin the exact boundary
//! behaviour: accesses ending flush against a region end succeed,
//! accesses straddling an end or landing in the gaps between regions
//! abort, and both tiers agree bit for bit on every case.
//!
//! All accesses go through *copied* pointers (`r2 = r10`, `r2 = ctx`,
//! packet pointer loaded from the context), so on the threaded-code tier
//! they take the checked `Load`/`Store*` path rather than `r10` stack
//! indexing: the boundary values pin that its region checks draw the
//! edges exactly where the interpreter's do.

use vnet_ebpf::asm::{reg::*, Asm, Size};
use vnet_ebpf::context::{TraceContext, CTX_OFF_DATA, CTX_SIZE};
use vnet_ebpf::insn::STACK_SIZE;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::{load, Program};
use vnet_ebpf::vm::{helper_ids, standard_helpers, FixedEnv, Vm, VmError};

/// Runs `asm` on the interpreter and the threaded-code tier with
/// identically-built registries; asserts both tiers produce the same
/// result (value and retired-instruction count, or the same error) and
/// returns it.
fn both_tiers(
    asm: Asm,
    pkt: &[u8],
    mut mk_maps: impl FnMut() -> MapRegistry,
) -> Result<u64, VmError> {
    let insns = asm.build().expect("assembles");
    let maps = mk_maps();
    let prog = Program::new("edge", insns);
    let loaded = load(prog, &maps, &standard_helpers()).expect("verifies");
    let ctx = TraceContext::default();
    let mut maps_i = mk_maps();
    let mut env_i = FixedEnv::default();
    let interp = Vm::new().execute(&loaded, &ctx, pkt, &mut maps_i, &mut env_i);
    let compiled = vnet_ebpf::jit::compile(&loaded);
    let mut maps_j = mk_maps();
    let mut env_j = FixedEnv::default();
    let jit = compiled.execute(&ctx, pkt, &mut maps_j, &mut env_j);
    match (interp, jit) {
        (Ok(i), Ok(j)) => {
            assert_eq!(i.ret, j.ret, "tiers must agree on the return value");
            assert_eq!(i.insns_executed, j.insns_retired);
            Ok(i.ret)
        }
        (Err(i), Err(j)) => {
            assert_eq!(i, j, "tiers must abort with the same error");
            Err(i)
        }
        (i, j) => panic!("tiers diverge: interp {i:?} vs jit {j:?}"),
    }
}

fn no_maps() -> MapRegistry {
    MapRegistry::new()
}

/// `r2 = r1` (context base) — a copy the verifier can't track.
fn ctx_copy() -> Asm {
    Asm::new().mov64(R2, R1)
}

/// `r2 = *(ctx + CTX_OFF_DATA)` — the packet pointer.
fn pkt_copy() -> Asm {
    Asm::new().ldx(Size::DW, R2, R1, CTX_OFF_DATA)
}

/// `r2 = r10` — the frame pointer, laundered through a scratch register.
fn fp_copy() -> Asm {
    Asm::new().mov64(R2, R10)
}

#[test]
fn ctx_load_at_exact_end_succeeds() {
    let end = CTX_SIZE as i16;
    for (size, bytes) in [(Size::B, 1), (Size::H, 2), (Size::W, 4), (Size::DW, 8)] {
        let ret = both_tiers(
            ctx_copy().ldx(size, R0, R2, end - bytes).exit(),
            &[],
            no_maps,
        )
        .expect("flush-to-end context load succeeds");
        assert_eq!(ret, 0, "default context tail bytes are zero");
    }
}

#[test]
fn ctx_load_straddling_end_faults_identically() {
    let end = CTX_SIZE as i16;
    for (size, bytes) in [(Size::H, 2), (Size::W, 4), (Size::DW, 8)] {
        let err = both_tiers(
            ctx_copy().ldx(size, R0, R2, end - bytes + 1).exit(),
            &[],
            no_maps,
        )
        .expect_err("straddling load faults");
        assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
    }
    // One past the end lands in the gap between regions.
    let err = both_tiers(ctx_copy().ldx(Size::B, R0, R2, end).exit(), &[], no_maps)
        .expect_err("gap load faults");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
}

#[test]
fn ctx_store_rejected_as_read_only() {
    let err = both_tiers(
        ctx_copy().mov64_imm(R0, 0).st(Size::W, R2, 0, 1).exit(),
        &[],
        no_maps,
    )
    .expect_err("context is read-only");
    assert!(matches!(err, VmError::WriteToReadOnly { .. }), "{err:?}");
}

#[test]
fn packet_load_at_exact_end_succeeds() {
    let pkt: Vec<u8> = (1..=16).collect();
    for (size, bytes, want) in [
        (Size::B, 1i16, 0x10u64),
        (Size::H, 2, 0x100f),
        (Size::W, 4, 0x100f_0e0d),
        (Size::DW, 8, 0x100f_0e0d_0c0b_0a09),
    ] {
        let ret = both_tiers(
            pkt_copy().ldx(size, R0, R2, 16 - bytes).exit(),
            &pkt,
            no_maps,
        )
        .expect("flush-to-end packet load succeeds");
        assert_eq!(ret, want, "little-endian load of the packet tail");
    }
}

#[test]
fn packet_load_straddling_end_faults_identically() {
    let pkt = [0u8; 16];
    for (size, bytes) in [(Size::B, 1i16), (Size::H, 2), (Size::W, 4), (Size::DW, 8)] {
        let err = both_tiers(
            pkt_copy().ldx(size, R0, R2, 16 - bytes + 1).exit(),
            &pkt,
            no_maps,
        )
        .expect_err("straddling packet load faults");
        assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
    }
}

#[test]
fn empty_packet_rejects_every_load() {
    let err = both_tiers(pkt_copy().ldx(Size::B, R0, R2, 0).exit(), &[], no_maps)
        .expect_err("zero-length packet region");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
}

#[test]
fn packet_store_rejected_as_read_only() {
    let pkt = [0u8; 16];
    let err = both_tiers(
        pkt_copy().mov64_imm(R0, 0).st(Size::B, R2, 0, 1).exit(),
        &pkt,
        no_maps,
    )
    .expect_err("packet is read-only");
    assert!(matches!(err, VmError::WriteToReadOnly { .. }), "{err:?}");
}

#[test]
fn stack_bottom_roundtrip_at_exact_limit() {
    // fp - STACK_SIZE is the lowest addressable byte; a DW there is the
    // deepest legal access. Store through the laundered pointer, load
    // back through fp (the jit's direct stack indexing) — both tiers agree.
    let low = -(STACK_SIZE as i16);
    let ret = both_tiers(
        fp_copy()
            .mov64_imm(R3, 0x7a)
            .stx(Size::DW, R2, R3, low)
            .ldx(Size::DW, R0, R10, low)
            .exit(),
        &[],
        no_maps,
    )
    .expect("deepest stack slot is addressable");
    assert_eq!(ret, 0x7a);
}

#[test]
fn stack_access_below_limit_faults_identically() {
    let low = -(STACK_SIZE as i16);
    // One byte below the stack floor.
    let err = both_tiers(fp_copy().ldx(Size::B, R0, R2, low - 1).exit(), &[], no_maps)
        .expect_err("below-floor load faults");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
    // A DW that begins in-bounds but straddles the floor.
    let err = both_tiers(
        fp_copy()
            .mov64_imm(R0, 0)
            .stx(Size::DW, R2, R1, low - 4)
            .exit(),
        &[],
        no_maps,
    )
    .expect_err("floor-straddling store faults");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
}

#[test]
fn stack_top_is_exclusive() {
    // fp itself is one past the last stack byte: a load at offset 0
    // faults, the highest legal DW sits at fp-8, and a DW straddling the
    // top (fp-4) faults.
    let err = both_tiers(fp_copy().ldx(Size::B, R0, R2, 0).exit(), &[], no_maps)
        .expect_err("fp points one past the stack");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
    let ret = both_tiers(
        fp_copy()
            .mov64_imm(R3, 9)
            .stx(Size::DW, R2, R3, -8)
            .ldx(Size::DW, R0, R10, -8)
            .exit(),
        &[],
        no_maps,
    )
    .expect("highest DW slot works");
    assert_eq!(ret, 9);
    let err = both_tiers(fp_copy().ldx(Size::DW, R0, R2, -4).exit(), &[], no_maps)
        .expect_err("top-straddling load faults");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
}

/// A program prologue that leaves a pointer to map 0's value for key 0
/// in `r0` (aborting with `ret = 0` if the lookup misses).
fn lookup_value_ptr() -> Asm {
    Asm::new()
        .st(Size::W, R10, -4, 0)
        .ld_map_fd(R1, 0)
        .mov64(R2, R10)
        .add64_imm(R2, -4)
        .call(helper_ids::MAP_LOOKUP_ELEM)
        .jmp_imm(vnet_ebpf::asm::Cond::Ne, R0, 0, "hit")
        .exit()
        .label("hit")
}

fn one_array_map() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::array(8, 4), 1).unwrap();
    m
}

#[test]
fn map_value_access_at_exact_end_succeeds() {
    // Value size is 8: a W store at offset 4 ends flush with the value.
    let ret = both_tiers(
        lookup_value_ptr()
            .st(Size::W, R0, 4, 0x55)
            .ldx(Size::DW, R0, R0, 0)
            .exit(),
        &[],
        one_array_map,
    )
    .expect("flush-to-end value access succeeds");
    assert_eq!(ret, 0x55u64 << 32);
}

#[test]
fn map_value_access_straddling_end_faults_identically() {
    for (size, off) in [(Size::DW, 4i16), (Size::W, 6), (Size::H, 7), (Size::B, 8)] {
        let err = both_tiers(
            lookup_value_ptr().ldx(size, R0, R0, off).exit(),
            &[],
            one_array_map,
        )
        .expect_err("straddling value access faults");
        assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
    }
}

#[test]
fn map_value_writes_visible_to_host_on_both_tiers() {
    // The boundary-respecting write path must leave identical bytes in
    // the map on both tiers, byte for byte.
    let insns = lookup_value_ptr()
        .mov64_imm(R2, 0x0102_0304)
        .stx(Size::W, R0, R2, 4)
        .st(Size::H, R0, 2, 0x0a0b)
        .mov64_imm(R0, 0)
        .exit()
        .build()
        .unwrap();
    let maps = one_array_map();
    let prog = Program::new("edge", insns);
    let loaded = load(prog, &maps, &standard_helpers()).unwrap();
    let ctx = TraceContext::default();
    let mut maps_i = one_array_map();
    let mut maps_j = one_array_map();
    Vm::new()
        .execute(&loaded, &ctx, &[], &mut maps_i, &mut FixedEnv::default())
        .unwrap();
    vnet_ebpf::jit::compile(&loaded)
        .execute(&ctx, &[], &mut maps_j, &mut FixedEnv::default())
        .unwrap();
    let key = 0u32.to_le_bytes();
    let want = maps_i.get_mut(0).unwrap().lookup(&key, 0).unwrap().to_vec();
    let got = maps_j.get_mut(0).unwrap().lookup(&key, 0).unwrap().to_vec();
    assert_eq!(want, got);
    assert_eq!(want, [0, 0, 0x0b, 0x0a, 0x04, 0x03, 0x02, 0x01]);
}

// Helper arguments are program-chosen scalars: a range whose end does
// not fit the address space is a failed call or an out-of-bounds abort,
// never a host panic, and the tiers agree on which.

#[test]
fn skb_load_bytes_with_wrapping_range_returns_error_code() {
    let ret = both_tiers(
        Asm::new()
            .mov64_imm(R2, -1)
            .mov64(R3, R10)
            .add64_imm(R3, -8)
            .mov64_imm(R4, 4)
            .call(helper_ids::SKB_LOAD_BYTES)
            .exit(),
        &[0u8; 16],
        no_maps,
    )
    .expect("a failed copy is not a fault");
    assert_eq!(ret as i64, -1);
}

#[test]
fn perf_event_output_with_wrapping_size_faults_identically() {
    let one_perf_map = || {
        let mut m = MapRegistry::new();
        m.create(MapDef::perf(4096), 1).unwrap();
        m
    };
    let err = both_tiers(
        Asm::new()
            .st(Size::DW, R10, -8, 7)
            .ld_map_fd(R2, 0)
            .mov64_imm(R3, 0)
            .mov64(R4, R10)
            .add64_imm(R4, -8)
            .mov64_imm(R5, -1)
            .call(helper_ids::PERF_EVENT_OUTPUT)
            .exit(),
        &[],
        one_perf_map,
    )
    .expect_err("no region holds usize::MAX bytes");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
}

#[test]
fn trace_printk_with_wrapping_pointer_faults_identically() {
    let err = both_tiers(
        Asm::new()
            .mov64_imm(R1, -4)
            .mov64_imm(R2, 8)
            .call(helper_ids::TRACE_PRINTK)
            .exit(),
        &[],
        no_maps,
    )
    .expect_err("the message would end past u64::MAX");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
}

#[test]
fn store_through_wrapping_pointer_faults_identically() {
    let err = both_tiers(
        Asm::new()
            .mov64_imm(R2, -4)
            .mov64_imm(R0, 0)
            .st(Size::DW, R2, 0, 1)
            .exit(),
        &[],
        no_maps,
    )
    .expect_err("the store would end past u64::MAX");
    assert!(matches!(err, VmError::MemoryOutOfBounds { .. }), "{err:?}");
}
