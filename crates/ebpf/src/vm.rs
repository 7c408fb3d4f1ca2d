//! The in-kernel eBPF virtual machine (interpreter).
//!
//! Executes verified, relocated programs against a [`TraceContext`] and a
//! read-only packet buffer. The VM emulates the kernel's flat address
//! space with tagged regions — context, packet, stack, and map values —
//! every access bounds-checked at runtime (the simulator's equivalent of
//! the kernel verifier's pointer tracking: an out-of-bounds access aborts
//! the program, it can never touch anything else).
//!
//! The tracer runs programs as threaded code ([`crate::jit`]); this
//! interpreter is the reference that tier is held to, instruction for
//! instruction, by the differential proptests. Both charge a run the
//! path's toll under the shared table in [`crate::cost`]; the fixed
//! trampoline cost per probe firing and the one-time compile charge live
//! here.

use crate::context::{TraceContext, CTX_SIZE};
use crate::insn::*;
use crate::map::{MapError, MapRegistry};
use crate::program::LoadedProgram;

/// Base of the region where `lddw`-loaded map handles live. Looks like a
/// kernel pointer, as real map pointers do.
pub const MAP_HANDLE_BASE: u64 = 0xffff_8800_0000_0000;

pub(crate) const CTX_BASE: u64 = 0x0000_0000_1000_0000;
pub(crate) const PKT_BASE: u64 = 0x0000_0000_2000_0000;
pub(crate) const STACK_BASE: u64 = 0x0000_0000_3000_0000;
pub(crate) const MAP_VAL_BASE: u64 = 0x0000_0000_4000_0000;
pub(crate) const MAP_VAL_STRIDE: u64 = 1 << 20;

/// Fixed cost of entering a probe (trampoline + register save), in
/// simulated nanoseconds.
pub const PROBE_BASE_COST_NS: u64 = 25;

/// One-time cost, per original instruction, of lowering a program to the
/// threaded-code tier (decode, jump resolution, helper binding). Charged
/// once per installed program, on its first execution.
pub const JIT_COMPILE_COST_PER_INSN_NS: u64 = 12;

/// The one-time compile cost of the threaded-code tier for a program of
/// `insn_count` instructions.
pub fn jit_compile_cost_ns(insn_count: usize) -> u64 {
    insn_count as u64 * JIT_COMPILE_COST_PER_INSN_NS
}

/// Helper function ids (matching Linux `bpf.h` numbering).
pub mod helper_ids {
    /// `void *bpf_map_lookup_elem(map, key)`.
    pub const MAP_LOOKUP_ELEM: i32 = 1;
    /// `long bpf_map_update_elem(map, key, value, flags)`.
    pub const MAP_UPDATE_ELEM: i32 = 2;
    /// `long bpf_map_delete_elem(map, key)`.
    pub const MAP_DELETE_ELEM: i32 = 3;
    /// `u64 bpf_ktime_get_ns(void)` — reads the node's CLOCK_MONOTONIC
    /// (§III-B).
    pub const KTIME_GET_NS: i32 = 5;
    /// `long bpf_trace_printk(fmt, fmt_size)`.
    pub const TRACE_PRINTK: i32 = 6;
    /// `u32 bpf_get_prandom_u32(void)`.
    pub const GET_PRANDOM_U32: i32 = 7;
    /// `u32 bpf_get_smp_processor_id(void)`.
    pub const GET_SMP_PROCESSOR_ID: i32 = 8;
    /// `long bpf_perf_event_output(ctx, map, flags, data, size)`.
    pub const PERF_EVENT_OUTPUT: i32 = 25;
    /// `long bpf_skb_load_bytes(skb, offset, to, len)`.
    pub const SKB_LOAD_BYTES: i32 = 26;
}

/// A bound helper implementation: reads its arguments from `r1`–`r5`,
/// leaves its result in `r0`. Both execution tiers dispatch through
/// these; the threaded-code tier binds one per call site at compile time.
pub(crate) type HelperFn = fn(
    &mut [u64; NUM_REGS],
    &mut Memory<'_>,
    &mut MapRegistry,
    &mut dyn VmEnv,
    &mut Vec<u8>,
) -> Result<(), VmError>;

/// The single source of truth for which helpers exist: id → argument
/// count, thunk. [`standard_helpers`] (what the verifier accepts), the
/// verifier's reads at a call (`r1`..`rN` must be initialised, and only
/// they are live there) and both execution tiers (what actually runs)
/// all derive from this table, so a helper cannot be registered with
/// the verifier but not the runtime, or vice versa. The count is the C
/// signature's: a thunk reads no argument register past it.
pub(crate) static HELPER_TABLE: &[(i32, u8, HelperFn)] = &[
    (helper_ids::MAP_LOOKUP_ELEM, 2, helper_map_lookup),
    (helper_ids::MAP_UPDATE_ELEM, 4, helper_map_update),
    (helper_ids::MAP_DELETE_ELEM, 2, helper_map_delete),
    (helper_ids::KTIME_GET_NS, 0, helper_ktime_get_ns),
    (helper_ids::TRACE_PRINTK, 2, helper_trace_printk),
    (helper_ids::GET_PRANDOM_U32, 0, helper_get_prandom_u32),
    (
        helper_ids::GET_SMP_PROCESSOR_ID,
        0,
        helper_get_smp_processor_id,
    ),
    (helper_ids::PERF_EVENT_OUTPUT, 5, helper_perf_event_output),
    (helper_ids::SKB_LOAD_BYTES, 4, helper_skb_load_bytes),
];

/// Looks up the bound implementation of a helper id.
pub(crate) fn helper_by_id(id: i32) -> Option<HelperFn> {
    HELPER_TABLE
        .iter()
        .find(|(hid, _, _)| *hid == id)
        .map(|(_, _, f)| *f)
}

/// How many argument registers (`r1`..`rN`) a call to helper `id`
/// reads: the table's count, or all five for an id the table lacks.
pub(crate) fn helper_args(id: i32) -> usize {
    HELPER_TABLE
        .iter()
        .find(|(hid, _, _)| *hid == id)
        .map_or(5, |(_, n, _)| usize::from(*n))
}

/// The set of helpers this VM implements (what the verifier accepts),
/// derived from the helper table (`HELPER_TABLE`).
pub fn standard_helpers() -> Vec<i32> {
    HELPER_TABLE.iter().map(|(id, _, _)| *id).collect()
}

/// Flag value for `perf_event_output` meaning "use the current CPU's
/// ring" (`BPF_F_CURRENT_CPU`).
pub const BPF_F_CURRENT_CPU: u64 = 0xffff_ffff;

/// Host services a program execution needs.
pub trait VmEnv {
    /// The node's `CLOCK_MONOTONIC`, in nanoseconds.
    fn ktime_get_ns(&mut self) -> u64;
    /// A pseudo-random 32-bit value.
    fn prandom_u32(&mut self) -> u32;
    /// The CPU the program runs on.
    fn smp_processor_id(&self) -> u32;
    /// Receives `bpf_trace_printk` output.
    fn trace_printk(&mut self, msg: &str) {
        let _ = msg;
    }
}

/// A fixed-value environment for tests and standalone use.
#[derive(Debug, Clone, Default)]
pub struct FixedEnv {
    /// Value returned by `ktime_get_ns`.
    pub time_ns: u64,
    /// Value returned by `smp_processor_id`.
    pub cpu: u32,
    /// Seed for the deterministic `prandom_u32` sequence.
    pub prandom_state: u64,
    /// Captured `trace_printk` output.
    pub printk: Vec<String>,
}

impl VmEnv for FixedEnv {
    fn ktime_get_ns(&mut self) -> u64 {
        self.time_ns
    }

    fn prandom_u32(&mut self) -> u32 {
        // SplitMix64 step — deterministic and well distributed.
        self.prandom_state = self.prandom_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.prandom_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) as u32
    }

    fn smp_processor_id(&self) -> u32 {
        self.cpu
    }

    fn trace_printk(&mut self, msg: &str) {
        self.printk.push(msg.to_owned());
    }
}

/// Runtime errors: a misbehaving program is aborted, never allowed to
/// touch anything outside its regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A load or store outside every region.
    MemoryOutOfBounds {
        /// Faulting address.
        addr: u64,
        /// Access size.
        len: usize,
    },
    /// A store to a read-only region (context or packet).
    WriteToReadOnly {
        /// Faulting address.
        addr: u64,
    },
    /// A helper received something that is not a live map handle.
    BadMapHandle(u64),
    /// A map operation failed structurally (sizes, bounds).
    Map(MapError),
    /// A call to an unimplemented helper (should be caught at verify).
    UnknownHelper(i32),
    /// An instruction the interpreter cannot execute (should be caught at
    /// verify).
    BadInstruction(usize),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::MemoryOutOfBounds { addr, len } => {
                write!(f, "out-of-bounds access of {len} bytes at {addr:#x}")
            }
            VmError::WriteToReadOnly { addr } => write!(f, "write to read-only {addr:#x}"),
            VmError::BadMapHandle(h) => write!(f, "bad map handle {h:#x}"),
            VmError::Map(e) => write!(f, "map operation failed: {e}"),
            VmError::UnknownHelper(id) => write!(f, "unknown helper {id}"),
            VmError::BadInstruction(i) => write!(f, "cannot execute instruction {i}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<MapError> for VmError {
    fn from(e: MapError) -> Self {
        VmError::Map(e)
    }
}

/// Result of a program execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The program's return value (`r0` at exit).
    pub ret: u64,
    /// Instructions executed.
    pub insns_executed: u64,
    /// The path's dynamic cost under the shared static cost table
    /// ([`crate::cost`]): per-op charges plus per-helper charges.
    /// Always bounded by the loaded program's
    /// [`certificate`](crate::program::LoadedProgram::certificate).
    pub cost_ns: u64,
}

/// A map key captured when a lookup allocates a value slot. Keys of up
/// to eight bytes (every key the standard trace scripts use) are stored
/// inline, so the per-lookup heap allocation is only paid for oversized
/// keys.
#[derive(Debug, Clone)]
pub(crate) enum KeyBuf {
    Inline { buf: [u8; 8], len: u8 },
    Heap(Vec<u8>),
}

impl KeyBuf {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            KeyBuf::Inline { buf, len } => &buf[..*len as usize],
            KeyBuf::Heap(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
struct ValueSlot {
    fd: i32,
    key: KeyBuf,
    value_size: usize,
}

/// Value-slot table. The first two slots live inline — the standard
/// trace scripts perform at most a couple of lookups per run, so a
/// lookup-heavy execution allocates nothing; further slots spill to the
/// heap.
#[derive(Debug)]
struct Slots {
    inline: [Option<ValueSlot>; 2],
    spill: Vec<ValueSlot>,
    len: usize,
}

impl Slots {
    fn new() -> Self {
        Slots {
            inline: [None, None],
            spill: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, idx: usize) -> Option<&ValueSlot> {
        match self.inline.get(idx) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(idx - self.inline.len()),
        }
    }

    fn push(&mut self, slot: ValueSlot) {
        match self.inline.get_mut(self.len) {
            Some(entry) => *entry = Some(slot),
            None => self.spill.push(slot),
        }
        self.len += 1;
    }
}

/// The tagged flat address space a program execution sees. Shared by
/// both execution tiers so addresses, map-value slot allocation order and
/// error behaviour are bit-identical between them (addresses are data —
/// a program may return or store one).
pub(crate) struct Memory<'a> {
    pub(crate) ctx: [u8; CTX_SIZE],
    pub(crate) pkt: &'a [u8],
    pub(crate) stack: [u8; STACK_SIZE],
    slots: Slots,
    pub(crate) cpu: usize,
}

impl<'a> Memory<'a> {
    pub(crate) fn new(ctx: &TraceContext, pkt: &'a [u8], cpu: usize) -> Self {
        let ctx_bytes = ctx.to_bytes(PKT_BASE, PKT_BASE + pkt.len() as u64);
        Memory {
            ctx: ctx_bytes,
            pkt,
            stack: [0u8; STACK_SIZE],
            slots: Slots::new(),
            cpu,
        }
    }

    pub(crate) fn alloc_slot(&mut self, fd: i32, key: KeyBuf, value_size: usize) -> u64 {
        self.slots.push(ValueSlot {
            fd,
            key,
            value_size,
        });
        MAP_VAL_BASE + (self.slots.len() as u64 - 1) * MAP_VAL_STRIDE
    }

    /// The `len` bytes at `addr` when they lie wholly inside the context,
    /// the packet or the stack; `None` otherwise (a map value, a fault,
    /// or a range whose end does not exist).
    pub(crate) fn region(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let end = addr.checked_add(len as u64)?;
        let (base, bytes): (u64, &[u8]) = if addr >= CTX_BASE && end <= CTX_BASE + CTX_SIZE as u64 {
            (CTX_BASE, &self.ctx)
        } else if addr >= PKT_BASE && end <= PKT_BASE + self.pkt.len() as u64 {
            (PKT_BASE, self.pkt)
        } else if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE as u64 {
            (STACK_BASE, &self.stack)
        } else {
            return None;
        };
        let s = (addr - base) as usize;
        Some(&bytes[s..s + len])
    }

    pub(crate) fn read_bytes(
        &self,
        maps: &mut MapRegistry,
        addr: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), VmError> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        if let Some(bytes) = self.region(addr, len) {
            out.extend_from_slice(bytes);
            return Ok(());
        }
        let oob = VmError::MemoryOutOfBounds { addr, len };
        // A helper passes a program-chosen length: the range's end may
        // not exist in the address space at all.
        addr.checked_add(len as u64).ok_or_else(|| oob.clone())?;
        if addr >= MAP_VAL_BASE {
            let slot_idx = ((addr - MAP_VAL_BASE) / MAP_VAL_STRIDE) as usize;
            let off = ((addr - MAP_VAL_BASE) % MAP_VAL_STRIDE) as usize;
            let slot = self.slots.get(slot_idx).ok_or_else(|| oob.clone())?;
            if len > slot.value_size || off > slot.value_size - len {
                return Err(oob);
            }
            let map = maps.get_mut(slot.fd).ok_or(VmError::BadMapHandle(addr))?;
            let value = map
                .lookup(slot.key.as_slice(), self.cpu)
                .map_err(VmError::Map)?;
            out.extend_from_slice(&value[off..off + len]);
        } else {
            return Err(oob);
        }
        Ok(())
    }

    pub(crate) fn read_u64(
        &self,
        maps: &mut MapRegistry,
        addr: u64,
        len: usize,
    ) -> Result<u64, VmError> {
        let mut buf = Vec::with_capacity(8);
        self.read_bytes(maps, addr, len, &mut buf)?;
        let mut b = [0u8; 8];
        b[..len].copy_from_slice(&buf);
        Ok(u64::from_le_bytes(b))
    }

    /// Allocation-free scalar load used by the compiled tier: accesses
    /// that land wholly inside the context, packet, stack or a map-value
    /// region read directly from the backing storage; everything else
    /// (faults, address-space edge cases) defers to [`Memory::read_u64`]
    /// so the result — value or error — is identical to the interpreter.
    #[inline]
    pub(crate) fn read_scalar(
        &self,
        maps: &mut MapRegistry,
        addr: u64,
        len: usize,
    ) -> Result<u64, VmError> {
        if len > 0 {
            if let Some(end) = addr.checked_add(len as u64) {
                if addr >= CTX_BASE && end <= CTX_BASE + CTX_SIZE as u64 {
                    return Ok(read_le(&self.ctx[(addr - CTX_BASE) as usize..], len));
                }
                if addr >= PKT_BASE && end <= PKT_BASE + self.pkt.len() as u64 {
                    return Ok(read_le(&self.pkt[(addr - PKT_BASE) as usize..], len));
                }
                if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE as u64 {
                    return Ok(read_le(&self.stack[(addr - STACK_BASE) as usize..], len));
                }
                if (MAP_VAL_BASE..MAP_HANDLE_BASE).contains(&addr) {
                    let slot_idx = ((addr - MAP_VAL_BASE) / MAP_VAL_STRIDE) as usize;
                    let off = ((addr - MAP_VAL_BASE) % MAP_VAL_STRIDE) as usize;
                    let oob = VmError::MemoryOutOfBounds { addr, len };
                    let slot = self.slots.get(slot_idx).ok_or_else(|| oob.clone())?;
                    if off + len > slot.value_size {
                        return Err(oob);
                    }
                    let map = maps.get_mut(slot.fd).ok_or(VmError::BadMapHandle(addr))?;
                    let value = map
                        .lookup(slot.key.as_slice(), self.cpu)
                        .map_err(VmError::Map)?;
                    return Ok(read_le(&value[off..], len));
                }
            }
        }
        self.read_u64(maps, addr, len)
    }

    /// Read-modify-write for the compiled tier's fused `ldx; add imm;
    /// stx` sequence: one region resolution (and, for map values, one
    /// map lookup) covers both accesses, which is sound because the
    /// store targets the exact address and width the load just proved
    /// accessible. Off the writable fast paths it falls back to the
    /// split read-then-write, so faults (including stores to read-only
    /// regions) are ordered exactly as the interpreter orders them.
    pub(crate) fn rmw_add(
        &mut self,
        maps: &mut MapRegistry,
        addr: u64,
        len: usize,
        add: u64,
    ) -> Result<u64, VmError> {
        if len > 0 {
            if let Some(end) = addr.checked_add(len as u64) {
                if addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE as u64 {
                    let s = (addr - STACK_BASE) as usize;
                    let new = read_le(&self.stack[s..], len).wrapping_add(add);
                    write_le(&mut self.stack[s..], len, new);
                    return Ok(new);
                }
                if (MAP_VAL_BASE..MAP_HANDLE_BASE).contains(&addr) {
                    let slot_idx = ((addr - MAP_VAL_BASE) / MAP_VAL_STRIDE) as usize;
                    let off = ((addr - MAP_VAL_BASE) % MAP_VAL_STRIDE) as usize;
                    let oob = VmError::MemoryOutOfBounds { addr, len };
                    let slot = self.slots.get(slot_idx).ok_or_else(|| oob.clone())?;
                    if off + len > slot.value_size {
                        return Err(oob);
                    }
                    let map = maps.get_mut(slot.fd).ok_or(VmError::BadMapHandle(addr))?;
                    let value = map
                        .lookup(slot.key.as_slice(), self.cpu)
                        .map_err(VmError::Map)?;
                    let new = read_le(&value[off..], len).wrapping_add(add);
                    write_le(&mut value[off..], len, new);
                    return Ok(new);
                }
            }
        }
        let new = self.read_u64(maps, addr, len)?.wrapping_add(add);
        self.write(maps, addr, len, new)?;
        Ok(new)
    }

    pub(crate) fn write(
        &mut self,
        maps: &mut MapRegistry,
        addr: u64,
        len: usize,
        val: u64,
    ) -> Result<(), VmError> {
        let in_stack = addr
            .checked_add(len as u64)
            .is_some_and(|end| addr >= STACK_BASE && end <= STACK_BASE + STACK_SIZE as u64);
        if in_stack {
            let s = (addr - STACK_BASE) as usize;
            write_le(&mut self.stack[s..], len, val);
            Ok(())
        } else if (MAP_VAL_BASE..MAP_HANDLE_BASE).contains(&addr) {
            let slot_idx = ((addr - MAP_VAL_BASE) / MAP_VAL_STRIDE) as usize;
            let off = ((addr - MAP_VAL_BASE) % MAP_VAL_STRIDE) as usize;
            let slot = self
                .slots
                .get(slot_idx)
                .ok_or(VmError::MemoryOutOfBounds { addr, len })?;
            if off + len > slot.value_size {
                return Err(VmError::MemoryOutOfBounds { addr, len });
            }
            let map = maps.get_mut(slot.fd).ok_or(VmError::BadMapHandle(addr))?;
            let value = map
                .lookup(slot.key.as_slice(), self.cpu)
                .map_err(VmError::Map)?;
            write_le(&mut value[off..], len, val);
            Ok(())
        } else if (addr >= CTX_BASE && addr < CTX_BASE + CTX_SIZE as u64)
            || (addr >= PKT_BASE && addr < PKT_BASE + self.pkt.len() as u64)
        {
            Err(VmError::WriteToReadOnly { addr })
        } else {
            Err(VmError::MemoryOutOfBounds { addr, len })
        }
    }
}

/// The interpreter. It runs only what [`crate::program::load`] admits:
/// loop-free programs of at most [`MAX_INSNS`] instructions, so every
/// run ends within that many steps and needs no instruction budget.
#[derive(Debug, Clone, Default)]
pub struct Vm;

impl Vm {
    /// Creates an interpreter.
    pub fn new() -> Self {
        Vm
    }

    /// Executes `prog` over `ctx` and `packet`, using `maps` for map
    /// helpers and `env` for host services.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program misbehaves at runtime; the
    /// caller should detach or flag the program, as the kernel would.
    pub fn execute(
        &self,
        prog: &LoadedProgram,
        ctx: &TraceContext,
        packet: &[u8],
        maps: &mut MapRegistry,
        env: &mut dyn VmEnv,
    ) -> Result<ExecOutcome, VmError> {
        self.run(prog, ctx, packet, maps, env, |_, _, _| {})
    }

    /// [`Vm::execute`], handing `observe` the pc, the registers and the
    /// memory before each instruction runs.
    fn run(
        &self,
        prog: &LoadedProgram,
        ctx: &TraceContext,
        packet: &[u8],
        maps: &mut MapRegistry,
        env: &mut dyn VmEnv,
        mut observe: impl FnMut(usize, &[u64; NUM_REGS], &Memory<'_>),
    ) -> Result<ExecOutcome, VmError> {
        let insns = prog.insns();
        let mut reg = [0u64; NUM_REGS];
        let mut mem = Memory::new(ctx, packet, env.smp_processor_id() as usize);
        reg[1] = CTX_BASE;
        reg[10] = STACK_BASE + STACK_SIZE as u64;

        let mut pc = 0usize;
        let mut executed: u64 = 0;
        let mut cost_ns: u64 = 0;
        let mut scratch = Vec::with_capacity(64);

        loop {
            let insn = *insns.get(pc).ok_or(VmError::BadInstruction(pc))?;
            observe(pc, &reg, &mem);
            executed += 1;
            cost_ns += crate::cost::insn_cost_ns(&insn);
            let dst = insn.dst as usize;
            let src = insn.src as usize;
            match insn.class() {
                BPF_ALU64 | BPF_ALU => {
                    let is64 = insn.class() == BPF_ALU64;
                    let op = insn.opcode & 0xf0;
                    if op == BPF_END {
                        reg[dst] = match insn.imm {
                            16 => u64::from((reg[dst] as u16).to_be()),
                            32 => u64::from((reg[dst] as u32).to_be()),
                            _ => reg[dst].to_be(),
                        };
                        pc += 1;
                        continue;
                    }
                    let rhs = if insn.opcode & 0x08 == BPF_X {
                        reg[src]
                    } else {
                        insn.imm as i64 as u64
                    };
                    let lhs = reg[dst];
                    let val = if is64 {
                        alu64(op, lhs, rhs)
                    } else {
                        u64::from(alu32(op, lhs as u32, rhs as u32))
                    };
                    reg[dst] = val;
                    pc += 1;
                }
                BPF_LD => {
                    // lddw: combine with next slot.
                    let hi = insns.get(pc + 1).ok_or(VmError::BadInstruction(pc))?;
                    reg[dst] = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                    pc += 2;
                }
                BPF_LDX => {
                    let size = access_size(insn.opcode);
                    let addr = reg[src].wrapping_add(insn.off as i64 as u64);
                    reg[dst] = mem.read_u64(maps, addr, size)?;
                    pc += 1;
                }
                BPF_ST | BPF_STX => {
                    let size = access_size(insn.opcode);
                    let addr = reg[dst].wrapping_add(insn.off as i64 as u64);
                    if insn.class() == BPF_STX && insn.opcode & 0xe0 == BPF_ATOMIC {
                        // Atomic add (single-threaded VM: plain RMW).
                        let old = mem.read_u64(maps, addr, size)?;
                        let new = if size == 4 {
                            u64::from((old as u32).wrapping_add(reg[src] as u32))
                        } else {
                            old.wrapping_add(reg[src])
                        };
                        mem.write(maps, addr, size, new)?;
                        if insn.imm & BPF_FETCH != 0 {
                            reg[src] = old;
                        }
                    } else {
                        let val = if insn.class() == BPF_STX {
                            reg[src]
                        } else {
                            insn.imm as i64 as u64
                        };
                        mem.write(maps, addr, size, val)?;
                    }
                    pc += 1;
                }
                BPF_JMP | BPF_JMP32 => {
                    let op = insn.opcode & 0xf0;
                    match op {
                        BPF_EXIT => {
                            return Ok(ExecOutcome {
                                ret: reg[0],
                                insns_executed: executed,
                                cost_ns,
                            })
                        }
                        BPF_CALL => {
                            self.call_helper(
                                insn.imm,
                                &mut reg,
                                &mut mem,
                                maps,
                                env,
                                &mut scratch,
                            )?;
                            pc += 1;
                        }
                        BPF_JA => {
                            pc = (pc as i64 + 1 + insn.off as i64) as usize;
                        }
                        _ => {
                            let (lhs, rhs) = if insn.class() == BPF_JMP {
                                (
                                    reg[dst],
                                    if insn.opcode & 0x08 == BPF_X {
                                        reg[src]
                                    } else {
                                        insn.imm as i64 as u64
                                    },
                                )
                            } else {
                                (
                                    u64::from(reg[dst] as u32),
                                    if insn.opcode & 0x08 == BPF_X {
                                        u64::from(reg[src] as u32)
                                    } else {
                                        u64::from(insn.imm as u32)
                                    },
                                )
                            };
                            let take = jump_taken(op, lhs, rhs, insn.class() == BPF_JMP32);
                            pc = if take {
                                (pc as i64 + 1 + insn.off as i64) as usize
                            } else {
                                pc + 1
                            };
                        }
                    }
                }
                _ => return Err(VmError::BadInstruction(pc)),
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn call_helper(
        &self,
        id: i32,
        reg: &mut [u64; NUM_REGS],
        mem: &mut Memory<'_>,
        maps: &mut MapRegistry,
        env: &mut dyn VmEnv,
        scratch: &mut Vec<u8>,
    ) -> Result<(), VmError> {
        let thunk = helper_by_id(id).ok_or(VmError::UnknownHelper(id))?;
        thunk(reg, mem, maps, env, scratch)
    }
}

fn helper_ktime_get_ns(
    reg: &mut [u64; NUM_REGS],
    _mem: &mut Memory<'_>,
    _maps: &mut MapRegistry,
    env: &mut dyn VmEnv,
    _scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    reg[0] = env.ktime_get_ns();
    Ok(())
}

fn helper_get_prandom_u32(
    reg: &mut [u64; NUM_REGS],
    _mem: &mut Memory<'_>,
    _maps: &mut MapRegistry,
    env: &mut dyn VmEnv,
    _scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    reg[0] = u64::from(env.prandom_u32());
    Ok(())
}

fn helper_get_smp_processor_id(
    reg: &mut [u64; NUM_REGS],
    _mem: &mut Memory<'_>,
    _maps: &mut MapRegistry,
    env: &mut dyn VmEnv,
    _scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    reg[0] = u64::from(env.smp_processor_id());
    Ok(())
}

pub(crate) fn helper_map_lookup(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    _env: &mut dyn VmEnv,
    scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let fd = map_fd(reg[1])?;
    let map = maps.get_mut(fd).ok_or(VmError::BadMapHandle(reg[1]))?;
    let key_size = map.def().key_size as usize;
    let value_size = map.def().value_size as usize;
    // Small keys (all the standard trace scripts') read and store inline;
    // `read_scalar` applies the same single-region bounds check as
    // `read_bytes`, so faults are unchanged.
    let key = if key_size <= 8 {
        let v = mem.read_scalar(maps, reg[2], key_size)?;
        KeyBuf::Inline {
            buf: v.to_le_bytes(),
            len: key_size as u8,
        }
    } else {
        mem.read_bytes(maps, reg[2], key_size, scratch)?;
        KeyBuf::Heap(scratch.clone())
    };
    let map = maps.get_mut(fd).expect("fd checked");
    reg[0] = match map.lookup(key.as_slice(), mem.cpu) {
        Ok(_) => mem.alloc_slot(fd, key, value_size),
        Err(_) => 0,
    };
    Ok(())
}

fn helper_map_update(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    _env: &mut dyn VmEnv,
    scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let fd = map_fd(reg[1])?;
    let (key_size, value_size) = {
        let map = maps.get(fd).ok_or(VmError::BadMapHandle(reg[1]))?;
        (map.def().key_size as usize, map.def().value_size as usize)
    };
    mem.read_bytes(maps, reg[2], key_size, scratch)?;
    let key = scratch.clone();
    mem.read_bytes(maps, reg[3], value_size, scratch)?;
    let value = scratch.clone();
    let map = maps.get_mut(fd).expect("fd checked");
    reg[0] = match map.update(&key, &value, mem.cpu) {
        Ok(()) => 0,
        Err(_) => (-1i64) as u64,
    };
    Ok(())
}

fn helper_map_delete(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    _env: &mut dyn VmEnv,
    scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let fd = map_fd(reg[1])?;
    let key_size = {
        let map = maps.get(fd).ok_or(VmError::BadMapHandle(reg[1]))?;
        map.def().key_size as usize
    };
    mem.read_bytes(maps, reg[2], key_size, scratch)?;
    let key = scratch.clone();
    let map = maps.get_mut(fd).expect("fd checked");
    reg[0] = match map.delete(&key) {
        Ok(()) => 0,
        Err(_) => (-1i64) as u64,
    };
    Ok(())
}

fn helper_perf_event_output(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    _env: &mut dyn VmEnv,
    scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let fd = map_fd(reg[2])?;
    let len = reg[5] as usize;
    // A record in the stack, context or packet goes to the ring in
    // place; only a map-value source is copied out first, since reading
    // it borrows the registry the ring lives in.
    let record = match mem.region(reg[4], len) {
        Some(bytes) => bytes,
        None => {
            mem.read_bytes(maps, reg[4], len, scratch)?;
            scratch.as_slice()
        }
    };
    let map = maps.get_mut(fd).ok_or(VmError::BadMapHandle(reg[2]))?;
    // The current CPU wraps onto the rings; an explicit index past the
    // last ring fails.
    let cpu = if reg[3] == BPF_F_CURRENT_CPU {
        mem.cpu % map.perf_rings().max(1)
    } else {
        usize::try_from(reg[3]).unwrap_or(usize::MAX)
    };
    reg[0] = match map.perf_output(cpu, record) {
        Ok(()) => 0,
        Err(_) => (-1i64) as u64,
    };
    Ok(())
}

fn helper_skb_load_bytes(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    _env: &mut dyn VmEnv,
    _scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let off = reg[2] as usize;
    let len = reg[4] as usize;
    let src = off.checked_add(len).and_then(|end| mem.pkt.get(off..end));
    reg[0] = if let Some(data) = src {
        let data = data.to_vec();
        let mut dst_addr = reg[3];
        for chunk in data.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            mem.write(maps, dst_addr, chunk.len(), u64::from_le_bytes(b))?;
            dst_addr += chunk.len() as u64;
        }
        0
    } else {
        (-1i64) as u64
    };
    Ok(())
}

fn helper_trace_printk(
    reg: &mut [u64; NUM_REGS],
    mem: &mut Memory<'_>,
    maps: &mut MapRegistry,
    env: &mut dyn VmEnv,
    scratch: &mut Vec<u8>,
) -> Result<(), VmError> {
    let len = (reg[2] as usize).min(512);
    mem.read_bytes(maps, reg[1], len, scratch)?;
    let msg = String::from_utf8_lossy(scratch).into_owned();
    env.trace_printk(msg.trim_end_matches('\0'));
    reg[0] = 0;
    Ok(())
}

/// Little-endian scalar read out of a region slice; `len` is 1/2/4/8 and
/// the caller has already bounds-checked `b.len() >= len`. Each width is
/// a fixed-size load rather than a variable-length copy.
#[inline]
pub(crate) fn read_le(b: &[u8], len: usize) -> u64 {
    match len {
        1 => u64::from(b[0]),
        2 => u64::from(u16::from_le_bytes([b[0], b[1]])),
        4 => u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        8 => u64::from_le_bytes(b[..8].try_into().expect("8-byte slice")),
        _ => {
            let mut buf = [0u8; 8];
            buf[..len].copy_from_slice(&b[..len]);
            u64::from_le_bytes(buf)
        }
    }
}

/// Little-endian scalar store into a region slice; the counterpart of
/// [`read_le`], with the same fixed-width specialisation.
#[inline]
pub(crate) fn write_le(b: &mut [u8], len: usize, val: u64) {
    match len {
        1 => b[0] = val as u8,
        2 => b[..2].copy_from_slice(&(val as u16).to_le_bytes()),
        4 => b[..4].copy_from_slice(&(val as u32).to_le_bytes()),
        8 => b[..8].copy_from_slice(&val.to_le_bytes()),
        _ => b[..len].copy_from_slice(&val.to_le_bytes()[..len]),
    }
}

#[inline]
pub(crate) fn map_fd(handle: u64) -> Result<i32, VmError> {
    if handle & MAP_HANDLE_BASE == MAP_HANDLE_BASE {
        Ok((handle & 0xffff_ffff) as i32)
    } else {
        Err(VmError::BadMapHandle(handle))
    }
}

#[inline]
pub(crate) fn access_size(opcode: u8) -> usize {
    match opcode & 0x18 {
        BPF_W => 4,
        BPF_H => 2,
        BPF_B => 1,
        _ => 8,
    }
}

// Divide-by-zero handling is deliberate eBPF semantics (div -> 0,
// mod -> dst unchanged), not a checked_div candidate.
#[allow(clippy::manual_checked_ops)]
#[inline]
pub(crate) fn alu64(op: u8, lhs: u64, rhs: u64) -> u64 {
    match op {
        BPF_ADD => lhs.wrapping_add(rhs),
        BPF_SUB => lhs.wrapping_sub(rhs),
        BPF_MUL => lhs.wrapping_mul(rhs),
        BPF_DIV => {
            if rhs == 0 {
                0
            } else {
                lhs / rhs
            }
        }
        BPF_MOD => {
            if rhs == 0 {
                lhs
            } else {
                lhs % rhs
            }
        }
        BPF_OR => lhs | rhs,
        BPF_AND => lhs & rhs,
        BPF_LSH => lhs.wrapping_shl(rhs as u32 & 63),
        BPF_RSH => lhs.wrapping_shr(rhs as u32 & 63),
        BPF_ARSH => ((lhs as i64).wrapping_shr(rhs as u32 & 63)) as u64,
        BPF_XOR => lhs ^ rhs,
        BPF_MOV => rhs,
        BPF_NEG => (lhs as i64).wrapping_neg() as u64,
        _ => unreachable!("verified ALU op"),
    }
}

#[allow(clippy::manual_checked_ops)]
#[inline]
pub(crate) fn alu32(op: u8, lhs: u32, rhs: u32) -> u32 {
    match op {
        BPF_ADD => lhs.wrapping_add(rhs),
        BPF_SUB => lhs.wrapping_sub(rhs),
        BPF_MUL => lhs.wrapping_mul(rhs),
        BPF_DIV => {
            if rhs == 0 {
                0
            } else {
                lhs / rhs
            }
        }
        BPF_MOD => {
            if rhs == 0 {
                lhs
            } else {
                lhs % rhs
            }
        }
        BPF_OR => lhs | rhs,
        BPF_AND => lhs & rhs,
        BPF_LSH => lhs.wrapping_shl(rhs & 31),
        BPF_RSH => lhs.wrapping_shr(rhs & 31),
        BPF_ARSH => ((lhs as i32).wrapping_shr(rhs & 31)) as u32,
        BPF_XOR => lhs ^ rhs,
        BPF_MOV => rhs,
        BPF_NEG => (lhs as i32).wrapping_neg() as u32,
        _ => unreachable!("verified ALU op"),
    }
}

#[inline]
pub(crate) fn jump_taken(op: u8, lhs: u64, rhs: u64, narrow: bool) -> bool {
    let (slhs, srhs) = if narrow {
        (i64::from(lhs as u32 as i32), i64::from(rhs as u32 as i32))
    } else {
        (lhs as i64, rhs as i64)
    };
    match op {
        BPF_JEQ => lhs == rhs,
        BPF_JNE => lhs != rhs,
        BPF_JGT => lhs > rhs,
        BPF_JGE => lhs >= rhs,
        BPF_JLT => lhs < rhs,
        BPF_JLE => lhs <= rhs,
        BPF_JSET => lhs & rhs != 0,
        BPF_JSGT => slhs > srhs,
        BPF_JSGE => slhs >= srhs,
        BPF_JSLT => slhs < srhs,
        BPF_JSLE => slhs <= srhs,
        _ => unreachable!("verified jump op"),
    }
}

#[cfg(test)]
mod tests {
    use super::helper_ids::*;
    use super::*;
    use crate::asm::{reg::*, AluOp, Asm, Cond, Size};
    use crate::context::*;
    use crate::map::MapDef;
    use crate::program::{load, Program};

    fn run(asm: Asm) -> u64 {
        run_with(asm, &TraceContext::default(), &[], &mut MapRegistry::new()).ret
    }

    fn run_with(asm: Asm, ctx: &TraceContext, pkt: &[u8], maps: &mut MapRegistry) -> ExecOutcome {
        let prog = Program::new("t", asm.build().expect("assembles"));
        let loaded = load(prog, maps, &standard_helpers()).expect("loads");
        let mut env = FixedEnv {
            time_ns: 123_456,
            cpu: 2,
            ..Default::default()
        };
        Vm::new()
            .execute(&loaded, ctx, pkt, maps, &mut env)
            .expect("executes")
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(
            run(Asm::new().mov64_imm(R0, 20).add64_imm(R0, 22).exit()),
            42
        );
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, 7)
                .mov64_imm(R2, 6)
                .alu64(AluOp::Mul, R0, R2)
                .exit()),
            42
        );
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, 100)
                .alu64_imm(AluOp::Div, R0, 7)
                .exit()),
            14
        );
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, 100)
                .alu64_imm(AluOp::Mod, R0, 7)
                .exit()),
            2
        );
    }

    #[test]
    fn division_by_zero_register_semantics() {
        // The verifier now rejects any register divisor it cannot prove
        // nonzero, so no *loaded* program can divide by zero — but the
        // ALU semantics (div → 0, mod → lhs, kernel behaviour) are still
        // the contract for the checked execution paths.
        assert_eq!(alu64(BPF_DIV, 100, 0), 0);
        assert_eq!(alu64(BPF_MOD, 100, 0), 100);
        assert_eq!(alu32(BPF_DIV, 100, 0), 0);
        assert_eq!(alu32(BPF_MOD, 100, 0), 100);
        // A guarded divisor is accepted and divides normally.
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, 100)
                .mov64_imm(R2, 0)
                .jmp_imm(Cond::Eq, R2, 0, "skip")
                .alu64(AluOp::Div, R0, R2)
                .label("skip")
                .exit()),
            100
        );
    }

    #[test]
    fn negative_immediates_sign_extend() {
        assert_eq!(run(Asm::new().mov64_imm(R0, -1).exit()), u64::MAX);
        assert_eq!(
            run(Asm::new().mov64_imm(R0, 5).add64_imm(R0, -6).exit()) as i64,
            -1
        );
    }

    #[test]
    fn mov32_clears_upper_half() {
        assert_eq!(run(Asm::new().mov64_imm(R0, -1).mov32_imm(R0, 7).exit()), 7);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, 1)
                .alu64_imm(AluOp::Lsh, R0, 65)
                .exit()),
            2,
            "shift by 65 masks to 1"
        );
        assert_eq!(
            run(Asm::new()
                .mov64_imm(R0, -8)
                .alu64_imm(AluOp::Arsh, R0, 1)
                .exit()) as i64,
            -4
        );
    }

    #[test]
    fn endianness_conversion() {
        assert_eq!(
            run(Asm::new().mov64_imm(R0, 0x1234).be16(R0).exit()),
            0x3412
        );
        assert_eq!(
            run(Asm::new().mov64_imm(R0, 0x12345678).be32(R0).exit()),
            0x78563412
        );
    }

    #[test]
    fn stack_store_load_round_trip() {
        let v = run(Asm::new()
            .mov64_imm(R2, 0x55aa)
            .stx(Size::DW, R10, R2, -8)
            .ldx(Size::DW, R0, R10, -8)
            .exit());
        assert_eq!(v, 0x55aa);
        // Byte-granular access of the same slot.
        let v = run(Asm::new()
            .mov64_imm(R2, 0x55aa)
            .stx(Size::DW, R10, R2, -8)
            .ldx(Size::B, R0, R10, -8)
            .exit());
        assert_eq!(v, 0xaa);
    }

    #[test]
    fn context_fields_readable() {
        let ctx = TraceContext {
            timestamp_ns: 999,
            pkt_len: 77,
            cpu: 3,
            node: 2,
            device: 5,
            direction: 1,
            aux: 0,
        };
        let out = run_with(
            Asm::new().ldx(Size::W, R0, R1, CTX_OFF_PKT_LEN).exit(),
            &ctx,
            &[0u8; 77],
            &mut MapRegistry::new(),
        );
        assert_eq!(out.ret, 77);
        let out = run_with(
            Asm::new().ldx(Size::DW, R0, R1, CTX_OFF_TIMESTAMP).exit(),
            &ctx,
            &[],
            &mut MapRegistry::new(),
        );
        assert_eq!(out.ret, 999);
    }

    #[test]
    fn packet_bytes_readable_through_data_pointer() {
        let pkt = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x02];
        let out = run_with(
            Asm::new()
                .ldx(Size::DW, R2, R1, CTX_OFF_DATA)
                .ldx(Size::B, R0, R2, 3)
                .exit(),
            &TraceContext::default(),
            &pkt,
            &mut MapRegistry::new(),
        );
        assert_eq!(out.ret, 0xef);
    }

    #[test]
    fn packet_read_past_end_aborts() {
        let prog = Program::new(
            "t",
            Asm::new()
                .ldx(Size::DW, R2, R1, CTX_OFF_DATA)
                .ldx(Size::W, R0, R2, 10)
                .exit()
                .build()
                .unwrap(),
        );
        let mut maps = MapRegistry::new();
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let mut env = FixedEnv::default();
        let err = Vm::new()
            .execute(
                &loaded,
                &TraceContext::default(),
                &[0u8; 8],
                &mut maps,
                &mut env,
            )
            .unwrap_err();
        assert!(matches!(err, VmError::MemoryOutOfBounds { .. }));
    }

    #[test]
    fn writes_to_packet_and_ctx_rejected() {
        let mut maps = MapRegistry::new();
        for asm in [
            Asm::new()
                .mov64_imm(R2, 1)
                .stx(Size::B, R1, R2, 0)
                .mov64_imm(R0, 0)
                .exit(),
            Asm::new()
                .ldx(Size::DW, R3, R1, CTX_OFF_DATA)
                .mov64_imm(R2, 1)
                .stx(Size::B, R3, R2, 0)
                .mov64_imm(R0, 0)
                .exit(),
        ] {
            let prog = Program::new("t", asm.build().unwrap());
            let loaded = load(prog, &maps, &standard_helpers()).unwrap();
            let mut env = FixedEnv::default();
            let err = Vm::new()
                .execute(
                    &loaded,
                    &TraceContext::default(),
                    &[0u8; 16],
                    &mut maps,
                    &mut env,
                )
                .unwrap_err();
            assert!(
                matches!(err, VmError::WriteToReadOnly { .. }),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn ktime_helper_reads_env_clock() {
        let out = run(Asm::new().call(KTIME_GET_NS).exit());
        assert_eq!(out, 123_456);
    }

    #[test]
    fn smp_processor_id_helper() {
        assert_eq!(run(Asm::new().call(GET_SMP_PROCESSOR_ID).exit()), 2);
    }

    #[test]
    fn prandom_helper_changes() {
        // Two calls give different values.
        let out = run(Asm::new()
            .call(GET_PRANDOM_U32)
            .mov64(R6, R0)
            .call(GET_PRANDOM_U32)
            .sub64(R0, R6)
            .exit());
        assert_ne!(out, 0);
    }

    #[test]
    fn map_update_lookup_through_helpers() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::hash(4, 8, 16), 1).unwrap();
        // key = 7 on stack, value = 99 on stack; update then lookup and
        // load the value back.
        let asm = Asm::new()
            .st(Size::W, R10, -4, 7) // key
            .mov64_imm(R2, 99)
            .stx(Size::DW, R10, R2, -16) // value
            .ld_map_fd(R1, fd)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .mov64(R3, R10)
            .add64_imm(R3, -16)
            .mov64_imm(R4, 0)
            .call(MAP_UPDATE_ELEM)
            .ld_map_fd(R1, fd)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(MAP_LOOKUP_ELEM)
            .jmp_imm(Cond::Ne, R0, 0, "found")
            .mov64_imm(R0, 0)
            .exit()
            .label("found")
            .ldx(Size::DW, R0, R0, 0)
            .exit();
        let out = run_with(asm, &TraceContext::default(), &[], &mut maps);
        assert_eq!(out.ret, 99);
        // The value is also visible from the host side.
        let map = maps.get_mut(fd).unwrap();
        assert_eq!(
            map.lookup(&7u32.to_le_bytes(), 0).unwrap(),
            &99u64.to_le_bytes()
        );
    }

    #[test]
    fn in_place_counter_increment_via_lookup_pointer() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 1), 1).unwrap();
        let asm = || {
            Asm::new()
                .st(Size::W, R10, -4, 0)
                .ld_map_fd(R1, fd)
                .mov64(R2, R10)
                .add64_imm(R2, -4)
                .call(MAP_LOOKUP_ELEM)
                .jmp_imm(Cond::Ne, R0, 0, "found")
                .mov64_imm(R0, 0)
                .exit()
                .label("found")
                .ldx(Size::DW, R2, R0, 0)
                .add64_imm(R2, 1)
                .stx(Size::DW, R0, R2, 0)
                .mov64(R0, R2)
                .exit()
        };
        for expected in 1..=3u64 {
            let out = run_with(asm(), &TraceContext::default(), &[], &mut maps);
            assert_eq!(out.ret, expected);
        }
    }

    #[test]
    fn map_lookup_missing_key_returns_null() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::hash(4, 8, 16), 1).unwrap();
        let asm = Asm::new()
            .st(Size::W, R10, -4, 42)
            .ld_map_fd(R1, fd)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .call(MAP_LOOKUP_ELEM)
            .exit();
        assert_eq!(
            run_with(asm, &TraceContext::default(), &[], &mut maps).ret,
            0
        );
    }

    #[test]
    fn perf_event_output_streams_records() {
        let mut maps = MapRegistry::new();
        let perf_fd = maps.create(MapDef::perf(4096), 4).unwrap();
        let asm = Asm::new()
            .mov64_imm(R2, 0xabcd)
            .stx(Size::DW, R10, R2, -8)
            .mov64(R4, R10)
            .add64_imm(R4, -8)
            .ld_map_fd(R2, perf_fd)
            .mov64_imm(R3, -1) // BPF_F_CURRENT_CPU
            .mov32_imm(R3, 0xffffffffu32 as i32)
            .mov64_imm(R5, 8)
            .call(PERF_EVENT_OUTPUT)
            .exit();
        let out = run_with(asm, &TraceContext::default(), &[], &mut maps);
        assert_eq!(out.ret, 0);
        // FixedEnv cpu = 2.
        let records = maps.get_mut(perf_fd).unwrap().perf_drain(2);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], 0xabcdu64.to_le_bytes());
    }

    /// An explicit ring index is checked against the ring count, as the
    /// kernel's `-E2BIG`: the helper fails, writes nothing and counts
    /// nothing lost. A flags word with bits above the index mask is an
    /// index past the last ring too.
    #[test]
    fn perf_event_output_rejects_an_index_past_the_last_ring() {
        for flags in [4u64, 5, 1 << 32 | 1] {
            let mut maps = MapRegistry::new();
            let perf_fd = maps.create(MapDef::perf(4096), 4).unwrap();
            let asm = Asm::new()
                .mov64_imm(R2, 0xabcd)
                .stx(Size::DW, R10, R2, -8)
                .mov64(R4, R10)
                .add64_imm(R4, -8)
                .ld_map_fd(R2, perf_fd)
                .lddw(R3, flags)
                .mov64_imm(R5, 8)
                .call(PERF_EVENT_OUTPUT)
                .exit();
            let out = run_with(asm, &TraceContext::default(), &[], &mut maps);
            assert_eq!(out.ret as i64, -1, "flags {flags:#x}");
            let map = maps.get_mut(perf_fd).unwrap();
            assert!(
                map.perf_drain_all().is_empty(),
                "flags {flags:#x}: a record was written"
            );
            assert_eq!((0..4).map(|c| map.perf_lost(c)).sum::<u64>(), 0);
        }
        // The last ring is still addressable.
        let mut maps = MapRegistry::new();
        let perf_fd = maps.create(MapDef::perf(4096), 4).unwrap();
        let asm = Asm::new()
            .st(Size::DW, R10, -8, 7)
            .mov64(R4, R10)
            .add64_imm(R4, -8)
            .ld_map_fd(R2, perf_fd)
            .mov64_imm(R3, 3)
            .mov64_imm(R5, 8)
            .call(PERF_EVENT_OUTPUT)
            .exit();
        assert_eq!(
            run_with(asm, &TraceContext::default(), &[], &mut maps).ret,
            0
        );
        assert_eq!(
            maps.get_mut(perf_fd).unwrap().perf_drain(3),
            vec![7u64.to_le_bytes().to_vec()]
        );
    }

    #[test]
    fn skb_load_bytes_copies_packet_to_stack() {
        let pkt: Vec<u8> = (0..32).collect();
        let asm = Asm::new()
            .mov64_imm(R2, 10) // offset
            .mov64(R3, R10)
            .add64_imm(R3, -16) // dst
            .mov64_imm(R4, 4) // len
            .call(SKB_LOAD_BYTES)
            .ldx(Size::W, R0, R10, -16)
            .exit();
        let out = run_with(asm, &TraceContext::default(), &pkt, &mut MapRegistry::new());
        assert_eq!(out.ret, u32::from_le_bytes([10, 11, 12, 13]) as u64);
    }

    #[test]
    fn skb_load_bytes_oob_returns_error_code() {
        let asm = Asm::new()
            .mov64_imm(R2, 100)
            .mov64(R3, R10)
            .add64_imm(R3, -8)
            .mov64_imm(R4, 4)
            .call(SKB_LOAD_BYTES)
            .exit();
        let out = run_with(
            asm,
            &TraceContext::default(),
            &[0u8; 8],
            &mut MapRegistry::new(),
        );
        assert_eq!(out.ret as i64, -1);
    }

    #[test]
    fn skb_load_bytes_offset_overflow_returns_error_code() {
        // off + len wraps past usize::MAX: a failed copy, not a panic.
        for (off, len) in [(-1, 4), (4, -1), (-1, -1)] {
            let asm = Asm::new()
                .mov64_imm(R2, off)
                .mov64(R3, R10)
                .add64_imm(R3, -8)
                .mov64_imm(R4, len)
                .call(SKB_LOAD_BYTES)
                .exit();
            let out = run_with(
                asm,
                &TraceContext::default(),
                &[0u8; 8],
                &mut MapRegistry::new(),
            );
            assert_eq!(out.ret as i64, -1, "off {off} len {len}");
        }
    }

    #[test]
    fn ranges_past_the_address_space_are_out_of_bounds() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 1), 1).unwrap();
        let pkt = [0u8; 16];
        let mut mem = Memory::new(&TraceContext::default(), &pkt, 0);
        let value = mem.alloc_slot(fd, KeyBuf::Heap(0u32.to_le_bytes().to_vec()), 8);
        let mut out = Vec::new();
        // Each range starts inside (or above) a region and ends past
        // u64::MAX or usize::MAX.
        for (addr, len) in [
            (CTX_BASE, usize::MAX),
            (PKT_BASE + 8, usize::MAX - 7),
            (STACK_BASE + 504, usize::MAX),
            (value + 1, usize::MAX),
            (u64::MAX - 3, 8),
            (u64::MAX, 1),
        ] {
            let err = mem.read_bytes(&mut maps, addr, len, &mut out).unwrap_err();
            assert_eq!(err, VmError::MemoryOutOfBounds { addr, len });
        }
        for (addr, len) in [(u64::MAX - 3, 8), (u64::MAX, 1)] {
            let err = mem.write(&mut maps, addr, len, 0).unwrap_err();
            assert_eq!(err, VmError::MemoryOutOfBounds { addr, len });
        }
        // The same shapes, in bounds, still read.
        mem.read_bytes(&mut maps, STACK_BASE + 504, 8, &mut out)
            .unwrap();
        mem.read_bytes(&mut maps, value + 1, 7, &mut out).unwrap();
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn trace_printk_reaches_env() {
        let msg = b"hi\0";
        let mut maps = MapRegistry::new();
        let asm = Asm::new()
            .mov64_imm(R2, i32::from_le_bytes([msg[0], msg[1], msg[2], 0]))
            .stx(Size::W, R10, R2, -8)
            .mov64(R1, R10)
            .add64_imm(R1, -8)
            .mov64_imm(R2, 3)
            .call(TRACE_PRINTK)
            .exit();
        let prog = Program::new("t", asm.build().unwrap());
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let mut env = FixedEnv::default();
        Vm::new()
            .execute(&loaded, &TraceContext::default(), &[], &mut maps, &mut env)
            .unwrap();
        assert_eq!(env.printk, vec!["hi".to_owned()]);
    }

    #[test]
    fn jmp32_uses_narrow_comparison() {
        // r2 = 0x1_0000_0001; 32-bit view is 1.
        let asm = Asm::new()
            .lddw(R2, 0x1_0000_0001)
            .jmp32_imm(Cond::Eq, R2, 1, "yes")
            .mov64_imm(R0, 0)
            .exit()
            .label("yes")
            .mov64_imm(R0, 1)
            .exit();
        assert_eq!(run(asm), 1);
    }

    #[test]
    fn signed_comparisons() {
        let asm = Asm::new()
            .mov64_imm(R2, -5)
            .jmp_imm(Cond::SLt, R2, 0, "neg")
            .mov64_imm(R0, 0)
            .exit()
            .label("neg")
            .mov64_imm(R0, 1)
            .exit();
        assert_eq!(run(asm), 1);
        // Unsigned comparison sees -5 as huge.
        let asm = Asm::new()
            .mov64_imm(R2, -5)
            .jmp_imm(Cond::Gt, R2, 100, "big")
            .mov64_imm(R0, 0)
            .exit()
            .label("big")
            .mov64_imm(R0, 1)
            .exit();
        assert_eq!(run(asm), 1);
    }

    #[test]
    fn insns_executed_counted() {
        let out = run_with(
            Asm::new().mov64_imm(R0, 0).add64_imm(R0, 1).exit(),
            &TraceContext::default(),
            &[],
            &mut MapRegistry::new(),
        );
        assert_eq!(out.insns_executed, 3);
    }

    #[test]
    fn lddw_counts_as_one_instruction() {
        let out = run_with(
            Asm::new().lddw(R0, 1).exit(),
            &TraceContext::default(),
            &[],
            &mut MapRegistry::new(),
        );
        assert_eq!(out.insns_executed, 2);
    }

    #[test]
    fn the_longest_program_runs_to_its_end_on_both_tiers() {
        // Neither tier counts against an instruction budget: `load`
        // admits only loop-free programs of at most `MAX_INSNS` slots, so
        // a straight line of that length is the longest run there is.
        let mut asm = Asm::new().mov64_imm(R0, 0);
        for _ in 0..MAX_INSNS - 2 {
            asm = asm.add64_imm(R0, 1);
        }
        let insns = asm.exit().build().expect("assembles");
        assert_eq!(insns.len(), MAX_INSNS);
        let prog = Program::new("long", insns);
        let mut maps = MapRegistry::new();
        let loaded = load(prog, &maps, &standard_helpers()).expect("loads");
        let ctx = TraceContext::default();
        let mut env = FixedEnv::default();
        let out = Vm::new()
            .execute(&loaded, &ctx, &[], &mut maps, &mut env)
            .expect("the interpreter runs it");
        assert_eq!(out.ret, MAX_INSNS as u64 - 2);
        assert_eq!(out.insns_executed, MAX_INSNS as u64);
        let jit = crate::jit::compile(&loaded)
            .execute(&ctx, &[], &mut maps, &mut env)
            .expect("the threaded code runs it");
        assert_eq!(jit.ret, out.ret);
        assert_eq!(jit.insns_retired, MAX_INSNS as u64);
        assert_eq!(jit.cost_ns, out.cost_ns);
    }
}

#[cfg(test)]
mod atomic_tests {
    use super::*;
    use crate::asm::{reg::*, Asm, Size};
    use crate::context::TraceContext;
    use crate::map::{MapDef, MapRegistry};
    use crate::program::{load, Program};

    fn run(asm: Asm, maps: &mut MapRegistry) -> u64 {
        let prog = Program::new("t", asm.build().unwrap());
        let loaded = load(prog, maps, &standard_helpers()).unwrap();
        let mut env = FixedEnv::default();
        Vm::new()
            .execute(&loaded, &TraceContext::default(), &[], maps, &mut env)
            .unwrap()
            .ret
    }

    #[test]
    fn atomic_add_on_stack() {
        let v = run(
            Asm::new()
                .mov64_imm(R1, 40)
                .stx(Size::DW, R10, R1, -8)
                .mov64_imm(R2, 2)
                .atomic_add(Size::DW, R10, R2, -8)
                .ldx(Size::DW, R0, R10, -8)
                .exit(),
            &mut MapRegistry::new(),
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn atomic_fetch_add_returns_old_value() {
        let v = run(
            Asm::new()
                .mov64_imm(R1, 7)
                .stx(Size::DW, R10, R1, -8)
                .mov64_imm(R2, 100)
                .atomic_fetch_add(Size::DW, R10, R2, -8)
                .mov64(R0, R2) // old value
                .ldx(Size::DW, R3, R10, -8)
                .add64(R0, R3) // old + new = 7 + 107
                .exit(),
            &mut MapRegistry::new(),
        );
        assert_eq!(v, 7 + 107);
    }

    #[test]
    fn atomic_add_on_map_value() {
        // The canonical eBPF counter: lookup then atomic add in place.
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 1), 1).unwrap();
        let asm = || {
            Asm::new()
                .st(Size::W, R10, -4, 0)
                .ld_map_fd(R1, fd)
                .mov64(R2, R10)
                .add64_imm(R2, -4)
                .call(helper_ids::MAP_LOOKUP_ELEM)
                .jmp_imm(crate::asm::Cond::Eq, R0, 0, "miss")
                .mov64_imm(R2, 5)
                .atomic_add(Size::DW, R0, R2, 0)
                .mov64_imm(R0, 1)
                .exit()
                .label("miss")
                .mov64_imm(R0, 0)
                .exit()
        };
        for _ in 0..3 {
            assert_eq!(run(asm(), &mut maps), 1);
        }
        let map = maps.get_mut(fd).unwrap();
        let v = u64::from_le_bytes(
            map.lookup(&0u32.to_le_bytes(), 0)
                .unwrap()
                .try_into()
                .unwrap(),
        );
        assert_eq!(v, 15);
    }

    #[test]
    fn atomic_add_32bit_wraps_in_word() {
        let v = run(
            Asm::new()
                .mov64_imm(R1, -1) // 0xffff_ffff in the low word
                .stx(Size::W, R10, R1, -8)
                .mov64_imm(R2, 1)
                .atomic_add(Size::W, R10, R2, -8)
                .ldx(Size::W, R0, R10, -8)
                .exit(),
            &mut MapRegistry::new(),
        );
        assert_eq!(v, 0, "32-bit wraparound");
    }

    #[test]
    fn verifier_rejects_atomic_on_bytes_and_unknown_ops() {
        use crate::insn::*;
        // 1-byte atomic.
        let insns = vec![
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 1, 0, 0, 0),
            Insn::new(BPF_STX | BPF_ATOMIC | BPF_B, 10, 1, -8, BPF_ADD as i32),
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 0, 0, 0, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert!(crate::verify(&insns, &standard_helpers()).is_err());
        // Unknown atomic op (XOR not implemented).
        let insns = vec![
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 1, 0, 0, 0),
            Insn::new(BPF_STX | BPF_ATOMIC | BPF_DW, 10, 1, -8, BPF_XOR as i32),
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 0, 0, 0, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert!(crate::verify(&insns, &standard_helpers()).is_err());
    }

    #[test]
    fn fetch_initialises_src_for_dataflow() {
        // After a fetch-add, src holds the old value and may be read even
        // if it was clobbered conceptually.
        let v = run(
            Asm::new()
                .mov64_imm(R1, 3)
                .stx(Size::DW, R10, R1, -8)
                .mov64_imm(R2, 4)
                .atomic_fetch_add(Size::DW, R10, R2, -8)
                .mov64(R0, R2)
                .exit(),
            &mut MapRegistry::new(),
        );
        assert_eq!(v, 3);
    }

    #[test]
    fn disasm_renders_atomics() {
        let insns = Asm::new()
            .mov64_imm(R1, 0)
            .atomic_add(Size::DW, R10, R1, -8)
            .atomic_fetch_add(Size::W, R10, R1, -16)
            .mov64_imm(R0, 0)
            .exit()
            .build()
            .unwrap();
        let listing = crate::disasm::disassemble_annotated(
            &insns,
            &crate::analyze(&insns, &crate::vm::standard_helpers()),
        );
        assert!(
            listing[1].contains("lock *(u64 *)(r10 -8) += r1"),
            "{listing:?}"
        );
        assert!(listing[2].contains("atomic_fetch_add"), "{listing:?}");
    }
}

/// The verifier's states against what the interpreter actually holds.
/// These tests live here, not under `tests/`, because a [`VmError`]
/// carries no pc: only the interpreter's own loop sees every register
/// at every instruction it executes.
#[cfg(test)]
mod verifier_soundness {
    use super::*;
    use crate::analysis::{analyze, RegState, RegType};
    use crate::asm::{reg::*, Asm, Size};
    use crate::jit;
    use crate::map::MapDef;
    use crate::program::{load, Program};
    use crate::test_programs::{corpus, mutate, record_scripts, Rng};

    /// The corpus listings, then the two record scripts the racks load,
    /// each with whether its map fd 0 is a perf ring (the records) or a
    /// counter array (the corpus's map program).
    fn sources() -> Vec<(Vec<Insn>, bool)> {
        let corpus = corpus().into_iter().map(|p| (p, false));
        corpus
            .chain(record_scripts().into_iter().map(|p| (p, true)))
            .collect()
    }

    /// An Ethernet + IPv4 frame carrying `l4` (a transport header and
    /// its payload) from `src` to `dst`.
    fn frame(proto: u8, src: [u8; 4], dst: [u8; 4], l4: &[u8]) -> Vec<u8> {
        let mut f = vec![2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x08, 0x00];
        let total = 20 + l4.len() as u16;
        f.extend([0x45, 0]);
        f.extend(total.to_be_bytes());
        f.extend([0, 1, 0x40, 0, 64, proto, 0, 0]);
        f.extend(src);
        f.extend(dst);
        f.extend(l4);
        f
    }

    fn udp(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
        let mut h = Vec::new();
        h.extend(sport.to_be_bytes());
        h.extend(dport.to_be_bytes());
        h.extend((8 + payload.len() as u16).to_be_bytes());
        h.extend([0, 0]);
        h.extend(payload);
        h
    }

    /// The compiled-program suite's four packets (a UDP datagram with a
    /// trace-ID trailer, the reversed flow, TCP with an MSS option
    /// before the trace-ID option, an empty frame) on the flow
    /// `record_flow.bpf` filters, then six prefixes of the first packet
    /// (0, 1, 14, 34, 42 and 63 bytes: no frame, torn Ethernet, bare
    /// Ethernet, bare IPv4, bare UDP, a short payload).
    fn packets() -> Vec<Vec<u8>> {
        let (a, b) = ([10, 0, 0, 2], [10, 1, 0, 2]);
        let (sport, dport) = (1024u16, 20_000u16);
        let mut payload = vec![7u8; 24];
        payload.extend(0x0bad_cafe_u32.to_be_bytes());
        let with_trailer = frame(17, a, b, &udp(sport, dport, &payload));
        let reversed = frame(17, b, a, &udp(dport, sport, &[3u8; 24]));
        let mut tcp = Vec::new();
        tcp.extend(sport.to_be_bytes());
        tcp.extend(dport.to_be_bytes());
        tcp.extend(1u32.to_be_bytes());
        tcp.extend(2u32.to_be_bytes());
        tcp.extend([8 << 4, 0x10, 0xff, 0xff, 0, 0, 0, 0]);
        tcp.extend([2, 4, 0x05, 0xb4, 253, 6]);
        tcp.extend(0x00c0_ffee_u32.to_be_bytes());
        tcp.extend([1, 1]);
        tcp.extend([5u8; 8]);
        let tcp = frame(6, a, b, &tcp);
        let mut out = vec![with_trailer.clone(), reversed, tcp, Vec::new()];
        out.extend([0, 1, 14, 34, 42, 63].map(|n| with_trailer[..n].to_vec()));
        out
    }

    /// The registers `insn` reads: its operands, `r0` at `exit`, and at
    /// a call `r1`..`rN` for the helper's `N` arguments.
    fn reads(insn: &Insn) -> Vec<usize> {
        let (dst, src) = (insn.dst as usize, insn.src as usize);
        let is_x = insn.opcode & 0x08 == BPF_X;
        match insn.class() {
            BPF_ALU | BPF_ALU64 => match insn.opcode & 0xf0 {
                BPF_MOV if is_x => vec![src],
                BPF_MOV => vec![],
                BPF_NEG | BPF_END => vec![dst],
                _ if is_x => vec![dst, src],
                _ => vec![dst],
            },
            BPF_LDX => vec![src],
            BPF_ST => vec![dst],
            BPF_STX => vec![dst, src],
            BPF_JMP | BPF_JMP32 => match insn.opcode & 0xf0 {
                BPF_EXIT => vec![0],
                BPF_CALL => (1..=helper_args(insn.imm)).collect(),
                BPF_JA => vec![],
                _ if is_x => vec![dst, src],
                _ => vec![dst],
            },
            _ => vec![], // lddw
        }
    }

    /// Does the abstract register `r` admit the concrete value `v`, in
    /// the address space of `mem`?
    fn admits(r: &RegState, v: u64, mem: &Memory<'_>) -> bool {
        let at = |off: u64| r.tnum.contains(off) && (r.umin..=r.umax).contains(&off);
        let map_value = |fd: i32| {
            (0..mem.slots.len()).any(|i| {
                let base = MAP_VAL_BASE + i as u64 * MAP_VAL_STRIDE;
                mem.slots.get(i).is_some_and(|s| s.fd == fd) && at(v.wrapping_sub(base))
            })
        };
        match r.ty {
            RegType::Uninit => false,
            RegType::Scalar => at(v) && (r.smin..=r.smax).contains(&(v as i64)),
            RegType::PtrToCtx => at(v.wrapping_sub(CTX_BASE)),
            RegType::PtrToStack => at(v.wrapping_sub(STACK_BASE)),
            RegType::PtrToMapValue { fd } => map_value(fd),
            RegType::PtrToMapValueOrNull { fd } => v == 0 || map_value(fd),
            RegType::ConstPtrToMap { fd } => v == MAP_HANDLE_BASE | u64::from(fd as u32),
        }
    }

    #[test]
    fn read_registers_lie_inside_the_verifier_states() {
        // Sound half of the verifier's contract, stated over the
        // registers an instruction reads: for every accepted program
        // (the corpus, the two rack record scripts and 2 400 seeded
        // mutants of them) on every packet, at every instruction the
        // interpreter executes, each register the instruction reads
        // holds a value its `state_at` row admits. A register nothing
        // reads is not checked: the verifier needs no claim about it.
        let sources = sources();
        let mut programs: Vec<_> = sources.clone();
        let mut rng = Rng(0x500d_5eed);
        for _ in 0..2_400 {
            let (insns, perf) = &sources[rng.below(sources.len() as u64) as usize];
            programs.push((mutate(&mut rng, insns), *perf));
        }
        let packets = packets();
        let helpers = standard_helpers();
        let (mut accepted, mut runs, mut checks) = (0usize, 0usize, 0usize);
        let mut failures = Vec::new();
        for (n, (insns, perf)) in programs.iter().enumerate() {
            let analysis = analyze(insns, &helpers);
            if !analysis.ok() {
                continue;
            }
            let mut maps = MapRegistry::new();
            let def = if *perf {
                MapDef::perf(4096)
            } else {
                MapDef::array(8, 4)
            };
            maps.create(def, 2).expect("map");
            let prog = Program::new("p", insns.clone());
            let Ok(loaded) = load(prog, &maps, &helpers) else {
                continue; // names a map fd this registry lacks
            };
            accepted += 1;
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
                let mut env = FixedEnv {
                    time_ns: 7777 + i as u64,
                    cpu: 1,
                    ..Default::default()
                };
                runs += 1;
                let observe = |pc: usize, reg: &[u64; NUM_REGS], mem: &Memory<'_>| {
                    let Some(state) = analysis.state_at(pc) else {
                        failures.push(format!("program {n} packet {i}: pc {pc} has no state"));
                        return;
                    };
                    for r in reads(&insns[pc]) {
                        checks += 1;
                        if !admits(&state[r], reg[r], mem) {
                            failures.push(format!(
                                "program {n} packet {i} pc {pc}: r{r} = {:#x} outside {}",
                                reg[r], state[r]
                            ));
                        }
                    }
                };
                // A run may fault: the property covers what ran first.
                let _ = Vm::new().run(&loaded, &ctx, pkt, &mut maps, &mut env, observe);
            }
        }
        assert!(
            failures.is_empty(),
            "{} failures, first: {:#?}",
            failures.len(),
            &failures[..failures.len().min(8)]
        );
        assert_eq!((accepted, runs, checks), (870, 8_700, 91_197));
    }

    /// Everything a run of `helper_probe` leaves behind: the return
    /// value, the perf records (the last one a snapshot of the 64 stack
    /// bytes below the frame pointer), the hash map's contents and the
    /// printk output.
    type Effects = (u64, Vec<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>, Vec<String>);

    /// A program that calls helper `id` with `args` meaningful
    /// arguments and `junk` in every register past them, then ships the
    /// stack to the perf ring; run on both tiers, which must agree.
    fn helper_probe(id: i32, args: u8, junk: [u64; 5]) -> Effects {
        let perf = |asm: Asm| asm.ld_map_fd(R2, 1).mov32_imm(R3, -1);
        let mut asm = Asm::new()
            .mov64(R9, R1)
            .st(Size::W, R10, -8, 1)
            .st(Size::DW, R10, -16, 77)
            .st(Size::DW, R10, -24, 0x0069_6868);
        let key = |asm: Asm| asm.ld_map_fd(R1, 0).mov64(R2, R10).add64_imm(R2, -8);
        asm = match id {
            helper_ids::MAP_LOOKUP_ELEM | helper_ids::MAP_DELETE_ELEM => key(asm),
            helper_ids::MAP_UPDATE_ELEM => key(asm)
                .st(Size::W, R10, -8, 2)
                .mov64(R3, R10)
                .add64_imm(R3, -16)
                .mov64_imm(R4, 0),
            helper_ids::TRACE_PRINTK => asm.mov64(R1, R10).add64_imm(R1, -24).mov64_imm(R2, 8),
            helper_ids::PERF_EVENT_OUTPUT => perf(asm.mov64(R1, R9))
                .mov64(R4, R10)
                .add64_imm(R4, -16)
                .mov64_imm(R5, 8),
            helper_ids::SKB_LOAD_BYTES => asm
                .mov64(R1, R9)
                .mov64_imm(R2, 2)
                .mov64(R3, R10)
                .add64_imm(R3, -48)
                .mov64_imm(R4, 16),
            helper_ids::KTIME_GET_NS
            | helper_ids::GET_PRANDOM_U32
            | helper_ids::GET_SMP_PROCESSOR_ID => asm,
            _ => panic!("helper {id} has no probe: add one"),
        };
        for r in args + 1..=5 {
            asm = asm.lddw(r, junk[usize::from(r) - 1]);
        }
        let insns = perf(asm.call(id).mov64(R6, R0).mov64(R1, R9))
            .mov64(R4, R10)
            .add64_imm(R4, -64)
            .mov64_imm(R5, 64)
            .call(helper_ids::PERF_EVENT_OUTPUT)
            .mov64(R0, R6)
            .exit()
            .build()
            .expect("probe assembles");
        let registry = || {
            let mut maps = MapRegistry::new();
            maps.create(MapDef::hash(4, 8, 16), 2).expect("hash");
            maps.create(MapDef::perf(4096), 2).expect("perf");
            let hash = maps.get_mut(0).expect("hash");
            hash.update(&1u32.to_le_bytes(), &5u64.to_le_bytes(), 0)
                .expect("seed");
            maps
        };
        let prog = Program::new("probe", insns);
        let loaded = load(prog, &registry(), &standard_helpers()).expect("probe loads");
        let pkt: Vec<u8> = (0..40).collect();
        let ctx = TraceContext {
            pkt_len: pkt.len() as u32,
            ..TraceContext::default()
        };
        let effects = |ret: u64, maps: &mut MapRegistry, env: FixedEnv| {
            let mut hash: Vec<_> = (maps.get(0).expect("hash").iter_hash())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            hash.sort();
            let records = maps.get_mut(1).expect("perf").perf_drain_all();
            (ret, records, hash, env.printk)
        };
        let env = || FixedEnv {
            time_ns: 99,
            cpu: 1,
            prandom_state: 5,
            printk: Vec::new(),
        };
        let (mut maps, mut e) = (registry(), env());
        let out = Vm::new().execute(&loaded, &ctx, &pkt, &mut maps, &mut e);
        let interp = effects(out.expect("interpreter runs").ret, &mut maps, e);
        let (mut maps, mut e) = (registry(), env());
        let out = jit::compile(&loaded).execute(&ctx, &pkt, &mut maps, &mut e);
        let threaded = effects(out.expect("threaded code runs").ret, &mut maps, e);
        assert_eq!(interp, threaded, "helper {id}: the tiers disagree");
        interp
    }

    #[test]
    fn helpers_read_no_register_past_their_argument_count() {
        // The verifier treats a call as reading `r1`..`rN` only, `N` the
        // helper's count in `HELPER_TABLE`. So whatever the registers past
        // `N` hold, every helper must leave the same effects, on both
        // tiers.
        let mut rng = Rng(0x00a7_9c0d);
        for &(id, args, _) in HELPER_TABLE {
            let reference = helper_probe(id, args, [0; 5]);
            for round in 0..16 {
                let junk = core::array::from_fn(|_| match round % 3 {
                    0 => rng.next(),
                    1 => rng.below(64),
                    _ => STACK_BASE + rng.below(STACK_SIZE as u64),
                });
                assert_eq!(
                    helper_probe(id, args, junk),
                    reference,
                    "helper {id} with {junk:x?} past r{args}"
                );
            }
        }
    }
}
