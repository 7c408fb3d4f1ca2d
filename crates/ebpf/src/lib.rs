//! # vnet-ebpf — an eBPF-compatible virtual machine
//!
//! vNetTracer's trace scripts are eBPF programs; this crate provides the
//! full in-kernel runtime the paper relies on, implemented from scratch:
//!
//! * [`insn`] — the Linux eBPF instruction encoding (byte-compatible);
//! * [`asm`] — an assembler with labels, used by vNetTracer's filter/action
//!   compiler;
//! * [`verifier`] — static safety checks, including the 4096-instruction
//!   limit the paper cites (§II) and loop rejection;
//! * [`vm`] — the interpreter, the reference the threaded code is held
//!   to, plus the helper table and the probe-entry and compile charges;
//! * [`jit`] — the threaded-code tier every probe runs: programs
//!   pre-decoded once into typed ops with resolved jumps, bound helper
//!   thunks and fused sequences, the simulator's stand-in for the
//!   kernel's JIT (§II);
//! * [`cost`] — the shared static cost model and the longest-path
//!   worst-case certificate every loaded program carries;
//! * [`map`] — hash / array / per-CPU / perf-event maps (the perf buffer
//!   honours the paper's 32 B..128 KiB−16 size constraint);
//! * [`program`] — programs, attach types (kprobe, kretprobe, tracepoint,
//!   raw socket, uprobe) and the loader with map-fd relocation;
//! * [`context`] — the fixed-layout context handed to programs.
//!
//! ## Example
//!
//! ```
//! use vnet_ebpf::asm::{reg::*, Asm};
//! use vnet_ebpf::context::TraceContext;
//! use vnet_ebpf::map::MapRegistry;
//! use vnet_ebpf::program::{load, Program};
//! use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let insns = Asm::new().mov64_imm(R0, 42).exit().build()?;
//! let prog = Program::new("answer", insns);
//! let mut maps = MapRegistry::new();
//! let loaded = load(prog, &maps, &standard_helpers())?;
//! let mut env = FixedEnv::default();
//! let out = Vm::new().execute(&loaded, &TraceContext::default(), &[], &mut maps, &mut env)?;
//! assert_eq!(out.ret, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod asm;
pub mod context;
pub mod cost;
pub mod disasm;
pub mod insn;
pub mod jit;
pub mod map;
pub mod parse;
pub mod program;
pub mod tnum;
pub mod verifier;
pub mod vm;

pub use analysis::{analyze, Analysis, Diagnostic, RegState, RegType};
pub use context::TraceContext;
pub use cost::{certify, render_cost_report, CostCertificate};
pub use insn::{Insn, MAX_INSNS};
pub use jit::{compile, CompiledProgram, JitOutcome};
pub use map::{MapDef, MapRegistry, MapType};
pub use program::{load, LoadedProgram, Loader, Program};
pub use tnum::Tnum;
pub use verifier::{verify, VerifyError};
pub use vm::{standard_helpers, ExecOutcome, Vm, VmEnv, VmError};

#[cfg(test)]
mod test_programs;
// `test_programs.rs` is shared with test crates that name this one.
#[cfg(test)]
extern crate self as vnet_ebpf;
