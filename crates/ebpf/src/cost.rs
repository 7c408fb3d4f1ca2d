//! The static cost model: per-op and per-helper charges, and the
//! longest-path worst-case certificate.
//!
//! The verifier's CFG is a DAG (backward jumps are rejected), so every
//! execution visits each instruction at most once and the worst-case
//! path cost is the longest path from the entry to any `exit` — an exact
//! bound computable in one forward pass, no widening, no loops to
//! summarise. [`certify`] runs that pass and attaches the result to the
//! loaded program; the certificate is *load-bearing*:
//!
//! * the agent rejects programs whose certified cost exceeds the
//!   configured probe budget **before** attaching them;
//! * the simulator charges the traced packet the per-path cost under
//!   the same table (the interpreter per retired instruction, the
//!   threaded tier per dispatched op), so the certificate is an upper
//!   bound on what any firing can ever cost the system;
//! * `vnt verify` renders the per-instruction worst-case-to-here
//!   column from the same artifact.
//!
//! The table is deliberately coarse — dispatch-granularity integers, not
//! measured nanoseconds — but it is *shared*: the certifier, the
//! interpreter, the threaded tier and the simulator all charge from
//! these constants, which is what makes "certified ≥ actual" a checked
//! invariant rather than a hope (see `tests/proptests.rs`).

use crate::analysis::Analysis;
use crate::insn::*;

/// Cost of one ALU op, move, endian swap or taken/kept branch: a single
/// dispatch.
pub const ALU_COST_NS: u64 = 1;
/// Cost of a memory load or store: dispatch plus region resolution.
pub const MEM_COST_NS: u64 = 2;
/// Cost of an atomic read-modify-write.
pub const ATOMIC_COST_NS: u64 = 4;
/// Dispatch cost of a helper call, on top of the helper's own charge.
pub const CALL_DISPATCH_COST_NS: u64 = 1;

/// Per-helper execution charge, on top of [`CALL_DISPATCH_COST_NS`].
/// Ids are [`crate::vm::helper_ids`]; unknown helpers get the default
/// charge (they abort at runtime anyway, so the bound stays sound).
pub fn helper_cost_ns(id: i32) -> u64 {
    use crate::vm::helper_ids::*;
    match id {
        MAP_LOOKUP_ELEM => 10,
        MAP_UPDATE_ELEM => 14,
        MAP_DELETE_ELEM => 12,
        KTIME_GET_NS => 4,
        TRACE_PRINTK => 8,
        GET_PRANDOM_U32 => 4,
        GET_SMP_PROCESSOR_ID => 2,
        PERF_EVENT_OUTPUT => 20,
        SKB_LOAD_BYTES => 8,
        _ => 10,
    }
}

/// The static charge for one instruction (an `lddw` pair counts once,
/// keyed on its first slot, matching how both tiers retire it).
pub fn insn_cost_ns(insn: &Insn) -> u64 {
    match insn.class() {
        BPF_LDX | BPF_ST => MEM_COST_NS,
        BPF_STX => {
            if insn.opcode & 0xe0 == BPF_ATOMIC {
                ATOMIC_COST_NS
            } else {
                MEM_COST_NS
            }
        }
        BPF_JMP if insn.opcode & 0xf0 == BPF_CALL => {
            CALL_DISPATCH_COST_NS + helper_cost_ns(insn.imm)
        }
        // ALU, lddw, jumps, exit: one dispatch each.
        _ => ALU_COST_NS,
    }
}

/// The certified worst-case execution cost of one program: the longest
/// path through its DAG CFG under the shared cost table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostCertificate {
    /// Worst-case cost of one execution, in model nanoseconds, excluding
    /// the fixed probe-entry cost ([`crate::vm::PROBE_BASE_COST_NS`]).
    pub worst_case_ns: u64,
    /// Worst-case instructions retired on any path (`lddw` counts one).
    pub worst_case_insns: u64,
    /// Per-slot worst-case cost *of any path reaching* the instruction,
    /// inclusive of the instruction itself; `None` for instructions no
    /// path reaches (dead code contributes nothing to the bound) and
    /// for `lddw` body slots.
    pub worst_to_here_ns: Vec<Option<u64>>,
}

impl CostCertificate {
    /// A zero certificate for an empty program.
    fn empty() -> Self {
        CostCertificate {
            worst_case_ns: 0,
            worst_case_insns: 0,
            worst_to_here_ns: Vec::new(),
        }
    }
}

/// Computes the cost certificate for a verified program.
///
/// Walks the instruction stream in index order (topological, since the
/// verifier rejects backward jumps) propagating the maximum cost and
/// instruction count over every CFG edge; the certificate is the maximum
/// over all `exit` instructions. `reachable(pc)` says whether the
/// verifier's walk reaches `pc` (the loader's verdict, or
/// `state_at(pc).is_some()` of an [`Analysis`]): statically dead
/// instructions do not inflate the bound. Conditional branches keep both
/// edges even when the walk decided them: the interpreter evaluates
/// every branch it meets.
pub fn certify(insns: &[Insn], reachable: impl Fn(usize) -> bool) -> CostCertificate {
    if insns.is_empty() {
        return CostCertificate::empty();
    }
    // (cost, insns) pair reaching each slot; entry starts at zero.
    let mut best: Vec<Option<(u64, u64)>> = vec![None; insns.len()];
    let mut to_here: Vec<Option<u64>> = vec![None; insns.len()];
    best[0] = Some((0, 0));
    let mut worst = (0u64, 0u64);

    let relax = |best: &mut Vec<Option<(u64, u64)>>, target: usize, cand: (u64, u64)| {
        if target >= best.len() {
            return;
        }
        let slot = &mut best[target];
        match slot {
            Some((c, n)) => {
                *c = (*c).max(cand.0);
                *n = (*n).max(cand.1);
            }
            None => *slot = Some(cand),
        }
    };

    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        let width = if insn.is_lddw() { 2 } else { 1 };
        let Some((cost_in, insns_in)) = best[pc] else {
            // Unreachable from entry (or a jump target the analysis
            // proved dead): skip, it cannot be on any executed path.
            pc += width;
            continue;
        };
        if !reachable(pc) && pc != 0 {
            pc += width;
            continue;
        }
        let here = (cost_in + insn_cost_ns(&insn), insns_in + 1);
        to_here[pc] = Some(here.0);
        match insn.class() {
            BPF_JMP | BPF_JMP32 => match insn.opcode & 0xf0 {
                BPF_EXIT => {
                    worst.0 = worst.0.max(here.0);
                    worst.1 = worst.1.max(here.1);
                }
                BPF_JA => {
                    let t = (pc as i64 + 1 + i64::from(insn.off)) as usize;
                    relax(&mut best, t, here);
                }
                BPF_CALL => relax(&mut best, pc + 1, here),
                _ => {
                    let t = (pc as i64 + 1 + i64::from(insn.off)) as usize;
                    relax(&mut best, t, here);
                    relax(&mut best, pc + 1, here);
                }
            },
            _ => relax(&mut best, pc + width, here),
        }
        pc += width;
    }

    CostCertificate {
        worst_case_ns: worst.0,
        worst_case_insns: worst.1,
        worst_to_here_ns: to_here,
    }
}

/// Renders the shared kernel-style annotated listing: every instruction
/// with its per-op charge and worst-case-to-here column, the analysis
/// annotations (`disassemble_annotated`), and a certificate footer.
/// `vnt verify` and the agent's over-budget report both print this
/// form.
pub fn render_cost_report(insns: &[Insn], analysis: &Analysis, cert: &CostCertificate) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:>6}  {:>4}  insn", "worst", "cost");
    let annotated = crate::disasm::disassemble_annotated(insns, analysis);
    let mut pc = 0usize;
    for line in &annotated {
        let cost = insn_cost_ns(&insns[pc]);
        match cert.worst_to_here_ns.get(pc).copied().flatten() {
            Some(w) => {
                let _ = writeln!(out, "{w:>6}  {cost:>4}  {line}");
            }
            None => {
                let _ = writeln!(out, "{:>6}  {:>4}  {line}", "-", "-");
            }
        }
        pc += if insns[pc].is_lddw() { 2 } else { 1 };
    }
    let _ = writeln!(
        out,
        "certified worst-case: {} ns over {} insn(s) (+{} ns probe entry)",
        cert.worst_case_ns,
        cert.worst_case_insns,
        crate::vm::PROBE_BASE_COST_NS,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::asm::{reg::*, Asm, Cond, Size};
    use crate::vm::{standard_helpers, FixedEnv, Vm};

    fn certified(asm: Asm) -> (Vec<Insn>, CostCertificate) {
        let insns = asm.build().expect("assembles");
        let analysis = analyze(&insns, &standard_helpers());
        assert!(analysis.ok(), "{:?}", analysis.diagnostics());
        let cert = certify(&insns, |pc| analysis.state_at(pc).is_some());
        (insns, cert)
    }

    #[test]
    fn straight_line_sums_costs() {
        let (insns, cert) = certified(Asm::new().mov64_imm(R0, 1).add64_imm(R0, 2).exit());
        assert_eq!(cert.worst_case_insns, 3);
        // mov + add + exit, one ALU charge each.
        assert_eq!(cert.worst_case_ns, 3 * ALU_COST_NS);
        assert_eq!(cert.worst_to_here_ns.len(), insns.len());
        assert_eq!(cert.worst_to_here_ns[0], Some(ALU_COST_NS));
        assert_eq!(cert.worst_to_here_ns[2], Some(3 * ALU_COST_NS));
    }

    #[test]
    fn branches_take_the_longer_arm() {
        // The packet length is unknown statically, so neither arm is
        // dead: one is a single mov, the other three movs.
        let (_, cert) = certified(
            Asm::new()
                .ldx(Size::W, R2, R1, crate::context::CTX_OFF_PKT_LEN)
                .jmp_imm(Cond::Eq, R2, 0, "short")
                .mov64_imm(R0, 1)
                .mov64_imm(R0, 2)
                .mov64_imm(R0, 3)
                .exit()
                .label("short")
                .mov64_imm(R0, 0)
                .exit(),
        );
        // Entry load + branch + the 3-mov arm + exit.
        assert_eq!(cert.worst_case_insns, 6);
        assert_eq!(cert.worst_case_ns, MEM_COST_NS + 5 * ALU_COST_NS);
    }

    #[test]
    fn helpers_and_memory_are_charged() {
        let (_, cert) = certified(
            Asm::new()
                .st(Size::DW, R10, -8, 7)
                .ldx(Size::DW, R0, R10, -8)
                .call(crate::vm::helper_ids::KTIME_GET_NS)
                .exit(),
        );
        assert_eq!(
            cert.worst_case_ns,
            MEM_COST_NS * 2
                + CALL_DISPATCH_COST_NS
                + helper_cost_ns(crate::vm::helper_ids::KTIME_GET_NS)
                + ALU_COST_NS
        );
        assert_eq!(cert.worst_case_insns, 4);
    }

    #[test]
    fn lddw_counts_once() {
        let (insns, cert) = certified(Asm::new().lddw(R0, 0x1_0000_0000).exit());
        assert_eq!(insns.len(), 3);
        assert_eq!(cert.worst_case_insns, 2);
        assert_eq!(cert.worst_to_here_ns[1], None, "lddw body has no cost row");
    }

    #[test]
    fn interpreter_path_cost_never_exceeds_certificate() {
        let asm = Asm::new()
            .mov64_imm(R1, 5)
            .jmp_imm(Cond::Gt, R1, 3, "big")
            .mov64_imm(R0, 0)
            .exit()
            .label("big")
            .st(Size::W, R10, -4, 9)
            .ldx(Size::W, R0, R10, -4)
            .exit();
        let insns = asm.build().unwrap();
        let analysis = analyze(&insns, &standard_helpers());
        let cert = certify(&insns, |pc| analysis.state_at(pc).is_some());
        let prog = crate::program::Program::new(
            "p",
            crate::program::AttachType::Kprobe("f".into()),
            insns,
        );
        let loaded =
            crate::program::load(prog, &crate::map::MapRegistry::new(), &standard_helpers())
                .unwrap();
        let mut maps = crate::map::MapRegistry::new();
        let mut env = FixedEnv::default();
        let out = Vm::new()
            .execute(
                &loaded,
                &crate::context::TraceContext::default(),
                &[],
                &mut maps,
                &mut env,
            )
            .unwrap();
        assert!(out.cost_ns <= cert.worst_case_ns);
        assert!(out.insns_executed <= cert.worst_case_insns);
    }

    #[test]
    fn report_renders_cost_columns() {
        let (insns, cert) = certified(Asm::new().mov64_imm(R0, 0).exit());
        let analysis = analyze(&insns, &standard_helpers());
        let report = render_cost_report(&insns, &analysis, &cert);
        assert!(report.contains("certified worst-case"));
        assert!(report.contains("exit"));
    }
}
