//! Property-based tests for the eBPF toolchain: the verifier is total,
//! verified programs terminate, and the interpreter respects its sandbox.

use proptest::prelude::*;
use vnet_ebpf::asm::{reg::*, AluOp, Asm, Cond, Size};
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::disasm::disassemble_annotated;
use vnet_ebpf::insn::*;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::parse::parse_program;
use vnet_ebpf::program::{load, LoadError, LoadedProgram, Program};
use vnet_ebpf::verifier::verify;
use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};

/// Runs one loaded program on the interpreter and on the threaded-code
/// tier, each against independent but identically-constructed map
/// registries, then checks the tier contract: same result or same error,
/// and the compiled program retires exactly the instruction count the
/// interpreter executed. On top of it sits the cost contract: both tiers
/// charge the same per-path cost (fused ops charge the sum of their
/// components), and both the dynamic cost and the retired instruction
/// count are bounded by the program's static certificate. Returns the
/// registries (interp, jit) so callers can compare map side effects.
fn run_both_tiers(
    loaded: &LoadedProgram,
    pkt: &[u8],
    mut mk_maps: impl FnMut() -> MapRegistry,
) -> (MapRegistry, MapRegistry) {
    let ctx = TraceContext::default();
    let mut maps_i = mk_maps();
    let mut env_i = FixedEnv::default();
    let interp = Vm::new().execute(loaded, &ctx, pkt, &mut maps_i, &mut env_i);
    let compiled = vnet_ebpf::jit::compile(loaded);
    let mut maps_j = mk_maps();
    let mut env_j = FixedEnv::default();
    let jit = compiled.execute(&ctx, pkt, &mut maps_j, &mut env_j);
    match (interp, jit) {
        (Ok(i), Ok(j)) => {
            assert_eq!(i.ret, j.ret, "tiers must return the same value");
            assert_eq!(
                i.insns_executed, j.insns_retired,
                "fused ops must retire the same instruction count"
            );
            assert_eq!(
                i.cost_ns, j.cost_ns,
                "tiers must charge the same per-path cost"
            );
            let cert = loaded.certificate();
            assert!(
                i.cost_ns <= cert.worst_case_ns,
                "dynamic cost {} ns exceeds certificate {} ns",
                i.cost_ns,
                cert.worst_case_ns
            );
            assert!(
                i.insns_executed <= cert.worst_case_insns,
                "retired {} insns exceeds certified bound {}",
                i.insns_executed,
                cert.worst_case_insns
            );
        }
        (Err(i), Err(j)) => assert_eq!(i, j, "tiers must abort identically"),
        (i, j) => panic!("tiers diverge: interp {i:?} vs jit {j:?}"),
    }
    (maps_i, maps_j)
}

/// Loads `insns` against an empty registry if the verifier accepts
/// them. Programs run as written, so an accepted stream that names a
/// map — even through a load nothing reads — is refused like any other
/// unknown fd: `None` too.
fn load_verified(insns: Vec<Insn>) -> Option<LoadedProgram> {
    verify(&insns, &standard_helpers()).ok()?;
    let prog = Program::new("p", insns);
    match load(prog, &MapRegistry::new(), &standard_helpers()) {
        Ok(loaded) => Some(loaded),
        Err(LoadError::UnknownMapFd { .. }) => None,
        Err(e) => panic!("verified stream failed to load: {e}"),
    }
}

/// `parse_program`'s contract on untrusted text: `Ok`, or a `ParseError`
/// naming a line of the input before which every line parses.
fn assert_parses_or_names_a_line(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let lines: Vec<&str> = text.split('\n').collect();
    if let Err(e) = parse_program(&lines) {
        assert!(e.line < lines.len(), "{e}, of {} lines", lines.len());
        assert!(
            parse_program(&lines[..e.line]).is_ok(),
            "lines before {e} parse"
        );
    }
}

/// The verifier corpus listings, read once.
fn corpus_listings() -> &'static [Vec<u8>] {
    static LISTINGS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    LISTINGS.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("corpus dir")
            .map(|e| e.expect("corpus entry").path())
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|p| std::fs::read(p).expect("corpus file"))
            .collect()
    })
}

/// Pieces of the listing grammar: inserted at random, they change a
/// line's structure rather than one of its values.
const LISTING_TOKENS: &[&str] = &[
    " ",
    "\n",
    "-",
    "r",
    "w",
    "r10",
    "wr3",
    "r11",
    "r255",
    "=",
    "+=",
    "s>>=",
    "*(",
    "u64",
    "u7",
    "*)(",
    ")",
    "),",
    "goto",
    "if",
    "==",
    "s<=",
    "lock",
    "call",
    "exit",
    "map_fd(",
    "atomic_fetch_add((",
    "be",
    "be16",
    "ll",
    "0x",
    "-32768",
    "32768",
    "2147483648",
    ";",
    "#",
    ":",
    "0:",
];

/// Bytes the listing grammar is written in, for lines that get past the
/// first token more often than arbitrary bytes do.
const LISTING_BYTES: &[u8] = b"rw0123456789 +-*/%()=<>&|^!sulx;#:abcdefgiopt\t";

/// One map's interpreter-visible contents, sorted for comparison.
fn hash_contents(maps: &MapRegistry, fd: i32) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut entries: Vec<_> = maps
        .get(fd)
        .expect("map exists")
        .iter_hash()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    entries.sort();
    entries
}

prop_compose! {
    fn arb_insn()(opcode in any::<u8>(), dst in 0u8..16, src in 0u8..16, off in any::<i16>(), imm in any::<i32>()) -> Insn {
        Insn { opcode, dst, src, off, imm }
    }
}

// One randomly chosen *encodable* instruction — a form the assembler can
// emit and the disassembler prints unambiguously. Yields one slot, or two
// for the `lddw` forms.
prop_compose! {
    fn arb_encodable()(
        kind in 0usize..21,
        dst in 0u8..11,
        src in 0u8..11,
        off in any::<i16>(),
        imm in any::<i32>(),
        wide in any::<u64>(),
        sel in any::<u8>(),
    ) -> Vec<Insn> {
        let alu_ops = [BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_OR, BPF_AND,
                       BPF_LSH, BPF_RSH, BPF_MOD, BPF_XOR, BPF_MOV, BPF_ARSH];
        let jmp_ops = [BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE, BPF_JLT, BPF_JLE,
                       BPF_JSET, BPF_JSGT, BPF_JSGE, BPF_JSLT, BPF_JSLE];
        let sizes = [BPF_W, BPF_H, BPF_B, BPF_DW];
        let alu = alu_ops[usize::from(sel) % alu_ops.len()];
        let jmp = jmp_ops[usize::from(sel) % jmp_ops.len()];
        let size = sizes[usize::from(sel) % sizes.len()];
        let atomic_size = [BPF_W, BPF_DW][usize::from(sel) % 2];
        match kind {
            0 => vec![Insn::new(BPF_ALU64 | alu | BPF_K, dst, 0, 0, imm)],
            1 => vec![Insn::new(BPF_ALU | alu | BPF_K, dst, 0, 0, imm)],
            2 => vec![Insn::new(BPF_ALU64 | alu | BPF_X, dst, src, 0, 0)],
            3 => vec![Insn::new(BPF_ALU | alu | BPF_X, dst, src, 0, 0)],
            4 => vec![Insn::new(BPF_ALU64 | BPF_NEG, dst, 0, 0, 0)],
            5 => vec![Insn::new(BPF_ALU | BPF_NEG, dst, 0, 0, 0)],
            6 => vec![Insn::new(BPF_ALU | BPF_END | BPF_X, dst, 0, 0,
                                [16, 32, 64][usize::from(sel) % 3])],
            7 => vec![
                Insn::new(BPF_LD | BPF_IMM | BPF_DW, dst, 0, 0, wide as u32 as i32),
                Insn::new(0, 0, 0, 0, (wide >> 32) as u32 as i32),
            ],
            8 => vec![
                Insn::new(BPF_LD | BPF_IMM | BPF_DW, dst, PSEUDO_MAP_FD, 0, imm),
                Insn::new(0, 0, 0, 0, 0),
            ],
            9 => vec![Insn::new(BPF_LDX | BPF_MEM | size, dst, src, off, 0)],
            10 => vec![Insn::new(BPF_ST | BPF_MEM | size, dst, 0, off, imm)],
            11 => vec![Insn::new(BPF_STX | BPF_MEM | size, dst, src, off, 0)],
            12 => vec![Insn::new(BPF_STX | BPF_ATOMIC | atomic_size, dst, src, off,
                                 BPF_ADD as i32)],
            13 => vec![Insn::new(BPF_STX | BPF_ATOMIC | atomic_size, dst, src, off,
                                 BPF_ADD as i32 | BPF_FETCH)],
            14 => vec![Insn::new(BPF_JMP | BPF_JA, 0, 0, off, 0)],
            15 => vec![Insn::new(BPF_JMP | jmp | BPF_K, dst, 0, off, imm)],
            16 => vec![Insn::new(BPF_JMP32 | jmp | BPF_K, dst, 0, off, imm)],
            17 => vec![Insn::new(BPF_JMP | jmp | BPF_X, dst, src, off, 0)],
            18 => vec![Insn::new(BPF_JMP32 | jmp | BPF_X, dst, src, off, 0)],
            19 => vec![Insn::new(BPF_JMP | BPF_CALL, 0, 0, 0, imm)],
            _ => vec![Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0)],
        }
    }
}

// A random hash-map workload shaped like a real trace script: per step,
// update (op 0), delete (op 1) or lookup + in-place counter bump (op 2)
// under a random small key, finishing with a perf record emission.
prop_compose! {
    fn arb_map_ops()(ops in proptest::collection::vec((0u8..3, 0u32..8, any::<i32>()), 1..24)) -> Vec<(u8, u32, i32)> {
        ops
    }
}

/// Assembles the [`arb_map_ops`] workload against a hash map `fd` and a
/// perf buffer `perf_fd`.
fn assemble_map_workload(ops: &[(u8, u32, i32)], fd: i32, perf_fd: i32) -> Vec<Insn> {
    // The context is the perf output's first argument; the calls before
    // it clobber `r1`.
    let mut asm = Asm::new().mov64(R6, R1);
    for (i, &(op, key, val)) in ops.iter().enumerate() {
        asm = asm.st(Size::W, R10, -4, key as i32);
        match op {
            0 => {
                asm = asm
                    .mov64_imm(R2, val)
                    .stx(Size::DW, R10, R2, -16)
                    .ld_map_fd(R1, fd)
                    .mov64(R2, R10)
                    .add64_imm(R2, -4)
                    .mov64(R3, R10)
                    .add64_imm(R3, -16)
                    .mov64_imm(R4, 0)
                    .call(vnet_ebpf::vm::helper_ids::MAP_UPDATE_ELEM);
            }
            1 => {
                asm = asm
                    .ld_map_fd(R1, fd)
                    .mov64(R2, R10)
                    .add64_imm(R2, -4)
                    .call(vnet_ebpf::vm::helper_ids::MAP_DELETE_ELEM);
            }
            _ => {
                let merge = format!("merge{i}");
                asm = asm
                    .ld_map_fd(R1, fd)
                    .mov64(R2, R10)
                    .add64_imm(R2, -4)
                    .call(vnet_ebpf::vm::helper_ids::MAP_LOOKUP_ELEM)
                    .jmp_imm(Cond::Eq, R0, 0, &merge)
                    .ldx(Size::DW, R2, R0, 0)
                    .add64_imm(R2, 1)
                    .stx(Size::DW, R0, R2, 0)
                    .label(&merge);
            }
        }
    }
    asm.mov64_imm(R2, 0x5eed)
        .stx(Size::DW, R10, R2, -8)
        .mov64(R1, R6)
        .mov64(R4, R10)
        .add64_imm(R4, -8)
        .ld_map_fd(R2, perf_fd)
        .mov32_imm(R3, 0xffff_ffffu32 as i32) // BPF_F_CURRENT_CPU
        .mov64_imm(R5, 8)
        .call(vnet_ebpf::vm::helper_ids::PERF_EVENT_OUTPUT)
        .exit()
        .build()
        .expect("workload assembles")
}

// A random straight-line ALU program over initialised registers, always
// ending in exit. Every such program must verify and execute.
prop_compose! {
    fn arb_alu_program()(ops in proptest::collection::vec((0usize..8, 0u8..5, any::<i32>()), 1..64)) -> Vec<Insn> {
        let mut asm = Asm::new();
        // Initialise r0..r4.
        for r in 0..5u8 {
            asm = asm.mov64_imm(r, i32::from(r) + 1);
        }
        for (op, reg, imm) in ops {
            let alu = [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Or, AluOp::And,
                       AluOp::Xor, AluOp::Lsh, AluOp::Rsh][op];
            // Shift amounts are masked by the VM; immediates are safe.
            asm = asm.alu64_imm(alu, reg, imm);
        }
        asm.exit().build().expect("assembles")
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

    /// Arbitrary lines, each byte either any byte or one of the listing
    /// grammar's, never panic the listing parser: `Ok`, or an error on a
    /// line of the input.
    #[test]
    fn listing_parser_is_total_on_arbitrary_lines(
        bytes in proptest::collection::vec((any::<bool>(), any::<u8>()), 0..400),
    ) {
        let bytes: Vec<u8> = bytes
            .into_iter()
            .map(|(grammar, b)| {
                if grammar {
                    LISTING_BYTES[usize::from(b) % LISTING_BYTES.len()]
                } else {
                    b
                }
            })
            .collect();
        assert_parses_or_names_a_line(&bytes);
    }

    /// A corpus listing with grammar tokens inserted, a span deleted and
    /// bits flipped parses or names a line of the input.
    #[test]
    fn listing_parser_is_total_on_mutated_corpus(
        file in 0usize..1 << 10,
        inserts in proptest::collection::vec((0usize..1 << 20, 0..LISTING_TOKENS.len()), 0..4),
        remove in (0usize..1 << 20, 0usize..40),
        flips in proptest::collection::vec((0usize..1 << 20, 0u8..8), 0..3),
    ) {
        let listings = corpus_listings();
        let mut bytes = listings[file % listings.len()].clone();
        for (at, token) in inserts {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, LISTING_TOKENS[token].bytes());
        }
        if !bytes.is_empty() {
            let from = remove.0 % bytes.len();
            bytes.drain(from..(from + remove.1).min(bytes.len()));
        }
        for (at, bit) in flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
        }
        assert_parses_or_names_a_line(&bytes);
    }
}

proptest! {
    /// The verifier never panics, whatever bytes it is fed.
    #[test]
    fn verifier_total_on_garbage(insns in proptest::collection::vec(arb_insn(), 0..128)) {
        let _ = verify(&insns, &standard_helpers()); // must not panic
    }

    /// Random straight-line ALU programs verify, load, run to their end
    /// and never touch memory.
    #[test]
    fn random_alu_programs_execute(insns in arb_alu_program()) {
        let maps = MapRegistry::new();
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &standard_helpers()).expect("verifies");
        let mut maps = MapRegistry::new();
        let mut env = FixedEnv::default();
        let out = Vm::new()
            .execute(&loaded, &TraceContext::default(), &[], &mut maps, &mut env)
            .expect("executes");
        prop_assert!(out.insns_executed <= 4096 + 6);
    }

    /// A verified program's execution is deterministic.
    #[test]
    fn execution_deterministic(insns in arb_alu_program()) {
        let maps = MapRegistry::new();
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let run = || {
            let mut maps = MapRegistry::new();
            let mut env = FixedEnv::default();
            Vm::new()
                .execute(&loaded, &TraceContext::default(), &[], &mut maps, &mut env)
                .unwrap()
                .ret
        };
        prop_assert_eq!(run(), run());
    }

    /// Whatever a program computes as an address, loads through it either
    /// succeed inside a region or abort cleanly — never panic.
    #[test]
    fn wild_loads_abort_cleanly(addr in any::<i32>(), pkt_len in 0usize..64) {
        let insns = Asm::new()
            .mov64_imm(R2, addr)
            .ldx(vnet_ebpf::asm::Size::DW, R0, R2, 0)
            .exit()
            .build()
            .unwrap();
        let maps = MapRegistry::new();
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let mut maps = MapRegistry::new();
        let mut env = FixedEnv::default();
        let pkt = vec![0u8; pkt_len];
        let _ = Vm::new().execute(&loaded, &TraceContext::default(), &pkt, &mut maps, &mut env);
    }

    /// Arbitrary instruction streams never panic the toolchain: either
    /// the verifier rejects the stream, or the program loads and the
    /// interpreter terminates within `MAX_INSNS` steps (possibly with a
    /// clean runtime error).
    #[test]
    fn garbage_streams_verify_or_terminate(insns in proptest::collection::vec(arb_insn(), 0..256)) {
        if let Some(loaded) = load_verified(insns) {
            let mut maps = MapRegistry::new();
            let mut env = FixedEnv::default();
            let pkt = [0u8; 64];
            if let Ok(out) = Vm::new().execute(&loaded, &TraceContext::default(), &pkt, &mut maps, &mut env) {
                prop_assert!(out.insns_executed <= MAX_INSNS as u64 + 6);
            }
        }
    }

    /// The annotated listing of any encodable program parses back to the
    /// original instructions, field for field.
    #[test]
    fn disasm_parse_round_trip(chunks in proptest::collection::vec(arb_encodable(), 0..64)) {
        let insns: Vec<Insn> = chunks.into_iter().flatten().collect();
        let analysis = vnet_ebpf::analyze(&insns, &standard_helpers());
        let listing = disassemble_annotated(&insns, &analysis);
        let parsed = parse_program(&listing)
            .unwrap_or_else(|e| panic!("{e}\nlisting: {listing:#?}"));
        prop_assert_eq!(parsed, insns);
    }

    /// Differential: on every verifier-accepted instruction stream — not
    /// just well-formed programs — the threaded-code tier returns the
    /// interpreter's value, retires the interpreter's instruction count,
    /// charges the interpreter's cost (within the static certificate) and
    /// aborts with the interpreter's exact error.
    #[test]
    fn tiers_agree_on_verified_garbage(
        insns in proptest::collection::vec(arb_insn(), 0..256),
        pkt_len in 0usize..64,
    ) {
        if let Some(loaded) = load_verified(insns) {
            let pkt = vec![0u8; pkt_len];
            run_both_tiers(&loaded, &pkt, MapRegistry::new);
        }
    }

    /// Differential: random ALU programs (always accepted) compute the
    /// same value on both tiers.
    #[test]
    fn tiers_agree_on_alu_programs(insns in arb_alu_program()) {
        let maps = MapRegistry::new();
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &standard_helpers()).expect("verifies");
        run_both_tiers(&loaded, &[], MapRegistry::new);
    }

    /// Differential: random map workloads leave byte-identical hash-map
    /// contents and emit byte-identical perf records on both tiers —
    /// the side effects the collector turns into trace records — at one
    /// cost, within the certificate.
    #[test]
    fn tiers_agree_on_map_side_effects(ops in arb_map_ops()) {
        let mk_maps = || {
            let mut m = MapRegistry::new();
            m.create(MapDef::hash(4, 8, 16), 1).unwrap();
            m.create(MapDef::perf(4096), 4).unwrap();
            m
        };
        let maps = mk_maps();
        let prog = Program::new(
            "p",
            assemble_map_workload(&ops, 0, 1),
        );
        let loaded = load(prog, &maps, &standard_helpers()).expect("workload verifies");
        let (mut maps_i, mut maps_j) = run_both_tiers(&loaded, &[], mk_maps);
        prop_assert_eq!(hash_contents(&maps_i, 0), hash_contents(&maps_j, 0));
        let recs_i = maps_i.get_mut(1).unwrap().perf_drain_all();
        let recs_j = maps_j.get_mut(1).unwrap().perf_drain_all();
        prop_assert_eq!(&recs_i, &recs_j);
    }

    /// Every rejection names an in-bounds instruction: whatever bytes the
    /// analysis is fed, each diagnostic (and the legacy first error)
    /// points inside the program so `vnt verify` can annotate the
    /// offending line. (Empty/oversized programs have no insn to name.)
    #[test]
    fn rejections_name_in_bounds_insns(insns in proptest::collection::vec(arb_insn(), 1..200)) {
        let analysis = vnet_ebpf::analyze(&insns, &standard_helpers());
        if !analysis.ok() {
            for d in analysis.diagnostics() {
                prop_assert!(
                    d.insn < insns.len(),
                    "diagnostic names insn {} of {}",
                    d.insn,
                    insns.len()
                );
            }
            if let Some(i) = analysis.diagnostics().first().and_then(|d| d.error.insn()) {
                prop_assert!(i < insns.len());
            }
        }
    }

    /// Perf buffers never deliver more bytes than their capacity between
    /// drains, and account every overflow as lost.
    #[test]
    fn perf_buffer_conservation(
        sizes in proptest::collection::vec(1usize..128, 1..64),
        cap in 32u32..4096,
    ) {
        let mut map = vnet_ebpf::map::Map::new(vnet_ebpf::map::MapDef::perf(cap), 1).unwrap();
        let mut pushed = 0usize;
        for s in &sizes {
            map.perf_output(0, &vec![0u8; *s]).unwrap();
            pushed += 1;
        }
        let drained = map.perf_drain(0);
        let drained_bytes: usize = drained.iter().map(Vec::len).sum();
        prop_assert!(drained_bytes <= cap as usize);
        prop_assert_eq!(drained.len() as u64 + map.perf_lost(0), pushed as u64);
    }
}

/// One step of a perf-ring workload: push a record of this many bytes,
/// or drain the ring whole.
#[derive(Debug, Clone, Copy)]
enum RingOp {
    Push(usize),
    Drain,
}

/// Runs `ops` against one perf ring of `cap` bytes and against a model
/// of it — a FIFO of records under a byte budget, where a record that
/// does not fit in what the pending records leave is lost — and checks
/// after every step that both hold the same loss count, and at every
/// drain that both hand over the same records in the same order.
/// Each record's bytes are its push number, so reordered or torn
/// records show.
fn check_ring_against_model(cap: u32, ops: &[RingOp]) {
    let mut map = vnet_ebpf::map::Map::new(MapDef::perf(cap), 1).unwrap();
    let mut model: Vec<Vec<u8>> = Vec::new();
    let mut model_lost = 0u64;
    let ops = ops.iter().chain(std::iter::once(&RingOp::Drain));
    for (step, op) in ops.enumerate() {
        match *op {
            RingOp::Push(size) => {
                let record: Vec<u8> = (0..size).map(|i| (step + i) as u8).collect();
                map.perf_output(0, &record).unwrap();
                let pending: usize = model.iter().map(Vec::len).sum();
                if size > cap as usize - pending {
                    model_lost += 1;
                } else {
                    model.push(record);
                }
            }
            RingOp::Drain => {
                let mut drained = Vec::new();
                let n = map.perf_drain_with(0, |raw| drained.push(raw.to_vec()));
                assert_eq!(n, drained.len(), "step {step}: drain count");
                assert_eq!(
                    drained,
                    std::mem::take(&mut model),
                    "step {step}: drained records"
                );
            }
        }
        assert_eq!(map.perf_lost(0), model_lost, "step {step}: records lost");
    }
}

/// Fixed workloads on a 32-byte ring: a record pushed after a drain
/// that left the old ring's cursor mid-buffer (it used to wrap past the
/// end and be reassembled), records on both sides of such a point kept
/// in FIFO order, an exact fill, and a record one byte over capacity.
#[test]
fn perf_ring_matches_model_on_fixed_cases() {
    use RingOp::{Drain, Push};
    let cases: [&[RingOp]; 5] = [
        &[Push(20), Drain, Push(24), Drain],
        &[Push(24), Drain, Push(16), Push(16), Drain],
        &[Push(16), Push(16), Push(16), Push(1), Drain, Push(8)],
        &[Push(33), Push(32), Push(1), Drain, Push(32)],
        &[Push(31), Drain, Push(31), Drain, Push(31), Push(1), Push(1)],
    ];
    for ops in cases {
        check_ring_against_model(32, ops);
    }
}

// Record sizes: the trace record's 32 bytes, any size up to eight bytes
// past the capacity, or a small size that is rarely a multiple of 32.
prop_compose! {
    fn arb_ring_workload()(
        cap in 32u32..4096,
        ops in proptest::collection::vec((0u8..4, any::<u32>()), 0..96),
    ) -> (u32, Vec<RingOp>) {
        let ops = ops
            .into_iter()
            .map(|(kind, n)| match kind {
                0 => RingOp::Drain,
                1 => RingOp::Push(32),
                2 => RingOp::Push(1 + n as usize % (cap as usize + 8)),
                _ => RingOp::Push(1 + n as usize % 48),
            })
            .collect();
        (cap, ops)
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

    /// Random pushes interleaved with whole drains leave a perf ring
    /// exactly where the byte-budget FIFO model is: same records, same
    /// order, same loss count after every step.
    #[test]
    fn perf_ring_matches_byte_budget_fifo_model(workload in arb_ring_workload()) {
        let (cap, ops) = workload;
        check_ring_against_model(cap, &ops);
    }
}
