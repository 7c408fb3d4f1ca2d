//! The verifier's whole answer, pinned.
//!
//! `analysis_is_pinned` folds the complete [`Analysis`] of every corpus
//! listing, of six diamonds (below) and of a seeded set of their
//! mutants into one CRC-32: each diagnostic's error, instruction and the
//! register state recorded with it, and the joined state at every
//! instruction. A mutant perturbs one to three `off`/`imm`/`dst`/`src`
//! fields, so the set mixes accepted programs, structural rejections
//! and rejections found on a walked path, where the order in which the
//! walk steps its states decides which registers a diagnostic records.
//! Any change to the analysis that is meant to keep its answers has to
//! leave the digest where it is.
//!
//! `verdicts_are_pinned` folds only what the verifier decides for the
//! same programs: accepted, or the first diagnostic's error and
//! instruction. It also bounds how many diagnostics each program may
//! report, so a change to the walk may drop a trailing diagnostic but
//! never add one.
//!
//! `state_cap_joins_the_paths_into_one_summary` drives the per-pc state
//! cap: six two-way diamonds meet 2^6 distinct states at one pc, more
//! than the cap, and a single joined state walks on from there. The
//! diamond registers are read after the meet: were they dead there,
//! pruning over live registers would merge the 64 paths into one state
//! and the cap would never be reached.

use std::path::Path;

use vnet_ebpf::insn::Insn;
use vnet_ebpf::parse::parse_program;
use vnet_ebpf::{analyze, standard_helpers, Analysis, RegState, RegType, Tnum};

/// `k` diamonds over `r2`..`r(k+1)`: each register is loaded from the
/// context, and the `== 0` edge leaves it 0 while the other path sets it
/// to 1, so 2^k distinct states meet after the last diamond. The read
/// of the never-written `r8` there is rejected with the register state
/// the walk carries into it. With `read_after`, the diamond registers
/// are summed into `r0` behind that read, so they are live where the
/// paths meet and pruning cannot merge the 2^k states; without it they
/// are dead there.
fn diamonds(k: u8, read_after: bool) -> Vec<Insn> {
    let mut src = String::new();
    for r in 2..2 + k {
        src.push_str(&format!(
            "r{r} = *(u8 *)(r1 +{r})\nif r{r} == 0 goto +1\nr{r} = 1\n"
        ));
    }
    src.push_str("r0 = r8\n");
    if read_after {
        for r in 2..2 + k {
            src.push_str(&format!("r0 += r{r}\n"));
        }
    }
    src.push_str("exit\n");
    let lines: Vec<&str> = src.lines().collect();
    parse_program(&lines).expect("diamond listing parses")
}

fn corpus() -> Vec<(String, Vec<Insn>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bpf"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("read corpus file");
            let lines: Vec<&str> = text.lines().collect();
            let insns = parse_program(&lines).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, insns)
        })
        .collect()
}

/// SplitMix64: a fixed, dependency-free stream for the mutants.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Perturbs one to three fields of `insns`. Registers stay mostly in
/// range and offsets and immediates mostly near their old values, so
/// most mutants still parse as programs the walk can enter.
fn mutate(rng: &mut Rng, insns: &[Insn]) -> Vec<Insn> {
    let mut out = insns.to_vec();
    for _ in 0..1 + rng.below(3) {
        let i = rng.below(out.len() as u64) as usize;
        let insn = &mut out[i];
        match rng.below(4) {
            0 => insn.off = insn.off.wrapping_add(rng.below(9) as i16 - 4),
            1 => {
                insn.imm = match rng.below(4) {
                    0 => 0,
                    1 => insn.imm.wrapping_add(rng.below(9) as i32 - 4),
                    2 => rng.below(64) as i32 - 8,
                    _ => rng.next() as i32,
                }
            }
            2 => insn.dst = rng.below(12) as u8,
            _ => insn.src = rng.below(12) as u8,
        }
    }
    out
}

fn fold_reg(digest: &mut Vec<u8>, r: &RegState) {
    digest.extend(format!("{:?}", r.ty).bytes());
    for v in [r.tnum.value, r.tnum.mask, r.umin, r.umax] {
        digest.extend(v.to_le_bytes());
    }
    digest.extend(r.smin.to_le_bytes());
    digest.extend(r.smax.to_le_bytes());
    digest.extend(format!("{r};").bytes());
}

fn fold(digest: &mut Vec<u8>, insns: &[Insn], a: &Analysis) {
    for d in a.diagnostics() {
        digest.extend(format!("{:?}@{}:", d.error, d.insn).bytes());
        match &d.regs {
            Some(regs) => regs.iter().for_each(|r| fold_reg(digest, r)),
            None => digest.push(b'-'),
        }
        digest.push(b'\n');
    }
    for pc in 0..insns.len() {
        match a.state_at(pc) {
            Some(regs) => regs.iter().for_each(|r| fold_reg(digest, r)),
            None => digest.push(b'-'),
        }
        digest.push(b'\n');
    }
}

/// CRC-32 (IEEE, reflected), bit by bit.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

const MUTANTS: usize = 2_400;

#[test]
fn analysis_is_pinned() {
    let mut sources = corpus();
    assert_eq!(sources.len(), 13, "the corpus changed size");
    sources.push(("diamonds(6)".into(), diamonds(6, false)));

    let helpers = standard_helpers();
    let mut digest = Vec::new();
    for (name, insns) in &sources {
        digest.extend(name.bytes());
        fold(&mut digest, insns, &analyze(insns, &helpers));
    }
    // Accepted, rejected on a walked path (a diagnostic with registers),
    // rejected before any walk.
    let mut kinds = [0usize; 3];
    let mut rng = Rng(0x5eed_a11a);
    for _ in 0..MUTANTS {
        let (_, insns) = &sources[rng.below(sources.len() as u64) as usize];
        let m = mutate(&mut rng, insns);
        let a = analyze(&m, &helpers);
        kinds[match a.diagnostics() {
            [] => 0,
            ds if ds.iter().any(|d| d.regs.is_some()) => 1,
            _ => 2,
        }] += 1;
        fold(&mut digest, &m, &a);
    }
    assert_eq!(kinds, [779, 1020, 601], "mutant mix");
    assert_eq!(crc32(&digest), 0x67ed_7add);
}

#[test]
fn state_cap_joins_the_paths_into_one_summary() {
    let helpers = standard_helpers();
    let bit = RegState {
        ty: RegType::Scalar,
        tnum: Tnum { value: 0, mask: 1 },
        umin: 0,
        umax: 1,
        smin: 0,
        smax: 1,
    };
    for (k, capped) in [(5u8, false), (6, true)] {
        let insns = diamonds(k, true);
        let (merge, bits) = (3 * k as usize, 2..2 + k as usize);
        let a = analyze(&insns, &helpers);
        // The join at the merge point is the same either way.
        let joined = a.state_at(merge).expect("reachable");
        assert_eq!(joined[bits.clone()], vec![bit; k as usize][..], "k={k}");
        assert_eq!(joined[1], RegState::ptr(RegType::PtrToCtx));
        // The rejection records the state the walk carried: under the
        // cap, the first path's own (every diamond register 0); over it,
        // the single summary of all 2^k paths, which is the join.
        let [d] = a.diagnostics() else {
            panic!("k={k}: {:?}", a.diagnostics())
        };
        assert_eq!(d.insn, merge);
        let mut want = *joined;
        if !capped {
            want[bits].fill(RegState::constant(0));
        }
        assert_eq!(d.regs, Some(want), "k={k}");
    }
}

/// The corpus, `diamonds(6)` and the seeded mutants of
/// `analysis_is_pinned`, in its order.
fn programs() -> Vec<Vec<Insn>> {
    let mut sources = corpus();
    sources.push(("diamonds(6)".into(), diamonds(6, false)));
    let mut rng = Rng(0x5eed_a11a);
    let mutants: Vec<_> = (0..MUTANTS)
        .map(|_| {
            let (_, insns) = &sources[rng.below(sources.len() as u64) as usize];
            mutate(&mut rng, insns)
        })
        .collect();
    sources
        .into_iter()
        .map(|(_, insns)| insns)
        .chain(mutants)
        .collect()
}

/// The programs of [`programs`], by index, that report more than one
/// diagnostic, grouped by how many. A change to the walk may drop a
/// trailing diagnostic; none may add one.
const MULTI: [(usize, &[usize]); 2] = [
    (
        2,
        &[
            10, 22, 27, 31, 54, 66, 72, 75, 86, 91, 92, 99, 119, 135, 164, 213, 245, 294, 315, 357,
            359, 382, 401, 426, 429, 452, 458, 464, 469, 472, 525, 563, 578, 582, 597, 614, 628,
            637, 651, 701, 702, 703, 725, 727, 734, 740, 747, 794, 798, 811, 867, 875, 880, 895,
            909, 920, 944, 957, 973, 979, 988, 1001, 1011, 1013, 1024, 1026, 1027, 1040, 1098,
            1126, 1133, 1134, 1146, 1173, 1176, 1207, 1214, 1218, 1240, 1255, 1261, 1305, 1320,
            1350, 1363, 1380, 1392, 1406, 1412, 1415, 1421, 1435, 1445, 1474, 1504, 1538, 1545,
            1583, 1594, 1609, 1623, 1639, 1649, 1680, 1707, 1732, 1733, 1744, 1767, 1793, 1817,
            1829, 1832, 1838, 1846, 1865, 1868, 1946, 1972, 1989, 2015, 2016, 2025, 2043, 2062,
            2068, 2071, 2088, 2104, 2114, 2121, 2126, 2129, 2144, 2147, 2159, 2164, 2171, 2223,
            2228, 2266, 2294, 2328, 2334, 2351, 2362, 2386, 2401, 2406,
        ],
    ),
    (3, &[1145]),
];

/// The most diagnostics program `i` may report, given whether it is
/// rejected.
fn diagnostic_bound(i: usize, rejected: bool) -> usize {
    MULTI
        .iter()
        .find(|(_, ids)| ids.contains(&i))
        .map_or(usize::from(rejected), |&(n, _)| n)
}

#[test]
fn verdicts_are_pinned() {
    // The verdict alone: accepted, or the first diagnostic's error and
    // instruction. Unlike `analysis_is_pinned`, this digest does not
    // see register states, so it holds across any change to the walk
    // that keeps what the verifier decides.
    let helpers = standard_helpers();
    let mut digest = Vec::new();
    for (i, insns) in programs().iter().enumerate() {
        let a = analyze(insns, &helpers);
        match a.diagnostics().first() {
            None => digest.extend(b"accepted"),
            Some(d) => digest.extend(format!("{:?}@{}", d.error, d.insn).bytes()),
        }
        digest.push(b'\n');
        let n = a.diagnostics().len();
        assert!(
            n <= diagnostic_bound(i, n > 0),
            "program {i} gained a diagnostic: {:?}",
            a.diagnostics()
        );
    }
    assert_eq!(crc32(&digest), 0x559a_b575);
}
