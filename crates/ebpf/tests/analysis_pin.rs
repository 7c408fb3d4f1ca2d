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
//! `loads_are_pinned` folds what `program::load` returns for the same
//! programs: the cost certificate of each one it admits, or its error.
//! The loader's walk may record less than `analyze` does, never decide
//! differently.
//!
//! `state_cap_joins_the_paths_into_one_summary` drives the per-pc state
//! cap: six two-way diamonds meet 2^6 distinct states at one pc, more
//! than the cap, and a single joined state walks on from there. The
//! diamond registers are read after the meet: were they dead there,
//! pruning over live registers would merge the 64 paths into one state
//! and the cap would never be reached.

use vnet_ebpf::{
    analyze, load, standard_helpers, Analysis, MapDef, MapRegistry, Program, RegState, RegType,
    Tnum,
};

#[allow(dead_code)] // this test uses only part of the shared file
#[path = "../src/test_programs.rs"]
mod test_programs;

use test_programs::{diamonds, mutants, named_corpus, Rng};
use vnet_ebpf::insn::Insn;

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

/// The 13 corpus listings and `diamonds(6)`, with the names the digest
/// folds.
fn sources() -> Vec<(String, Vec<Insn>)> {
    let mut sources = named_corpus();
    sources.push(("diamonds(6)".into(), diamonds(6, false)));
    sources
}

/// The 2 400 seeded mutants of [`sources`].
fn pin_mutants() -> Vec<Vec<Insn>> {
    let sources: Vec<_> = sources().into_iter().map(|(_, insns)| insns).collect();
    mutants(&mut Rng(0x5eed_a11a), &sources, 2_400)
}

#[test]
fn analysis_is_pinned() {
    let helpers = standard_helpers();
    let mut digest = Vec::new();
    for (name, insns) in sources() {
        digest.extend(name.bytes());
        fold(&mut digest, &insns, &analyze(&insns, &helpers));
    }
    // Accepted, rejected on a walked path (a diagnostic with registers),
    // rejected before any walk.
    let mut kinds = [0usize; 3];
    for m in pin_mutants() {
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
    sources()
        .into_iter()
        .map(|(_, insns)| insns)
        .chain(pin_mutants())
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

#[test]
fn loads_are_pinned() {
    // What the loader hands back: the certificate (worst case, insns
    // and the worst-to-here row of every slot) or the error, for every
    // program of `programs()`. Map fd 0 is the corpus's counter array and
    // fd 1 a perf ring, so a mutant naming any other fd fails relocation.
    let mut maps = MapRegistry::new();
    maps.create(MapDef::array(8, 4), 2).expect("array map");
    maps.create(MapDef::perf(4096), 2).expect("perf map");
    let helpers = standard_helpers();
    let mut digest = Vec::new();
    let mut kinds = [0usize; 2];
    for insns in programs() {
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &helpers);
        kinds[usize::from(loaded.is_err())] += 1;
        match loaded {
            Ok(p) => digest.extend(format!("{:?}", p.certificate()).bytes()),
            Err(e) => digest.extend(format!("{e:?}").bytes()),
        }
        digest.push(b'\n');
    }
    assert_eq!(kinds, [785, 1629], "load mix");
    assert_eq!(crc32(&digest), 0x0f0e_9b12);
}
