//! Programs the verifier's unit tests share: the corpus listings, the
//! two rack record scripts, the state-cap diamonds and seeded mutants.
//! `tests/analysis_pin.rs` builds the same sets in its own crate.

use std::path::{Path, PathBuf};

use crate::insn::Insn;
use crate::parse::parse_program;

/// SplitMix64: a fixed, dependency-free stream.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Perturbs one to three `off`/`imm`/`dst`/`src` fields, each mostly
/// near its old value (the `analysis_pin` mutation).
pub(crate) fn mutate(rng: &mut Rng, insns: &[Insn]) -> Vec<Insn> {
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

/// `n` mutants of `sources`, each of a source drawn from `rng`.
pub(crate) fn mutants(rng: &mut Rng, sources: &[Vec<Insn>], n: usize) -> Vec<Vec<Insn>> {
    (0..n)
        .map(|_| {
            let source = &sources[rng.below(sources.len() as u64) as usize];
            mutate(rng, source)
        })
        .collect()
}

fn listing(src: &str) -> Vec<Insn> {
    let lines: Vec<&str> = src.lines().collect();
    parse_program(&lines).expect("test listing parses")
}

fn tests_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

fn read_listing(path: &Path) -> Vec<Insn> {
    let text = std::fs::read_to_string(path).expect("read listing");
    let lines: Vec<&str> = text.lines().collect();
    parse_program(&lines).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The 13 corpus listings, by file name.
pub(crate) fn corpus() -> Vec<Vec<Insn>> {
    let mut paths: Vec<_> = std::fs::read_dir(tests_dir().join("corpus"))
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bpf"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 13, "the corpus changed size");
    paths.iter().map(|p| read_listing(p)).collect()
}

/// The two record scripts the racks load (map fd 0 is their perf ring).
pub(crate) fn record_scripts() -> Vec<Vec<Insn>> {
    ["record_flow.bpf", "record_any.bpf"]
        .map(|f| read_listing(&tests_dir().join(f)))
        .to_vec()
}

/// `analysis_pin`'s `k` diamonds over `r2`..`r(k+1)`, meeting 2^k
/// distinct states before a read of the never-written `r8`; with
/// `read_after`, the diamond registers are read behind it.
pub(crate) fn diamonds(k: u8, read_after: bool) -> Vec<Insn> {
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
    listing(&src)
}
