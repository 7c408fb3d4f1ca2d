//! Programs and the loader.
//!
//! Loading mirrors the kernel flow: a [`Program`] (a name and its
//! bytecode) passes through the verifier, its pseudo map-fd loads are
//! relocated against a live [`MapRegistry`], and the result is a
//! [`LoadedProgram`] ready to run, compiled ([`crate::jit`]) or
//! interpreted ([`crate::vm`]). As in the kernel, the verifier's state
//! lives only as long as the load, and the load asks it for a verdict,
//! not a log: the walk records which instructions it reaches, for the
//! cost certificate, and no register state. A loaded program keeps its
//! instructions and certificate; [`crate::analysis::analyze`] builds the
//! annotated view for whoever prints it.
//!
//! A [`Loader`] keeps the reachability bits of each stream it accepted,
//! for as long as it lives, so repeated loads of one stream share one
//! walk.

use std::collections::HashMap;

use crate::analysis::{verdict, Verdict};
use crate::cost::{certify, CostCertificate};
use crate::insn::{Insn, PSEUDO_MAP_FD};
use crate::map::MapRegistry;
use crate::verifier::VerifyError;
use crate::vm::MAP_HANDLE_BASE;

/// An unloaded program: a name and its bytecode.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Human-readable name (shown in diagnostics).
    pub name: String,
    /// The instruction stream.
    pub insns: Vec<Insn>,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, insns: Vec<Insn>) -> Self {
        Program {
            name: name.into(),
            insns,
        }
    }
}

/// Errors from loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The verifier rejected the program.
    Verify(VerifyError),
    /// A pseudo map-fd load referenced an fd not present in the registry.
    UnknownMapFd {
        /// The offending fd.
        fd: i32,
        /// Instruction index.
        insn: usize,
    },
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Verify(e) => write!(f, "verifier rejected program: {e}"),
            LoadError::UnknownMapFd { fd, insn } => {
                write!(f, "unknown map fd {fd} at instruction {insn}")
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Verify(e) => Some(e),
            LoadError::UnknownMapFd { .. } => None,
        }
    }
}

impl From<VerifyError> for LoadError {
    fn from(e: VerifyError) -> Self {
        LoadError::Verify(e)
    }
}

/// A verified, relocated program ready to execute.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    name: String,
    insns: Vec<Insn>,
    certificate: CostCertificate,
    verified_insns: u64,
}

impl LoadedProgram {
    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relocated instruction stream.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The certified worst-case execution cost of this program, under
    /// the shared cost table in [`crate::cost`]. The agent checks this
    /// against the configured probe budget before attaching, and the
    /// interpreter/JIT dynamic costs can never exceed it.
    pub fn certificate(&self) -> &CostCertificate {
        &self.certificate
    }

    /// Instruction states the verifier's walk stepped to admit this
    /// program, as the kernel reports `verified_insns`; 0 when its
    /// [`Loader`] had accepted the same stream before and did not walk
    /// it again.
    pub fn verified_insns(&self) -> u64 {
        self.verified_insns
    }
}

/// Verifies `program` against `helpers` (the set of available helper
/// ids), certifies its worst-case cost and relocates its map references
/// against `maps`: one load through a fresh [`Loader`]. The program runs
/// as written: optimisation is the job of whoever emits the bytecode.
///
/// # Errors
///
/// Returns [`LoadError::Verify`] for verifier rejections and
/// [`LoadError::UnknownMapFd`] for references to maps that do not exist.
pub fn load(
    program: Program,
    maps: &MapRegistry,
    helpers: &[i32],
) -> Result<LoadedProgram, LoadError> {
    Loader::new(helpers).load(program, maps)
}

/// Loads programs against one helper set, walking each distinct
/// instruction stream once. The verifier's walk depends only on the
/// stream as written and the helpers, so a stream this loader has
/// accepted before is certified from that walk's reachability without a
/// new one. What depends on the map registry, relocation and its
/// [`LoadError::UnknownMapFd`], runs on every load, and a rejection is
/// never kept. A loader lives as long as the set of loads it serves:
/// `VNetTracer::deploy` makes one per deploy.
#[derive(Debug)]
pub struct Loader<'h> {
    helpers: &'h [i32],
    /// Each accepted stream, by its [`fingerprint`].
    accepted: HashMap<u64, Accepted>,
}

/// What a [`Loader`] keeps of a stream it accepted.
#[derive(Debug)]
struct Accepted {
    /// The stream as written: a hit is decided by it, not by the key.
    insns: Box<[Insn]>,
    /// Which instructions the walk reached, for the certificate.
    reachable: Vec<bool>,
}

/// The key a [`Loader`] files `insns` under: each slot packed as the
/// kernel encodes it, folded multiply-rotate (FxHash's step).
fn fingerprint(insns: &[Insn]) -> u64 {
    insns.iter().fold(insns.len() as u64, |h, i| {
        let word = u64::from(i.opcode)
            | u64::from(i.dst & 0xf) << 8
            | u64::from(i.src & 0xf) << 12
            | u64::from(i.off as u16) << 16
            | u64::from(i.imm as u32) << 32;
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

impl<'h> Loader<'h> {
    /// A loader that has accepted nothing yet, verifying against
    /// `helpers`.
    pub fn new(helpers: &'h [i32]) -> Self {
        Loader {
            helpers,
            accepted: HashMap::new(),
        }
    }

    /// Verifies `program` unless this loader has accepted the same
    /// stream before, certifies its worst-case cost and relocates its
    /// map references against `maps`.
    ///
    /// # Errors
    ///
    /// As [`load`].
    pub fn load(
        &mut self,
        program: Program,
        maps: &MapRegistry,
    ) -> Result<LoadedProgram, LoadError> {
        let key = fingerprint(&program.insns);
        let seen = self
            .accepted
            .get(&key)
            .is_some_and(|a| *a.insns == *program.insns);
        let verified_insns = if seen {
            0
        } else {
            let Verdict {
                diagnostics,
                reachable,
                processed,
            } = verdict(&program.insns, self.helpers);
            if let Some(d) = diagnostics.into_iter().next() {
                return Err(LoadError::Verify(d.error));
            }
            let insns = program.insns.as_slice().into();
            self.accepted.insert(key, Accepted { insns, reachable });
            processed
        };
        let reachable = &self.accepted[&key].reachable;
        let certificate = certify(&program.insns, |pc| reachable[pc]);
        let mut insns = program.insns;
        let mut i = 0;
        while i < insns.len() {
            let insn = insns[i];
            if insn.is_lddw() {
                if insn.src == PSEUDO_MAP_FD {
                    let fd = insn.imm;
                    if maps.get(fd).is_none() {
                        return Err(LoadError::UnknownMapFd { fd, insn: i });
                    }
                    let handle = MAP_HANDLE_BASE | (fd as u32 as u64);
                    insns[i].imm = handle as u32 as i32;
                    insns[i].src = 0;
                    insns[i + 1].imm = (handle >> 32) as u32 as i32;
                }
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(LoadedProgram {
            name: program.name,
            insns,
            certificate,
            verified_insns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, Asm};
    use crate::map::MapDef;

    #[test]
    fn load_relocates_map_fds() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 1), 1).unwrap();
        let insns = Asm::new()
            .ld_map_fd(R1, fd)
            .mov64_imm(R0, 0)
            .exit()
            .build()
            .unwrap();
        let prog = Program::new("p", insns);
        let loaded = load(prog, &maps, &[]).unwrap();
        let handle =
            (loaded.insns()[0].imm as u32 as u64) | ((loaded.insns()[1].imm as u32 as u64) << 32);
        assert_eq!(handle, MAP_HANDLE_BASE | fd as u64);
        assert_eq!(loaded.insns()[0].src, 0, "pseudo marker cleared");
        assert_eq!(loaded.name(), "p");
    }

    #[test]
    fn dead_reference_to_unknown_map_fd_is_rejected() {
        // `r1` is never read, but the program runs as written: like the
        // kernel, the loader resolves every map reference it carries.
        let maps = MapRegistry::new();
        let insns = Asm::new()
            .ld_map_fd(R1, 3)
            .mov64_imm(R0, 0)
            .exit()
            .build()
            .unwrap();
        let prog = Program::new("p", insns);
        match load(prog, &maps, &[]) {
            Err(LoadError::UnknownMapFd { fd: 3, insn: 0 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_runs_verifier() {
        // A program that falls off the end must be rejected, and a
        // loader keeps nothing of it.
        let insns = Asm::new().mov64_imm(R0, 0).build().unwrap();
        let prog = Program::new("bad", insns);
        let mut loader = Loader::new(&[]);
        assert!(matches!(
            loader.load(prog, &MapRegistry::new()),
            Err(LoadError::Verify(_))
        ));
        assert!(loader.accepted.is_empty());
    }
}
