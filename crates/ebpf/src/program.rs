//! Programs, attach types and the loader.
//!
//! Loading mirrors the kernel flow: a [`Program`] (bytecode + attach
//! metadata) passes through the verifier, its pseudo map-fd loads are
//! relocated against a live [`MapRegistry`], and the result is a
//! [`LoadedProgram`] ready to run, compiled ([`crate::jit`]) or
//! interpreted ([`crate::vm`]). As in the kernel, the verifier's state
//! lives only as long as the load, and the load asks it for a verdict,
//! not a log: the walk records which instructions it reaches, for the
//! cost certificate, and no register state. A loaded program keeps its
//! instructions and certificate; [`crate::analysis::analyze`] builds the
//! annotated view for whoever prints it.

use crate::analysis::{verdict, Verdict};
use crate::cost::{certify, CostCertificate};
use crate::insn::{Insn, PSEUDO_MAP_FD};
use crate::map::MapRegistry;
use crate::verifier::VerifyError;
use crate::vm::MAP_HANDLE_BASE;

/// Where a program attaches — the paper's §III-B attach surface:
/// "kernel functions, return of kernel functions, kernel tracepoints and
/// raw sockets through kprobe, kretprobe, tracepoints and network
/// devices", plus user-level uprobes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttachType {
    /// Entry of a kernel function.
    Kprobe(String),
    /// Return of a kernel function.
    Kretprobe(String),
    /// A static kernel tracepoint (treated as a function-entry hook).
    Tracepoint(String),
    /// Raw-socket tap on a device's receive path.
    SocketRx(String),
    /// Raw-socket tap on a device's transmit path.
    SocketTx(String),
    /// User-level probe (application function entry).
    Uprobe(String),
}

impl core::fmt::Display for AttachType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttachType::Kprobe(s) => write!(f, "kprobe:{s}"),
            AttachType::Kretprobe(s) => write!(f, "kretprobe:{s}"),
            AttachType::Tracepoint(s) => write!(f, "tracepoint:{s}"),
            AttachType::SocketRx(s) => write!(f, "socket-rx:{s}"),
            AttachType::SocketTx(s) => write!(f, "socket-tx:{s}"),
            AttachType::Uprobe(s) => write!(f, "uprobe:{s}"),
        }
    }
}

/// An unloaded program: bytecode plus attach metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Human-readable name (shown in diagnostics).
    pub name: String,
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// Where the program attaches.
    pub attach: AttachType,
}

impl Program {
    /// Creates a program.
    pub fn new(name: impl Into<String>, attach: AttachType, insns: Vec<Insn>) -> Self {
        Program {
            name: name.into(),
            insns,
            attach,
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
}

/// Verifies `program` against `helpers` (the set of available helper
/// ids), certifies its worst-case cost and relocates its map references
/// against `maps`. The program runs as written: optimisation is the job
/// of whoever emits the bytecode.
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
    let Verdict {
        diagnostics,
        reachable,
    } = verdict(&program.insns, helpers);
    if let Some(d) = diagnostics.into_iter().next() {
        return Err(LoadError::Verify(d.error));
    }
    let mut insns = program.insns;
    let certificate = certify(&insns, |pc| reachable[pc]);
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, Asm};
    use crate::map::MapDef;

    #[test]
    fn attach_type_display() {
        assert_eq!(
            AttachType::Kprobe("net_rx_action".into()).to_string(),
            "kprobe:net_rx_action"
        );
        assert_eq!(AttachType::Uprobe("main".into()).to_string(), "uprobe:main");
    }

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
        let prog = Program::new("p", AttachType::Kprobe("f".into()), insns);
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
        let prog = Program::new("p", AttachType::Kprobe("f".into()), insns);
        match load(prog, &maps, &[]) {
            Err(LoadError::UnknownMapFd { fd: 3, insn: 0 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_runs_verifier() {
        // A program that falls off the end must be rejected.
        let insns = Asm::new().mov64_imm(R0, 0).build().unwrap();
        let prog = Program::new("bad", AttachType::Kprobe("f".into()), insns);
        assert!(matches!(
            load(prog, &MapRegistry::new(), &[]),
            Err(LoadError::Verify(_))
        ));
    }
}
