//! Error types for the tracer.

use vnet_ebpf::program::LoadError;

/// Errors surfaced by vNetTracer operations.
#[derive(Debug)]
pub enum TracerError {
    /// The control package referenced a node the tracer has no agent on.
    UnknownNode(String),
    /// The tracepoint referenced a device that does not exist on the node.
    UnknownDevice {
        /// Node name.
        node: String,
        /// Device name.
        device: String,
    },
    /// A generated or user-supplied eBPF program failed to load.
    Load(LoadError),
    /// A map could not be created.
    Map(vnet_ebpf::map::MapError),
    /// The generated program failed to assemble (an internal bug if it
    /// ever happens for a valid rule).
    Assemble(vnet_ebpf::asm::AsmError),
    /// A control package failed validation: a buffer size out of range,
    /// an empty or duplicate script name, or a script without its map.
    Config(String),
    /// A control message's JSON failed to parse: malformed text (with
    /// the byte offset of the failure) or a missing or mistyped member.
    Package(serde_json::Error),
    /// A script id that is not installed.
    UnknownScript(u64),
    /// No profile has the requested name.
    UnknownProfile {
        /// The requested profile name.
        name: String,
        /// Closest profile name, when one is plausibly meant.
        suggestion: Option<String>,
    },
    /// A compiled script's program did not miss at one of its filter
    /// checks the way the check table says it does: the attach-time
    /// calibration run for that row did not return 0 (an internal bug if
    /// it ever happens).
    Calibration {
        /// Program name.
        name: String,
        /// The table row whose calibration run did not miss.
        check: usize,
    },
    /// The program's certified worst-case execution cost exceeds the
    /// configured probe budget — rejected at attach time, before the
    /// probe can perturb the traced system.
    OverBudget {
        /// Program name.
        name: String,
        /// Certified worst-case cost per firing (includes probe entry).
        certified_ns: u64,
        /// The configured [`crate::config::GlobalConfig::probe_budget`].
        budget_ns: u64,
        /// Kernel-verifier-style annotated cost report showing where the
        /// worst-case path spends its budget.
        report: String,
    },
}

impl core::fmt::Display for TracerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TracerError::UnknownNode(n) => write!(f, "no agent registered for node `{n}`"),
            TracerError::UnknownDevice { node, device } => {
                write!(f, "device `{device}` not found on node `{node}`")
            }
            TracerError::Load(e) => write!(f, "program load failed: {e}"),
            TracerError::Map(e) => write!(f, "map creation failed: {e}"),
            TracerError::Assemble(e) => write!(f, "program assembly failed: {e}"),
            TracerError::Config(s) => write!(f, "invalid control package: {s}"),
            TracerError::Package(e) => write!(f, "invalid control package: {e}"),
            TracerError::UnknownScript(id) => write!(f, "script {id} is not installed"),
            TracerError::Calibration { name, check } => write!(
                f,
                "script `{name}` does not miss at filter check {check} as its table says"
            ),
            TracerError::UnknownProfile { name, suggestion } => {
                write!(f, "unknown profile `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            TracerError::OverBudget {
                name,
                certified_ns,
                budget_ns,
                report,
            } => write!(
                f,
                "program `{name}` rejected: certified worst-case cost \
                 {certified_ns} ns exceeds probe budget {budget_ns} ns\n{report}"
            ),
        }
    }
}

impl std::error::Error for TracerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TracerError::Load(e) => Some(e),
            TracerError::Map(e) => Some(e),
            TracerError::Assemble(e) => Some(e),
            TracerError::Package(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LoadError> for TracerError {
    fn from(e: LoadError) -> Self {
        TracerError::Load(e)
    }
}

impl From<vnet_ebpf::map::MapError> for TracerError {
    fn from(e: vnet_ebpf::map::MapError) -> Self {
        TracerError::Map(e)
    }
}

impl From<serde_json::Error> for TracerError {
    fn from(e: serde_json::Error) -> Self {
        TracerError::Package(e)
    }
}

impl From<vnet_ebpf::asm::AsmError> for TracerError {
    fn from(e: vnet_ebpf::asm::AsmError) -> Self {
        TracerError::Assemble(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, TracerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        let errs: Vec<TracerError> = vec![
            TracerError::UnknownNode("n".into()),
            TracerError::UnknownDevice {
                node: "n".into(),
                device: "d".into(),
            },
            TracerError::Config("bad".into()),
            TracerError::Package(serde_json::Error::msg("bad")),
            TracerError::UnknownScript(9),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
