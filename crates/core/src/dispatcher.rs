//! The control-data dispatcher (master side).
//!
//! "The control data dispatcher executes on the master node. It reads the
//! user input and generates formatted configuration files in control
//! packages and tracing scripts. Then the dispatcher sends the files to
//! agents on remote monitoring machines." (§III-A)
//!
//! Control data really travels as JSON here: the dispatcher splits a
//! [`ControlPackage`] into per-node sub-packages, serializes them, and
//! queues them for delivery; the tracer façade hands each JSON payload to
//! its node's agent, which parses it back. Re-dispatching at runtime
//! reconfigures tracing without touching the monitored system (§III-D).

use std::collections::BTreeMap;

use crate::config::{ControlPackage, GlobalConfig};
use crate::error::{Result, TracerError};

/// A formatted control message addressed to one node's agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlMessage {
    /// Target node name.
    pub node: String,
    /// The JSON-serialized sub-package for that node.
    pub payload: String,
}

/// The dispatcher: formats user input into per-node control messages.
#[derive(Debug, Default)]
pub struct Dispatcher;

impl Dispatcher {
    /// Splits `package` by node and serializes one control message per
    /// node, validating it first.
    ///
    /// # Errors
    ///
    /// Returns [`TracerError::Config`] for duplicate script names or
    /// buffer sizes outside the supported range.
    pub fn dispatch(&self, package: &ControlPackage) -> Result<Vec<ControlMessage>> {
        validate(package)?;
        let mut per_node: BTreeMap<String, ControlPackage> = BTreeMap::new();
        for spec in &package.traces {
            per_node
                .entry(spec.node.clone())
                .or_insert_with(|| ControlPackage {
                    global: package.global.clone(),
                    traces: Vec::new(),
                })
                .traces
                .push(spec.clone());
        }
        let mut out = Vec::with_capacity(per_node.len());
        for (node, pkg) in per_node {
            out.push(ControlMessage {
                node,
                payload: pkg.to_json(),
            });
        }
        Ok(out)
    }
}

fn validate(package: &ControlPackage) -> Result<()> {
    let GlobalConfig { buffer_size, .. } = package.global;
    let size = buffer_size as usize;
    if !(vnet_ebpf::map::MIN_BUFFER_SIZE..=vnet_ebpf::map::MAX_BUFFER_SIZE).contains(&size) {
        return Err(TracerError::Config(format!(
            "buffer size {size} outside {}..={}",
            vnet_ebpf::map::MIN_BUFFER_SIZE,
            vnet_ebpf::map::MAX_BUFFER_SIZE
        )));
    }
    let mut names = std::collections::HashSet::new();
    for spec in &package.traces {
        if spec.name.is_empty() {
            return Err(TracerError::Config("empty script name".into()));
        }
        if !names.insert(&spec.name) {
            return Err(TracerError::Config(format!(
                "duplicate script name `{}` (each script gets its own table)",
                spec.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Action, FilterRule, HookSpec, TraceSpec};

    fn spec(name: &str, node: &str) -> TraceSpec {
        TraceSpec {
            name: name.into(),
            node: node.into(),
            hook: HookSpec::DeviceRx("eth0".into()),
            filter: FilterRule::any(),
            action: Action::CountPerCpu,
        }
    }

    #[test]
    fn splits_by_node_and_serializes() {
        let d = Dispatcher;
        let pkg = ControlPackage::new(vec![
            spec("a", "server1"),
            spec("b", "server2"),
            spec("c", "server1"),
        ]);
        let messages = d.dispatch(&pkg).unwrap();
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].node, "server1");
        let sub = ControlPackage::from_json(&messages[0].payload).unwrap();
        assert_eq!(sub.traces.len(), 2);
        assert_eq!(sub.traces[1].name, "c");
        let sub2 = ControlPackage::from_json(&messages[1].payload).unwrap();
        assert_eq!(sub2.traces.len(), 1);
    }

    #[test]
    fn rejects_duplicate_names() {
        let d = Dispatcher;
        let pkg = ControlPackage::new(vec![spec("same", "n1"), spec("same", "n2")]);
        assert!(matches!(d.dispatch(&pkg), Err(TracerError::Config(_))));
    }

    #[test]
    fn rejects_bad_buffer_size() {
        let d = Dispatcher;
        let mut pkg = ControlPackage::new(vec![spec("a", "n1")]);
        pkg.global.buffer_size = 16; // below 32
        assert!(matches!(d.dispatch(&pkg), Err(TracerError::Config(_))));
        pkg.global.buffer_size = 128 * 1024; // above 128k-16
        assert!(matches!(d.dispatch(&pkg), Err(TracerError::Config(_))));
    }

    #[test]
    fn rejects_empty_name() {
        let d = Dispatcher;
        let pkg = ControlPackage::new(vec![spec("", "n1")]);
        assert!(matches!(d.dispatch(&pkg), Err(TracerError::Config(_))));
    }
}
