//! Control packages: the formatted configuration vNetTracer's dispatcher
//! ships to agents.
//!
//! The paper's control-plane workflow (§III-A, §III-D): the user supplies
//! (1) filter rules (source/destination IP and port, protocol, ethernet
//! type), (2) tracepoint information (device or kernel function, node),
//! (3) the action to perform, and (4) global configuration (database,
//! table names, buffer sizes). The dispatcher formats these into a
//! *control package* per trace script and sends them to the agents; all
//! of it can be modified and re-sent at runtime.
//!
//! Control packages really travel as JSON between dispatcher and agents
//! in this implementation, through the hand-written `ToJson`/`FromJson`
//! impls below. Of the paper's global settings, table names are the
//! script names ([`TraceSpec::name`]) and the database is whatever
//! [`TraceDb`](vnet_tsdb::TraceDb) the collector writes to
//! (`VNetTracer::with_db`), so neither is a package member.

use std::net::Ipv4Addr;

use serde_json::{member, object, Error as JsonError, FromJson, ToJson, Value};

/// Transport protocol selector for filter rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Match TCP segments.
    Tcp,
    /// Match UDP datagrams.
    Udp,
}

/// A packet filter rule: the five-tuple (plus EtherType) match of §III-A.
/// Every field is optional; an empty rule matches everything (used for
/// kernel-function counting probes that are not packet-specific).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterRule {
    /// EtherType to match (`0x0800` for IPv4; the only type the
    /// simulated stack carries).
    pub ether_type: Option<u16>,
    /// Transport protocol.
    pub protocol: Option<Proto>,
    /// Source IPv4 address.
    pub src_ip: Option<Ipv4Addr>,
    /// Destination IPv4 address.
    pub dst_ip: Option<Ipv4Addr>,
    /// Source transport port.
    pub src_port: Option<u16>,
    /// Destination transport port.
    pub dst_port: Option<u16>,
}

impl FilterRule {
    /// A rule matching every packet.
    pub fn any() -> Self {
        Self::default()
    }

    /// A rule matching one direction of a UDP flow.
    pub fn udp_flow(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Self {
        FilterRule {
            ether_type: Some(0x0800),
            protocol: Some(Proto::Udp),
            src_ip: Some(src.0),
            dst_ip: Some(dst.0),
            src_port: Some(src.1),
            dst_port: Some(dst.1),
        }
    }

    /// Whether the rule matches everything (no packet parsing needed).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// The rule matching the opposite direction of the same flow.
    pub fn reversed(&self) -> FilterRule {
        FilterRule {
            ether_type: self.ether_type,
            protocol: self.protocol,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }
}

/// The action a trace script performs when its rule matches (§III-A item
/// 3: e.g. "records the current system time in nanosecond").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Emit a full [`vnet_tsdb::CompactRecord`] (timestamp, trace ID,
    /// length, flow, CPU, direction) into the perf buffer.
    RecordPacketInfo,
    /// Count matching events in a per-CPU counter (used for
    /// `net_rx_action` / `get_rps_cpu` statistics, Fig. 13a).
    CountPerCpu,
    /// Emit a [`vnet_tsdb::CompactRecord`] that additionally captures
    /// the hook's auxiliary context word (the typed drop-reason code at
    /// `kfree_skb`) into record flag bits 1–3. Used by the `skb-drop`
    /// module; identical to [`Action::RecordPacketInfo`] at hooks whose
    /// auxiliary word is zero.
    RecordDropInfo,
}

/// Where the script attaches, by name, on a named node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HookSpec {
    /// Kernel function entry (kprobe).
    Kprobe(String),
    /// Kernel function return (kretprobe).
    Kretprobe(String),
    /// A static kernel tracepoint (attached like a function-entry hook;
    /// the simulated kernel names its tracepoints after the functions
    /// that would host them).
    Tracepoint(String),
    /// Device receive tap (raw socket).
    DeviceRx(String),
    /// Device transmit tap.
    DeviceTx(String),
    /// User-level probe on a named application (uprobe, §III-B:
    /// "Application monitoring could be traced through user level
    /// tracepoints such as uprobe and uretprobe").
    Uprobe(String),
}

impl HookSpec {
    /// Converts to the simulator's hook representation.
    pub fn to_sim_hook(&self) -> vnet_sim::probe::Hook {
        use vnet_sim::probe::Hook;
        match self {
            HookSpec::Kprobe(f) => Hook::FunctionEntry(f.clone()),
            HookSpec::Kretprobe(f) => Hook::FunctionReturn(f.clone()),
            HookSpec::Tracepoint(f) => Hook::FunctionEntry(f.clone()),
            HookSpec::DeviceRx(d) => Hook::DeviceRx(d.clone()),
            HookSpec::DeviceTx(d) => Hook::DeviceTx(d.clone()),
            HookSpec::Uprobe(a) => Hook::Uprobe(a.clone()),
        }
    }
}

/// One trace script: name (its table in the database), node, tracepoint,
/// filter and action.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Script name; trace records land in the table of this name.
    pub name: String,
    /// Node (by name) the script runs on.
    pub node: String,
    /// Where it attaches.
    pub hook: HookSpec,
    /// Which packets it matches.
    pub filter: FilterRule,
    /// What it records.
    pub action: Action,
}

/// How trace data travels from agents to the collector (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectionMode {
    /// Records buffered in kernel memory, dumped and shipped
    /// periodically — the low-overhead default.
    #[default]
    Offline,
    /// Records shipped as soon as collected (costs CPU and bandwidth).
    Online,
}

/// Global configuration carried in every control package.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalConfig {
    /// Per-CPU kernel buffer size in bytes (the `mmap`ed buffer of
    /// §III-C; valid range 32..=128k−16 per the paper's footnote).
    pub buffer_size: u32,
    /// Collection mode.
    pub mode: CollectionMode,
    /// Maximum certified worst-case cost (in simulated nanoseconds,
    /// including the fixed probe-entry cost) a deployed program may have
    /// per firing. Programs whose static cost certificate exceeds this
    /// are rejected at attach time with an annotated cost report
    /// ([`crate::error::TracerError::OverBudget`]); `None` disables the
    /// check. Because the certificate is a sound worst-case bound, a
    /// passing program can never cost more than this at runtime.
    pub probe_budget: Option<u64>,
}

impl Default for GlobalConfig {
    fn default() -> Self {
        GlobalConfig {
            buffer_size: 64 * 1024,
            mode: CollectionMode::Offline,
            probe_budget: None,
        }
    }
}

/// A complete control package: global config plus trace scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPackage {
    /// Global configuration.
    pub global: GlobalConfig,
    /// The trace scripts to deploy.
    pub traces: Vec<TraceSpec>,
}

impl ControlPackage {
    /// Creates a package with default global configuration.
    pub fn new(traces: Vec<TraceSpec>) -> Self {
        ControlPackage {
            global: GlobalConfig::default(),
            traces,
        }
    }

    /// Serializes to the JSON wire form the dispatcher sends.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("control packages are always serializable")
    }

    /// Parses the JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns the JSON error if the text is malformed (located by the
    /// byte offset of the failure) or lacks a required member. Members
    /// the package does not know are ignored.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

// --- JSON wire encoding ---
//
// The control package really travels as JSON between dispatcher and
// agents, encoded by hand: unit enum variants as bare strings, newtype
// variants as one-member objects, options as null-or-value, IPs as
// dotted strings.

impl ToJson for Proto {
    fn to_json(&self) -> Value {
        Value::String(
            match self {
                Proto::Tcp => "Tcp",
                Proto::Udp => "Udp",
            }
            .to_owned(),
        )
    }
}

impl FromJson for Proto {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Tcp") => Ok(Proto::Tcp),
            Some("Udp") => Ok(Proto::Udp),
            _ => Err(JsonError::msg("expected \"Tcp\" or \"Udp\"")),
        }
    }
}

/// Wraps `Ipv4Addr` (a std type, so no direct impl is possible here)
/// for JSON conversion as a dotted-quad string.
struct JsonIp(Ipv4Addr);

impl ToJson for JsonIp {
    fn to_json(&self) -> Value {
        Value::String(self.0.to_string())
    }
}

impl FromJson for JsonIp {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        value
            .as_str()
            .and_then(|s| s.parse().ok())
            .map(JsonIp)
            .ok_or_else(|| JsonError::msg("expected dotted IPv4 address"))
    }
}

impl ToJson for FilterRule {
    fn to_json(&self) -> Value {
        object([
            ("ether_type", self.ether_type.to_json()),
            ("protocol", self.protocol.to_json()),
            ("src_ip", self.src_ip.map(JsonIp).to_json()),
            ("dst_ip", self.dst_ip.map(JsonIp).to_json()),
            ("src_port", self.src_port.to_json()),
            ("dst_port", self.dst_port.to_json()),
        ])
    }
}

impl FromJson for FilterRule {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(FilterRule {
            ether_type: member(value, "ether_type")?,
            protocol: member(value, "protocol")?,
            src_ip: member::<Option<JsonIp>>(value, "src_ip")?.map(|ip| ip.0),
            dst_ip: member::<Option<JsonIp>>(value, "dst_ip")?.map(|ip| ip.0),
            src_port: member(value, "src_port")?,
            dst_port: member(value, "dst_port")?,
        })
    }
}

impl ToJson for Action {
    fn to_json(&self) -> Value {
        Value::String(
            match self {
                Action::RecordPacketInfo => "RecordPacketInfo",
                Action::CountPerCpu => "CountPerCpu",
                Action::RecordDropInfo => "RecordDropInfo",
            }
            .to_owned(),
        )
    }
}

impl FromJson for Action {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("RecordPacketInfo") => Ok(Action::RecordPacketInfo),
            Some("CountPerCpu") => Ok(Action::CountPerCpu),
            Some("RecordDropInfo") => Ok(Action::RecordDropInfo),
            _ => Err(JsonError::msg("unknown action")),
        }
    }
}

impl ToJson for HookSpec {
    fn to_json(&self) -> Value {
        let (variant, target) = match self {
            HookSpec::Kprobe(s) => ("Kprobe", s),
            HookSpec::Kretprobe(s) => ("Kretprobe", s),
            HookSpec::Tracepoint(s) => ("Tracepoint", s),
            HookSpec::DeviceRx(s) => ("DeviceRx", s),
            HookSpec::DeviceTx(s) => ("DeviceTx", s),
            HookSpec::Uprobe(s) => ("Uprobe", s),
        };
        object([(variant, target.to_json())])
    }
}

impl FromJson for HookSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let obj = value
            .as_object()
            .ok_or_else(|| JsonError::msg("expected hook object"))?;
        let (variant, target) = obj
            .iter()
            .next()
            .ok_or_else(|| JsonError::msg("empty hook object"))?;
        let target = String::from_json(target)?;
        match variant.as_str() {
            "Kprobe" => Ok(HookSpec::Kprobe(target)),
            "Kretprobe" => Ok(HookSpec::Kretprobe(target)),
            "Tracepoint" => Ok(HookSpec::Tracepoint(target)),
            "DeviceRx" => Ok(HookSpec::DeviceRx(target)),
            "DeviceTx" => Ok(HookSpec::DeviceTx(target)),
            "Uprobe" => Ok(HookSpec::Uprobe(target)),
            other => Err(JsonError::msg(format!("unknown hook '{other}'"))),
        }
    }
}

impl ToJson for TraceSpec {
    fn to_json(&self) -> Value {
        object([
            ("name", self.name.to_json()),
            ("node", self.node.to_json()),
            ("hook", self.hook.to_json()),
            ("filter", self.filter.to_json()),
            ("action", self.action.to_json()),
        ])
    }
}

impl FromJson for TraceSpec {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TraceSpec {
            name: member(value, "name")?,
            node: member(value, "node")?,
            hook: member(value, "hook")?,
            filter: member(value, "filter")?,
            action: member(value, "action")?,
        })
    }
}

impl ToJson for CollectionMode {
    fn to_json(&self) -> Value {
        Value::String(
            match self {
                CollectionMode::Offline => "Offline",
                CollectionMode::Online => "Online",
            }
            .to_owned(),
        )
    }
}

impl FromJson for CollectionMode {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Offline") => Ok(CollectionMode::Offline),
            Some("Online") => Ok(CollectionMode::Online),
            _ => Err(JsonError::msg("unknown collection mode")),
        }
    }
}

impl ToJson for GlobalConfig {
    fn to_json(&self) -> Value {
        object([
            ("buffer_size", self.buffer_size.to_json()),
            ("mode", self.mode.to_json()),
            ("probe_budget", self.probe_budget.to_json()),
        ])
    }
}

impl FromJson for GlobalConfig {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(GlobalConfig {
            buffer_size: member(value, "buffer_size")?,
            mode: member(value, "mode")?,
            // Absent in packages written before budgets existed: those
            // parse as "no budget", keeping old JSON deployable.
            probe_budget: match value.get("probe_budget") {
                Some(v) => Option::<u64>::from_json(v)?,
                None => None,
            },
        })
    }
}

impl ToJson for ControlPackage {
    fn to_json(&self) -> Value {
        object([
            ("global", self.global.to_json()),
            ("traces", self.traces.to_json()),
        ])
    }
}

impl FromJson for ControlPackage {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(ControlPackage {
            global: member(value, "global")?,
            traces: member(value, "traces")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> TraceSpec {
        TraceSpec {
            name: "flannel1_rx".into(),
            node: "server1".into(),
            hook: HookSpec::DeviceRx("flannel.1".into()),
            filter: FilterRule::udp_flow(
                (Ipv4Addr::new(10, 0, 0, 1), 9000),
                (Ipv4Addr::new(10, 0, 0, 2), 7),
            ),
            action: Action::RecordPacketInfo,
        }
    }

    #[test]
    fn package_json_round_trip() {
        let pkg = ControlPackage::new(vec![sample_spec()]);
        let json = pkg.to_json();
        let back = ControlPackage::from_json(&json).unwrap();
        assert_eq!(back, pkg);
        assert!(ControlPackage::from_json("{nope").is_err());
    }

    #[test]
    fn empty_rule_detection() {
        assert!(FilterRule::any().is_empty());
        assert!(!sample_spec().filter.is_empty());
        let mut r = FilterRule::any();
        r.dst_port = Some(80);
        assert!(!r.is_empty());
    }

    #[test]
    fn flow_constructors() {
        let f = FilterRule::udp_flow(
            (Ipv4Addr::new(1, 2, 3, 4), 5),
            (Ipv4Addr::new(6, 7, 8, 9), 10),
        );
        assert_eq!(f.protocol, Some(Proto::Udp));
        assert_eq!(f.ether_type, Some(0x0800));
        assert_eq!(f.src_port, Some(5));
        assert_eq!(f.dst_port, Some(10));
    }

    #[test]
    fn hook_spec_conversion() {
        use vnet_sim::probe::Hook;
        assert_eq!(
            HookSpec::Kprobe("net_rx_action".into()).to_sim_hook(),
            Hook::FunctionEntry("net_rx_action".into())
        );
        assert_eq!(
            HookSpec::DeviceTx("vnet0".into()).to_sim_hook(),
            Hook::DeviceTx("vnet0".into())
        );
    }

    #[test]
    fn default_global_config_is_offline() {
        let g = GlobalConfig::default();
        assert_eq!(g.mode, CollectionMode::Offline);
        assert!(g.buffer_size as usize <= 128 * 1024 - 16);
    }

    #[test]
    fn probe_budget_round_trips_and_defaults_when_absent() {
        let mut pkg = ControlPackage::new(vec![sample_spec()]);
        pkg.global.probe_budget = Some(120);
        let back = ControlPackage::from_json(&pkg.to_json()).unwrap();
        assert_eq!(back.global.probe_budget, Some(120));

        let legacy = r#"{
            "global": {"database": "db", "buffer_size": 4096, "mode": "Offline"},
            "traces": []
        }"#;
        let parsed = ControlPackage::from_json(legacy).unwrap();
        assert_eq!(parsed.global.probe_budget, None);
    }
}
