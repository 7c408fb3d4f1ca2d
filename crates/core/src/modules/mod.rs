//! The module registry: tracing organized as modules selected by named
//! profiles (the retis-style answer to "write a trace program per
//! question").
//!
//! A **module** bundles everything one tracing question needs:
//!
//! * the trace programs it installs (as
//!   [`TraceSpec`](crate::config::TraceSpec)s, compiled and budget-checked
//!   through the same `compile.rs`/`install_with_config` pipeline as
//!   everything else),
//! * the typed record schema its tables carry (so collectors and the
//!   tsdb know which tags and fields to expect), and
//! * the streaming metric operators and alert kinds it contributes to
//!   `vnet-live`.
//!
//! The four modules are a closed set, and a **profile** is a named set
//! of them; `ModuleRegistry::package` is the single plumbing path from a
//! profile to the [`ControlPackage`] the dispatcher ships. Modules are
//! topology-agnostic: a scenario describes *where* to attach through a
//! [`ModuleScope`] (packet taps, drop taps, OVS fabrics, request-chain
//! tiers), and each module turns the slice of the scope it understands
//! into concrete trace programs and metric specs.

mod builtin;

use builtin::Module;

use crate::config::{ControlPackage, FilterRule, GlobalConfig, HookSpec};
use crate::error::{Result, TracerError};

/// One packet tap: a table name plus the node, hook and filter a
/// packet-record trace program attaches with.
#[derive(Debug, Clone, PartialEq)]
pub struct TapSpec {
    /// Table (script) name the tap's records land in.
    pub table: String,
    /// Node the program runs on.
    pub node: String,
    /// Where it attaches.
    pub hook: HookSpec,
    /// Which packets it matches.
    pub filter: FilterRule,
}

impl TapSpec {
    /// A device-receive tap.
    pub fn rx(table: &str, node: &str, device: &str, filter: FilterRule) -> Self {
        TapSpec {
            table: table.to_owned(),
            node: node.to_owned(),
            hook: HookSpec::DeviceRx(device.to_owned()),
            filter,
        }
    }

    /// A device-transmit tap.
    pub fn tx(table: &str, node: &str, device: &str, filter: FilterRule) -> Self {
        TapSpec {
            table: table.to_owned(),
            node: node.to_owned(),
            hook: HookSpec::DeviceTx(device.to_owned()),
            filter,
        }
    }

    /// A drop tap: attaches at the node's `kfree_skb` tracepoint, where
    /// the simulated kernel reports every device drop with its typed
    /// reason code.
    pub fn drops(table: &str, node: &str, filter: FilterRule) -> Self {
        TapSpec {
            table: table.to_owned(),
            node: node.to_owned(),
            hook: HookSpec::Tracepoint("kfree_skb".to_owned()),
            filter,
        }
    }
}

/// An OVS fabric attachment point for the `ovs-flow` module: the module
/// derives its three tables (`{prefix}_lookup`, `{prefix}_lookup_ret`,
/// `{prefix}_upcall`) from the prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct OvsTap {
    /// Table-name prefix for the fabric's three tables.
    pub prefix: String,
    /// Node hosting the OVS fabric device.
    pub node: String,
    /// Which packets to trace through the flow table.
    pub filter: FilterRule,
}

/// Where a profile's modules attach in a concrete topology. A scenario
/// builds one of these; each module consumes the slice it understands
/// and ignores the rest, so one scope drives any profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleScope {
    /// Packet-path taps, in installation (and table-creation) order.
    pub packet_taps: Vec<TapSpec>,
    /// `(from, to)` table pairs to track latency/jitter/loss between.
    pub latency_pairs: Vec<(String, String)>,
    /// Tables to track windowed throughput on.
    pub throughput_tables: Vec<String>,
    /// Drop taps (usually one `kfree_skb` tap per traced node).
    pub drop_taps: Vec<TapSpec>,
    /// OVS fabric devices to trace flow-table lookups and upcalls on.
    pub ovs_taps: Vec<OvsTap>,
    /// Request-chain taps in tier order (client → tiers → client); the
    /// `request-trace` module decomposes latency between consecutive
    /// entries.
    pub request_taps: Vec<TapSpec>,
}

/// How a module's metric contribution is described — data only, so the
/// registry (in `vnettracer`) never depends on `vnet-live`; the live
/// crate converts a spec list into a `LiveConfig`.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSpec {
    /// Windowed latency (and jitter) between two tables' records,
    /// joined by trace ID.
    Latency {
        /// Upstream table.
        from: String,
        /// Downstream table.
        to: String,
    },
    /// Windowed throughput (packets and bytes) of one table.
    Throughput {
        /// The table.
        table: String,
    },
    /// Windowed loss between two tables (IDs seen upstream but never
    /// downstream).
    Loss {
        /// Upstream table.
        upstream: String,
        /// Downstream table.
        downstream: String,
    },
}

/// The typed record schema a module's tables carry: which tags and
/// fields its records materialize in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSchema {
    /// Schema name.
    pub name: &'static str,
    /// Tags every record of this schema materializes (optional tags are
    /// suffixed with `?`).
    pub tags: &'static [&'static str],
    /// Numeric fields every record carries.
    pub fields: &'static [&'static str],
}

/// The named profiles, sorted by name (the listing order).
const PROFILES: [(&str, &[Module]); 5] = [
    ("default", &[Module::PacketPath]),
    ("drops", &[Module::SkbDrop]),
    ("full", &Module::ALL),
    ("ovs", &[Module::OvsFlow]),
    ("requests", &[Module::RequestTrace]),
];

/// Resolves a profile to its modules, in profile order.
///
/// # Errors
///
/// [`TracerError::UnknownProfile`] when no profile has that name (with
/// the closest profile name as a suggestion).
fn resolve(profile: &str) -> Result<&'static [Module]> {
    PROFILES
        .iter()
        .find(|(name, _)| *name == profile)
        .map(|&(_, modules)| modules)
        .ok_or_else(|| TracerError::UnknownProfile {
            name: profile.to_owned(),
            suggestion: closest(profile, PROFILES.iter().map(|&(name, _)| name)),
        })
}

/// The registry: the built-in modules and the profiles over them.
#[derive(Debug, Clone, Copy)]
pub struct ModuleRegistry;

impl ModuleRegistry {
    /// The built-in registry: the `packet-path`, `skb-drop`, `ovs-flow`
    /// and `request-trace` modules, with profiles
    ///
    /// * `default` — the packet-path probe set every testbed deploys,
    /// * `drops` — packet-drop root-cause tracing,
    /// * `ovs` — flow-table lookup and upcall tracing,
    /// * `requests` — cross-tier request-chain tracing,
    /// * `full` — all of the above.
    pub fn builtin() -> Self {
        ModuleRegistry
    }

    /// THE plumbing path: resolves `profile`, asks each module for its
    /// programs under `scope`, and assembles the control package the
    /// dispatcher ships. Program order is profile order, then each
    /// module's own order — deterministic, so repeated calls build
    /// byte-identical packages.
    ///
    /// # Errors
    ///
    /// [`TracerError::UnknownProfile`] from resolution.
    pub fn package(
        &self,
        profile: &str,
        scope: &ModuleScope,
        global: GlobalConfig,
    ) -> Result<ControlPackage> {
        let traces = resolve(profile)?
            .iter()
            .flat_map(|m| m.programs(scope))
            .collect();
        Ok(ControlPackage { global, traces })
    }

    /// The metric specs a profile contributes under `scope`, in the same
    /// order as [`ModuleRegistry::package`] emits programs.
    ///
    /// # Errors
    ///
    /// Same as [`ModuleRegistry::package`].
    pub fn metrics(&self, profile: &str, scope: &ModuleScope) -> Result<Vec<MetricSpec>> {
        Ok(resolve(profile)?
            .iter()
            .flat_map(|m| m.metrics(scope))
            .collect())
    }

    /// Renders the `vnt modules` listing: every module with its schema
    /// and alert kinds, then every profile with its module set.
    pub fn render_listing(&self) -> String {
        let mut out = String::new();
        out.push_str("modules:\n");
        for m in Module::ALL {
            let s = m.schema();
            out.push_str(&format!("  {:<14} {}\n", m.name(), m.description()));
            out.push_str(&format!(
                "  {:<14}   schema {}: tags [{}], fields [{}]\n",
                "",
                s.name,
                s.tags.join(", "),
                s.fields.join(", ")
            ));
            out.push_str(&format!(
                "  {:<14}   alerts [{}]\n",
                "",
                m.alert_kinds().join(", ")
            ));
        }
        out.push_str("profiles:\n");
        for (profile, modules) in PROFILES {
            let names: Vec<&str> = modules.iter().map(|m| m.name()).collect();
            out.push_str(&format!("  {:<14} {}\n", profile, names.join(" + ")));
        }
        out
    }
}

/// The closest candidate by edit distance, when it is close enough to
/// plausibly be a typo (distance at most half the query length, and
/// never more than 3).
fn closest<'a>(query: &str, candidates: impl Iterator<Item = &'a str>) -> Option<String> {
    let max = (query.len() / 2).clamp(1, 3);
    candidates
        .map(|c| (edit_distance(query, c), c))
        .filter(|(d, _)| *d <= max)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c.to_owned())
}

/// Plain Levenshtein distance over bytes — profile names are ASCII.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Action;

    fn scope() -> ModuleScope {
        ModuleScope {
            packet_taps: vec![
                TapSpec::rx("a_rx", "n1", "eth0", FilterRule::any()),
                TapSpec::tx("b_tx", "n2", "eth0", FilterRule::any()),
            ],
            latency_pairs: vec![("a_rx".into(), "b_tx".into())],
            throughput_tables: vec!["b_tx".into()],
            drop_taps: vec![TapSpec::drops("n1_drops", "n1", FilterRule::any())],
            ovs_taps: vec![OvsTap {
                prefix: "br0".into(),
                node: "n1".into(),
                filter: FilterRule::any(),
            }],
            request_taps: vec![
                TapSpec::rx("req_client", "c", "eth0", FilterRule::any()),
                TapSpec::rx("req_tier1", "t1", "eth0", FilterRule::any()),
                TapSpec::rx("req_tier2", "t2", "eth0", FilterRule::any()),
            ],
        }
    }

    #[test]
    fn unknown_profile_suggests_closest() {
        let err = resolve("defult").unwrap_err();
        match err {
            TracerError::UnknownProfile { name, suggestion } => {
                assert_eq!(name, "defult");
                assert_eq!(suggestion.as_deref(), Some("default"));
            }
            other => panic!("wrong error: {other}"),
        }
        // Nothing near: no suggestion.
        match resolve("zzz").unwrap_err() {
            TracerError::UnknownProfile { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn default_profile_is_exactly_the_packet_path() {
        let r = ModuleRegistry::builtin();
        let pkg = r
            .package("default", &scope(), GlobalConfig::default())
            .unwrap();
        let names: Vec<&str> = pkg.traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["a_rx", "b_tx"]);
        assert!(pkg
            .traces
            .iter()
            .all(|t| t.action == Action::RecordPacketInfo));
    }

    #[test]
    fn drops_profile_uses_drop_records() {
        let r = ModuleRegistry::builtin();
        let pkg = r
            .package("drops", &scope(), GlobalConfig::default())
            .unwrap();
        assert_eq!(pkg.traces.len(), 1);
        assert_eq!(pkg.traces[0].name, "n1_drops");
        assert_eq!(pkg.traces[0].action, Action::RecordDropInfo);
        assert_eq!(pkg.traces[0].hook, HookSpec::Tracepoint("kfree_skb".into()));
    }

    #[test]
    fn ovs_profile_derives_three_tables_per_fabric() {
        let r = ModuleRegistry::builtin();
        let pkg = r.package("ovs", &scope(), GlobalConfig::default()).unwrap();
        let names: Vec<&str> = pkg.traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["br0_lookup", "br0_lookup_ret", "br0_upcall"]);
        assert_eq!(
            pkg.traces[0].hook,
            HookSpec::Kprobe("ovs_flow_tbl_lookup".into())
        );
        assert_eq!(
            pkg.traces[1].hook,
            HookSpec::Kretprobe("ovs_flow_tbl_lookup".into())
        );
        assert_eq!(pkg.traces[2].hook, HookSpec::Kprobe("ovs_dp_upcall".into()));
        let metrics = r.metrics("ovs", &scope()).unwrap();
        assert!(metrics.contains(&MetricSpec::Latency {
            from: "br0_lookup".into(),
            to: "br0_lookup_ret".into()
        }));
        assert!(metrics.contains(&MetricSpec::Throughput {
            table: "br0_upcall".into()
        }));
    }

    #[test]
    fn request_profile_chains_consecutive_tiers() {
        let r = ModuleRegistry::builtin();
        let metrics = r.metrics("requests", &scope()).unwrap();
        assert_eq!(
            metrics,
            vec![
                MetricSpec::Latency {
                    from: "req_client".into(),
                    to: "req_tier1".into()
                },
                MetricSpec::Latency {
                    from: "req_tier1".into(),
                    to: "req_tier2".into()
                },
                MetricSpec::Latency {
                    from: "req_client".into(),
                    to: "req_tier2".into()
                },
            ]
        );
    }

    #[test]
    fn full_profile_concatenates_in_profile_order() {
        let r = ModuleRegistry::builtin();
        let pkg = r
            .package("full", &scope(), GlobalConfig::default())
            .unwrap();
        let names: Vec<&str> = pkg.traces.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "a_rx",
                "b_tx",
                "n1_drops",
                "br0_lookup",
                "br0_lookup_ret",
                "br0_upcall",
                "req_client",
                "req_tier1",
                "req_tier2",
            ]
        );
    }

    #[test]
    fn packaging_is_deterministic() {
        let r = ModuleRegistry::builtin();
        let a = r
            .package("full", &scope(), GlobalConfig::default())
            .unwrap();
        let b = r
            .package("full", &scope(), GlobalConfig::default())
            .unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn listing_names_every_module_and_profile() {
        let listing = ModuleRegistry::builtin().render_listing();
        for m in Module::ALL {
            assert!(listing.contains(m.name()), "listing missing module {m:?}");
        }
        for (profile, _) in PROFILES {
            assert!(
                listing.contains(profile),
                "listing missing profile {profile}"
            );
        }
        let names: Vec<&str> = PROFILES.iter().map(|&(name, _)| name).collect();
        assert!(names.is_sorted(), "profiles listed by name: {names:?}");
    }

    #[test]
    fn drop_reason_names_agree_with_the_sim() {
        // The sim's typed reason codes and the store's tag values are
        // maintained separately; the registry is where they meet. The
        // reference: every sim reason with the name the store must give it.
        use vnet_sim::device::DropReason;
        let names = [
            (DropReason::QueueFull, "queue-full"),
            (DropReason::Policed, "policed"),
            (DropReason::Down, "device-down"),
            (DropReason::NoRoute, "no-route"),
            (DropReason::Link, "link-loss"),
        ];
        assert_eq!(names.map(|(reason, _)| reason), DropReason::ALL);
        for (reason, name) in names {
            assert_eq!(
                vnet_tsdb::drop_reason_name(reason.code() as u8),
                Some(name),
                "code {} maps to a different name in the store",
                reason.code()
            );
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(
            closest("ovz", ["ovs", "full"].into_iter()),
            Some("ovs".into())
        );
        assert_eq!(closest("qqqqq", ["ovs", "full"].into_iter()), None);
    }
}
