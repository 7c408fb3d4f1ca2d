//! The per-node tracing agent.
//!
//! Agents are the daemons of §III-A: they receive configured trace
//! scripts from the dispatcher, load them (verifier + relocation) into
//! the node's eBPF runtime, attach them at the requested tracepoints, and
//! periodically drain the kernel-side buffers toward the collector. All
//! of this happens at runtime against a live [`World`] — no restart of
//! the monitored network.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vnet_ebpf::context::TraceContext;
use vnet_ebpf::jit::{CompiledProgram, JitOutcome};
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::{LoadedProgram, Loader};
use vnet_ebpf::vm::{
    jit_compile_cost_ns, standard_helpers, FixedEnv, VmEnv, VmError, PROBE_BASE_COST_NS,
};
use vnet_sim::ids::NodeId;
use vnet_sim::probe::{Direction, ProbeEvent, ProbeId, ProbeOutcome, ProbeSink};
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_tsdb::CompactRecord;

use crate::compile::Check;
use crate::config::{Action, CollectionMode, GlobalConfig, HookSpec, TraceSpec};
use crate::error::{Result, TracerError};

/// Identifies an installed script on an agent.
pub type ScriptId = u64;

/// Execution statistics for one installed script — the simulator's
/// version of the kernel's `bpf_prog_info` run stats (`run_cnt`,
/// `run_time_ns`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptStats {
    /// Logical runs, as the kernel's `run_cnt` counts them: every firing,
    /// a filter miss decided from the script's check table included.
    pub executions: u64,
    /// Times the program reported a rule match.
    pub matched: u64,
    /// Runtime aborts (should stay zero for compiler-generated scripts).
    pub errors: u64,
    /// Total simulated CPU time spent executing the program, excluding
    /// the one-time compile cost and per-record ship cost
    /// (`run_time_ns`).
    pub run_time_ns: u64,
    /// Original instructions retired across all runs (the count the
    /// interpreter would retire for the same inputs).
    pub insns_retired: u64,
    /// Ops dispatched across all runs: fewer than `insns_retired`,
    /// because fused ops retire several instructions each.
    pub ops_executed: u64,
    /// Fused-op executions.
    pub fused_hits: u64,
    /// The program's certified worst-case cost per firing in simulated
    /// nanoseconds, probe entry included — the static bound from
    /// [`vnet_ebpf::cost::certify`] that [`Self::avg_run_ns`] can never
    /// exceed. Constant for the script's lifetime.
    pub certified_cost_ns: u64,
    /// Instruction states the verifier's walk stepped to admit the
    /// script, as the kernel reports `verified_insns`; 0 when the deploy
    /// that installed it had already walked the same bytecode for an
    /// earlier script ([`vnet_ebpf::Loader`]).
    pub verified_insns: u64,
    /// Always 0: programs run as emitted. Kept because the frozen
    /// `bench_e2e` harness reads it (ROADMAP item 2's unlock list).
    #[doc(hidden)]
    pub insns_eliminated: u64,
}

impl ScriptStats {
    /// Average simulated nanoseconds per run, 0 before the first run.
    /// Always at most [`Self::certified_cost_ns`]: the certificate is a
    /// sound worst-case bound over every execution path.
    pub fn avg_run_ns(&self) -> u64 {
        self.run_time_ns.checked_div(self.executions).unwrap_or(0)
    }
}

/// CPU cost of shipping one record to user space immediately in
/// [`CollectionMode::Online`]: a wakeup, a copy out of the ring and a
/// send. The offline mode amortizes this over whole-buffer dumps, which
/// is why the paper recommends it for overhead-sensitive applications
/// (§III-C).
pub const ONLINE_SHIP_COST_NS: u64 = 1_500;

/// The [`ProbeSink`] wrapper that runs a loaded eBPF program each time
/// its hook fires, charging the simulated CPU cost of the execution back
/// to the packet being processed — the mechanism behind the overhead
/// measurements of Fig. 7. The program runs as threaded code, as a
/// kernel runs it JIT-compiled (§II); the first firing pays the compile.
///
/// A compiled script's filter misses do not run. At attach the sink runs
/// its threaded code once per row of the script's check table
/// ([`crate::compile::Check`]) on a frame that fails exactly that row,
/// and keeps the outcome. A firing whose frame fails a row is charged
/// and counted with the first failing row's outcome, which is what the
/// run would return: a miss leaves before any helper call or map access,
/// and its path depends only on the row. Raw installs and unfiltered
/// count programs have no table and run on every firing.
///
/// The sink keeps only the threaded code it runs. Like the kernel's, the
/// verifier's analysis lives for the load alone, and the relocated
/// instruction stream the code was lowered from is dropped at attach: a
/// script keeps a few KiB, not the ~160 KB its analysis takes.
pub struct EbpfProbeSink {
    compiled: CompiledProgram,
    /// The script's filter checks in the order its program makes them,
    /// each beside what the threaded code returns for a frame that
    /// passes the rows before it and fails it ([`calibrate`]).
    misses: Box<[(Check, JitOutcome)]>,
    /// Compile cost not yet charged; taken (zeroed) on first run.
    pending_compile_ns: u64,
    maps: Rc<RefCell<MapRegistry>>,
    stats: ScriptStats,
    prandom_state: u64,
    per_match_extra_ns: u64,
}

impl EbpfProbeSink {
    /// Lowers `loaded` and calibrates the miss at each of `checks`, the
    /// table its program was compiled with (empty for a program that
    /// has none).
    fn new(
        loaded: &LoadedProgram,
        checks: &[Check],
        maps: Rc<RefCell<MapRegistry>>,
        prandom_state: u64,
        per_match_extra_ns: u64,
    ) -> Result<Self> {
        let compiled = vnet_ebpf::jit::compile(loaded);
        let misses = calibrate(&compiled, checks).map_err(|check| TracerError::Calibration {
            name: loaded.name().to_owned(),
            check,
        })?;
        let stats = ScriptStats {
            certified_cost_ns: PROBE_BASE_COST_NS + loaded.certificate().worst_case_ns,
            verified_insns: loaded.verified_insns(),
            ..ScriptStats::default()
        };
        Ok(EbpfProbeSink {
            compiled,
            misses,
            pending_compile_ns: jit_compile_cost_ns(loaded.insns().len()),
            maps,
            stats,
            prandom_state,
            per_match_extra_ns,
        })
    }

    /// Runs the threaded code on one firing.
    fn run(
        &mut self,
        event: &ProbeEvent<'_>,
        pkt: &[u8],
    ) -> std::result::Result<JitOutcome, VmError> {
        let ctx = TraceContext {
            timestamp_ns: event.monotonic_ns,
            pkt_len: pkt.len() as u32,
            cpu: u32::from(event.cpu.0),
            node: event.node.0,
            device: event.device.map_or(u32::MAX, |d| d.0),
            direction: match event.direction {
                Direction::Rx => 0,
                Direction::Tx => 1,
            },
            aux: event.aux,
        };
        let mut env = EventEnv {
            time_ns: event.monotonic_ns,
            cpu: ctx.cpu,
            prandom_state: &mut self.prandom_state,
        };
        let mut maps = self.maps.borrow_mut();
        self.compiled.execute(&ctx, pkt, &mut maps, &mut env)
    }
}

/// What the threaded code returns at each row of `checks`: for row `k`,
/// the outcome of one run on [`miss_frame`]`(checks, k)`, with a fresh
/// empty map registry and a fixed environment, since a miss reads
/// neither. Fails with the first row whose run does not leave through
/// the program's `miss` exit (`ret == 0`): the table and the program
/// disagree.
pub(crate) fn calibrate(
    compiled: &CompiledProgram,
    checks: &[Check],
) -> std::result::Result<Box<[(Check, JitOutcome)]>, usize> {
    checks
        .iter()
        .enumerate()
        .map(|(k, &check)| {
            let frame = miss_frame(checks, k);
            let ctx = TraceContext {
                pkt_len: frame.len() as u32,
                ..TraceContext::default()
            };
            match compiled.execute(
                &ctx,
                &frame,
                &mut MapRegistry::new(),
                &mut FixedEnv::default(),
            ) {
                Ok(out) if out.ret == 0 => Ok((check, out)),
                _ => Err(k),
            }
        })
        .collect()
}

/// A frame that passes `checks[..k]` and fails `checks[k]`: as long as
/// the length check asks (one byte short when that is row `k`), zero but
/// for the fields of rows `1..=k`, row `k`'s with its first byte
/// inverted.
fn miss_frame(checks: &[Check], k: usize) -> Vec<u8> {
    let mut frame = vec![0; checks[0].off + checks[0].width];
    for check in &checks[..=k] {
        if let Some(want) = check.want {
            frame[check.off..check.off + check.width].copy_from_slice(&want[..check.width]);
        }
    }
    let failing = &checks[k];
    match failing.want {
        Some(_) => frame[failing.off] ^= 0xff,
        None => frame.truncate(failing.off + failing.width - 1),
    }
    frame
}

impl std::fmt::Debug for EbpfProbeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EbpfProbeSink")
            .field("ops", &self.compiled.op_count())
            .field("checks", &self.misses.len())
            .field("stats", &self.stats)
            .finish()
    }
}

struct EventEnv<'a> {
    time_ns: u64,
    cpu: u32,
    prandom_state: &'a mut u64,
}

impl VmEnv for EventEnv<'_> {
    fn ktime_get_ns(&mut self) -> u64 {
        self.time_ns
    }

    fn prandom_u32(&mut self) -> u32 {
        *self.prandom_state = self.prandom_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *self.prandom_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) as u32
    }

    fn smp_processor_id(&self) -> u32 {
        self.cpu
    }
}

impl ProbeSink for EbpfProbeSink {
    fn handle(&mut self, event: &ProbeEvent<'_>) -> ProbeOutcome {
        let pkt: &[u8] = event.packet.map(|p| p.bytes()).unwrap_or(&[]);
        // A frame that fails a filter check leaves the program through
        // its `miss` exit before any helper call or map access, and what
        // the threaded code returns there depends only on which check
        // failed: the first failing row's calibrated outcome is what the
        // run would return, so it is taken without running. Only a frame
        // every row passes runs the program.
        let miss = self
            .misses
            .iter()
            .find(|(check, _)| !check.passes(pkt))
            .map(|&(_, out)| out);
        // The charged cost is the path's toll under the shared table in
        // `vnet_ebpf::cost` (fused ops charge the sum of their
        // components) and is bounded by the program's certificate, so a
        // script that passed the probe-budget check can never exceed its
        // budget here. Aborts charge the probe entry only. The first
        // firing also pays the compile.
        let result = match miss {
            Some(out) => Ok(out),
            None => self.run(event, pkt),
        }
        .map(|out| {
            self.stats.insns_retired += out.insns_retired;
            self.stats.ops_executed += out.ops_executed;
            self.stats.fused_hits += out.fused_hits;
            (out.ret, PROBE_BASE_COST_NS + out.cost_ns)
        })
        .map_err(|_| PROBE_BASE_COST_NS);
        let one_time_ns = std::mem::take(&mut self.pending_compile_ns);
        match result {
            Ok((ret, exec_ns)) => {
                self.stats.executions += 1;
                self.stats.run_time_ns += exec_ns;
                let mut cost = exec_ns + one_time_ns;
                if ret == 1 {
                    self.stats.matched += 1;
                    cost += self.per_match_extra_ns;
                }
                ProbeOutcome::with_cost(SimDuration::from_nanos(cost))
            }
            Err(base_ns) => {
                self.stats.errors += 1;
                ProbeOutcome::with_cost(SimDuration::from_nanos(base_ns + one_time_ns))
            }
        }
    }
}

/// The attach-time probe-budget gate: rejects a loaded program whose
/// certified worst-case cost per firing (probe entry included) exceeds
/// `budget_ns`, with a kernel-verifier-style annotated cost report
/// showing where the worst-case path spends its time.
///
/// The loaded program keeps no analysis, so a rejection analyses
/// `written`, the stream as it was before relocation: relocation turns a
/// map `lddw` into a plain constant, which an analysis of the loaded
/// stream would annotate as a scalar rather than a map pointer. The
/// instruction indices are the same in both streams.
fn check_budget(loaded: &LoadedProgram, written: &[vnet_ebpf::Insn], budget_ns: u64) -> Result<()> {
    let certified_ns = PROBE_BASE_COST_NS + loaded.certificate().worst_case_ns;
    if certified_ns > budget_ns {
        let analysis = vnet_ebpf::analyze(written, &standard_helpers());
        return Err(TracerError::OverBudget {
            name: loaded.name().to_owned(),
            certified_ns,
            budget_ns,
            report: vnet_ebpf::cost::render_cost_report(
                loaded.insns(),
                &analysis,
                loaded.certificate(),
            ),
        });
    }
    Ok(())
}

#[derive(Debug)]
struct Installed {
    /// The script's name — the table its records land in.
    name: String,
    probe: ProbeId,
    perf_fd: Option<i32>,
    counter_fd: Option<i32>,
    sink: Rc<RefCell<EbpfProbeSink>>,
}

/// A per-node tracing agent.
#[derive(Debug)]
pub struct Agent {
    node: NodeId,
    node_name: String,
    num_cpus: u16,
    maps: Rc<RefCell<MapRegistry>>,
    installed: BTreeMap<ScriptId, Installed>,
    next_id: ScriptId,
    heartbeat_seq: u64,
}

impl Agent {
    /// Creates an agent for `node`.
    pub fn new(node: NodeId, node_name: impl Into<String>, num_cpus: u16) -> Self {
        Agent {
            node,
            node_name: node_name.into(),
            num_cpus,
            maps: Rc::new(RefCell::new(MapRegistry::new())),
            installed: BTreeMap::new(),
            next_id: 1,
            heartbeat_seq: 0,
        }
    }

    /// The node's name.
    pub fn node_name(&self) -> &str {
        &self.node_name
    }

    /// Compiles, loads and attaches a trace script under `global`: its
    /// `buffer_size` sizes the per-CPU perf buffer of a record-producing
    /// script, in [`CollectionMode::Online`] every match additionally
    /// pays [`ONLINE_SHIP_COST_NS`] of CPU to be shipped to user space
    /// immediately, and the script's first firing pays a one-time
    /// compile cost.
    ///
    /// # Errors
    ///
    /// Returns a [`TracerError`] if maps cannot be created, assembly or
    /// verification fails, or — when [`GlobalConfig::probe_budget`] is
    /// set — the program's certified worst-case cost exceeds the budget
    /// ([`TracerError::OverBudget`]). A device tap on a device the node
    /// does not have is [`TracerError::UnknownDevice`]: like the kernel,
    /// which refuses to attach to a target that does not exist, the agent
    /// attaches no probe that could never fire.
    pub fn install(
        &mut self,
        world: &mut World,
        spec: &TraceSpec,
        global: &GlobalConfig,
    ) -> Result<ScriptId> {
        self.install_with(world, spec, global, &mut Loader::new(&standard_helpers()))
    }

    /// [`Agent::install`] through `loader`, which skips the verifier's
    /// walk for bytecode it has accepted before: a deploy shares one
    /// loader among all its scripts.
    pub(crate) fn install_with(
        &mut self,
        world: &mut World,
        spec: &TraceSpec,
        global: &GlobalConfig,
        loader: &mut Loader<'_>,
    ) -> Result<ScriptId> {
        self.check_device(world, &spec.hook)?;
        let cpus = usize::from(self.num_cpus);
        let mut maps = self.maps.borrow_mut();
        let fds = match spec.action {
            Action::RecordPacketInfo | Action::RecordDropInfo => (
                Some(maps.create(MapDef::perf(global.buffer_size), cpus)?),
                None,
            ),
            Action::CountPerCpu => (None, Some(maps.create(MapDef::per_cpu_array(8, 1), cpus)?)),
        };
        drop(maps);
        let per_match_extra_ns = match global.mode {
            CollectionMode::Offline => 0,
            CollectionMode::Online => ONLINE_SHIP_COST_NS,
        };
        crate::compile::compile(spec, fds.0, fds.1)
            .and_then(|(program, checks)| {
                let loaded = self.admit(loader, program, global)?;
                self.attach(world, &loaded, &checks, &spec.hook, fds, per_match_extra_ns)
            })
            // Nothing was attached, so nothing can name the maps made
            // above.
            .inspect_err(|_| self.release_maps(fds))
    }

    /// Refuses a device tap on a device this node does not have.
    fn check_device(&self, world: &World, hook: &HookSpec) -> Result<()> {
        match hook {
            HookSpec::DeviceRx(device) | HookSpec::DeviceTx(device)
                if world.find_device(self.node, device).is_none() =>
            {
                Err(TracerError::UnknownDevice {
                    node: self.node_name.clone(),
                    device: device.clone(),
                })
            }
            _ => Ok(()),
        }
    }

    /// Frees a script's own (perf, counter) maps. Maps a caller made
    /// through [`Agent::maps`] for [`Agent::install_raw`] are the
    /// caller's and never pass through here.
    fn release_maps(&mut self, (perf_fd, counter_fd): (Option<i32>, Option<i32>)) {
        let mut maps = self.maps.borrow_mut();
        for fd in [perf_fd, counter_fd].into_iter().flatten() {
            maps.remove(fd);
        }
    }

    /// Loads and attaches a hand-written eBPF program at `hook` — the
    /// escape hatch for trace logic beyond the built-in filter/action
    /// compiler. The program is verified and its map fds relocated
    /// against this agent's map registry (see [`Agent::maps`]); it runs
    /// under `global`'s probe budget.
    ///
    /// # Errors
    ///
    /// Returns [`TracerError::Load`] if verification or relocation fails,
    /// or [`TracerError::OverBudget`] and [`TracerError::UnknownDevice`]
    /// as for [`Agent::install`].
    pub fn install_raw(
        &mut self,
        world: &mut World,
        name: &str,
        hook: &crate::config::HookSpec,
        insns: Vec<vnet_ebpf::Insn>,
        global: &GlobalConfig,
    ) -> Result<ScriptId> {
        self.check_device(world, hook)?;
        let program = vnet_ebpf::Program::new(name, insns);
        let helpers = standard_helpers();
        let loaded = self.admit(&mut Loader::new(&helpers), program, global)?;
        self.attach(world, &loaded, &[], hook, (None, None), 0)
    }

    /// What both install paths run before attaching: verify (through
    /// `loader`) and relocate `program` against this agent's maps, and
    /// gate it on `global`'s probe budget.
    fn admit(
        &self,
        loader: &mut Loader<'_>,
        program: vnet_ebpf::Program,
        global: &GlobalConfig,
    ) -> Result<LoadedProgram> {
        // Only a budget check can need the stream as written.
        let budget = global
            .probe_budget
            .map(|budget_ns| (budget_ns, program.insns.clone()));
        let loaded = loader.load(program, &self.maps.borrow())?;
        if let Some((budget_ns, written)) = budget {
            check_budget(&loaded, &written, budget_ns)?;
        }
        Ok(loaded)
    }

    /// The tail both install paths share: wrap `loaded` in a sink that
    /// knows its filter `checks` (none for a raw program) and attach
    /// that at `hook`. `fds` are the script's (perf, counter) maps.
    fn attach(
        &mut self,
        world: &mut World,
        loaded: &LoadedProgram,
        checks: &[Check],
        hook: &crate::config::HookSpec,
        (perf_fd, counter_fd): (Option<i32>, Option<i32>),
        per_match_extra_ns: u64,
    ) -> Result<ScriptId> {
        let (id, name) = (self.next_id, loaded.name().to_owned());
        let sink = Rc::new(RefCell::new(EbpfProbeSink::new(
            loaded,
            checks,
            Rc::clone(&self.maps),
            0x5eed ^ id,
            per_match_extra_ns,
        )?));
        let probe = world.attach_probe(self.node, hook.to_sim_hook(), sink.clone());
        self.next_id += 1;
        self.installed.insert(
            id,
            Installed {
                name,
                probe,
                perf_fd,
                counter_fd,
                sink,
            },
        );
        Ok(id)
    }

    /// The agent's map registry, shared with its loaded programs. Create
    /// maps here before assembling a raw program that references their
    /// fds, and read results back after the run.
    pub fn maps(&self) -> Rc<RefCell<MapRegistry>> {
        Rc::clone(&self.maps)
    }

    /// Detaches and removes a script (runtime reconfiguration), freeing
    /// the maps [`Agent::install`] made for it — records still in its
    /// ring go with them, so drain first to keep them.
    ///
    /// # Errors
    ///
    /// Returns [`TracerError::UnknownScript`] if `id` is not installed.
    pub fn uninstall(&mut self, world: &mut World, id: ScriptId) -> Result<()> {
        let installed = self
            .installed
            .remove(&id)
            .ok_or(TracerError::UnknownScript(id))?;
        world.detach_probe(installed.probe);
        self.release_maps((installed.perf_fd, installed.counter_fd));
        Ok(())
    }

    /// Execution statistics for a script.
    pub fn stats(&self, id: ScriptId) -> Option<ScriptStats> {
        self.installed.get(&id).map(|i| i.sink.borrow_mut().stats)
    }

    /// Drains every perf buffer into `batch`, grouped by (table, node) —
    /// the periodic buffer dump of §III-C. Each ring entry is decoded once,
    /// straight into the form the store keeps; scripts are visited in
    /// install order so output is deterministic. Returns the number of
    /// records drained.
    pub fn drain_into(&mut self, batch: &mut vnet_tsdb::RecordBatch) -> usize {
        let mut drained = 0;
        let mut maps = self.maps.borrow_mut();
        for installed in self.installed.values() {
            let Some(fd) = installed.perf_fd else {
                continue;
            };
            let Some(map) = maps.get_mut(fd) else {
                continue;
            };
            let group = batch.group_mut(&installed.name, &self.node_name);
            for cpu in 0..usize::from(self.num_cpus) {
                map.perf_drain_with(cpu, |raw| {
                    if let Some(record) = CompactRecord::decode(raw) {
                        group.records.push(record);
                        drained += 1;
                    }
                });
            }
        }
        drained
    }

    /// Number of records lost to perf-buffer overflow for a script.
    pub fn lost_records(&self, id: ScriptId) -> u64 {
        let Some(installed) = self.installed.get(&id) else {
            return 0;
        };
        let Some(fd) = installed.perf_fd else {
            return 0;
        };
        let maps = self.maps.borrow_mut();
        let Some(map) = maps.get(fd) else { return 0 };
        (0..usize::from(self.num_cpus))
            .map(|c| map.perf_lost(c))
            .sum()
    }

    /// Total records lost to perf-buffer overflow across all installed
    /// scripts — reported with each batch so the collector's stats
    /// surface can track drops per agent.
    pub fn lost_records_total(&self) -> u64 {
        self.installed.keys().map(|&id| self.lost_records(id)).sum()
    }

    /// Per-CPU counter values of a [`Action::CountPerCpu`] script.
    pub fn counter_per_cpu(&self, id: ScriptId) -> Option<Vec<u64>> {
        let installed = self.installed.get(&id)?;
        let fd = installed.counter_fd?;
        let mut maps = self.maps.borrow_mut();
        let map = maps.get_mut(fd)?;
        let mut out = Vec::with_capacity(usize::from(self.num_cpus));
        for cpu in 0..usize::from(self.num_cpus) {
            let v = map
                .lookup(&0u32.to_le_bytes(), cpu)
                .ok()
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte counter")))
                .unwrap_or(0);
            out.push(v);
        }
        Some(out)
    }

    /// Produces the next heartbeat sequence number (the collector uses
    /// these to monitor agent liveness, §III-C).
    pub fn heartbeat(&mut self) -> u64 {
        self.heartbeat_seq += 1;
        self.heartbeat_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterRule;
    use std::net::Ipv4Addr;
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use vnet_sim::time::SimTime;

    fn world_with_device() -> (World, NodeId) {
        let mut w = World::new(11);
        let n = w.add_node("server1", 4, NodeClock::perfect());
        let _eth0 = w.add_device(DeviceConfig::new("eth0", n).forwarding(Forwarding::Deliver));
        (w, n)
    }

    fn udp_spec() -> TraceSpec {
        TraceSpec {
            name: "eth0_rx".into(),
            node: "server1".into(),
            hook: HookSpec::DeviceRx("eth0".into()),
            filter: FilterRule::udp_flow(
                (Ipv4Addr::new(10, 0, 0, 1), 1000),
                (Ipv4Addr::new(10, 0, 0, 2), 2000),
            ),
            action: Action::RecordPacketInfo,
        }
    }

    fn udp_pkt() -> vnet_sim::packet::Packet {
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1000),
            SocketAddrV4::sock("10.0.0.2", 2000),
        );
        PacketBuilder::udp(flow, vec![0xaa; 20]).build()
    }

    #[test]
    fn install_fire_drain_cycle() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let id = agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..3 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        let stats = agent.stats(id).unwrap();
        assert_eq!(stats.executions, 3);
        assert_eq!(stats.matched, 3);
        assert_eq!(stats.errors, 0);
        let mut batch = vnet_tsdb::RecordBatch::new();
        assert_eq!(agent.drain_into(&mut batch), 3);
        assert_eq!(batch.groups().len(), 1);
        assert_eq!(batch.groups()[0].measurement, "eth0_rx");
        // Second drain is empty.
        assert_eq!(agent.drain_into(&mut batch), 0);
    }

    #[test]
    fn non_matching_traffic_not_recorded() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let id = agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        let other = FlowKey::udp(
            SocketAddrV4::sock("10.9.9.9", 1),
            SocketAddrV4::sock("10.0.0.2", 2000),
        );
        w.inject(dev, PacketBuilder::udp(other, vec![0; 8]).build());
        w.run_until(SimTime::from_millis(1));
        let stats = agent.stats(id).unwrap();
        assert_eq!(stats.executions, 1, "one logical run");
        assert_eq!(stats.matched, 0, "that did not match");
        assert_eq!(agent.drain_into(&mut vnet_tsdb::RecordBatch::new()), 0);
    }

    #[test]
    fn uninstall_detaches_probe() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let id = agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        agent.uninstall(&mut w, id).unwrap();
        assert!(matches!(
            agent.uninstall(&mut w, id),
            Err(TracerError::UnknownScript(_))
        ));
        let dev = w.find_device(n, "eth0").unwrap();
        w.inject(dev, udp_pkt());
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.probes_fired(), 0);
    }

    #[test]
    fn uninstall_frees_the_scripts_maps() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        // A map the caller made (for `install_raw`) is not the agent's
        // to free.
        let own = agent
            .maps()
            .borrow_mut()
            .create(MapDef::array(8, 1), 4)
            .unwrap();
        let count_spec = TraceSpec {
            action: Action::CountPerCpu,
            ..udp_spec()
        };
        for spec in [udp_spec(), count_spec] {
            for _ in 0..50 {
                let id = agent
                    .install(&mut w, &spec, &GlobalConfig::default())
                    .unwrap();
                assert_eq!(agent.maps().borrow().len(), 2);
                agent.uninstall(&mut w, id).unwrap();
            }
        }
        assert!(agent.installed.is_empty());
        assert_eq!(
            agent.maps().borrow().len(),
            1,
            "one ring set per cycle leaked"
        );
        assert!(agent.maps().borrow().get(own).is_some());
    }

    #[test]
    fn uninstall_drops_undrained_records() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        // A one-record ring: three of the four firings are lost.
        let tiny = GlobalConfig {
            buffer_size: 32,
            ..GlobalConfig::default()
        };
        let id = agent.install(&mut w, &udp_spec(), &tiny).unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..4 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        assert_eq!(agent.lost_records_total(), 3);
        agent.uninstall(&mut w, id).unwrap();
        // A bare uninstall takes the ring with it: collect first
        // (`VNetTracer::undeploy` does) to keep what it held.
        assert_eq!(agent.drain_into(&mut vnet_tsdb::RecordBatch::new()), 0);
        assert_eq!(agent.lost_records(id), 0);
        assert_eq!(agent.lost_records_total(), 0);
    }

    #[test]
    fn counter_script_counts() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let spec = TraceSpec {
            name: "count".into(),
            node: "server1".into(),
            hook: HookSpec::DeviceRx("eth0".into()),
            filter: FilterRule::any(),
            action: Action::CountPerCpu,
        };
        let id = agent
            .install(&mut w, &spec, &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..5 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        let counts = agent.counter_per_cpu(id).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 5);
        assert_eq!(agent.counter_per_cpu(999), None);
    }

    #[test]
    fn probe_timestamps_use_node_clock() {
        let mut w = World::new(12);
        let n = w.add_node("skewed", 2, NodeClock::with_offset_ns(1_000_000));
        w.add_device(DeviceConfig::new("eth0", n).forwarding(Forwarding::Deliver));
        let mut agent = Agent::new(n, "skewed", 2);
        agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        w.inject(dev, udp_pkt());
        w.run_until(SimTime::from_millis(1));
        let mut batch = vnet_tsdb::RecordBatch::new();
        assert_eq!(agent.drain_into(&mut batch), 1);
        assert_eq!(
            batch.groups()[0].records[0].timestamp_ns,
            1_000_000,
            "injection at t=0 on a +1ms clock"
        );
    }

    #[test]
    fn certified_cost_bounds_actual_cost() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let id = agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..3 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        let stats = agent.stats(id).unwrap();
        assert!(stats.certified_cost_ns > PROBE_BASE_COST_NS);
        assert!(
            stats.avg_run_ns() <= stats.certified_cost_ns,
            "dynamic {} ns exceeded certificate {} ns",
            stats.avg_run_ns(),
            stats.certified_cost_ns
        );
    }

    #[test]
    fn a_tap_on_a_missing_device_is_refused() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        for hook in [
            HookSpec::DeviceRx("eth9".into()),
            HookSpec::DeviceTx("eth9".into()),
        ] {
            let spec = TraceSpec { hook, ..udp_spec() };
            let err = agent
                .install(&mut w, &spec, &GlobalConfig::default())
                .unwrap_err();
            assert_eq!(err.to_string(), "device `eth9` not found on node `server1`");
        }
        // Nothing was attached and no map was made.
        assert!(agent.installed.is_empty());
        assert!(agent.maps().borrow().is_empty());
        // The device the node has is tapped as before.
        agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
    }

    #[test]
    fn over_budget_script_rejected_at_attach() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        // A one-nanosecond budget is under even the bare probe entry.
        let global = GlobalConfig {
            probe_budget: Some(1),
            ..GlobalConfig::default()
        };
        for _ in 0..9 {
            assert!(agent.install(&mut w, &udp_spec(), &global).is_err());
        }
        let err = agent.install(&mut w, &udp_spec(), &global).unwrap_err();
        match err {
            TracerError::OverBudget {
                certified_ns,
                budget_ns,
                ref report,
                ..
            } => {
                assert_eq!(budget_ns, 1);
                assert!(certified_ns > budget_ns);
                assert!(report.contains("certified worst-case"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Nothing was attached, and the ten rejected installs left no
        // perf ring behind.
        assert!(agent.installed.is_empty());
        assert!(agent.maps().borrow().is_empty());
        // A generous budget admits the same script.
        let global = GlobalConfig {
            probe_budget: Some(1_000_000),
            ..GlobalConfig::default()
        };
        agent.install(&mut w, &udp_spec(), &global).unwrap();
    }

    #[test]
    fn raw_install_respects_budget() {
        use vnet_ebpf::asm::{reg::*, Asm};
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let insns = Asm::new().mov64_imm(R0, 0).exit().build().unwrap();
        let hook = HookSpec::DeviceRx("eth0".into());
        let global = GlobalConfig {
            probe_budget: Some(PROBE_BASE_COST_NS),
            ..GlobalConfig::default()
        };
        // mov+exit certifies above the bare entry cost: rejected.
        assert!(matches!(
            agent.install_raw(&mut w, "tiny", &hook, insns.clone(), &global),
            Err(TracerError::OverBudget { .. })
        ));
        let global = GlobalConfig {
            probe_budget: Some(PROBE_BASE_COST_NS + 10),
            ..GlobalConfig::default()
        };
        agent
            .install_raw(&mut w, "tiny", &hook, insns, &global)
            .unwrap();
    }

    #[test]
    fn over_budget_reports_pinned() {
        // The whole rejection text of two scripts, folded into one
        // CRC-32: the compiled UDP-flow recorder (its perf-ring `lddw`
        // annotated as a map pointer) at a 1 ns budget, and a raw
        // `mov`+`exit` at the bare probe entry.
        use vnet_ebpf::asm::{reg::*, Asm};
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        let budget = |ns| GlobalConfig {
            probe_budget: Some(ns),
            ..GlobalConfig::default()
        };
        let compiled = agent.install(&mut w, &udp_spec(), &budget(1));
        let insns = Asm::new().mov64_imm(R0, 0).exit().build().unwrap();
        let hook = HookSpec::DeviceRx("eth0".into());
        let raw = agent.install_raw(&mut w, "tiny", &hook, insns, &budget(PROBE_BASE_COST_NS));
        let mut digest = Vec::new();
        for result in [compiled, raw] {
            let err = result.unwrap_err();
            assert!(matches!(err, TracerError::OverBudget { .. }), "{err}");
            digest.extend(err.to_string().bytes());
            digest.push(0);
        }
        assert_eq!(vnet_tsdb::codec::crc32(&digest), 0x0b5a_239d);
    }

    /// A sink for `spec`'s program over a registry of its own (the
    /// script's map at fd 0 on four CPUs), knowing the program's check
    /// table or, with `decide` off, none, so that it runs the threaded
    /// code on every firing as a raw install does.
    fn sink_for(spec: &TraceSpec, decide: bool) -> (EbpfProbeSink, Rc<RefCell<MapRegistry>>) {
        let mut maps = MapRegistry::new();
        let fd = match spec.action {
            Action::CountPerCpu => maps.create(MapDef::per_cpu_array(8, 1), 4),
            _ => maps.create(MapDef::perf(64 * 1024), 4),
        }
        .unwrap();
        let (program, checks) = crate::compile::compile(spec, Some(fd), Some(fd)).unwrap();
        let loaded = vnet_ebpf::program::load(program, &maps, &standard_helpers()).unwrap();
        let maps = Rc::new(RefCell::new(maps));
        let checks = if decide { &checks[..] } else { &[] };
        let sink = EbpfProbeSink::new(&loaded, checks, Rc::clone(&maps), 0x5eed, 1_500).unwrap();
        (sink, maps)
    }

    #[test]
    fn a_decided_miss_is_exactly_the_run_it_replaces() {
        // One seeded stream of firings through two sinks of the same
        // script: one decides misses from the check table, the other runs
        // the threaded code on every firing. The stream mixes matching
        // frames, frames with one filter field's byte inverted, short and
        // empty frames, TCP, and firings that carry no packet; it starts
        // with a miss, which carries the one-time compile charge. Every
        // firing's cost, the final stats (certificate included) and what
        // the script left in its maps are identical, for a one-flow
        // recorder, a match-all recorder (a length check only) and a
        // one-flow counter.
        use vnet_sim::ids::{CpuId, DeviceId};
        use vnet_sim::packet::{trace_id, Packet, TcpFlags};
        let mut tagged = udp_pkt();
        trace_id::inject_udp_trailer(&mut tagged, 0xfeed_c0de).unwrap();
        let tcp_flow = FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 1000),
            SocketAddrV4::sock("10.0.0.2", 2000),
        );
        let tcp = PacketBuilder::tcp(tcp_flow, 1, 2, TcpFlags::ACK, vec![9; 12]).build();
        let mut frames = vec![
            Some(Packet::from_bytes([])),
            Some(udp_pkt()),
            Some(tagged.clone()),
            Some(tcp),
            None,
        ];
        // Every byte of each filter field.
        for at in [12, 13, 23, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37] {
            let mut bytes = tagged.bytes().to_vec();
            bytes[at] ^= 0xff;
            frames.push(Some(Packet::from_bytes(bytes)));
        }
        for len in [1, 14, 34, 37, 38, 42, 63] {
            frames.push(Some(Packet::from_bytes(&tagged.bytes()[..len])));
        }
        let count_spec = TraceSpec {
            action: Action::CountPerCpu,
            ..udp_spec()
        };
        let any_spec = TraceSpec {
            filter: FilterRule::any(),
            ..udp_spec()
        };
        for spec in [udp_spec(), any_spec, count_spec] {
            let (mut decided, decided_maps) = sink_for(&spec, true);
            let (mut run, run_maps) = sink_for(&spec, false);
            let compile_ns = decided.pending_compile_ns;
            let mut state = 0x5eed_u64;
            for i in 0..2_000u64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                // Firing 0 is the empty frame: a miss for every script.
                let pick = if i == 0 {
                    0
                } else {
                    (state >> 33) as usize % frames.len()
                };
                let event = ProbeEvent {
                    node: NodeId(3),
                    cpu: CpuId((state >> 20) as u16 % 4),
                    device: Some(DeviceId(1)),
                    direction: if state & 1 == 0 {
                        Direction::Rx
                    } else {
                        Direction::Tx
                    },
                    packet: frames[pick].as_ref(),
                    monotonic_ns: 1_000 * i,
                    aux: (state >> 40) as u32 % 8,
                };
                let outcome = decided.handle(&event);
                assert_eq!(outcome, run.handle(&event), "{:?} firing {i}", spec.action);
                if i == 0 {
                    let (_, miss) = decided.misses[0];
                    assert_eq!(
                        outcome.cost.as_nanos(),
                        PROBE_BASE_COST_NS + miss.cost_ns + compile_ns
                    );
                }
            }
            assert!(compile_ns > 0 && decided.pending_compile_ns == 0);
            assert_eq!(decided.stats, run.stats, "{:?}", spec.action);
            let misses = decided.stats.executions - decided.stats.matched;
            assert!(
                misses > 300 && decided.stats.matched > 100,
                "{:?}",
                decided.stats
            );
            let (mut a, mut b) = (decided_maps.borrow_mut(), run_maps.borrow_mut());
            let (a, b) = (a.get_mut(0).unwrap(), b.get_mut(0).unwrap());
            for cpu in 0..4 {
                match spec.action {
                    Action::CountPerCpu => assert_eq!(
                        a.lookup(&0u32.to_le_bytes(), cpu).unwrap().to_vec(),
                        b.lookup(&0u32.to_le_bytes(), cpu).unwrap().to_vec()
                    ),
                    _ => assert_eq!(a.perf_drain(cpu), b.perf_drain(cpu)),
                }
            }
        }
    }

    #[test]
    fn a_table_its_program_does_not_make_is_refused() {
        // The match-all recorder makes only the length check; handed the
        // one-flow table, its calibration run for the `ether_type` row
        // records instead of missing, and the sink is not built.
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::perf(4096), 4).unwrap();
        let any_spec = TraceSpec {
            filter: FilterRule::any(),
            ..udp_spec()
        };
        let (program, _) = crate::compile::compile(&any_spec, Some(fd), None).unwrap();
        let (_, flow_checks) = crate::compile::compile(&udp_spec(), Some(fd), None).unwrap();
        let loaded = vnet_ebpf::program::load(program, &maps, &standard_helpers()).unwrap();
        let maps = Rc::new(RefCell::new(maps));
        let err = EbpfProbeSink::new(&loaded, &flow_checks, maps, 1, 0).unwrap_err();
        assert!(
            matches!(err, TracerError::Calibration { check: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn heartbeats_increment() {
        let (_, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        assert_eq!(agent.heartbeat(), 1);
        assert_eq!(agent.heartbeat(), 2);
    }

    #[test]
    fn lost_records_counted_on_tiny_buffer() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        // 32-byte buffer holds exactly one record.
        let tiny = GlobalConfig {
            buffer_size: 32,
            ..GlobalConfig::default()
        };
        let id = agent.install(&mut w, &udp_spec(), &tiny).unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..4 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        assert_eq!(agent.lost_records(id), 3);
        assert_eq!(agent.lost_records_total(), 3);
        assert_eq!(agent.drain_into(&mut vnet_tsdb::RecordBatch::new()), 1);
    }

    #[test]
    fn drain_into_batches_by_script_and_reuses_buffers() {
        let (mut w, n) = world_with_device();
        let mut agent = Agent::new(n, "server1", 4);
        agent
            .install(&mut w, &udp_spec(), &GlobalConfig::default())
            .unwrap();
        let dev = w.find_device(n, "eth0").unwrap();
        for _ in 0..3 {
            w.inject(dev, udp_pkt());
        }
        w.run_until(SimTime::from_millis(1));
        let mut batch = vnet_tsdb::RecordBatch::new();
        assert_eq!(agent.drain_into(&mut batch), 3);
        assert_eq!(batch.len(), 3);
        let group = &batch.groups()[0];
        assert_eq!(group.measurement, "eth0_rx");
        assert_eq!(group.node, "server1");
        assert!(group.records.iter().all(|r| r.pkt_len > 0));
        // Second cycle: clear, fire again, drain into the same batch.
        batch.clear();
        w.inject(dev, udp_pkt());
        w.run_until(SimTime::from_millis(2));
        assert_eq!(agent.drain_into(&mut batch), 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.groups().len(), 1, "group was reused, not re-added");
        // Nothing left after the drain.
        batch.clear();
        assert_eq!(agent.drain_into(&mut batch), 0);
    }
}
