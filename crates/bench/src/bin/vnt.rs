//! `vnt` — a command-line front end for the tracer, in the spirit of the
//! paper's dispatcher front end that "reads the user input from terminal
//! and generates the formatted configuration files".
//!
//! Runs one of the prebuilt testbed scenarios, deploys a control package
//! (the scenario's default, or one loaded from a JSON file), and prints
//! the collected metrics.
//!
//! ```text
//! vnt <two-host|ovs|xen|container> [--package FILE.json] [--messages N] [--emit-package]
//! vnt rack [--messages N] [--full] [--trace]
//! vnt live --from-db <DIR> [--pair FROM,TO] [--window-us W] [--collect-us I]
//! vnt live [--messages N] [--window-us W] [--collect-us I] [--save-db DIR]
//! vnt emulate [--profile NAME|all] [--rack] [--seed N] [--messages N]
//! vnt modules
//! vnt trace drop-lab [--profile NAME] [--messages N] [--save-db DIR] [--emit-package]
//! vnt trace request-chain [--profile NAME] [--messages N] [--seed N] [--save-db DIR] [--emit-package]
//! vnt verify <prog.bpf>
//! vnt db stats <dir>
//! vnt db query <dir> <measurement> [START_NS END_NS]
//! vnt db export <dir> [FILE.jsonl]
//! vnt db import <dir> <FILE.jsonl>
//! ```
//!
//! `--emit-package` prints the scenario's default control package as JSON
//! (a starting point for hand-edited packages) and exits.
//!
//! `vnt live` runs the quickstart container-overlay scenario with a
//! streaming `vnet-live` engine attached to the collector: the world is
//! stepped in collection-interval slices, every batch flows through the
//! windowed operators at ingest time, and the finalized per-window
//! metrics (throughput, latency percentiles, jitter, loss) are printed
//! together with any anomaly alerts — no post-hoc database scan.
//!
//! `vnt rack` runs the `datacenter_rack` scale scenario (hundreds of
//! VM nodes behind a ToR, OVS/VXLAN forwarding); `--full` selects the
//! million-flow configuration instead of the small smoke size, and
//! `--trace` deploys a record script at every bridge and VM port.
//!
//! `vnt emulate` replays a trace-driven adversarial link condition
//! (LEO-handover delay steps, congested-WAN rate dips, flapping links,
//! asymmetric-route skew, Gilbert–Elliott burst loss — or `all`)
//! against the two-host testbed (or the rack with `--rack`) with the
//! `vnet-live` anomaly detector attached, and prints each condition's
//! precision/recall against the generator's ground-truth episode
//! windows.
//!
//! `vnt modules` lists the built-in probe/collector modules — each with
//! its record schema and alert kinds — and the named profiles that bundle
//! them; `vnt trace <scenario> --profile NAME` deploys a named profile
//! over one of the module scenario packs (the `drop-lab` typed-drop
//! lanes or the `request-chain` memcached tiers) through the module
//! registry, the same plumbing every testbed uses. Under its default
//! `drops` profile the drop lab prints the per-reason drop breakdown
//! from the trace database next to the simulator's ground-truth
//! counters.
//!
//! `vnt live --from-db DIR` replays a trace database persisted in the
//! columnar on-disk format through the streaming engine instead of
//! driving a scenario: records are fed in collection-interval slices in
//! timestamp order, with per-node heartbeats advancing the watermark.
//! `--pair FROM,TO` (repeatable) adds latency/loss tracking between two
//! tables; throughput is tracked for every table found. `--save-db DIR`
//! on the in-process `vnt live` (and on `vnt trace`) persists the run's
//! records to such a database.
//!
//! `vnt db` inspects and moves trace databases stored in the columnar
//! segment format: `stats` prints the per-measurement segment/block/WAL
//! breakdown of a database directory, `query` runs a (time-range) scan
//! of one measurement and prints what it matched next to the scan
//! counters — segments and blocks pruned on the footer versus decoded,
//! bytes read — so "why was this query slow" is one command, `export`
//! dumps every record as JSON lines (to a file or stdout), and `import`
//! loads a JSON-lines dump into a database directory, journaled and
//! sealed like live ingest.
//!
//! `vnt verify` runs the abstract-interpretation verifier over a
//! kernel-style program listing (one instruction per line, `#` comments
//! and `;` annotations ignored) and prints the shared annotated cost
//! listing — per-instruction worst-case-to-here and per-op charge
//! columns over the joined register state at each instruction, which is
//! the verifier's explanation of why it accepted the program; for
//! rejected programs, every diagnostic with the register state at the
//! point of rejection.
//!
//! A flag outside a command's synopsis line is refused (`unknown flag`,
//! exit 1). Everything `vnt` prints to stdout goes through one fallible
//! writer (`say!`); a reader that stops reading (`vnt two-host | head -1`)
//! ends the run quietly with exit status 0.

use std::cell::RefCell;
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use vnet_bench::report::Table;
use vnet_testbed::container::{ContainerConfig, ContainerScenario, NetMode, Transport};
use vnet_testbed::Testbed;
use vnet_tsdb::TraceDb;
use vnettracer::config::{ControlPackage, GlobalConfig};
use vnettracer::modules::ModuleRegistry;
use vnettracer::{metrics, VNetTracer};

/// What a command ends with: nothing, or why it stopped — a message for
/// stderr, or a failed write to stdout.
type Outcome<T = ()> = Result<T, Box<dyn Error>>;

/// `println!` through `vnt`'s one stdout writer: a failed write returns
/// from the calling function as an error for `main`, where `println!`
/// would panic.
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)?
    };
}

/// Every command `vnt` runs and what it reads, one synopsis line each;
/// `usage()` prints them. A line is the words that select the command
/// (the first may list alternatives, `<a|b>`), then its arguments: a flag
/// in brackets, `[--flag]`, or `[--flag VALUE]` when it takes a value,
/// and positional operands, `<NEEDED>` or `[OPTIONAL ...]`. `parse_args`
/// takes the first line whose words a command line starts with and
/// refuses any argument that line does not name.
const COMMANDS: &[&str] = &[
    "<two-host|ovs|xen|container> [--package FILE.json] [--messages N] [--emit-package]",
    "rack [--messages N] [--full] [--trace]",
    "live --from-db <DIR> [--pair FROM,TO] [--window-us W] [--collect-us I]",
    "live [--messages N] [--window-us W] [--collect-us I] [--save-db DIR]",
    "emulate [--profile NAME|all] [--rack] [--seed N] [--messages N]",
    "modules",
    "trace drop-lab [--profile NAME] [--messages N] [--save-db DIR] [--emit-package]",
    "trace request-chain [--profile NAME] [--messages N] [--seed N] [--save-db DIR] [--emit-package]",
    "verify <prog.bpf>",
    "db stats <dir>",
    "db query <dir> <measurement> [START_NS END_NS]",
    "db export <dir> [FILE.jsonl]",
    "db import <dir> <FILE.jsonl>",
];

/// One command line: the command it selected, its operands and the flags
/// it set.
#[derive(Default)]
struct Args {
    /// The selecting words of its [`COMMANDS`] line (`two-host`,
    /// `trace drop-lab`, `live --from-db`, …).
    command: String,
    operands: Vec<String>,
    package: Option<String>,
    messages: Option<u64>,
    emit_package: bool,
    /// `--window-us`, in nanoseconds.
    window_ns: u64,
    /// `--collect-us`, in nanoseconds.
    collect_ns: u64,
    full: bool,
    trace: bool,
    profile: Option<String>,
    rack: bool,
    seed: Option<u64>,
    save_db: Option<String>,
    pairs: Vec<(String, String)>,
}

impl Args {
    /// `--messages`, or 500 where the testbed has no default of its own.
    fn messages(&self) -> u64 {
        self.messages.unwrap_or(500)
    }

    /// Records one flag of the command's line, with its value if it takes
    /// one.
    fn set(&mut self, flag: &str, value: Option<String>) -> Result<(), String> {
        let number = |v: &Option<String>| -> Result<u64, String> {
            let v = v.as_deref().unwrap_or_default();
            v.parse().map_err(|e| format!("bad {flag}: {e}"))
        };
        let micros = |v: &Option<String>| {
            let us = number(v)?;
            us.checked_mul(1_000)
                .ok_or(format!("bad {flag}: {us} us overflows nanoseconds"))
        };
        match flag {
            "--package" => self.package = value,
            "--profile" => self.profile = value,
            "--save-db" => self.save_db = value,
            "--messages" => self.messages = Some(number(&value)?),
            "--seed" => self.seed = Some(number(&value)?),
            "--window-us" => self.window_ns = micros(&value)?,
            "--collect-us" => self.collect_ns = micros(&value)?,
            "--pair" => {
                let spec = value.unwrap_or_default();
                let (from, to) = spec
                    .split_once(',')
                    .ok_or(format!("bad --pair `{spec}`: expected FROM,TO"))?;
                self.pairs.push((from.to_owned(), to.to_owned()));
            }
            "--emit-package" => self.emit_package = true,
            "--full" => self.full = true,
            "--trace" => self.trace = true,
            "--rack" => self.rack = true,
            other => unreachable!("`{other}` is in COMMANDS but read nowhere"),
        }
        Ok(())
    }
}

/// The words of a [`COMMANDS`] line that select it, each a `|`-list of
/// alternatives.
fn command_words(line: &str) -> impl Iterator<Item = &str> {
    let mut words = line.split(' ');
    let first = words.next().unwrap_or_default().trim_matches(['<', '>']);
    std::iter::once(first).chain(words.take_while(|w| !w.starts_with(['<', '['])))
}

/// The bracketed arguments of a [`COMMANDS`] line, brackets stripped.
fn optional(line: &str) -> impl Iterator<Item = &str> {
    line.split('[')
        .skip(1)
        .filter_map(|g| Some(g.split_once(']')?.0))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut words: Vec<String> = args.into_iter().collect();
    let first = words.first().ok_or_else(usage)?.clone();
    // `--from-db` selects the replay line wherever it stands after `live`.
    if let (Some(i), "live") = (words.iter().position(|w| w == "--from-db"), first.as_str()) {
        words[1..=i].rotate_right(1);
    }
    let selects = |line: &str| {
        command_words(line).enumerate().all(|(i, alts)| {
            words
                .get(i)
                .is_some_and(|w| alts.split('|').any(|a| a == w))
        })
    };
    let Some(line) = COMMANDS.iter().find(|l| selects(l)) else {
        let said: Vec<&str> = words.iter().take(2).map(String::as_str).collect();
        let said = if COMMANDS.iter().any(|l| l.starts_with(&format!("{first} "))) {
            said.join(" ")
        } else {
            first
        };
        return Err(format!("error: unknown scenario `{said}`\n{}", usage()));
    };
    let selecting = command_words(line).count();
    let mut out = Args {
        command: words[..selecting].join(" "),
        window_ns: 100_000,
        collect_ns: 50_000,
        ..Args::default()
    };
    // How many operands the line takes: its `<NEEDED>` ones, then each
    // optional group whole or not at all.
    let mut counts = vec![line
        .split(' ')
        .skip(1)
        .filter(|w| w.starts_with('<'))
        .count()];
    for group in optional(line).filter(|g| !g.starts_with("--")) {
        counts.push(counts[counts.len() - 1] + group.split(' ').count());
    }
    let most = counts[counts.len() - 1];
    let mut rest = words.into_iter().skip(selecting);
    while let Some(arg) = rest.next() {
        let flag = optional(line)
            .map(|g| g.split_once(' ').unwrap_or((g, "")))
            .find(|&(f, _)| f == arg && f.starts_with("--"));
        match flag {
            Some((flag, value)) => {
                let value = (!value.is_empty())
                    .then(|| rest.next().ok_or(format!("{flag} needs {value}")))
                    .transpose()?;
                out.set(flag, value)?;
            }
            None if !arg.starts_with("--") && out.operands.len() < most => out.operands.push(arg),
            None => return Err(format!("unknown flag `{arg}`\n{}", usage())),
        }
    }
    if !counts.contains(&out.operands.len()) {
        return Err(format!("usage: vnt {line}"));
    }
    if out.window_ns == 0 || out.collect_ns == 0 {
        return Err("--window-us and --collect-us must be non-zero".to_owned());
    }
    if out.command == "rack" {
        rack_config(&out)?;
    }
    Ok(out)
}

/// The rack `vnt rack` runs: the small or `--full` shape with `--messages`
/// packets per app, refused when the rack cannot count that many.
fn rack_config(args: &Args) -> Result<vnet_workloads::datacenter_rack::RackConfig, String> {
    use vnet_workloads::datacenter_rack::RackConfig;
    let mut cfg = if args.full {
        RackConfig::default()
    } else {
        RackConfig::small()
    };
    cfg.packets_per_app = args.messages.unwrap_or(cfg.packets_per_app);
    cfg.validate().map_err(|e| format!("bad --messages: {e}"))?;
    Ok(cfg)
}

/// Every line of [`COMMANDS`].
fn usage() -> String {
    format!("usage: vnt {}", COMMANDS.join("\n       vnt "))
}

/// `vnt verify <file>`: parse a program listing, run the
/// abstract-interpretation verifier against the standard helper set, and
/// print the shared annotated cost listing (the same renderer the
/// agent's over-budget report uses), each instruction with the joined
/// register state at its input. Returns an error (non-zero exit) when
/// the listing cannot be read or parsed, or verification rejects it.
fn verify_file(path: &str) -> Outcome {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    let insns =
        vnet_ebpf::parse::parse_program(&lines).map_err(|e| format!("{path}: parse error: {e}"))?;
    let analysis = vnet_ebpf::analyze(&insns, &vnet_ebpf::standard_helpers());
    if !analysis.ok() {
        let log = vnet_ebpf::analysis::render_log(&insns, &analysis);
        write!(io::stdout(), "{log}")?;
        return Err(format!(
            "{path}: rejected with {} diagnostic(s)",
            analysis.diagnostics().len()
        )
        .into());
    }
    let cert = vnet_ebpf::certify(&insns, |pc| analysis.state_at(pc).is_some());
    let report = vnet_ebpf::render_cost_report(&insns, &analysis, &cert);
    write!(io::stdout(), "{report}")?;
    say!("verification OK");
    Ok(())
}

/// Opens the database a read-only command was pointed at. A directory
/// that holds none is an error, not a new, empty database.
fn open_existing_db(dir: &str) -> Result<TraceDb, String> {
    if !std::path::Path::new(dir)
        .join(vnet_tsdb::store::MANIFEST_FILE)
        .is_file()
    {
        return Err(format!("no trace database at {dir}"));
    }
    TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))
}

/// `vnt db <stats|query|export|import> <dir> [...]`: inspect, query, dump
/// or load a columnar trace database directory.
fn run_db(args: &Args) -> Outcome {
    let dir = &args.operands[0];
    match args.command.as_str() {
        "db stats" => {
            let db = open_existing_db(dir)?;
            let s = db.storage_stats().expect("open databases are disk-backed");
            let mut t = Table::new(
                "segment store",
                &[
                    "measurement",
                    "segments",
                    "blocks",
                    "sealed",
                    "hot",
                    "encoded (B)",
                    "raw (B)",
                    "ratio",
                ],
            );
            let mut blocks = 0;
            for m in db.measurement_storage() {
                blocks += m.blocks;
                t.row(&[
                    m.measurement.clone(),
                    m.segments.to_string(),
                    m.blocks.to_string(),
                    m.sealed_records.to_string(),
                    m.hot_records.to_string(),
                    m.encoded_bytes.to_string(),
                    m.raw_bytes.to_string(),
                    format!("{:.3}", m.compression_ratio()),
                ]);
            }
            t.row(&[
                "total".into(),
                s.segments.to_string(),
                blocks.to_string(),
                s.sealed_records.to_string(),
                s.wal_records.to_string(),
                s.encoded_bytes.to_string(),
                s.raw_bytes.to_string(),
                format!("{:.3}", s.compression_ratio()),
            ]);
            say!("{t}");
            say!(
                "wal backlog: {} bytes, {} batches, {} records (replayed into the hot tail on open)",
                s.wal_bytes,
                s.wal_batches,
                s.wal_records
            );
            say!(
                "compaction: {} merges ({} segments in, {} rows written, {} bytes reclaimed), {} seals this process",
                s.compactions,
                s.segments_merged,
                s.rows_merged,
                s.bytes_reclaimed,
                s.seals
            );
        }
        "db query" => {
            let measurement = &args.operands[1];
            let mut query = vnet_tsdb::Query::new(measurement.as_str());
            if let [start, end] = &args.operands[2..] {
                let ns = |v: &String| v.parse::<u64>().map_err(|e| format!("bad time `{v}`: {e}"));
                query = query.time_range(ns(start)?, ns(end)?);
            }
            let db = open_existing_db(dir)?;
            let scan = query.scan(&db).map_err(|e| format!("scan failed: {e}"))?;
            let entries = scan.entries();
            let len = vnet_tsdb::aggregate(&entries, "pkt_len");
            say!(
                "{measurement}: {} entries, pkt_len mean {:.1} B (min {}, max {})",
                entries.len(),
                len.mean,
                len.min,
                len.max
            );
            let s = scan.stats();
            let segments = (s.segments_total, s.segments_pruned, s.segments_scanned);
            let blocks = (s.blocks_total, s.blocks_pruned, s.blocks_scanned);
            for (unit, (total, pruned, decoded)) in [("segments", segments), ("blocks", blocks)] {
                say!("{unit:>8}: {total} total, {pruned} pruned on the footer, {decoded} decoded");
            }
            say!(
                "matched {} sealed rows + {} hot entries; read {} chunk bytes, at most {} rows decoded at once",
                s.rows_matched,
                s.hot_entries,
                s.bytes_read,
                s.peak_decoded_rows
            );
        }
        "db export" => {
            let db = open_existing_db(dir)?;
            let mut out: Box<dyn Write> = match args.operands.get(1) {
                Some(path) => Box::new(io::BufWriter::new(
                    std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?,
                )),
                None => Box::new(io::stdout().lock()),
            };
            let written = vnet_tsdb::write_json_lines(&db, &mut out)?;
            out.flush()?;
            eprintln!("exported {written} records from {dir}");
        }
        "db import" => {
            let path = &args.operands[1];
            let mut db = TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let total = vnet_tsdb::import_json_lines(io::BufReader::new(f), &mut db)
                .map_err(|e| format!("{path}: {e}"))?;
            db.flush().map_err(|e| format!("flush failed: {e}"))?;
            say!("imported {total} records into {dir}");
        }
        other => unreachable!("`{other}` is not a db command"),
    }
    Ok(())
}

/// The one path a traced run takes on testbed `bed`: takes the package
/// `--package` names, else `package` (the testbed's own, or a `--profile`
/// resolved through the module registry) and, under `--emit-package`,
/// prints it and returns `None`. Otherwise it deploys the package with a
/// tracer over a fresh store or the `--save-db` one, runs the workload with
/// `run`, collects, and flushes the store; it returns the tracer and the
/// records collected.
fn deploy<S: Testbed>(
    args: &Args,
    bed: &mut S,
    package: ControlPackage,
    run: impl FnOnce(&mut S, &mut VNetTracer),
) -> Outcome<Option<(VNetTracer, usize)>> {
    let package = match &args.package {
        None => package,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ControlPackage::from_json(&text).map_err(|e| format!("bad package JSON: {e}"))?
        }
    };
    if args.emit_package {
        say!("{}", package.to_json());
        return Ok(None);
    }
    let db = match &args.save_db {
        None => TraceDb::new(),
        Some(dir) => TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?,
    };
    let mut tracer = VNetTracer::for_world(bed.world(), db);
    tracer.deploy(bed.world(), &package)?;
    run(bed, &mut tracer);
    let collected = tracer.collect(bed.world());
    if args.save_db.is_some() {
        tracer
            .flush_db()
            .map_err(|e| format!("cannot flush database: {e}"))?;
    }
    Ok(Some((tracer, collected)))
}

/// Prints the per-table record counts and the flow summary after a run.
fn print_db_summary(tracer: &VNetTracer) -> Outcome {
    let mut t = Table::new("trace database", &["table", "records", "throughput (Mbps)"]);
    let mut names: Vec<&str> = tracer.db().measurements().collect();
    names.sort_unstable();
    for name in names {
        let len = tracer.db().table(name).map_or(0, |tb| tb.len());
        let tput = metrics::throughput_at(tracer.db(), name) / 1e6;
        t.row(&[name.into(), len.to_string(), format!("{tput:.1}")]);
    }
    say!("{t}");
    Ok(())
}

/// Prints the collector's self-observability counters: per-agent ingest
/// totals, perf-ring losses and heartbeat lag.
fn print_collector_stats(stats: &vnettracer::collector::CollectorStats) -> Outcome {
    let mut t = Table::new(
        "collector",
        &[
            "agent", "seq", "batches", "records", "bytes", "lost", "lag (us)",
        ],
    );
    for a in &stats.agents {
        t.row(&[
            a.node.clone(),
            a.last_seq.to_string(),
            a.stats.batches.to_string(),
            a.stats.records.to_string(),
            a.stats.bytes.to_string(),
            a.lost_records.to_string(),
            a.lag.as_micros().to_string(),
        ]);
    }
    t.row(&[
        "total".into(),
        String::new(),
        stats.totals.batches.to_string(),
        stats.totals.records.to_string(),
        stats.totals.bytes.to_string(),
        stats.lost_records.to_string(),
        String::new(),
    ]);
    say!("{t}");
    Ok(())
}

/// The mean latency of each segment along `chain`.
fn print_decomposition(tracer: &VNetTracer, chain: &[&str]) -> Outcome {
    let mut t = Table::new("latency decomposition", &["segment", "mean (us)"]);
    for seg in metrics::decompose(tracer.db(), chain) {
        t.row(&[
            format!("{} -> {}", seg.from, seg.to),
            format!("{:.1}", seg.stats.mean_ns / 1e3),
        ]);
    }
    say!("{t}");
    Ok(())
}

/// Prints per-program run statistics: how often each trace script fired
/// and what it cost — the kernel-style `run_cnt` / `run_time_ns`
/// counters.
fn print_run_stats(tracer: &VNetTracer) -> Outcome {
    let mut t = Table::new(
        "trace programs",
        &[
            "script",
            "node",
            "runs",
            "matched",
            "errors",
            "avg ns/run",
            "ops",
            "fused",
        ],
    );
    for s in tracer.run_stats() {
        t.row(&[
            s.name.clone(),
            s.node.clone(),
            s.stats.executions.to_string(),
            s.stats.matched.to_string(),
            s.stats.errors.to_string(),
            s.stats.avg_run_ns().to_string(),
            s.stats.ops_executed.to_string(),
            s.stats.fused_hits.to_string(),
        ]);
    }
    say!("{t}");
    Ok(())
}

/// A live engine over `specs` with `--window-us` tumbling windows.
fn live_engine(args: &Args, specs: &[vnettracer::MetricSpec]) -> vnet_live::LiveEngine {
    let mut cfg = vnet_live::LiveConfig::from_metric_specs(
        vnet_live::WindowSpec::tumbling(args.window_ns),
        specs,
    );
    cfg.pair_timeout_ns = args.window_ns.max(1_000_000);
    vnet_live::LiveEngine::new(cfg)
}

/// `vnt live`: the quickstart container-overlay measurement, computed in
/// flight by a `vnet-live` engine subscribed to the collector instead of
/// by scanning the trace database afterwards.
fn run_live(args: &Args) -> Outcome {
    use vnettracer::config::Proto;
    use vnettracer::modules::{ModuleScope, TapSpec};

    let cfg = ContainerConfig {
        mode: NetMode::Overlay,
        transport: Transport::NetperfUdp,
        count: args.messages(),
    };

    // The §III-A tracepoints: where the VXLAN-encapsulated flow leaves
    // flannel.1 on vm1 and where it arrives at flannel.1 on vm2 — the
    // `packet-path` module's tap scope, packaged through the registry's
    // default profile like every testbed.
    let filter = vnettracer::config::FilterRule {
        ether_type: Some(0x0800),
        protocol: Some(Proto::Udp),
        src_ip: Some(vnet_testbed::container::VM1_IP),
        dst_ip: Some(vnet_testbed::container::VM2_IP),
        dst_port: Some(4789),
        ..vnettracer::config::FilterRule::any()
    };
    let scope = ModuleScope {
        packet_taps: vec![
            TapSpec::tx("flannel1", "vm1", "flannel.1", filter),
            TapSpec::rx("flannel2", "vm2", "flannel.1", filter),
        ],
        latency_pairs: vec![("flannel1".into(), "flannel2".into())],
        throughput_tables: vec!["flannel2".into()],
        ..Default::default()
    };
    let registry = ModuleRegistry::builtin();
    let package = registry.package("default", &scope, GlobalConfig::default())?;
    let mut engine = live_engine(args, &registry.metrics("default", &scope)?);
    engine.register_agent("vm1", None);
    engine.register_agent("vm2", None);

    let engine = Rc::new(RefCell::new(engine));
    let end_ns = args.messages() * 15_000 + 20_000_000;
    let mut s = ContainerScenario::build(&cfg);
    // Step the world one collection interval at a time, collecting what
    // each slice traced before stepping the next (`deploy` collects the
    // last): every collect flows through the engine as it is ingested.
    let ran = deploy(args, &mut s, package, |s, tracer| {
        tracer.subscribe(engine.clone());
        let mut t = 0u64;
        while t < end_ns {
            if t > 0 {
                tracer.collect(&s.world);
            }
            t = t.saturating_add(args.collect_ns).min(end_ns);
            s.world.run_until(vnet_sim::time::SimTime::from_nanos(t));
        }
    })?;
    let Some((tracer, _)) = ran else {
        return Ok(());
    };
    let mut engine = engine.borrow_mut();
    engine.finish();
    if let Some(dir) = &args.save_db {
        // The store's count: after the flush, the hot tails are empty.
        say!("persisted {} records to {dir}", tracer.db().len());
    }
    print_live_report(&mut engine, &[("flannel1".into(), "flannel2".into())])
}

/// Prints the per-window metric table, the alerts, and the cumulative
/// per-pair latency summaries out of a finished live engine — shared by
/// the in-process `vnt live` and the `--from-db` replay.
fn print_live_report(eng: &mut vnet_live::LiveEngine, pairs: &[(String, String)]) -> Outcome {
    let mut table = Table::new(
        "live windows",
        &[
            "window (us)",
            "pkts",
            "Mbps",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "jitter (us)",
            "lost/seen",
        ],
    );
    for w in eng.drain_closed() {
        let tput = w
            .throughput
            .first()
            .map(|(_, t)| (t.count, t.bps() / 1e6))
            .unwrap_or((0, 0.0));
        let lat = w.latency.first().map(|(_, l)| *l);
        let loss = w.loss.first().map(|(_, l)| *l).unwrap_or_default();
        table.row(&[
            format!("{}..{}", w.start_ns / 1_000, w.end_ns / 1_000),
            tput.0.to_string(),
            format!("{:.1}", tput.1),
            lat.map_or("-".into(), |l| format!("{:.1}", l.p50_ns as f64 / 1e3)),
            lat.map_or("-".into(), |l| format!("{:.1}", l.p95_ns as f64 / 1e3)),
            lat.map_or("-".into(), |l| format!("{:.1}", l.p99_ns as f64 / 1e3)),
            lat.and_then(|l| l.jitter).map_or("-".into(), |(lo, hi)| {
                format!("{:.1}..{:.1}", lo as f64 / 1e3, hi as f64 / 1e3)
            }),
            format!("{}/{}", loss.lost, loss.seen),
        ]);
    }
    say!("{table}");

    let alerts = eng.drain_alerts();
    if alerts.is_empty() {
        say!("no anomalies detected");
    } else {
        say!("alerts:");
        for a in &alerts {
            say!("  {a}");
        }
    }

    let state = eng.state();
    say!(
        "\nstreamed {} records ({} late) through {} open + {} closed windows, \
         {} sketch buckets, {} pending pairs in {} resident sightings",
        state.records_processed,
        state.late_records,
        state.open_windows,
        state.closed_windows,
        state.sketch_buckets,
        state.pending_pairs,
        state.resident_sightings,
    );
    for (from, to) in pairs {
        if let Some(total) = eng.latency_total(from, to) {
            say!(
                "cumulative {from} -> {to}: {} pairs, p50 {:.1} us, p99 {:.1} us, \
                 smoothed jitter {:.2} us",
                total.count,
                total.p50_ns as f64 / 1e3,
                total.p99_ns as f64 / 1e3,
                total.smoothed_jitter_ns / 1e3,
            );
        }
    }
    Ok(())
}

/// `vnt live --from-db DIR`: replay an on-disk trace database through
/// the streaming engine. Records from every measurement are replayed in
/// timestamp order in collection-interval slices, with a heartbeat per
/// node advancing the watermark after every slice — the same cadence the
/// in-process collector produces. Throughput is tracked for every table
/// found in the database; `--pair FROM,TO` adds latency/loss between two
/// tables. The metric set comes from the registry's `packet-path` module
/// so the replay uses the same operator plumbing as a live run.
fn run_live_replay(args: &Args, dir: &str) -> Outcome {
    use std::collections::BTreeSet;
    use vnettracer::modules::ModuleScope;

    let db = open_existing_db(dir)?;
    let mut tables: Vec<String> = db.measurements().map(str::to_owned).collect();
    tables.sort_unstable();
    if tables.is_empty() {
        return Err(format!("{dir}: database holds no measurements").into());
    }
    for (from, to) in &args.pairs {
        for t in [from, to] {
            if !tables.iter().any(|have| have == t) {
                return Err(format!(
                    "--pair table `{t}` not in the database (tables: {})",
                    tables.join(", ")
                )
                .into());
            }
        }
    }

    let scope = ModuleScope {
        latency_pairs: args.pairs.clone(),
        throughput_tables: tables.clone(),
        ..Default::default()
    };
    let mut engine = live_engine(args, &ModuleRegistry::builtin().metrics("default", &scope)?);

    // Flatten the store — sealed segments and the hot tail alike — into
    // (timestamp, table, node, record) and replay in timestamp order.
    let mut recs: Vec<(u64, &str, String, vnet_tsdb::CompactRecord)> = Vec::new();
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for name in &tables {
        let scan = vnet_tsdb::Query::new(name)
            .scan(&db)
            .map_err(|e| format!("cannot scan {name}: {e}"))?;
        for entry in scan.entries() {
            let (node, rec) = (entry.node().to_owned(), *entry.record());
            nodes.insert(node.clone());
            recs.push((rec.timestamp_ns, name.as_str(), node, rec));
        }
    }
    recs.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
    for n in &nodes {
        engine.register_agent(n, None);
    }

    let mut i = 0usize;
    let mut now = recs.first().map_or(0, |r| r.0);
    while i < recs.len() {
        now = now.saturating_add(args.collect_ns);
        let mut batch = vnet_tsdb::RecordBatch::new();
        while i < recs.len() && recs[i].0 <= now {
            let (_, table, node, rec) = &recs[i];
            batch.push(table, node, *rec);
            i += 1;
        }
        engine.ingest(&batch, now);
        for n in &nodes {
            engine.heartbeat(n, now);
        }
    }
    engine.finish();

    say!(
        "replayed {} records from {} table(s), {} node(s) in {dir}\n",
        recs.len(),
        tables.len(),
        nodes.len()
    );
    print_live_report(&mut engine, &args.pairs)
}

/// `vnt emulate`: replay adversarial link conditions against a testbed
/// with the `vnet-live` detector attached, and score its alerts against
/// the generators' ground-truth episode windows.
fn run_emulate(args: &Args) -> Outcome {
    use vnet_testbed::emulate::{run_rack, run_two_host, AdversarialProfile, EmulationConfig};

    let profiles: Vec<AdversarialProfile> = match args.profile.as_deref() {
        None | Some("all") => AdversarialProfile::all().to_vec(),
        Some(name) => vec![name.parse()?],
    };
    let mut cfg = EmulationConfig::default();
    cfg.messages = args.messages.unwrap_or(cfg.messages);
    cfg.seed = args.seed.unwrap_or(cfg.seed);
    say!(
        "emulate: {} scenario, seed {}, {} messages",
        if args.rack { "rack" } else { "two-host" },
        cfg.seed,
        cfg.messages
    );
    let mut t = Table::new(
        "detector validation",
        &[
            "profile",
            "episodes",
            "detected",
            "alerts",
            "matched",
            "other",
            "precision",
            "recall",
            "events",
        ],
    );
    let mut unscored = false;
    for p in profiles {
        let r = if args.rack {
            run_rack(Some(p), &cfg)
        } else {
            run_two_host(Some(p), &cfg)
        };
        let recall = r.recall();
        unscored |= recall.is_none();
        t.row(&[
            p.name().into(),
            r.episodes.len().to_string(),
            r.detected_episodes.to_string(),
            r.expected_alerts.len().to_string(),
            r.matched_alerts.to_string(),
            r.other_alerts.len().to_string(),
            format!("{:.3}", r.precision()),
            recall.map_or("n/a".into(), |v| format!("{v:.3}")),
            r.events_processed.to_string(),
        ]);
    }
    say!("{t}");
    if unscored {
        say!(
            "recall n/a: {} messages end before a profile's first ground-truth episode; raise --messages",
            cfg.messages
        );
    }
    Ok(())
}

/// `vnt trace drop-lab [--profile NAME]`: run the engineered drop lanes
/// under a named module profile (`drops` by default) and print the
/// per-reason breakdown from the trace database next to the simulator's
/// ground-truth counters.
fn run_drop_lab(args: &Args) -> Outcome {
    use vnet_testbed::drop_lab::{DropLab, DropLabConfig, DROP_TABLE};

    let mut cfg = DropLabConfig::default();
    cfg.packets_per_lane = args.messages.unwrap_or(cfg.packets_per_lane);
    let profile = args.profile.as_deref().unwrap_or("drops");
    let registry = ModuleRegistry::builtin();
    let mut lab = DropLab::build(&cfg);
    let package = registry.package(profile, &lab.module_scope(), GlobalConfig::default())?;
    let Some((tracer, n)) = deploy(args, &mut lab, package, |lab, _| lab.run())? else {
        return Ok(());
    };
    say!(
        "profile `{profile}`: collected {n} records over 6 lanes x {} packets\n",
        cfg.packets_per_lane
    );
    print_db_summary(&tracer)?;
    print_run_stats(&tracer)?;
    if !tracer.deployed().iter().any(|d| d.name == DROP_TABLE) {
        say!("profile `{profile}` attaches no `skb-drop` module; no drop breakdown");
        return Ok(());
    }
    let truth = lab.ground_truth();
    let breakdown = metrics::drop_breakdown(tracer.db(), DROP_TABLE);
    let traced = |reason: &str| {
        breakdown
            .iter()
            .find(|(r, _)| r == reason)
            .map_or(0, |&(_, n)| n)
    };
    let mut t = Table::new("drop breakdown", &["reason", "traced", "ground truth"]);
    let mut total = (0u64, 0u64);
    for (reason, expected) in &truth {
        let got = traced(reason);
        total.0 += got;
        total.1 += expected;
        t.row(&[reason.clone(), got.to_string(), expected.to_string()]);
    }
    t.row(&["total".into(), total.0.to_string(), total.1.to_string()]);
    say!("{t}");
    if breakdown == truth {
        say!("breakdown matches the simulator's drop counters exactly");
    } else {
        say!("MISMATCH against ground truth: traced {breakdown:?}, counters {truth:?}");
    }
    Ok(())
}

/// `vnt trace request-chain [--profile NAME]`: run the memcached
/// client → proxy → backend tiers under a named module profile and print
/// the cross-tier latency decomposition joined by the in-band trace ID.
fn run_request_chain(args: &Args) -> Outcome {
    use vnet_testbed::memcached_chain::{ChainConfig, MemcachedChain};

    let mut cfg = ChainConfig::default();
    cfg.seed = args.seed.unwrap_or(cfg.seed);
    cfg.requests = args.messages.unwrap_or(cfg.requests);
    let profile = args.profile.as_deref().unwrap_or("requests");
    let registry = ModuleRegistry::builtin();
    let mut chain = MemcachedChain::build(&cfg);
    let package = registry.package(profile, &chain.module_scope(), GlobalConfig::default())?;
    let Some((tracer, n)) = deploy(args, &mut chain, package, |c, _| c.run())? else {
        return Ok(());
    };
    say!(
        "profile `{profile}`: collected {n} records over {} requests\n",
        cfg.requests
    );
    print_db_summary(&tracer)?;
    print_run_stats(&tracer)?;

    let chain_tables = MemcachedChain::decomposition_chain();
    let deployed = tracer.deployed();
    if !deployed
        .iter()
        .any(|d| chain_tables.contains(&d.name.as_str()))
    {
        say!("profile `{profile}` attaches no `request-trace` taps; no decomposition");
        return Ok(());
    }
    let segs = metrics::decompose(tracer.db(), &chain_tables);
    let mut sum_means = 0.0;
    if !segs.is_empty() {
        let mut t = Table::new(
            "cross-tier decomposition",
            &["segment", "mean (us)", "p99 (us)"],
        );
        for seg in &segs {
            sum_means += seg.stats.mean_ns;
            t.row(&[
                format!("{} -> {}", seg.from, seg.to),
                format!("{:.2}", seg.stats.mean_ns / 1e3),
                format!("{:.2}", seg.stats.p99_ns as f64 / 1e3),
            ]);
        }
        say!("{t}");
    }
    let first = chain_tables[0];
    let last = chain_tables[chain_tables.len() - 1];
    let e2e = metrics::decompose(tracer.db(), &[first, last]);
    if let Some(e2e) = e2e.first() {
        say!(
            "end-to-end {} -> {}: mean {:.2} us (segment means sum to {:.2} us)",
            first,
            last,
            e2e.stats.mean_ns / 1e3,
            sum_means / 1e3
        );
    }
    let complete = metrics::per_packet_segments(tracer.db(), &chain_tables)
        .iter()
        .filter(|(_, segs)| segs.iter().all(Option::is_some))
        .count();
    say!("{complete} request(s) observed at every tier");
    Ok(())
}

/// `vnt rack`: the rack at scale, untraced or (`--trace`) with a record
/// script at every bridge and VM port.
fn run_rack(args: &Args) -> Outcome {
    use vnet_testbed::rack::RackTestbed;
    let cfg = rack_config(args)?;
    say!(
        "rack: {} hosts, {} VM nodes, {} apps, {} concurrent flows",
        cfg.hosts,
        cfg.hosts * cfg.vms_per_host,
        cfg.apps(),
        cfg.concurrent_flows()
    );
    let mut tb = RackTestbed::build(&cfg);
    let mut elapsed = Duration::ZERO;
    let mut timed_run = |tb: &mut RackTestbed| {
        let wall = Instant::now();
        tb.run();
        elapsed = wall.elapsed();
    };
    let collected = if args.trace {
        let package = tb.control_package();
        deploy(args, &mut tb, package, |tb, _| timed_run(tb))?.map(|(_, n)| n)
    } else {
        timed_run(&mut tb);
        None
    };
    let (world, elapsed) = (&tb.scenario.world, elapsed.as_secs_f64());
    let events = world.events_processed();
    say!(
        "processed {events} events in {elapsed:.2}s ({:.0} events/sec)",
        events as f64 / elapsed.max(1e-9)
    );
    say!(
        "delivered {} of {} packets",
        tb.scenario.delivered_packets(),
        cfg.total_packets()
    );
    if let Some(n) = collected {
        say!(
            "collected {n} records, {} probe firings",
            world.probes_fired()
        );
    }
    Ok(())
}

fn run(args: &Args) -> Outcome {
    match args.command.as_str() {
        "verify" => verify_file(&args.operands[0]),
        "modules" => {
            let listing = ModuleRegistry::builtin().render_listing();
            Ok(write!(io::stdout(), "{listing}")?)
        }
        "trace drop-lab" => run_drop_lab(args),
        "trace request-chain" => run_request_chain(args),
        "live" => run_live(args),
        "live --from-db" => run_live_replay(args, &args.operands[0]),
        "emulate" => run_emulate(args),
        "rack" => run_rack(args),
        "two-host" => {
            use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
            let cfg = TwoHostConfig {
                messages: args.messages(),
                ..Default::default()
            };
            let mut s = TwoHostScenario::build(&cfg);
            let package = s.control_package();
            let Some((tracer, n)) = deploy(args, &mut s, package, |s, _| s.run(&cfg))? else {
                return Ok(());
            };
            say!("collected {n} records\n");
            print_db_summary(&tracer)?;
            print_collector_stats(&tracer.stats(&s.world))?;
            print_run_stats(&tracer)?;
            if let Some(summary) = s.latency.borrow_mut().summary() {
                say!(
                    "sockperf: avg {:.1} us, p99.9 {:.1} us over {} messages",
                    summary.mean_us(),
                    summary.p999_us(),
                    summary.count
                );
            }
            Ok(())
        }
        "ovs" => {
            use vnet_testbed::ovs::{OvsCase, OvsConfig, OvsScenario};
            let cfg = OvsConfig {
                case: OvsCase::III,
                messages: args.messages(),
                ..Default::default()
            };
            let mut s = OvsScenario::build(&cfg);
            let package = s.control_package();
            let Some((tracer, _)) = deploy(args, &mut s, package, |s, _| s.run(&cfg))? else {
                return Ok(());
            };
            print_db_summary(&tracer)?;
            print_collector_stats(&tracer.stats(&s.world))?;
            print_run_stats(&tracer)?;
            print_decomposition(&tracer, &OvsScenario::decomposition_chain())
        }
        "xen" => {
            use vnet_testbed::xen::{Consolidation, XenConfig, XenScenario};
            let cfg = XenConfig {
                consolidation: Consolidation::SharedDefaultRatelimit,
                requests: args.messages(),
                ..Default::default()
            };
            let mut s = XenScenario::build(&cfg);
            let package = s.control_package();
            let Some((tracer, _)) = deploy(args, &mut s, package, |s, _| s.run(&cfg))? else {
                return Ok(());
            };
            print_db_summary(&tracer)?;
            print_run_stats(&tracer)?;
            print_decomposition(&tracer, &XenScenario::decomposition_chain())
        }
        "container" => {
            let cfg = ContainerConfig {
                mode: NetMode::Overlay,
                transport: Transport::NetperfUdp,
                count: args.messages(),
            };
            let mut s = ContainerScenario::build(&cfg);
            let package = s.control_package();
            let Some((tracer, _)) = deploy(args, &mut s, package, |s, _| s.run(&cfg))? else {
                return Ok(());
            };
            print_run_stats(&tracer)?;
            let mut t = Table::new(
                "softirq counters (vm2)",
                &["counter", "cpu0", "cpu1", "cpu2", "cpu3"],
            );
            for name in ["net_rx_action", "get_rps_cpu"] {
                if let Some(c) = tracer.counter_per_cpu(name) {
                    t.row(&[
                        name.into(),
                        c[0].to_string(),
                        c[1].to_string(),
                        c[2].to_string(),
                        c[3].to_string(),
                    ]);
                }
            }
            say!("{t}");
            say!("goodput: {:.0} Mbps", s.goodput_mbps());
            Ok(())
        }
        // The four `db` rows.
        _ => run_db(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that stopped reading (`vnt … | head`) ends the run.
        Err(e)
            if std::iter::successors(Some(&*e), |e| (*e).source()).any(|e| {
                e.downcast_ref::<io::Error>()
                    .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
            }) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn microsecond_flags_become_nanoseconds() {
        let args = parse(&["live"]).unwrap();
        assert_eq!((args.window_ns, args.collect_ns), (100_000, 50_000));
        let args = parse(&["live", "--window-us", "250", "--collect-us", "7"]).unwrap();
        assert_eq!((args.window_ns, args.collect_ns), (250_000, 7_000));
        let largest = (u64::MAX / 1_000).to_string();
        let args = parse(&["live", "--window-us", &largest]).unwrap();
        assert_eq!(args.window_ns, u64::MAX / 1_000 * 1_000);
    }

    #[test]
    fn microsecond_flags_that_overflow_nanoseconds_are_rejected() {
        let too_big = (u64::MAX / 1_000 + 1).to_string();
        for flag in ["--window-us", "--collect-us"] {
            let Err(err) = parse(&["live", flag, &too_big]) else {
                panic!("{flag} {too_big} must not parse");
            };
            assert!(err.starts_with(&format!("bad {flag}: ")), "{err}");
            let Err(err) = parse(&["live", flag, "ten"]) else {
                panic!("{flag} ten must not parse");
            };
            assert!(err.starts_with(&format!("bad {flag}: ")), "{err}");
            assert!(parse(&["live", flag, "0"]).is_err());
            assert!(parse(&["live", flag]).is_err());
        }
    }

    #[test]
    fn rack_messages_the_rack_cannot_count_are_rejected() {
        let max = u64::MAX.to_string();
        for args in [
            &["rack", "--messages", &max][..],
            &["rack", "--messages", &max, "--full"],
            // 16 clients x 2^60 fits u64; 20 us x 2^60 in nanoseconds does not.
            &["rack", "--messages", &(1u64 << 60).to_string()],
        ] {
            let Err(err) = parse(args) else {
                panic!("{args:?} must not parse");
            };
            assert!(err.starts_with("bad --messages: "), "{err}");
        }
        assert_eq!(
            parse(&["rack", "--messages", "2000"]).unwrap().messages,
            Some(2000)
        );
        // Only the rack multiplies `--messages` out at parse time.
        assert!(parse(&["two-host", "--messages", &max]).is_ok());
    }

    /// The module doc's synopsis is the table `usage()` prints.
    #[test]
    fn the_module_doc_synopsis_is_the_table() {
        let synopsis: Vec<&str> = include_str!("vnt.rs")
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .collect();
        let table: Vec<String> = COMMANDS.iter().map(|l| format!("//! vnt {l}")).collect();
        assert_eq!(synopsis, table);
    }

    /// `live --from-db` is its own command: the in-process `live` reads
    /// none of its flags, and it reads none of the in-process ones.
    #[test]
    fn from_db_selects_the_replay_line() {
        let args = parse(&["live", "--from-db", "d", "--pair", "a,b"]).unwrap();
        assert_eq!(
            (args.command.as_str(), &args.operands[..]),
            ("live --from-db", &["d".to_owned()][..])
        );
        assert_eq!(args.pairs, [("a".to_owned(), "b".to_owned())]);
        assert!(parse(&["live", "--pair", "a,b"]).is_err());
        assert!(parse(&["live", "--from-db", "d", "--messages", "5"]).is_err());
        assert!(parse(&["live", "--from-db"]).is_err());
        // `--from-db` may stand anywhere after `live`.
        let args = parse(&[
            "live",
            "--pair",
            "a,b",
            "--from-db",
            "d",
            "--collect-us",
            "7",
        ])
        .unwrap();
        assert_eq!(
            (args.command.as_str(), &args.operands[..], args.collect_ns),
            ("live --from-db", &["d".to_owned()][..], 7_000)
        );
    }
}
