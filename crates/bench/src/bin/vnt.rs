//! `vnt` — a command-line front end for the tracer, in the spirit of the
//! paper's dispatcher front end that "reads the user input from terminal
//! and generates the formatted configuration files".
//!
//! Runs one of the prebuilt testbed scenarios, deploys a control package
//! (the scenario's default, or one loaded from a JSON file), and prints
//! the collected metrics.
//!
//! ```text
//! vnt <scenario> [--package FILE.json] [--messages N] [--emit-package]
//! vnt rack [--messages N] [--full] [--trace]
//! vnt live [--messages N] [--window-us W] [--collect-us I] [--save-db DIR]
//! vnt live --from-db DIR [--pair FROM,TO] [--window-us W] [--collect-us I]
//! vnt emulate [--profile NAME|all] [--rack] [--seed N] [--messages N]
//! vnt modules
//! vnt trace <drop-lab|request-chain> [--profile NAME] [--messages N] [--seed N] [--save-db DIR]
//! vnt drops [--messages N] [--seed N]
//! vnt verify <prog.bpf>
//! vnt db stats <dir>
//! vnt db query <dir> <measurement> [START_NS END_NS]
//! vnt db export <dir> [FILE.jsonl]
//! vnt db import <dir> <FILE.jsonl>
//!
//! scenarios: two-host | ovs | xen | container | rack
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
//! registry, the same plumbing every testbed uses. `vnt drops` is the
//! shorthand for the drop lab with the `drops` profile: it prints the
//! per-reason drop breakdown from the trace database next to the
//! simulator's ground-truth counters.
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
//! dumps every record as
//! JSON lines (to a file or stdout), and `import` loads a JSON-lines
//! dump into a database directory, journaled and sealed like live
//! ingest.
//!
//! `vnt verify` runs the abstract-interpretation verifier over a
//! kernel-style program listing (one instruction per line, `#` comments
//! and `;` annotations ignored) and prints the shared annotated cost
//! listing — per-instruction worst-case-to-here and per-op charge
//! columns over the joined register state at each instruction, which is
//! the verifier's explanation of why it accepted the program; for
//! rejected programs, every diagnostic with the register state at the
//! point of rejection.

use std::process::ExitCode;

use vnet_bench::report::Table;
use vnettracer::config::ControlPackage;
use vnettracer::metrics;

struct Args {
    scenario: String,
    target: Option<String>,
    package: Option<String>,
    messages: u64,
    messages_set: bool,
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
    from_db: Option<String>,
    save_db: Option<String>,
    pairs: Vec<(String, String)>,
    rest: Vec<String>,
}

impl Args {
    fn defaults(scenario: String) -> Self {
        Args {
            scenario,
            target: None,
            package: None,
            messages: 500,
            messages_set: false,
            emit_package: false,
            window_ns: 100_000,
            collect_ns: 50_000,
            full: false,
            trace: false,
            profile: None,
            rack: false,
            seed: None,
            from_db: None,
            save_db: None,
            pairs: Vec::new(),
            rest: Vec::new(),
        }
    }
}

/// Parses the microsecond value of `flag` into nanoseconds.
fn parse_micros(flag: &str, value: Option<String>) -> Result<u64, String> {
    let us: u64 = value
        .ok_or(format!("{flag} needs a number"))?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))?;
    us.checked_mul(1_000)
        .ok_or(format!("bad {flag}: {us} us overflows nanoseconds"))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let scenario = args.next().ok_or_else(usage)?;
    if scenario == "db" {
        let mut out = Args::defaults(scenario);
        out.rest = args.collect();
        return Ok(out);
    }
    if scenario == "modules" {
        return Ok(Args::defaults(scenario));
    }
    if scenario == "verify" {
        let file = args
            .next()
            .ok_or("verify needs a program file".to_owned())?;
        let mut out = Args::defaults(scenario);
        out.package = Some(file);
        return Ok(out);
    }
    let mut out = Args::defaults(scenario);
    if out.scenario == "trace" {
        out.target = Some(
            args.next().ok_or(
                "trace needs a scenario: vnt trace <drop-lab|request-chain> [--profile NAME]"
                    .to_owned(),
            )?,
        );
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--package" => {
                out.package = Some(args.next().ok_or("--package needs a file".to_owned())?)
            }
            "--messages" => {
                out.messages = args
                    .next()
                    .ok_or("--messages needs a number".to_owned())?
                    .parse()
                    .map_err(|e| format!("bad --messages: {e}"))?;
                out.messages_set = true;
            }
            "--full" => out.full = true,
            "--trace" => out.trace = true,
            "--rack" => out.rack = true,
            "--profile" => {
                out.profile = Some(args.next().ok_or("--profile needs a name".to_owned())?)
            }
            "--seed" => {
                out.seed = Some(
                    args.next()
                        .ok_or("--seed needs a number".to_owned())?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--window-us" => out.window_ns = parse_micros("--window-us", args.next())?,
            "--collect-us" => out.collect_ns = parse_micros("--collect-us", args.next())?,
            "--emit-package" => out.emit_package = true,
            "--from-db" => {
                out.from_db = Some(
                    args.next()
                        .ok_or("--from-db needs a directory".to_owned())?,
                )
            }
            "--save-db" => {
                out.save_db = Some(
                    args.next()
                        .ok_or("--save-db needs a directory".to_owned())?,
                )
            }
            "--pair" => {
                let spec = args.next().ok_or("--pair needs FROM,TO".to_owned())?;
                let (from, to) = spec
                    .split_once(',')
                    .ok_or(format!("bad --pair `{spec}`: expected FROM,TO"))?;
                out.pairs.push((from.to_owned(), to.to_owned()));
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if out.window_ns == 0 || out.collect_ns == 0 {
        return Err("--window-us and --collect-us must be non-zero".to_owned());
    }
    if out.scenario == "rack" {
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
    if args.messages_set {
        cfg.packets_per_app = args.messages;
    }
    cfg.validate().map_err(|e| format!("bad --messages: {e}"))?;
    Ok(cfg)
}

fn usage() -> String {
    "usage: vnt <two-host|ovs|xen|container> [--package FILE.json] [--messages N] [--emit-package]\n       vnt rack [--messages N] [--full] [--trace]\n       vnt live [--messages N] [--window-us W] [--collect-us I] [--save-db DIR]\n       vnt live --from-db DIR [--pair FROM,TO] [--window-us W] [--collect-us I]\n       vnt emulate [--profile NAME|all] [--rack] [--seed N] [--messages N]\n       vnt modules\n       vnt trace <drop-lab|request-chain> [--profile NAME] [--messages N] [--seed N] [--save-db DIR]\n       vnt drops [--messages N] [--seed N]\n       vnt verify <prog.bpf>\n       vnt db <stats|query|export|import> <dir> [...]"
        .to_owned()
}

/// `vnt verify <file>`: parse a program listing, run the
/// abstract-interpretation verifier against the standard helper set, and
/// print the shared annotated cost listing (the same renderer the
/// agent's over-budget report uses), each instruction with the joined
/// register state at its input. Returns an error (non-zero exit) when
/// the listing cannot be read or parsed, or verification rejects it.
fn verify_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let lines: Vec<&str> = text.lines().collect();
    let insns =
        vnet_ebpf::parse::parse_program(&lines).map_err(|e| format!("{path}: parse error: {e}"))?;
    let analysis = vnet_ebpf::analyze(&insns, &vnet_ebpf::standard_helpers());
    if !analysis.ok() {
        print!("{}", vnet_ebpf::analysis::render_log(&insns, &analysis));
        return Err(format!(
            "{path}: rejected with {} diagnostic(s)",
            analysis.diagnostics().len()
        ));
    }
    let cert = vnet_ebpf::certify(&insns, |pc| analysis.state_at(pc).is_some());
    print!(
        "{}",
        vnet_ebpf::render_cost_report(&insns, &analysis, &cert)
    );
    println!("verification OK");
    Ok(())
}

/// Opens the database a read-only command was pointed at. A directory
/// that holds none is an error, not a new, empty database.
fn open_existing_db(dir: &str) -> Result<vnet_tsdb::TraceDb, String> {
    if !std::path::Path::new(dir)
        .join(vnet_tsdb::store::MANIFEST_FILE)
        .is_file()
    {
        return Err(format!("no trace database at {dir}"));
    }
    vnet_tsdb::TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))
}

/// `vnt db <stats|query|export|import> <dir> [...]`: inspect, query, dump
/// or load a columnar trace database directory.
fn run_db(rest: &[String]) -> Result<(), String> {
    const DB_USAGE: &str = "usage: vnt db stats <dir>\n       vnt db query <dir> <measurement> [START_NS END_NS]\n       vnt db export <dir> [FILE.jsonl]\n       vnt db import <dir> <FILE.jsonl>";
    let action = rest
        .first()
        .map(String::as_str)
        .ok_or_else(|| DB_USAGE.to_owned())?;
    let dir = rest
        .get(1)
        .ok_or_else(|| format!("db {action} needs a database directory\n{DB_USAGE}"))?;
    match action {
        "stats" => {
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
            println!("{t}");
            println!(
                "wal backlog: {} bytes, {} batches, {} records (replayed into the hot tail on open)",
                s.wal_bytes, s.wal_batches, s.wal_records
            );
            println!(
                "compaction: {} merges ({} segments in, {} rows written, {} bytes reclaimed), {} seals this process",
                s.compactions, s.segments_merged, s.rows_merged, s.bytes_reclaimed, s.seals
            );
            Ok(())
        }
        "query" => {
            let measurement = rest
                .get(2)
                .ok_or_else(|| format!("db query needs a measurement\n{DB_USAGE}"))?;
            let mut query = vnet_tsdb::Query::new(measurement.as_str());
            if let (Some(start), Some(end)) = (rest.get(3), rest.get(4)) {
                let ns = |v: &String| v.parse::<u64>().map_err(|e| format!("bad time `{v}`: {e}"));
                query = query.time_range(ns(start)?, ns(end)?);
            } else if rest.len() > 3 {
                return Err(format!(
                    "a time range needs START_NS and END_NS\n{DB_USAGE}"
                ));
            }
            let db = open_existing_db(dir)?;
            let scan = query.scan(&db).map_err(|e| format!("scan failed: {e}"))?;
            let entries = scan.entries();
            let len = vnet_tsdb::aggregate(&entries, "pkt_len");
            println!(
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
                println!(
                    "{unit:>8}: {total} total, {pruned} pruned on the footer, {decoded} decoded"
                );
            }
            println!(
                "matched {} sealed rows + {} hot entries; read {} chunk bytes, at most {} rows decoded at once",
                s.rows_matched, s.hot_entries, s.bytes_read, s.peak_decoded_rows
            );
            Ok(())
        }
        "export" => {
            let db = open_existing_db(dir)?;
            let written = match rest.get(2) {
                Some(path) => {
                    let f = std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?;
                    let mut w = std::io::BufWriter::new(f);
                    let n = vnet_tsdb::write_json_lines(&db, &mut w)
                        .map_err(|e| format!("export failed: {e}"))?;
                    std::io::Write::flush(&mut w)
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    n
                }
                None => vnet_tsdb::write_json_lines(&db, std::io::stdout().lock())
                    .map_err(|e| format!("export failed: {e}"))?,
            };
            eprintln!("exported {written} records from {dir}");
            Ok(())
        }
        "import" => {
            let path = rest
                .get(2)
                .ok_or_else(|| format!("db import needs a JSON-lines file\n{DB_USAGE}"))?;
            let mut db =
                vnet_tsdb::TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
            let f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let total = vnet_tsdb::import_json_lines(std::io::BufReader::new(f), &mut db)
                .map_err(|e| format!("{path}: {e}"))?;
            db.flush().map_err(|e| format!("flush failed: {e}"))?;
            println!("imported {total} records into {dir}");
            Ok(())
        }
        other => Err(format!("unknown db action `{other}`\n{DB_USAGE}")),
    }
}

fn load_package(args: &Args, default: ControlPackage) -> Result<ControlPackage, String> {
    match &args.package {
        None => Ok(default),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ControlPackage::from_json(&text).map_err(|e| format!("bad package JSON: {e}"))
        }
    }
}

/// Prints the per-table record counts and the flow summary after a run.
fn print_db_summary(tracer: &vnettracer::VNetTracer) {
    let mut t = Table::new("trace database", &["table", "records", "throughput (Mbps)"]);
    let mut names: Vec<&str> = tracer.db().measurements().collect();
    names.sort_unstable();
    for name in names {
        let len = tracer.db().table(name).map_or(0, |tb| tb.len());
        let tput = metrics::throughput_at(tracer.db(), name) / 1e6;
        t.row(&[name.into(), len.to_string(), format!("{tput:.1}")]);
    }
    println!("{t}");
}

/// Prints the collector's self-observability counters: per-agent ingest
/// totals, perf-ring losses and heartbeat lag.
fn print_collector_stats(stats: &vnettracer::collector::CollectorStats) {
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
    println!("{t}");
}

/// Prints per-program run statistics: how often each trace script fired
/// and what it cost — the kernel-style `run_cnt` / `run_time_ns`
/// counters.
/// The mean latency of each segment along `chain`.
fn print_decomposition(tracer: &vnettracer::VNetTracer, chain: &[&str]) {
    let mut t = Table::new("latency decomposition", &["segment", "mean (us)"]);
    for seg in metrics::decompose(tracer.db(), chain) {
        t.row(&[
            format!("{} -> {}", seg.from, seg.to),
            format!("{:.1}", seg.stats.mean_ns / 1e3),
        ]);
    }
    println!("{t}");
}

fn print_run_stats(tracer: &vnettracer::VNetTracer) {
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
    println!("{t}");
}

/// `vnt live`: the quickstart container-overlay measurement, computed in
/// flight by a `vnet-live` engine subscribed to the collector instead of
/// by scanning the trace database afterwards.
fn run_live(args: &Args) -> Result<(), String> {
    use std::cell::RefCell;
    use std::rc::Rc;
    use vnettracer::config::{GlobalConfig, Proto};
    use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};
    use vnettracer::IngestSubscriber;

    if let Some(dir) = &args.from_db {
        return run_live_replay(args, dir);
    }

    let cfg = vnet_testbed::container::ContainerConfig {
        mode: vnet_testbed::container::NetMode::Overlay,
        transport: vnet_testbed::container::Transport::NetperfUdp,
        count: args.messages,
        ..Default::default()
    };
    let mut s = vnet_testbed::container::ContainerScenario::build(&cfg);

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
    let package = registry
        .package("default", &scope, GlobalConfig::default())
        .map_err(|e| e.to_string())?;
    let specs = registry
        .metrics("default", &scope)
        .map_err(|e| e.to_string())?;

    let mut live_cfg = vnet_live::LiveConfig::from_metric_specs(
        vnet_live::WindowSpec::tumbling(args.window_ns),
        &specs,
    );
    live_cfg.pair_timeout_ns = args.window_ns.max(1_000_000);
    let mut engine = vnet_live::LiveEngine::new(live_cfg);
    engine.register_agent("vm1", None);
    engine.register_agent("vm2", None);
    let engine = Rc::new(RefCell::new(engine));

    let mut tracer = match &args.save_db {
        Some(dir) => {
            let db =
                vnet_tsdb::TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
            s.make_tracer_with_db(db)
        }
        None => s.make_tracer(),
    };
    tracer.subscribe(engine.clone() as Rc<RefCell<dyn IngestSubscriber>>);
    tracer
        .deploy(&mut s.world, &package)
        .map_err(|e| e.to_string())?;

    // Step the world one collection interval at a time; every collect
    // flows through the engine as it is ingested.
    let budget_ns = args.messages * 15_000 + 20_000_000;
    let mut t = 0u64;
    while t < budget_ns {
        t = t.saturating_add(args.collect_ns).min(budget_ns);
        s.world.run_until(vnet_sim::time::SimTime::from_nanos(t));
        tracer.collect(&s.world);
    }
    engine.borrow_mut().finish();
    if args.save_db.is_some() {
        tracer
            .flush_db()
            .map_err(|e| format!("cannot flush database: {e}"))?;
        // The store's count: after the flush, the hot tails are empty.
        println!(
            "persisted {} records to {}",
            tracer.db().len(),
            args.save_db.as_deref().unwrap_or_default()
        );
    }

    let mut eng = engine.borrow_mut();
    print_live_report(&mut eng, &[("flannel1".into(), "flannel2".into())]);
    Ok(())
}

/// Prints the per-window metric table, the alerts, and the cumulative
/// per-pair latency summaries out of a finished live engine — shared by
/// the in-process `vnt live` and the `--from-db` replay.
fn print_live_report(eng: &mut vnet_live::LiveEngine, pairs: &[(String, String)]) {
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
    println!("{table}");

    let alerts = eng.drain_alerts();
    if alerts.is_empty() {
        println!("no anomalies detected");
    } else {
        println!("alerts:");
        for a in &alerts {
            println!("  {a}");
        }
    }

    let state = eng.state();
    println!(
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
            println!(
                "cumulative {from} -> {to}: {} pairs, p50 {:.1} us, p99 {:.1} us, \
                 smoothed jitter {:.2} us",
                total.count,
                total.p50_ns as f64 / 1e3,
                total.p99_ns as f64 / 1e3,
                total.smoothed_jitter_ns / 1e3,
            );
        }
    }
}

/// `vnt live --from-db DIR`: replay an on-disk trace database through
/// the streaming engine. Records from every measurement are replayed in
/// timestamp order in collection-interval slices, with a heartbeat per
/// node advancing the watermark after every slice — the same cadence the
/// in-process collector produces. Throughput is tracked for every table
/// found in the database; `--pair FROM,TO` adds latency/loss between two
/// tables. The metric set comes from the registry's `packet-path` module
/// so the replay uses the same operator plumbing as a live run.
fn run_live_replay(args: &Args, dir: &str) -> Result<(), String> {
    use std::collections::BTreeSet;
    use vnettracer::modules::{ModuleRegistry, ModuleScope};

    let db = open_existing_db(dir)?;
    let mut tables: Vec<String> = db.measurements().map(str::to_owned).collect();
    tables.sort_unstable();
    if tables.is_empty() {
        return Err(format!("{dir}: database holds no measurements"));
    }
    for (from, to) in &args.pairs {
        for t in [from, to] {
            if !tables.iter().any(|have| have == t) {
                return Err(format!(
                    "--pair table `{t}` not in the database (tables: {})",
                    tables.join(", ")
                ));
            }
        }
    }

    let scope = ModuleScope {
        latency_pairs: args.pairs.clone(),
        throughput_tables: tables.clone(),
        ..Default::default()
    };
    let specs = ModuleRegistry::builtin()
        .metrics("default", &scope)
        .map_err(|e| e.to_string())?;
    let mut live_cfg = vnet_live::LiveConfig::from_metric_specs(
        vnet_live::WindowSpec::tumbling(args.window_ns),
        &specs,
    );
    live_cfg.pair_timeout_ns = args.window_ns.max(1_000_000);
    let mut engine = vnet_live::LiveEngine::new(live_cfg);

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

    println!(
        "replayed {} records from {} table(s), {} node(s) in {dir}\n",
        recs.len(),
        tables.len(),
        nodes.len()
    );
    print_live_report(&mut engine, &args.pairs);
    Ok(())
}

/// `vnt emulate`: replay adversarial link conditions against a testbed
/// with the `vnet-live` detector attached, and score its alerts against
/// the generators' ground-truth episode windows.
fn run_emulate(args: &Args) -> Result<(), String> {
    use vnet_testbed::emulate::{run_rack, run_two_host, AdversarialProfile, EmulationConfig};

    let profiles: Vec<AdversarialProfile> = match args.profile.as_deref() {
        None | Some("all") => AdversarialProfile::all().to_vec(),
        Some(name) => vec![name.parse()?],
    };
    let mut cfg = EmulationConfig::default();
    if args.messages_set {
        cfg.messages = args.messages;
    }
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    println!(
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
    println!("{t}");
    if unscored {
        println!(
            "recall n/a: {} messages end before a profile's first ground-truth episode; raise --messages",
            cfg.messages
        );
    }
    Ok(())
}

/// `vnt trace drop-lab [--profile NAME]` / `vnt drops`: run the
/// engineered drop lanes under a named module profile and print the
/// per-reason breakdown from the trace database next to the simulator's
/// ground-truth counters.
fn run_drop_lab(args: &Args, default_profile: &str) -> Result<(), String> {
    use vnet_testbed::drop_lab::{DropLab, DropLabConfig, DROP_TABLE};
    use vnettracer::config::GlobalConfig;
    use vnettracer::modules::ModuleRegistry;

    let mut cfg = DropLabConfig::default();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if args.messages_set {
        cfg.packets_per_lane = args.messages;
    }
    let profile = args.profile.as_deref().unwrap_or(default_profile);
    let mut lab = DropLab::build(&cfg);
    let pkg = ModuleRegistry::builtin()
        .package(profile, &lab.module_scope(), GlobalConfig::default())
        .map_err(|e| e.to_string())?;
    if args.emit_package {
        println!("{}", pkg.to_json());
        return Ok(());
    }
    let mut tracer = match &args.save_db {
        Some(dir) => {
            let db =
                vnet_tsdb::TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
            lab.make_tracer_with_db(db)
        }
        None => lab.make_tracer(),
    };
    tracer
        .deploy(&mut lab.world, &pkg)
        .map_err(|e| e.to_string())?;
    lab.run();
    let n = tracer.collect(&lab.world);
    if args.save_db.is_some() {
        tracer
            .flush_db()
            .map_err(|e| format!("cannot flush database: {e}"))?;
    }
    println!(
        "profile `{profile}`: collected {n} records over {} lanes x {} packets\n",
        6, cfg.packets_per_lane
    );
    print_db_summary(&tracer);
    print_run_stats(&tracer);

    if tracer.deployed().iter().any(|d| d.name == DROP_TABLE) {
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
        println!("{t}");
        if breakdown == truth {
            println!("breakdown matches the simulator's drop counters exactly");
        } else {
            println!("MISMATCH against ground truth: traced {breakdown:?}, counters {truth:?}");
        }
    } else {
        println!("profile `{profile}` attaches no `skb-drop` module; no drop breakdown");
    }
    Ok(())
}

/// `vnt trace request-chain [--profile NAME]`: run the memcached
/// client → proxy → backend tiers under a named module profile and print
/// the cross-tier latency decomposition joined by the in-band trace ID.
fn run_request_chain(args: &Args) -> Result<(), String> {
    use vnet_testbed::memcached_chain::{ChainConfig, MemcachedChain};
    use vnettracer::config::GlobalConfig;
    use vnettracer::modules::ModuleRegistry;

    let mut cfg = ChainConfig::default();
    if let Some(seed) = args.seed {
        cfg.seed = seed;
    }
    if args.messages_set {
        cfg.requests = args.messages;
    }
    let profile = args.profile.as_deref().unwrap_or("requests");
    let mut chain = MemcachedChain::build(&cfg);
    let pkg = ModuleRegistry::builtin()
        .package(profile, &chain.module_scope(), GlobalConfig::default())
        .map_err(|e| e.to_string())?;
    if args.emit_package {
        println!("{}", pkg.to_json());
        return Ok(());
    }
    let mut tracer = match &args.save_db {
        Some(dir) => {
            let db =
                vnet_tsdb::TraceDb::open(dir).map_err(|e| format!("cannot open {dir}: {e}"))?;
            chain.make_tracer_with_db(db)
        }
        None => chain.make_tracer(),
    };
    tracer
        .deploy(&mut chain.world, &pkg)
        .map_err(|e| e.to_string())?;
    chain.run();
    let n = tracer.collect(&chain.world);
    if args.save_db.is_some() {
        tracer
            .flush_db()
            .map_err(|e| format!("cannot flush database: {e}"))?;
    }
    println!(
        "profile `{profile}`: collected {n} records over {} requests\n",
        cfg.requests
    );
    print_db_summary(&tracer);
    print_run_stats(&tracer);

    let chain_tables = MemcachedChain::decomposition_chain();
    let deployed = tracer.deployed();
    if !deployed
        .iter()
        .any(|d| chain_tables.contains(&d.name.as_str()))
    {
        println!("profile `{profile}` attaches no `request-trace` taps; no decomposition");
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
        println!("{t}");
    }
    let first = chain_tables[0];
    let last = chain_tables[chain_tables.len() - 1];
    let e2e = metrics::decompose(tracer.db(), &[first, last]);
    if let Some(e2e) = e2e.first() {
        println!(
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
    println!("{complete} request(s) observed at every tier");
    Ok(())
}

fn run_trace(args: &Args) -> Result<(), String> {
    match args.target.as_deref() {
        Some("drop-lab") => run_drop_lab(args, "drops"),
        Some("request-chain") => run_request_chain(args),
        Some(other) => Err(format!(
            "unknown trace scenario `{other}` (expected drop-lab or request-chain)"
        )),
        None => Err(usage()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    match args.scenario.as_str() {
        "verify" => verify_file(args.package.as_deref().expect("checked in parse_args")),
        "db" => run_db(&args.rest),
        "modules" => {
            print!(
                "{}",
                vnettracer::modules::ModuleRegistry::builtin().render_listing()
            );
            Ok(())
        }
        "trace" => run_trace(args),
        "drops" => run_drop_lab(args, "drops"),
        "live" => run_live(args),
        "emulate" => run_emulate(args),
        "two-host" => {
            let cfg = vnet_testbed::two_host::TwoHostConfig {
                messages: args.messages,
                ..Default::default()
            };
            let mut s = vnet_testbed::two_host::TwoHostScenario::build(&cfg);
            let pkg = load_package(args, s.control_package())?;
            if args.emit_package {
                println!("{}", pkg.to_json());
                return Ok(());
            }
            let mut tracer = s.make_tracer();
            tracer
                .deploy(&mut s.world, &pkg)
                .map_err(|e| e.to_string())?;
            s.run(&cfg);
            let n = tracer.collect(&s.world);
            println!("collected {n} records\n");
            print_db_summary(&tracer);
            print_collector_stats(&tracer.stats(&s.world));
            print_run_stats(&tracer);
            if let Some(summary) = s.latency.borrow_mut().summary() {
                println!(
                    "sockperf: avg {:.1} us, p99.9 {:.1} us over {} messages",
                    summary.mean_us(),
                    summary.p999_us(),
                    summary.count
                );
            }
            Ok(())
        }
        "ovs" => {
            let cfg = vnet_testbed::ovs::OvsConfig {
                case: vnet_testbed::ovs::OvsCase::III,
                messages: args.messages,
                ..Default::default()
            };
            let mut s = vnet_testbed::ovs::OvsScenario::build(&cfg);
            let pkg = load_package(args, s.control_package())?;
            if args.emit_package {
                println!("{}", pkg.to_json());
                return Ok(());
            }
            let mut tracer = s.make_tracer();
            tracer
                .deploy(&mut s.world, &pkg)
                .map_err(|e| e.to_string())?;
            s.run(&cfg);
            tracer.collect(&s.world);
            print_db_summary(&tracer);
            print_collector_stats(&tracer.stats(&s.world));
            print_run_stats(&tracer);
            print_decomposition(
                &tracer,
                &vnet_testbed::ovs::OvsScenario::decomposition_chain(),
            );
            Ok(())
        }
        "xen" => {
            let cfg = vnet_testbed::xen::XenConfig {
                consolidation: vnet_testbed::xen::Consolidation::SharedDefaultRatelimit,
                requests: args.messages,
                ..Default::default()
            };
            let mut s = vnet_testbed::xen::XenScenario::build(&cfg);
            let pkg = load_package(args, s.control_package())?;
            if args.emit_package {
                println!("{}", pkg.to_json());
                return Ok(());
            }
            let mut tracer = s.make_tracer();
            tracer
                .deploy(&mut s.world, &pkg)
                .map_err(|e| e.to_string())?;
            s.run(&cfg);
            tracer.collect(&s.world);
            print_db_summary(&tracer);
            print_run_stats(&tracer);
            print_decomposition(
                &tracer,
                &vnet_testbed::xen::XenScenario::decomposition_chain(),
            );
            Ok(())
        }
        "container" => {
            let cfg = vnet_testbed::container::ContainerConfig {
                mode: vnet_testbed::container::NetMode::Overlay,
                transport: vnet_testbed::container::Transport::NetperfUdp,
                count: args.messages,
                ..Default::default()
            };
            let mut s = vnet_testbed::container::ContainerScenario::build(&cfg);
            let pkg = load_package(args, s.control_package())?;
            if args.emit_package {
                println!("{}", pkg.to_json());
                return Ok(());
            }
            let mut tracer = s.make_tracer();
            tracer
                .deploy(&mut s.world, &pkg)
                .map_err(|e| e.to_string())?;
            s.run(&cfg);
            print_run_stats(&tracer);
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
            println!("{t}");
            println!("goodput: {:.0} Mbps", s.goodput_mbps());
            Ok(())
        }
        "rack" => {
            let cfg = rack_config(args)?;
            println!(
                "rack: {} hosts, {} VM nodes, {} apps, {} concurrent flows",
                cfg.hosts,
                cfg.hosts * cfg.vms_per_host,
                cfg.apps(),
                cfg.concurrent_flows()
            );
            let mut tb = vnet_testbed::rack::RackTestbed::build(&cfg);
            let mut tracer = if args.trace {
                let pkg = tb.control_package();
                let mut tracer = tb.make_tracer();
                tracer
                    .deploy(&mut tb.scenario.world, &pkg)
                    .map_err(|e| e.to_string())?;
                Some(tracer)
            } else {
                None
            };
            let wall = std::time::Instant::now();
            tb.run();
            let elapsed = wall.elapsed();
            let events = tb.scenario.world.events_processed();
            println!(
                "processed {events} events in {:.2}s ({:.0} events/sec)",
                elapsed.as_secs_f64(),
                events as f64 / elapsed.as_secs_f64().max(1e-9)
            );
            println!(
                "delivered {} of {} packets",
                tb.scenario.delivered_packets(),
                cfg.total_packets()
            );
            if let Some(tracer) = tracer.as_mut() {
                let n = tracer.collect(&tb.scenario.world);
                println!(
                    "collected {n} records, {} probe firings",
                    tb.scenario.world.probes_fired()
                );
            }
            Ok(())
        }
        other => Err(format!("unknown scenario `{other}`\n{}", usage())),
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
            2000
        );
        // Only the rack multiplies `--messages` out at parse time.
        assert!(parse(&["two-host", "--messages", &max]).is_ok());
    }
}
