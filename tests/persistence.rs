//! Trace-database persistence: spill a live trace to JSON lines and
//! reload it — the "stored locally and then gathered to the database on
//! the master node" step of §III-A/III-C.

use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_tsdb::{read_json_lines, write_json_lines, StoreOptions, TraceDb};
use vnettracer::metrics;
use vnettracer::VNetTracer;

#[test]
fn spill_and_reload_preserves_all_analysis() {
    let cfg = TwoHostConfig {
        messages: 200,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);

    // Spill to a file, reload.
    let path = std::env::temp_dir().join("vnettracer_spill_test.jsonl");
    {
        let file = std::fs::File::create(&path).unwrap();
        let written = write_json_lines(tracer.db(), std::io::BufWriter::new(file)).unwrap();
        assert_eq!(written, tracer.db().len());
    }
    let reloaded = {
        let file = std::fs::File::open(&path).unwrap();
        read_json_lines(std::io::BufReader::new(file)).unwrap()
    };
    let _ = std::fs::remove_file(&path);

    // Every offline analysis gives identical answers on the reloaded DB.
    assert_eq!(reloaded.len(), tracer.db().len());
    let live = metrics::latency_between(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    let cold = metrics::latency_between(&reloaded, "s1_ovs_br1", "s2_ovs_br1");
    assert_eq!(live, cold);
    let live_t = metrics::throughput_at(tracer.db(), "s2_ovs_br1");
    let cold_t = metrics::throughput_at(&reloaded, "s2_ovs_br1");
    assert!((live_t - cold_t).abs() < 1e-9);
    let live_loss = metrics::packet_loss(tracer.db(), "s1_ovs_br1", "s2_ens3");
    let cold_loss = metrics::packet_loss(&reloaded, "s1_ovs_br1", "s2_ens3");
    assert_eq!(live_loss.lost, cold_loss.lost);
    let live_seg = metrics::decompose(tracer.db(), &["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"]);
    let cold_seg = metrics::decompose(&reloaded, &["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"]);
    assert_eq!(live_seg, cold_seg);
}

/// Golden export: tracing into a disk-backed collector — records
/// journaled, sealed into columnar segments, compacted, reopened cold —
/// must export the *byte-identical* JSON-lines dump as tracing the same
/// deterministic scenario into the plain in-memory database.
#[test]
fn disk_backed_export_is_byte_identical_to_memory_export() {
    let cfg = TwoHostConfig {
        messages: 200,
        ..Default::default()
    };
    let trace = |db: TraceDb| {
        let mut s = TwoHostScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, db);
        tracer.deploy(&mut s.world, &pkg).unwrap();
        s.run(&cfg);
        tracer.collect(&s.world);
        tracer
    };

    let dir = std::env::temp_dir().join(format!("vnt-golden-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Aggressive sealing + merging so the disk run exercises segments,
    // not just the hot tail.
    let options = StoreOptions {
        seal_threshold: 64,
        fsync: false,
        compact_fanin: 2,
        compact_max_rows: 1 << 20,
        ..StoreOptions::default()
    };

    let mem_tracer = trace(TraceDb::new());
    let mut disk_tracer = trace(TraceDb::open_with(&dir, options.clone()).unwrap());
    disk_tracer.flush_db().unwrap();

    let mut mem_dump = Vec::new();
    write_json_lines(mem_tracer.db(), &mut mem_dump).unwrap();
    let mut disk_dump = Vec::new();
    write_json_lines(disk_tracer.db(), &mut disk_dump).unwrap();
    assert!(!mem_dump.is_empty());
    assert_eq!(
        mem_dump, disk_dump,
        "disk-backed export must be byte-identical to the in-memory export"
    );
    assert!(
        disk_tracer.db().storage_stats().unwrap().segments > 0,
        "the disk run must actually have sealed segments"
    );
    // Only the disk run has storage state to surface.
    assert!(mem_tracer.db().storage_stats().is_none());
    drop(disk_tracer);

    // A cold reopen exports the same bytes again.
    let cold = TraceDb::open_with(&dir, options).unwrap();
    let mut cold_dump = Vec::new();
    write_json_lines(&cold, &mut cold_dump).unwrap();
    assert_eq!(mem_dump, cold_dump);
    let _ = std::fs::remove_dir_all(&dir);
}
