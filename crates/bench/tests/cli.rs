//! `vnt` as a user runs it: exit codes, the `error:` line, and what a
//! command leaves on disk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn vnt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vnt"))
        .args(args)
        .output()
        .expect("run vnt")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vnt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// A command that only reads must not create the database it was asked
/// to read: a mistyped path is an error and stays absent, and an existing
/// directory without a database stays as it was.
#[test]
fn read_only_commands_refuse_a_path_that_holds_no_database() {
    let missing = scratch("missing");
    let empty = scratch("empty");
    std::fs::create_dir_all(&empty).unwrap();
    for dir in [&missing, &empty] {
        let dir_str = path_str(dir);
        for command in [
            &["db", "stats", dir_str][..],
            &["db", "query", dir_str, "flannel1"],
            &["db", "export", dir_str],
            &["live", "--from-db", dir_str],
        ] {
            let out = vnt(command);
            assert_eq!(out.status.code(), Some(1), "{command:?}");
            assert_eq!(
                stderr(&out),
                format!("error: no trace database at {dir_str}\n"),
                "{command:?}"
            );
            assert_eq!(stdout(&out), "", "{command:?}");
        }
    }
    assert!(!missing.exists(), "the mistyped path was created");
    assert_eq!(std::fs::read_dir(&empty).unwrap().count(), 0);
    let _ = std::fs::remove_dir_all(&empty);
}

/// `vnt db import` creates the database, reads through the one JSON-lines
/// reader, and reports a bad line as an error with its number.
#[test]
fn db_import_creates_the_database_and_locates_a_bad_line() {
    let dir = scratch("import");
    std::fs::create_dir_all(&dir).unwrap();
    let saved = dir.join("saved");
    let out = vnt(&[
        "trace",
        "drop-lab",
        "--messages",
        "20",
        "--save-db",
        path_str(&saved),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let dump = dir.join("dump.jsonl");
    let out = vnt(&["db", "export", path_str(&saved), path_str(&dump)]);
    assert!(out.status.success(), "{}", stderr(&out));

    let copy = dir.join("copy");
    let out = vnt(&["db", "import", path_str(&copy), path_str(&dump)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let again = dir.join("again.jsonl");
    let out = vnt(&["db", "export", path_str(&copy), path_str(&again)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let (dump_bytes, again_bytes) = (
        std::fs::read(&dump).unwrap(),
        std::fs::read(&again).unwrap(),
    );
    assert!(!dump_bytes.is_empty());
    assert_eq!(dump_bytes, again_bytes, "export -> import -> export");

    // A well-formed JSON point that is no record's view, on line 2.
    let mut lines: Vec<&str> = std::str::from_utf8(&dump_bytes).unwrap().lines().collect();
    let extra_tag = lines[1].replacen("\"tags\":{", "\"tags\":{\"a\":\"b\",", 1);
    lines[1] = &extra_tag;
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, lines.join("\n")).unwrap();
    let out = vnt(&[
        "db",
        "import",
        path_str(&dir.join("rejected")),
        path_str(&bad),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.starts_with("error: ") && err.contains("line 2"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `vnt live --save-db` reports the records it persisted: the store's
/// count after the flush, which is what `vnt db export` of the directory
/// reports.
#[test]
fn live_save_db_reports_what_export_finds() {
    let dir = scratch("live-save");
    let out = vnt(&["live", "--messages", "3000", "--save-db", path_str(&dir)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let line = format!("persisted 6000 records to {}\n", path_str(&dir));
    assert!(stdout(&out).contains(&line), "{}", stdout(&out));
    let dump = scratch("live-save-dump");
    let out = vnt(&["db", "export", path_str(&dir), path_str(&dump)]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(
        stderr(&out),
        format!("exported 6000 records from {}\n", path_str(&dir))
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dump);
}

/// `vnt verify` prints the annotated cost listing and exits 0 for an
/// accepted listing; a rejected, unparsable or missing one exits 1 and
/// says why.
#[test]
fn verify_reports_verdicts_and_input_errors() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../ebpf/tests/corpus");

    let out = vnt(&["verify", path_str(&corpus.join("accept_map_counter.bpf"))]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("certified worst-case: 24 ns"), "{text}");
    assert!(
        text.lines()
            .last()
            .is_some_and(|l| l.starts_with("verification OK")),
        "{text}"
    );

    let out = vnt(&[
        "verify",
        path_str(&corpus.join("reject_divisor_may_be_zero.bpf")),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains("error at insn 2: divisor r2 not proven nonzero at insn 2"),
        "{text}"
    );
    assert!(text.contains("verification FAILED: 1 error(s)"), "{text}");
    assert!(stderr(&out).starts_with("error: "), "{}", stderr(&out));

    let dir = scratch("verify");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.bpf");
    std::fs::write(&bad, "r0 = 0\nr0 = frobnicate r1\nexit\n").unwrap();
    let out = vnt(&["verify", path_str(&bad)]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("parse error"), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");

    let missing = dir.join("missing.bpf");
    let out = vnt(&["verify", path_str(&missing)]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the live engine prints is pinned: the per-window table, the
/// alerts and the cumulative summaries of the default run, and of a short
/// run whose odd window width (37 us) and collection interval (11 us) put
/// records on every window edge. Each stdout folds into one CRC-32.
#[test]
fn live_output_is_pinned() {
    for (args, want) in [
        (&["live"][..], 0x3d23_8e6eu32),
        (
            &[
                "live",
                "--messages",
                "300",
                "--window-us",
                "37",
                "--collect-us",
                "11",
            ],
            0x5abd_2fef,
        ),
    ] {
        let out = vnt(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let got = vnet_tsdb::codec::crc32(&out.stdout);
        assert_eq!(got, want, "{args:?}: crc32 {got:#010x}\n{}", stdout(&out));
    }
}

/// "Not attached" is decided from what was deployed, not from whether a
/// record arrived: an empty run of an attached module reports zeros.
#[test]
fn an_empty_run_is_not_diagnosed_as_a_missing_module() {
    let out = vnt(&["drops", "--messages", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.contains("attaches no"), "{text}");
    assert!(text.contains("=== drop breakdown ==="), "{text}");
    assert!(
        text.contains("breakdown matches the simulator's drop counters exactly"),
        "{text}"
    );

    let out = vnt(&["trace", "request-chain", "--messages", "0"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.contains("attaches no"), "{text}");
    assert!(
        text.ends_with("0 request(s) observed at every tier\n"),
        "{text}"
    );

    // The diagnosis still holds where it is true.
    let text = stdout(&vnt(&["drops", "--profile", "requests", "--messages", "5"]));
    assert!(
        text.contains("profile `requests` attaches no `skb-drop` module"),
        "{text}"
    );
    let text = stdout(&vnt(&[
        "trace",
        "request-chain",
        "--profile",
        "drops",
        "--messages",
        "5",
    ]));
    assert!(
        text.contains("profile `drops` attaches no `request-trace` taps"),
        "{text}"
    );
}
