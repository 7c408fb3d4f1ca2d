//! Verifier regression corpus.
//!
//! Every `tests/corpus/*.bpf` file is a kernel-style program listing
//! with a header declaring the expected verdict:
//!
//! ```text
//! # expect: accepted | rejected
//! # error: <substring of the first diagnostic>       (optional)
//! # min-diagnostics: <N>                             (optional)
//! # certified-cost: <N>                              (optional, accepted only)
//! ```
//!
//! The runner parses each listing, runs the abstract-interpretation
//! verifier against the standard helper set, and checks the verdict —
//! plus, for rejections, that every diagnostic names an in-bounds
//! instruction index. Accepted listings must additionally survive an
//! annotate-and-reparse round trip, pinning the `;`-annotation syntax.
//! `# certified-cost:` pins the listing's certified worst-case
//! nanoseconds, so cost-model regressions show up as corpus diffs.

use std::path::{Path, PathBuf};

use vnet_ebpf::analyze;
use vnet_ebpf::cost::certify;
use vnet_ebpf::disasm::disassemble_annotated;
use vnet_ebpf::parse::parse_program;
use vnet_ebpf::standard_helpers;

struct Expectation {
    accepted: bool,
    error_substring: Option<String>,
    min_diagnostics: usize,
    certified_cost: Option<u64>,
}

fn parse_header(name: &str, text: &str) -> Expectation {
    let mut accepted = None;
    let mut error_substring = None;
    let mut min_diagnostics = 1;
    let mut certified_cost = None;
    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix('#') else {
            continue;
        };
        let rest = rest.trim();
        if let Some(v) = rest.strip_prefix("expect:") {
            accepted = match v.trim() {
                "accepted" => Some(true),
                "rejected" => Some(false),
                other => panic!("{name}: bad `# expect:` value `{other}`"),
            };
        } else if let Some(v) = rest.strip_prefix("error:") {
            error_substring = Some(v.trim().to_owned());
        } else if let Some(v) = rest.strip_prefix("min-diagnostics:") {
            min_diagnostics = v.trim().parse().expect("min-diagnostics number");
        } else if let Some(v) = rest.strip_prefix("certified-cost:") {
            certified_cost = Some(v.trim().parse().expect("certified-cost number"));
        }
    }
    Expectation {
        accepted: accepted.unwrap_or_else(|| panic!("{name}: missing `# expect:` header")),
        error_substring,
        min_diagnostics,
        certified_cost,
    }
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn corpus_verdicts_match() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bpf"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 12,
        "corpus should not silently shrink (found {})",
        paths.len()
    );

    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let expect = parse_header(&name, &text);
        let lines: Vec<&str> = text.lines().collect();
        let insns = parse_program(&lines).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analysis = analyze(&insns, &standard_helpers());

        if expect.accepted {
            assert!(
                analysis.ok(),
                "{name}: expected accepted, rejected with {:?}",
                analysis.diagnostics()
            );
            // The annotated listing must reassemble to the same bytecode.
            let annotated = disassemble_annotated(&insns, &analysis);
            let reparsed = parse_program(&annotated)
                .unwrap_or_else(|e| panic!("{name}: annotated listing does not reparse: {e}"));
            assert_eq!(reparsed, insns, "{name}: annotate/reparse round trip");
            if let Some(want) = expect.certified_cost {
                assert_eq!(
                    certify(&insns, |pc| analysis.state_at(pc).is_some()).worst_case_ns,
                    want,
                    "{name}: `# certified-cost:` header drifted"
                );
            }
        } else {
            assert!(!analysis.ok(), "{name}: expected rejected, was accepted");
            let diags = analysis.diagnostics();
            assert!(
                diags.len() >= expect.min_diagnostics,
                "{name}: wanted at least {} diagnostics, got {}",
                expect.min_diagnostics,
                diags.len()
            );
            for d in diags {
                assert!(
                    d.insn < insns.len(),
                    "{name}: diagnostic names out-of-bounds insn {} (program has {})",
                    d.insn,
                    insns.len()
                );
            }
            if let Some(sub) = &expect.error_substring {
                let msg = analysis.diagnostics()[0].error.to_string();
                assert!(
                    msg.contains(sub.as_str()),
                    "{name}: first error `{msg}` does not mention `{sub}`"
                );
            }
        }
    }
}
