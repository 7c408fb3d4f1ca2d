//! The control-package parser at its trust boundary (`vnt --package`,
//! and every control message an agent receives): whatever text it is
//! given it answers `Ok` or a typed `serde_json::Error`, never a panic.
//! The error carries a byte offset exactly when the text is not JSON at
//! all, and that offset lies inside the text; JSON of the wrong shape is
//! an error without one. A package that parses survives
//! serialise → parse unchanged.

use std::sync::OnceLock;

use proptest::prelude::*;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnettracer::ControlPackage;

/// The two-host testbed's control package, as the dispatcher's JSON.
fn real_package() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        TwoHostScenario::build(&TwoHostConfig::default())
            .control_package()
            .to_json()
    })
}

/// `Ok` and stable through a round trip, or a typed error located
/// exactly when the text is not JSON.
fn assert_typed_outcome(input: &[u8]) {
    let text = String::from_utf8_lossy(input);
    match ControlPackage::from_json(&text) {
        Ok(pkg) => {
            let again = ControlPackage::from_json(&pkg.to_json());
            assert_eq!(again.as_ref(), Ok(&pkg), "a parsed package round-trips");
        }
        Err(e) => {
            let not_json = serde_json::parse_value(&text).is_err();
            assert_eq!(e.offset.is_some(), not_json, "{e}");
            if let Some(offset) = e.offset {
                assert!(offset <= text.len(), "{e} in {} bytes", text.len());
            }
        }
    }
}

/// Bytes that change a package's structure rather than one of its values.
const STRUCTURAL: &[u8] = b"{}[]\":,-0n";

#[test]
fn malformed_and_misshapen_packages_are_typed_errors() {
    // The mutations below start from a package that parses.
    let pkg = ControlPackage::from_json(real_package()).unwrap();
    assert_eq!(pkg.traces.len(), 4);
    let cut = &real_package()[..100];
    let err = ControlPackage::from_json(cut).unwrap_err();
    assert_eq!(err.offset, Some(100), "{err}");
    let err = ControlPackage::from_json("{nope").unwrap_err();
    assert_eq!(err.offset, Some(1), "{err}");
    // Valid JSON of the wrong shape: no offset, and the message that
    // `vnt --package` prints after "bad package JSON: ".
    let err = ControlPackage::from_json("[]").unwrap_err();
    assert_eq!(err.offset, None, "{err}");
    let without_traces = real_package().replacen("\"traces\"", "\"trace\"", 1);
    assert!(ControlPackage::from_json(&without_traces)
        .unwrap_err()
        .offset
        .is_none());
}

/// Nesting deep enough to overflow a recursive parser's stack is a
/// located parse error.
#[test]
fn a_deeply_nested_package_is_a_parse_error() {
    let input = "[".repeat(200_000);
    let err = ControlPackage::from_json(&input).unwrap_err();
    assert!(err.offset.is_some(), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_024))]

    #[test]
    fn arbitrary_bytes_are_a_package_or_a_typed_error(
        input in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        assert_typed_outcome(&input);
    }

    /// The real package with digits changed (which mostly keeps it a
    /// package), bytes overwritten, a span removed, or cut short.
    #[test]
    fn mutated_packages_are_a_package_or_a_typed_error(
        digits in proptest::collection::vec((0usize..1 << 20, b'0'..=b'9'), 0..4),
        overwrite in proptest::collection::vec((0usize..1 << 20, any::<u8>()), 0..3),
        structural in proptest::collection::vec((0usize..1 << 20, 0..STRUCTURAL.len()), 0..3),
        remove in proptest::option::of((0usize..1 << 20, 0usize..300)),
        keep in 0usize..1 << 20,
    ) {
        let mut input = real_package().as_bytes().to_vec();
        let at_digits: Vec<usize> = (0..input.len()).filter(|&i| input[i].is_ascii_digit()).collect();
        for (at, digit) in digits {
            input[at_digits[at % at_digits.len()]] = digit;
        }
        for (at, byte) in overwrite {
            let at = at % input.len();
            input[at] = byte;
        }
        for (at, which) in structural {
            let at = at % input.len();
            input[at] = STRUCTURAL[which];
        }
        if let Some((at, len)) = remove {
            let from = at % input.len();
            input.drain(from..(from + len).min(input.len()));
        }
        // Cut short in one case of eight.
        if keep % 8 == 0 {
            input.truncate(keep % (input.len() + 1));
        }
        assert_typed_outcome(&input);
    }
}
