//! Fault-injected parse behaviour, isolated in its own test binary so the
//! process-global fault registry never races the parser's unit tests.

use ilt_json::Json;
use ilt_telemetry::fault::{self, points, FaultSpec};

#[test]
fn injected_invalid_json_is_a_typed_parse_error() {
    let doc = r#"{"ok": true}"#;
    assert!(Json::parse(doc).is_ok());

    fault::configure(vec![FaultSpec::always(points::JSON_INVALID, 9)]);
    for _ in 0..3 {
        let err = Json::parse(doc).unwrap_err();
        assert!(err.contains("injected fault"), "{err}");
    }
    assert_eq!(fault::fired_count(points::JSON_INVALID), 3);

    // A limit-1 window corrupts exactly one parse, then recovers.
    fault::configure(vec![FaultSpec {
        limit: Some(1),
        ..FaultSpec::always(points::JSON_INVALID, 9)
    }]);
    assert!(Json::parse(doc).is_err());
    assert!(Json::parse(doc).is_ok());

    fault::clear();
    assert!(Json::parse(doc).is_ok());
}
