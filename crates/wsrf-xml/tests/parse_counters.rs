//! The parser's event and DOM-build counters.
//!
//! Both counters are process-global, so this file holds exactly one
//! test: integration test files run as separate processes, and a second
//! test in the same binary could parse in parallel and bump them
//! mid-assertion.

use wsrf_xml::{dom_build_count, parse, parse_event_count, PullParser};

#[test]
fn counters_advance() {
    let ev0 = parse_event_count();
    let dom0 = dom_build_count();
    parse("<a><b/>text</a>").unwrap();
    // start a, start b, end b, text, end a = 5 events, 1 build.
    assert_eq!(parse_event_count() - ev0, 5);
    assert_eq!(dom_build_count() - dom0, 1);
    let ev1 = parse_event_count();
    let dom1 = dom_build_count();
    let mut p = PullParser::new("<a><b/>text</a>");
    while p.next_event().unwrap().is_some() {}
    assert_eq!(parse_event_count() - ev1, 5);
    assert_eq!(dom_build_count() - dom1, 0);
}
