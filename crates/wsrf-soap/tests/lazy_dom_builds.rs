//! The lazy scan's DOM budget.
//!
//! `wsrf_xml::dom_build_count()` is a process-global counter, so this
//! file holds exactly one test: integration test files run as separate
//! processes, and a second test in the same binary could parse in
//! parallel and bump the counter mid-assertion.

use wsrf_soap::{EndpointReference, Envelope, LazyEnvelope, MessageInfo, TraceContext};
use wsrf_xml::{dom_build_count, Element};

#[test]
fn scan_builds_no_body_dom_until_asked() {
    let to = EndpointReference::resource("inproc://m1/Exec", "{urn:k}JobKey", "j-7");
    let mut info = MessageInfo::request(to, "urn:svc/Run");
    info.reply_to = Some(EndpointReference::service("inproc://client/cb"));
    let mut env = Envelope::new(
        Element::new("urn:svc", "Run")
            .attr("mode", "fast")
            .child(Element::new("urn:svc", "Arg").text("a&b")),
    );
    info.apply(&mut env);
    TraceContext::new(0x42, 0x7, true).stamp(&mut env);
    let wire = env.to_xml();

    let before = dom_build_count();
    let lazy = LazyEnvelope::scan(&wire).unwrap();
    let _ = lazy.body_text();
    // ReplyTo is the only tree built by the scan; the body span
    // stays raw even through body_text().
    assert_eq!(dom_build_count() - before, 1);
    let body = lazy.materialize_body().unwrap();
    assert_eq!(dom_build_count() - before, 2);
    assert_eq!(body, Envelope::parse(&wire).unwrap().body);
}
