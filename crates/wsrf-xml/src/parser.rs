//! A single-pass, namespace-resolving XML parser.
//!
//! Supports the subset of XML 1.0 that appears on SOAP wires: elements,
//! attributes, character data, the five predefined entities plus
//! numeric character references, CDATA sections, comments, processing
//! instructions and the XML declaration. DTDs are rejected (as real
//! SOAP stacks do, to avoid entity-expansion attacks).
//!
//! Two surfaces share one tokenizer:
//!
//! * [`PullParser`] — a forward-only cursor that yields borrowed
//!   [`Event`]s (start/end/text, with attributes available on the
//!   parser between a start tag and the next event) straight out of
//!   the receive buffer. Namespace URIs are resolved eagerly against
//!   the live binding stack and handed out as interned `Arc<str>`
//!   (see [`crate::name::intern_ns`]), so consumers that only route on
//!   a handful of headers never allocate a tree.
//! * [`parse`] — the classic DOM entry point, now a thin wrapper that
//!   drives a `PullParser` through [`PullParser::build_element`]. The
//!   two are byte-for-byte equivalent by construction, including error
//!   messages and offsets.
//!
//! Process-global counters track tokenizer work: [`parse_event_count`]
//! increments once per event produced, [`dom_build_count`] once per
//! materialized subtree. The wirepath budget tests pin both per
//! exchange, exactly like `wsrf_soap::render_count` pins renders.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::XmlError;
use crate::name::{intern_ns, QName};
use crate::node::{Element, Node};
use crate::Result;

/// Maximum element nesting depth accepted by the parser. Tree building
/// is recursive and debug-build frames are large, so this is set well
/// inside a 2 MiB test-thread stack while remaining far beyond any
/// real SOAP message (real stacks bound nesting too).
pub const MAX_DEPTH: usize = 100;

/// Process-global count of pull events produced (start/end/text).
static PARSE_EVENTS: AtomicU64 = AtomicU64::new(0);
/// Process-global count of DOM subtrees materialized from the stream.
static DOM_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total pull-parser events produced by this process so far.
///
/// Monotonic; tests snapshot it before and after an exchange to pin a
/// tokenization budget.
pub fn parse_event_count() -> u64 {
    PARSE_EVENTS.load(Ordering::Relaxed)
}

/// Total DOM subtrees materialized by this process so far (one per
/// [`PullParser::build_element`] call; [`parse`] counts as one).
pub fn dom_build_count() -> u64 {
    DOM_BUILDS.load(Ordering::Relaxed)
}

/// Parse a complete XML document (or bare element) into an [`Element`].
pub fn parse(input: &str) -> Result<Element> {
    let mut p = PullParser::new(input);
    match p.next_event()? {
        Some(Event::Start { .. }) => {
            let root = p.build_element()?;
            // Runs the trailing-content check after the root element.
            p.next_event()?;
            Ok(root)
        }
        // Unreachable: at the top level the first event is a start tag
        // or an error ("expected '<'"), never text or clean EOF.
        _ => Err(XmlError::at("document has no root element", 0)),
    }
}

/// One borrowed event from the pull stream.
///
/// `Start` carries the eagerly resolved, interned namespace and the
/// local name borrowed from the input; the start tag's attributes are
/// available via [`PullParser::attrs`] until the next event is pulled.
#[derive(Debug, Clone)]
pub enum Event<'a> {
    /// A start tag (including empty-element tags, which are followed
    /// by a matching [`Event::End`]).
    Start {
        ns: Option<Arc<str>>,
        local: &'a str,
    },
    /// A close tag (or the synthetic close of an empty-element tag).
    End,
    /// A run of character data (entities decoded) or one CDATA
    /// section. Adjacent runs are NOT merged at the event level; DOM
    /// materialization merges them.
    Text(Cow<'a, str>),
}

/// A resolved attribute of the most recent start tag.
#[derive(Debug, Clone)]
pub struct Attr<'a> {
    /// Interned namespace URI; `None` for unprefixed attributes (they
    /// do not inherit the default namespace).
    pub ns: Option<Arc<str>>,
    /// Local name, borrowed from the input buffer.
    pub local: &'a str,
    /// Attribute value, borrowed when it contained no references.
    pub value: Cow<'a, str>,
}

/// One open element: where its raw name lives in the input (for close
/// tag matching) and how many namespace bindings it pushed.
struct OpenTag {
    name_start: usize,
    name_end: usize,
    binds_before: usize,
}

/// A forward-only streaming parser over a borrowed input buffer.
///
/// Call [`next_event`](Self::next_event) until it returns `Ok(None)`
/// (clean end of document). After an [`Event::Start`], the tag's
/// attributes are in [`attrs`](Self::attrs) and
/// [`build_element`](Self::build_element) can materialize that whole
/// subtree as a DOM escape hatch; [`skip_element`](Self::skip_element)
/// discards it instead without building anything.
pub struct PullParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Flat stack of namespace bindings: prefix -> interned URI
    /// (`None` records `xmlns=""` un-declaring the default).
    bindings: Vec<(String, Option<Arc<str>>)>,
    frames: Vec<OpenTag>,
    /// Resolved attributes of the most recent start tag.
    attrs: Vec<Attr<'a>>,
    /// Scratch for the raw first pass over a start tag's attributes.
    raw_attrs: Vec<(&'a str, Cow<'a, str>, usize)>,
    /// Name of the most recent start tag, for `build_element`.
    last_start: Option<(Option<Arc<str>>, &'a str)>,
    /// Byte offset of the most recent start tag's `<`.
    last_tag_pos: usize,
    /// An empty-element tag was consumed; emit its `End` next.
    pending_end: bool,
    prolog_done: bool,
    seen_root: bool,
    finished: bool,
}

impl<'a> PullParser<'a> {
    /// A parser positioned at the start of `input` (prolog allowed).
    pub fn new(input: &'a str) -> Self {
        PullParser {
            bytes: input.as_bytes(),
            pos: 0,
            bindings: Vec::new(),
            frames: Vec::new(),
            attrs: Vec::new(),
            raw_attrs: Vec::new(),
            last_start: None,
            last_tag_pos: 0,
            pending_end: false,
            prolog_done: false,
            seen_root: false,
            finished: false,
        }
    }

    /// A parser over a document fragment with namespace bindings
    /// inherited from an enclosing scope (as captured by
    /// [`scope`](Self::scope)). Used to re-parse a deferred subtree —
    /// e.g. a SOAP body span — in its original namespace environment.
    pub fn with_scope(input: &'a str, scope: &[(String, Option<Arc<str>>)]) -> Self {
        let mut p = Self::new(input);
        p.bindings = scope.to_vec();
        p
    }

    /// Current byte offset of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Byte offset of the `<` of the most recent start tag.
    pub fn last_start_pos(&self) -> usize {
        self.last_tag_pos
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The resolved attributes of the most recent start tag. Valid
    /// until the next event is pulled.
    pub fn attrs(&self) -> &[Attr<'a>] {
        &self.attrs
    }

    /// Snapshot of the namespace bindings currently in scope, for
    /// [`with_scope`](Self::with_scope).
    pub fn scope(&self) -> Vec<(String, Option<Arc<str>>)> {
        self.bindings.clone()
    }

    /// Pull the next event, or `Ok(None)` at clean end of document.
    pub fn next_event(&mut self) -> Result<Option<Event<'a>>> {
        let ev = self.next_event_inner()?;
        if ev.is_some() {
            PARSE_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ev)
    }

    fn next_event_inner(&mut self) -> Result<Option<Event<'a>>> {
        if self.pending_end {
            self.pending_end = false;
            self.pop_frame();
            return Ok(Some(Event::End));
        }
        if self.frames.is_empty() {
            if self.finished {
                return Ok(None);
            }
            if self.seen_root {
                // After the document element: misc, then clean EOF.
                self.skip_misc();
                if self.pos != self.bytes.len() {
                    return Err(XmlError::at(
                        "trailing content after document element",
                        self.pos,
                    ));
                }
                self.finished = true;
                return Ok(None);
            }
            if !self.prolog_done {
                self.skip_prolog()?;
                self.prolog_done = true;
            }
            return self.start_tag().map(Some);
        }
        // Inside element content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close_pos = self.pos;
                let (close_name, _) = self.parse_name()?;
                self.skip_ws();
                self.expect_byte(b'>')?;
                let open = self.frames.last().expect("content implies open tag");
                let open_name = &self.bytes[open.name_start..open.name_end];
                if close_name.as_bytes() != open_name {
                    let open_name = std::str::from_utf8(open_name).unwrap_or("?");
                    return Err(XmlError::at(
                        format!("mismatched close tag </{}> for <{}>", close_name, open_name),
                        close_pos,
                    ));
                }
                self.pop_frame();
                return Ok(Some(Event::End));
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                self.skip_until("]]>")?;
                let bytes = self.bytes;
                let text = std::str::from_utf8(&bytes[start..self.pos - 3])
                    .map_err(|_| XmlError::at("invalid utf-8 in CDATA", start))?;
                if text.is_empty() {
                    continue;
                }
                return Ok(Some(Event::Text(Cow::Borrowed(text))));
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                return self.start_tag().map(Some);
            } else if self.peek().is_some() {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let bytes = self.bytes;
                let raw = std::str::from_utf8(&bytes[start..self.pos])
                    .map_err(|_| XmlError::at("invalid utf-8 in text", start))?;
                return Ok(Some(Event::Text(unescape(raw, start)?)));
            } else {
                return Err(XmlError::at("eof inside element content", self.pos));
            }
        }
    }

    /// Materialize the element whose [`Event::Start`] was just pulled
    /// (attributes included), consuming events through its matching
    /// end. This is the DOM escape hatch; each call counts one DOM
    /// build in [`dom_build_count`].
    pub fn build_element(&mut self) -> Result<Element> {
        DOM_BUILDS.fetch_add(1, Ordering::Relaxed);
        self.build_current()
    }

    fn build_current(&mut self) -> Result<Element> {
        let (ns, local) = self
            .last_start
            .take()
            .ok_or_else(|| XmlError::new("build_element: no current start tag"))?;
        let name = match ns {
            Some(uri) => QName {
                ns: Some(uri),
                local: local.to_string(),
            },
            None => QName::local(local),
        };
        let mut element = Element::with_name(name);
        for a in self.attrs.drain(..) {
            let qn = match a.ns {
                Some(uri) => QName {
                    ns: Some(uri),
                    local: a.local.to_string(),
                },
                None => QName::local(a.local),
            };
            element.attrs.push((qn, a.value.into_owned()));
        }
        loop {
            match self.next_event()? {
                Some(Event::Start { .. }) => {
                    let child = self.build_current()?;
                    element.children.push(Node::Element(child));
                }
                Some(Event::Text(t)) => push_text(&mut element, t.into_owned()),
                Some(Event::End) => return Ok(element),
                None => {
                    return Err(XmlError::at("eof inside element content", self.pos));
                }
            }
        }
    }

    /// Skip the element whose [`Event::Start`] was just pulled,
    /// consuming events through its matching end without building
    /// anything.
    pub fn skip_element(&mut self) -> Result<()> {
        self.last_start = None;
        let mut depth = 1usize;
        while depth > 0 {
            match self.next_event()? {
                Some(Event::Start { .. }) => depth += 1,
                Some(Event::End) => depth -= 1,
                Some(Event::Text(_)) => {}
                None => {
                    return Err(XmlError::at("eof inside element content", self.pos));
                }
            }
        }
        Ok(())
    }

    /// Collect the text content of the element whose [`Event::Start`]
    /// was just pulled — concatenated character data of the element
    /// and its descendants — without materializing a DOM.
    pub fn collect_text(&mut self) -> Result<String> {
        self.last_start = None;
        let mut out = String::new();
        let mut depth = 1usize;
        while depth > 0 {
            match self.next_event()? {
                Some(Event::Start { .. }) => depth += 1,
                Some(Event::End) => depth -= 1,
                Some(Event::Text(t)) => out.push_str(&t),
                None => {
                    return Err(XmlError::at("eof inside element content", self.pos));
                }
            }
        }
        Ok(out)
    }

    // ---- tokenizer internals -------------------------------------

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(XmlError::at(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn skip_until(&mut self, pat: &str) -> Result<()> {
        let hay = &self.bytes[self.pos..];
        match find_sub(hay, pat.as_bytes()) {
            Some(i) => {
                self.pos += i + pat.len();
                Ok(())
            }
            None => Err(XmlError::at(
                format!("unterminated construct, expected '{}'", pat),
                self.pos,
            )),
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>")?;
        }
        self.skip_misc();
        if self.starts_with("<!DOCTYPE") {
            return Err(XmlError::at("DTDs are not accepted", self.pos));
        }
        Ok(())
    }

    /// Skip comments, PIs and whitespace between top-level constructs.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else if self.starts_with("<?") {
                if self.skip_until("?>").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<(&'a str, usize)> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok =
                b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80;
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(XmlError::at("expected a name", self.pos));
        }
        let bytes = self.bytes;
        let name = std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|_| XmlError::at("invalid utf-8 in name", start))?;
        Ok((name, start))
    }

    fn resolve(&self, prefix: &str, pos: usize) -> Result<Option<Arc<str>>> {
        if prefix == "xml" {
            return Ok(Some(intern_ns("http://www.w3.org/XML/1998/namespace")));
        }
        for (p, uri) in self.bindings.iter().rev() {
            if p == prefix {
                // `None` records xmlns="" un-declaring the namespace.
                return Ok(uri.clone());
            }
        }
        if prefix.is_empty() {
            Ok(None)
        } else {
            Err(XmlError::at(
                format!("undeclared namespace prefix '{}'", prefix),
                pos,
            ))
        }
    }

    fn split_prefixed(raw: &str) -> (&str, &str) {
        match raw.find(':') {
            Some(i) => (&raw[..i], &raw[i + 1..]),
            None => ("", raw),
        }
    }

    fn pop_frame(&mut self) {
        if let Some(open) = self.frames.pop() {
            self.bindings.truncate(open.binds_before);
        }
    }

    fn start_tag(&mut self) -> Result<Event<'a>> {
        if self.frames.len() >= MAX_DEPTH {
            return Err(XmlError::at(
                format!("element nesting exceeds {} levels", MAX_DEPTH),
                self.pos,
            ));
        }
        let tag_pos = self.pos;
        self.expect_byte(b'<')?;
        let (raw_name, name_start) = self.parse_name()?;
        let name_end = name_start + raw_name.len();
        let binds_before = self.bindings.len();

        // First pass over attributes: gather raw attrs and ns decls.
        self.raw_attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                Some(_) => {
                    let apos = self.pos;
                    let (aname, _) = self.parse_name()?;
                    self.skip_ws();
                    self.expect_byte(b'=')?;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .ok_or_else(|| XmlError::at("eof in attribute", self.pos))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(XmlError::at("attribute value must be quoted", self.pos));
                    }
                    self.pos += 1;
                    let vstart = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        if b == b'<' {
                            return Err(XmlError::at("'<' in attribute value", self.pos));
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(XmlError::at("unterminated attribute value", vstart));
                    }
                    let bytes = self.bytes;
                    let raw_val = std::str::from_utf8(&bytes[vstart..self.pos])
                        .map_err(|_| XmlError::at("invalid utf-8", vstart))?;
                    let value = unescape(raw_val, vstart)?;
                    self.pos += 1; // closing quote
                    if aname == "xmlns" {
                        let uri = if value.is_empty() {
                            None
                        } else {
                            Some(intern_ns(&value))
                        };
                        self.bindings.push((String::new(), uri));
                    } else if let Some(pfx) = aname.strip_prefix("xmlns:") {
                        let uri = if value.is_empty() {
                            None
                        } else {
                            Some(intern_ns(&value))
                        };
                        self.bindings.push((pfx.to_string(), uri));
                    } else {
                        self.raw_attrs.push((aname, value, apos));
                    }
                }
                None => return Err(XmlError::at("eof inside start tag", self.pos)),
            }
        }

        // Resolve the element name and attribute names.
        let (prefix, local) = Self::split_prefixed(raw_name);
        let ns = self.resolve(prefix, tag_pos)?;
        self.attrs.clear();
        let raw_attrs = std::mem::take(&mut self.raw_attrs);
        for (raw, value, apos) in &raw_attrs {
            let (pfx, loc) = Self::split_prefixed(raw);
            // Per the namespaces spec, unprefixed attributes are in no
            // namespace (they do NOT inherit the default namespace).
            let ans = if pfx.is_empty() {
                None
            } else {
                self.resolve(pfx, *apos)?
            };
            self.attrs.push(Attr {
                ns: ans,
                local: loc,
                value: value.clone(),
            });
        }
        self.raw_attrs = raw_attrs;
        self.raw_attrs.clear();

        // Empty-element tag?
        if self.peek() == Some(b'/') {
            self.pos += 1;
            self.expect_byte(b'>')?;
            self.pending_end = true;
        } else {
            self.expect_byte(b'>')?;
        }
        self.frames.push(OpenTag {
            name_start,
            name_end,
            binds_before,
        });
        self.seen_root = true;
        self.last_tag_pos = tag_pos;
        self.last_start = Some((ns.clone(), local));
        Ok(Event::Start { ns, local })
    }
}

/// Append text, merging with a trailing text node (CDATA adjacency).
fn push_text(element: &mut Element, text: String) {
    if text.is_empty() {
        return;
    }
    if let Some(Node::Text(prev)) = element.children.last_mut() {
        prev.push_str(&text);
    } else {
        element.children.push(Node::Text(text));
    }
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || hay.len() < needle.len() {
        return None;
    }
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Decode the predefined entities and numeric character references,
/// borrowing the input when it contains none.
fn unescape(raw: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| XmlError::at("unterminated entity reference", offset))?;
        let entity = &rest[1..end];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| XmlError::at("bad hex character reference", offset))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::at("invalid character reference", offset))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| XmlError::at("bad character reference", offset))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::at("invalid character reference", offset))?,
                );
            }
            other => {
                return Err(XmlError::at(
                    format!("unknown entity '&{};'", other),
                    offset,
                ));
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let e = parse("<?xml version=\"1.0\"?><a x=\"1\"><b>hi</b></a>").unwrap();
        assert_eq!(e.name.local, "a");
        assert_eq!(e.attr_value("x"), Some("1"));
        assert_eq!(e.find_local("b").unwrap().text_content(), "hi");
    }

    #[test]
    fn resolves_default_and_prefixed_namespaces() {
        let e = parse("<a xmlns=\"urn:d\" xmlns:p=\"urn:p\"><p:b/><c/></a>").unwrap();
        assert!(e.name.is("urn:d", "a"));
        assert!(e.elements().next().unwrap().name.is("urn:p", "b"));
        assert!(e.elements().nth(1).unwrap().name.is("urn:d", "c"));
    }

    #[test]
    fn unprefixed_attributes_have_no_namespace() {
        let e = parse("<a xmlns=\"urn:d\" k=\"v\"/>").unwrap();
        assert_eq!(e.attrs[0].0, QName::local("k"));
    }

    #[test]
    fn namespace_scoping_and_shadowing() {
        let e = parse("<a xmlns:p=\"urn:1\"><b xmlns:p=\"urn:2\"><p:x/></b><p:y/></a>").unwrap();
        let b = e.elements().next().unwrap();
        assert!(b.elements().next().unwrap().name.is("urn:2", "x"));
        assert!(e.elements().nth(1).unwrap().name.is("urn:1", "y"));
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        assert!(parse("<p:a/>").is_err());
    }

    #[test]
    fn entities_and_char_refs() {
        let e = parse("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>").unwrap();
        assert_eq!(e.text_content(), "<>&\"'AB");
    }

    #[test]
    fn cdata_is_literal_text() {
        let e = parse("<a><![CDATA[1 < 2 & x]]></a>").unwrap();
        assert_eq!(e.text_content(), "1 < 2 & x");
    }

    #[test]
    fn adjacent_text_and_cdata_merge() {
        let e = parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(e.children.len(), 1);
        assert_eq!(e.text_content(), "xyz");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let e = parse("<!-- c --><a><!-- c2 --><?pi data?><b/></a><!-- tail -->").unwrap();
        assert_eq!(e.element_count(), 1);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn doctype_rejected() {
        assert!(parse("<!DOCTYPE a []><a/>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn single_quoted_attributes() {
        let e = parse("<a k='v\"w'/>").unwrap();
        assert_eq!(e.attr_value("k"), Some("v\"w"));
    }

    #[test]
    fn xmlns_empty_undeclares_default() {
        let e = parse("<a xmlns=\"urn:d\"><b xmlns=\"\"/></a>").unwrap();
        assert!(e.elements().next().unwrap().name.ns.is_none());
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "<a>".repeat(MAX_DEPTH + 1) + &"</a>".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Depth just under the limit is fine.
        let ok = "<a>".repeat(MAX_DEPTH - 1) + &"</a>".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn roundtrip_through_writer() {
        let src = crate::Element::new("urn:x", "root")
            .attr("a", "1 < 2")
            .child(crate::Element::new("urn:y", "kid").text("t&t"))
            .child(crate::Element::new("urn:x", "kid2"));
        let parsed = parse(&src.to_xml()).unwrap();
        assert_eq!(parsed, src);
    }

    // ---- pull surface ---------------------------------------------

    #[test]
    fn pull_event_sequence() {
        let mut p = PullParser::new("<a xmlns=\"urn:d\" k=\"v\"><b>hi</b><c/></a>");
        match p.next_event().unwrap().unwrap() {
            Event::Start { ns, local } => {
                assert_eq!(ns.as_deref(), Some("urn:d"));
                assert_eq!(local, "a");
                assert_eq!(p.attrs().len(), 1);
                assert_eq!(p.attrs()[0].local, "k");
                assert_eq!(p.attrs()[0].value, "v");
                assert!(p.attrs()[0].ns.is_none());
            }
            other => panic!("expected start, got {:?}", other),
        }
        assert!(matches!(
            p.next_event().unwrap().unwrap(),
            Event::Start { local: "b", .. }
        ));
        match p.next_event().unwrap().unwrap() {
            Event::Text(t) => {
                assert_eq!(t, "hi");
                assert!(matches!(t, Cow::Borrowed(_)));
            }
            other => panic!("expected text, got {:?}", other),
        }
        assert!(matches!(p.next_event().unwrap().unwrap(), Event::End));
        assert!(matches!(
            p.next_event().unwrap().unwrap(),
            Event::Start { local: "c", .. }
        ));
        assert!(matches!(p.next_event().unwrap().unwrap(), Event::End));
        assert!(matches!(p.next_event().unwrap().unwrap(), Event::End));
        assert!(p.next_event().unwrap().is_none());
        // Idempotent at EOF.
        assert!(p.next_event().unwrap().is_none());
    }

    #[test]
    fn pull_interns_namespace_uris() {
        let mut p = PullParser::new("<a xmlns=\"urn:intern-me\"><b/></a>");
        let ns_a = match p.next_event().unwrap().unwrap() {
            Event::Start { ns, .. } => ns.unwrap(),
            _ => unreachable!(),
        };
        let ns_b = match p.next_event().unwrap().unwrap() {
            Event::Start { ns, .. } => ns.unwrap(),
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(&ns_a, &ns_b));
    }

    #[test]
    fn build_element_mid_stream_matches_dom() {
        let doc = "<root><skip>x</skip><want a=\"1\"><kid>t&amp;t</kid></want><tail/></root>";
        let dom = parse(doc).unwrap();
        let mut p = PullParser::new(doc);
        p.next_event().unwrap(); // <root>
        p.next_event().unwrap(); // <skip>
        p.skip_element().unwrap();
        p.next_event().unwrap(); // <want>
        let want = p.build_element().unwrap();
        assert_eq!(&want, dom.find_local("want").unwrap());
        // Stream continues normally after the materialized subtree.
        assert!(matches!(
            p.next_event().unwrap().unwrap(),
            Event::Start { local: "tail", .. }
        ));
    }

    #[test]
    fn collect_text_spans_descendants() {
        let mut p = PullParser::new("<a>x<b>y</b>z</a>");
        p.next_event().unwrap();
        assert_eq!(p.collect_text().unwrap(), "xyz");
        assert!(p.next_event().unwrap().is_none());
    }

    #[test]
    fn with_scope_resolves_inherited_prefixes() {
        // Capture the scope at <Body> and re-parse a child span.
        let doc = "<e xmlns:p=\"urn:p\"><body><p:x k=\"v\"/></body></e>";
        let mut p = PullParser::new(doc);
        p.next_event().unwrap(); // <e>
        p.next_event().unwrap(); // <body>
        let scope = p.scope();
        p.next_event().unwrap(); // <p:x>
        let start = p.last_start_pos();
        p.skip_element().unwrap();
        let span = &doc[start..p.pos()];
        assert_eq!(span, "<p:x k=\"v\"/>");
        let mut sub = PullParser::with_scope(span, &scope);
        sub.next_event().unwrap();
        let el = sub.build_element().unwrap();
        assert!(el.name.is("urn:p", "x"));
        assert_eq!(el.attr_value("k"), Some("v"));
    }

    #[test]
    fn truncated_content_is_an_error_not_a_hang() {
        let mut p = PullParser::new("<a><b>unfinished");
        p.next_event().unwrap();
        p.next_event().unwrap();
        p.next_event().unwrap(); // text
        let err = p.next_event().unwrap_err();
        assert!(err.message.contains("eof inside element content"), "{err}");
    }
}
