//! WS-Topics: hierarchical topic spaces and expression dialects.
//!
//! Topics name *kinds* of notifications; consumers subscribe with a
//! topic expression and "the topic system acts as a filter allowing
//! notification consumers to simply state ... which messages they are
//! interested in receiving" (§5). The testbed generates "a unique
//! topic name for events related to this job set", with subtopics per
//! event kind (e.g. `jobset-17/job/exit`).

use std::fmt;

/// A concrete topic: a `/`-separated path of names, e.g.
/// `jobset-17/job/exit`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicPath(pub Vec<String>);

impl TopicPath {
    /// Parse from `a/b/c` form. Empty segments are dropped.
    pub fn parse(s: &str) -> TopicPath {
        TopicPath(
            s.split('/')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }

    /// Root topic name (empty string for the empty path).
    pub fn root(&self) -> &str {
        self.0.first().map(String::as_str).unwrap_or("")
    }

    /// Child topic of this one.
    pub fn child(&self, name: &str) -> TopicPath {
        let mut v = self.0.clone();
        v.push(name.to_string());
        TopicPath(v)
    }

    /// Depth of the path.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `self.to_string() == s`, without allocating. Segments may
    /// themselves contain `/` (see [`Self::child`]), so the comparison
    /// is against the joined string, not against `s`'s segments.
    pub fn is(&self, s: &str) -> bool {
        let mut rest = s;
        for (i, seg) in self.0.iter().enumerate() {
            if i > 0 {
                let Some(r) = rest.strip_prefix('/') else {
                    return false;
                };
                rest = r;
            }
            let Some(r) = rest.strip_prefix(seg.as_str()) else {
                return false;
            };
            rest = r;
        }
        rest.is_empty()
    }
}

impl fmt::Display for TopicPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.join("/"))
    }
}

impl From<&str> for TopicPath {
    fn from(s: &str) -> Self {
        TopicPath::parse(s)
    }
}

/// The three WS-Topics expression dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dialect {
    /// Root topic only: expression `jobset-17` matches exactly the
    /// root topic `jobset-17`.
    Simple,
    /// A full concrete path: `jobset-17/job/exit` matches exactly that
    /// topic.
    Concrete,
    /// Concrete path plus wildcards: `*` matches one segment, `//`
    /// matches any number (including zero) of segments.
    Full,
}

impl Dialect {
    /// The dialect URI carried in `<TopicExpression Dialect="...">`.
    pub fn uri(self) -> &'static str {
        match self {
            Dialect::Simple => "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Simple",
            Dialect::Concrete => "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Concrete",
            Dialect::Full => "http://docs.oasis-open.org/wsn/2004/06/TopicExpression/Full",
        }
    }

    /// Inverse of [`Self::uri`]; also accepts the short names
    /// `Simple`/`Concrete`/`Full`.
    pub fn from_uri(uri: &str) -> Option<Dialect> {
        match uri {
            _ if uri == Dialect::Simple.uri() || uri == "Simple" => Some(Dialect::Simple),
            _ if uri == Dialect::Concrete.uri() || uri == "Concrete" => Some(Dialect::Concrete),
            _ if uri == Dialect::Full.uri() || uri == "Full" => Some(Dialect::Full),
            _ => None,
        }
    }
}

/// One segment of a full topic expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Seg {
    Name(String),
    /// `*` — exactly one segment.
    Star,
    /// `//` — zero or more segments.
    Descend,
}

/// A parsed topic expression in one of the three dialects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopicExpression {
    /// The dialect this expression was written in.
    pub dialect: Dialect,
    segs: Vec<Seg>,
}

impl TopicExpression {
    /// Simple-dialect expression for a root topic.
    pub fn simple(root: impl Into<String>) -> TopicExpression {
        TopicExpression {
            dialect: Dialect::Simple,
            segs: vec![Seg::Name(root.into())],
        }
    }

    /// Concrete-dialect expression for an exact path.
    pub fn concrete(path: &str) -> TopicExpression {
        TopicExpression {
            dialect: Dialect::Concrete,
            segs: TopicPath::parse(path)
                .0
                .into_iter()
                .map(Seg::Name)
                .collect(),
        }
    }

    /// Full-dialect expression; `*` and `//` are wildcards.
    ///
    /// `a//b` is written with an empty segment: `a`, ``, `b`.
    pub fn full(expr: &str) -> TopicExpression {
        let mut segs = Vec::new();
        for part in expr.split('/') {
            match part {
                "" => {
                    // Collapse consecutive separators into one Descend.
                    if segs.last() != Some(&Seg::Descend) {
                        segs.push(Seg::Descend);
                    }
                }
                "*" => segs.push(Seg::Star),
                name => segs.push(Seg::Name(name.to_string())),
            }
        }
        // A leading Descend from a leading '/' is meaningless for
        // topics; drop it unless it is the whole expression.
        if segs.first() == Some(&Seg::Descend) && segs.len() > 1 && !expr.starts_with("//") {
            segs.remove(0);
        }
        TopicExpression {
            dialect: Dialect::Full,
            segs,
        }
    }

    /// Parse with an explicit dialect (wire form).
    pub fn parse(dialect: Dialect, expr: &str) -> TopicExpression {
        match dialect {
            Dialect::Simple => TopicExpression::simple(TopicPath::parse(expr).root()),
            Dialect::Concrete => TopicExpression::concrete(expr),
            Dialect::Full => TopicExpression::full(expr),
        }
    }

    /// The textual form carried on the wire.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.segs.iter().enumerate() {
            match s {
                Seg::Name(n) => {
                    if i > 0 && !out.ends_with('/') {
                        out.push('/');
                    }
                    out.push_str(n);
                }
                Seg::Star => {
                    if i > 0 && !out.ends_with('/') {
                        out.push('/');
                    }
                    out.push('*');
                }
                Seg::Descend => out.push_str("//"),
            }
        }
        out
    }

    /// The leading concrete segment of this expression, when it has
    /// one: `Some("jobset-17")` for `jobset-17//exit` or `jobset-17`,
    /// `None` when the expression starts with a wildcard (`//exit`,
    /// `*/x`) and so can match topics under any root. The broker's
    /// sharded subscription index buckets expressions by this prefix;
    /// `None` expressions land in the catch-all bucket scanned on
    /// every publish.
    pub fn concrete_root(&self) -> Option<&str> {
        match self.segs.first() {
            Some(Seg::Name(n)) => Some(n),
            _ => None,
        }
    }

    /// Does this expression match a concrete topic path?
    pub fn matches(&self, topic: &TopicPath) -> bool {
        match self.dialect {
            Dialect::Simple => {
                topic.len() == 1
                    && matches!(self.segs.first(), Some(Seg::Name(n)) if n == topic.root())
            }
            Dialect::Concrete | Dialect::Full => Self::match_segs(&self.segs, &topic.0),
        }
    }

    fn match_segs(segs: &[Seg], path: &[String]) -> bool {
        match (segs.first(), path.first()) {
            (None, None) => true,
            (None, Some(_)) => false,
            (Some(Seg::Descend), _) => {
                // Zero or more segments.
                if Self::match_segs(&segs[1..], path) {
                    return true;
                }
                match path.first() {
                    Some(_) => Self::match_segs(segs, &path[1..]),
                    None => false,
                }
            }
            (Some(_), None) => false,
            (Some(Seg::Star), Some(_)) => Self::match_segs(&segs[1..], &path[1..]),
            (Some(Seg::Name(n)), Some(p)) => n == p && Self::match_segs(&segs[1..], &path[1..]),
        }
    }
}

impl fmt::Display for TopicExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.dialect.uri(), self.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> TopicPath {
        TopicPath::parse(s)
    }

    #[test]
    fn topic_path_parsing() {
        assert_eq!(t("a/b/c").0, vec!["a", "b", "c"]);
        assert_eq!(
            t("a//b").0,
            vec!["a", "b"],
            "empty segments dropped in paths"
        );
        assert_eq!(t("").len(), 0);
        assert_eq!(t("a/b").child("c"), t("a/b/c"));
        assert_eq!(t("a/b").root(), "a");
        assert_eq!(t("a/b").to_string(), "a/b");
    }

    #[test]
    fn is_agrees_with_to_string() {
        let paths = [
            t(""),
            t("js/job"),
            t("js/job/x"),
            t("js/job/x/started"),
            t("js/job").child("a/b"),
        ];
        let strings = [
            "",
            "js",
            "js/",
            "js/job",
            "js/job/x",
            "js/job/x/started",
            "js/job/a",
            "js/job/a/b",
            "js/job/a/b/",
            "/js/job",
        ];
        for p in &paths {
            for s in strings {
                assert_eq!(p.is(s), p.to_string() == s, "{p:?} vs {s:?}");
            }
        }
        // A `/` inside a segment compares as text: the joined string
        // matches, the equivalent parsed path is a different value.
        let slashed = t("js/job").child("a/b");
        assert!(slashed.is("js/job/a/b"));
        assert_ne!(slashed, t("js/job/a/b"));
    }

    #[test]
    fn simple_dialect_matches_root_only() {
        let e = TopicExpression::simple("jobset-1");
        assert!(e.matches(&t("jobset-1")));
        assert!(!e.matches(&t("jobset-1/job")));
        assert!(!e.matches(&t("jobset-2")));
    }

    #[test]
    fn concrete_dialect_exact_match() {
        let e = TopicExpression::concrete("jobset-1/job/exit");
        assert!(e.matches(&t("jobset-1/job/exit")));
        assert!(!e.matches(&t("jobset-1/job")));
        assert!(!e.matches(&t("jobset-1/job/exit/extra")));
    }

    #[test]
    fn full_dialect_star() {
        let e = TopicExpression::full("jobset-1/*/exit");
        assert!(e.matches(&t("jobset-1/job/exit")));
        assert!(e.matches(&t("jobset-1/upload/exit")));
        assert!(
            !e.matches(&t("jobset-1/exit")),
            "* requires exactly one segment"
        );
        assert!(!e.matches(&t("jobset-1/a/b/exit")));
    }

    #[test]
    fn full_dialect_descend() {
        let e = TopicExpression::full("jobset-1//exit");
        assert!(e.matches(&t("jobset-1/exit")));
        assert!(e.matches(&t("jobset-1/job/exit")));
        assert!(e.matches(&t("jobset-1/a/b/c/exit")));
        assert!(!e.matches(&t("jobset-2/exit")));
        assert!(!e.matches(&t("jobset-1/exit/more")));
    }

    #[test]
    fn full_dialect_leading_descend_matches_anywhere() {
        let e = TopicExpression::full("//exit");
        assert!(e.matches(&t("exit")));
        assert!(e.matches(&t("a/b/exit")));
        assert!(!e.matches(&t("a/b/start")));
    }

    #[test]
    fn full_dialect_trailing_descend_matches_subtree() {
        let e = TopicExpression::full("jobset-1//");
        assert!(e.matches(&t("jobset-1")));
        assert!(e.matches(&t("jobset-1/job/exit")));
        assert!(!e.matches(&t("jobset-2/x")));
    }

    #[test]
    fn concrete_root_extraction() {
        assert_eq!(TopicExpression::simple("t").concrete_root(), Some("t"));
        assert_eq!(
            TopicExpression::concrete("a/b/c").concrete_root(),
            Some("a")
        );
        assert_eq!(
            TopicExpression::full("js-1//").concrete_root(),
            Some("js-1")
        );
        assert_eq!(TopicExpression::full("a/*/c").concrete_root(), Some("a"));
        assert_eq!(TopicExpression::full("//exit").concrete_root(), None);
        assert_eq!(TopicExpression::full("*/x").concrete_root(), None);
    }

    #[test]
    fn wire_roundtrip() {
        for (d, s) in [
            (Dialect::Simple, "root"),
            (Dialect::Concrete, "a/b/c"),
            (Dialect::Full, "a/*/c"),
            (Dialect::Full, "a//c"),
        ] {
            let e = TopicExpression::parse(d, s);
            let back = TopicExpression::parse(d, &e.text());
            assert_eq!(back, e, "{d:?} {s}");
        }
    }

    #[test]
    fn dialect_uri_roundtrip() {
        for d in [Dialect::Simple, Dialect::Concrete, Dialect::Full] {
            assert_eq!(Dialect::from_uri(d.uri()), Some(d));
        }
        assert_eq!(Dialect::from_uri("Full"), Some(Dialect::Full));
        assert_eq!(Dialect::from_uri("urn:nope"), None);
    }
}
