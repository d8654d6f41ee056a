//! The per-layer ledger: self time per layer over the traced rounds.
//!
//! A span's self time is its duration minus its children's. Every hop
//! is synchronous, so children lie inside their parent and the self
//! times of one root's tree add up to the root's duration exactly. The
//! root's own self time is the part no layer claims: `unattributed`.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::trace::SpanRec;

#[derive(Default, Debug)]
pub struct Ledger {
    /// Summed duration of the root spans (ns).
    pub total_ns: f64,
    /// Root spans counted.
    pub roots: u64,
    /// Self time per layer (ns), roots excluded.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Self time of the roots (ns).
    pub unattributed_ns: f64,
    /// Span count per layer.
    pub count: BTreeMap<&'static str, u64>,
    /// Every span's duration per layer (ns).
    pub durs: BTreeMap<&'static str, Vec<f64>>,
    /// Every span's self time per layer (ns).
    pub selfs: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    /// Build the ledger over the trees rooted at `root_layer` spans.
    pub fn build(spans: &[SpanRec], root_layer: &str) -> Ledger {
        let roots: HashSet<u64> = spans
            .iter()
            .filter(|s| s.layer == root_layer && s.parent == 0)
            .map(|s| s.group)
            .collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut l = Ledger::default();
        for s in spans.iter().filter(|s| roots.contains(&s.group)) {
            let dur = s.dur_ns() as f64;
            let own = dur - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
            if s.parent == 0 && s.layer == root_layer {
                l.total_ns += dur;
                l.roots += 1;
                l.unattributed_ns += own;
                continue;
            }
            *l.self_ns.entry(s.layer).or_default() += own;
            *l.count.entry(s.layer).or_default() += 1;
            l.durs.entry(s.layer).or_default().push(dur);
            l.selfs.entry(s.layer).or_default().push(own);
        }
        l
    }

    /// Summed self time of a layer (ns), 0 when absent.
    pub fn self_of(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0.0)
    }

    pub fn count_of(&self, layer: &str) -> u64 {
        self.count.get(layer).copied().unwrap_or(0)
    }

    /// Mean duration of a layer's spans (ns), 0 when absent.
    pub fn mean_dur(&self, layer: &str) -> f64 {
        match self.durs.get(layer) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, group: u64, layer: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            group,
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_plus_unattributed_equal_the_total() {
        let spans = vec![
            rec(1, 0, 10, "jobset", 0, 100),
            rec(2, 1, 10, "submit", 5, 40),
            rec(3, 2, 10, "relay", 6, 38),
            rec(4, 3, 10, "scheduler", 8, 30),
            rec(5, 4, 10, "store", 10, 12),
            rec(6, 1, 10, "advance", 45, 95),
            rec(7, 6, 10, "relay", 50, 90),
            rec(8, 0, 11, "jobset", 200, 260),
            rec(9, 8, 11, "submit", 200, 250),
            // Outside any job set: ignored.
            rec(10, 0, 0, "relay", 300, 400),
        ];
        let l = Ledger::build(&spans, "jobset");
        assert_eq!(l.total_ns, 160.0);
        assert_eq!(l.roots, 2);
        let attributed: f64 = l.self_ns.values().sum();
        assert_eq!(attributed + l.unattributed_ns, l.total_ns);
        assert_eq!(l.unattributed_ns, (100.0 - 35.0 - 50.0) + (60.0 - 50.0));
        assert_eq!(l.self_of("scheduler"), 20.0);
        assert_eq!(l.self_of("relay"), (32.0 - 22.0) + 40.0);
        assert_eq!(l.count_of("relay"), 2);
        assert_eq!(l.self_of("absent"), 0.0);
    }
}
