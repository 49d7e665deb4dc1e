//! Canonical span trees: turning the unordered stream of finished spans
//! into a forest whose *structure* is identical for any worker count.
//!
//! Spans finish in scheduling order, so the raw record is
//! nondeterministic. Canonicalization restores determinism:
//!
//! * roots carrying a `datalog` attribute (batch jobs) are ordered by
//!   `(datalog, name, slot)` — the same key the batch engine merges
//!   reports by;
//! * other roots (coordinator-side setup like the good-machine
//!   simulation) keep their mutual start order, ahead of the jobs;
//! * children of one span run sequentially on one thread, so start
//!   order is already deterministic.
//!
//! Timings, thread ids and start offsets remain scheduling-dependent;
//! [`forest_json`]'s redaction mode omits them, and
//! `tests/tests/obs_determinism.rs` asserts the redacted JSON is
//! byte-identical at 1 and 8 workers.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json;
use crate::trace::RawSpan;

/// One span in the canonical forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span name (a static site label, e.g. `flow.intra_cell`).
    pub name: &'static str,
    /// Structured attributes recorded at open time.
    pub attrs: Vec<(&'static str, u64)>,
    /// Dense per-process id of the recording thread.
    pub thread: u64,
    /// Start offset from the creation of the span's store (µs).
    pub start_us: u64,
    /// Wall-clock duration (µs).
    pub duration_us: u64,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Total spans in this subtree including itself.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

fn build_node(
    raw: &RawSpan,
    children_of: &BTreeMap<u64, Vec<&RawSpan>>,
    epoch: Instant,
) -> SpanNode {
    let mut children: Vec<&RawSpan> = children_of.get(&raw.id).cloned().unwrap_or_default();
    children.sort_by_key(|c| c.seq);
    SpanNode {
        name: raw.name,
        attrs: raw.attrs.clone(),
        thread: raw.thread,
        start_us: raw.start.saturating_duration_since(epoch).as_micros() as u64,
        duration_us: raw.duration_us,
        children: children
            .into_iter()
            .map(|c| build_node(c, children_of, epoch))
            .collect(),
    }
}

/// Canonicalizes one store's spans; start offsets count from the
/// store's `epoch` (a span started earlier clamps to zero).
pub(crate) fn build_forest(raws: &[RawSpan], epoch: Instant) -> Vec<SpanNode> {
    let ids: std::collections::BTreeSet<u64> = raws.iter().map(|r| r.id).collect();
    let mut children_of: BTreeMap<u64, Vec<&RawSpan>> = BTreeMap::new();
    let mut roots: Vec<&RawSpan> = Vec::new();
    for raw in raws {
        match raw.parent {
            // A parent that never finished (open guard at export time)
            // is treated as absent: the child is promoted to a root.
            Some(p) if ids.contains(&p) => children_of.entry(p).or_default().push(raw),
            _ => roots.push(raw),
        }
    }
    // Canonical root order: setup roots (no datalog attribute) first in
    // start order, then job roots by (datalog, name, slot).
    let mut keyed: Vec<(RootKey, SpanNode)> = roots
        .into_iter()
        .map(|r| {
            let node = build_node(r, &children_of, epoch);
            (root_key(&node, r.seq), node)
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    keyed.into_iter().map(|(_, n)| n).collect()
}

type RootKey = (u8, u64, &'static str, u64, u64);

fn root_key(node: &SpanNode, seq: u64) -> RootKey {
    match node.attr("datalog") {
        // Setup roots run sequentially on the coordinator: their mutual
        // seq order is deterministic even though absolute values are not.
        None => (0, 0, node.name, 0, seq),
        Some(datalog) => (1, datalog, node.name, node.attr("slot").unwrap_or(0), 0),
    }
}

fn node_json(out: &mut String, node: &SpanNode, redact: bool, indent: usize) {
    let pad = "  ".repeat(indent);
    out.push_str(&pad);
    out.push_str("{ \"name\": ");
    json::write_string(out, node.name);
    if !node.attrs.is_empty() {
        out.push_str(", \"attrs\": {");
        for (i, (k, v)) in node.attrs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            } else {
                out.push(' ');
            }
            json::write_string(out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str(" }");
    }
    if !redact {
        out.push_str(&format!(
            ", \"thread\": {}, \"start_us\": {}, \"duration_us\": {}",
            node.thread, node.start_us, node.duration_us
        ));
    }
    if node.children.is_empty() {
        out.push_str(" }");
    } else {
        out.push_str(", \"children\": [\n");
        for (i, child) in node.children.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            node_json(out, child, redact, indent + 1);
        }
        out.push('\n');
        out.push_str(&pad);
        out.push_str("] }");
    }
}

/// Serializes a canonical forest as `{"trace": [...]}`. With `redact`,
/// thread ids, start offsets and durations are omitted so the output is
/// byte-identical for any scheduling of the same input.
pub fn forest_json(forest: &[SpanNode], redact: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{ \"trace\": [\n");
    for (i, node) in forest.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        node_json(&mut out, node, redact, 1);
    }
    out.push_str("\n] }\n");
    out
}
