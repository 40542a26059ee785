//! The two flow analyses over the crate call graph: `taint-artifact-path`
//! and the `panic-path-ratchet` debt computation.
//!
//! Both work on the same [`CrateGraph`]: taint propagates *up* the graph
//! (a caller of a nondeterministic function observes its result), panic
//! reachability propagates *down* from the hot entry points (a panic in a
//! callee can fire during `World::step`).

use crate::callgraph::CrateGraph;
use crate::config;
use crate::rules::Diagnostic;

/// Run `taint-artifact-path` over one crate's graph: report every call to
/// a sink name made from a nondeterminism-tainted function. The diagnostic
/// anchors at the call site (that is where the `lint:allow` belongs) and
/// carries the witness chain back to the source.
pub fn taint_artifact_path(graph: &CrateGraph) -> Vec<Diagnostic> {
    let witness = graph.taint();
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        let Some(w) = &witness[i] else { continue };
        for call in &f.calls {
            if !config::is_taint_sink(&call.name) {
                continue;
            }
            let src_fn = &graph.fns[w.source_fn];
            let chain = graph.taint_chain(&witness, i);
            out.push(Diagnostic {
                rule: config::TAINT_ARTIFACT_PATH,
                path: f.file.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "nondeterminism reaches sink `{}`: {} at {}:{} (via {}) — \
                     route the value through simulated time/seeded RNG or \
                     `lint:allow(taint-artifact-path): <reason>`",
                    call.name, w.source.what, src_fn.file, w.source.line, chain
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.path.as_str(), a.line, a.col).cmp(&(b.path.as_str(), b.line, b.col)));
    out
}

/// Per-crate panic-path debt: the number of panicking constructs inside
/// functions reachable from the configured hot entry points
/// ([`config::PANIC_ENTRY_POINTS`]) that live in this crate's graph.
/// Returns the total plus a per-function breakdown (qualified name, file,
/// line, count) for `--explain`-style reporting, sorted heaviest first.
pub fn panic_path_debt(graph: &CrateGraph) -> (usize, Vec<(String, String, u32, usize)>) {
    let mut entries = Vec::new();
    for (file_suffix, qual) in config::PANIC_ENTRY_POINTS {
        entries.extend(graph.resolve_entry(file_suffix, qual));
    }
    if entries.is_empty() {
        return (0, Vec::new());
    }
    let seen = graph.reachable(&entries);
    let mut total = 0usize;
    let mut breakdown = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if seen[i] && f.panic_count > 0 {
            total += f.panic_count;
            let name = f.qual.clone().unwrap_or_else(|| f.name.clone());
            breakdown.push((name, f.file.clone(), f.line, f.panic_count));
        }
    }
    breakdown.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    (total, breakdown)
}

/// Configured hot entry points ([`config::PANIC_ENTRY_POINTS`]) whose file
/// is in this crate's graph but whose name resolves to no function there.
/// A renamed or deleted entry would otherwise drop its whole call tree from
/// the ratchet without a trace; each becomes a finding at its file.
pub fn unresolved_panic_entries(graph: &CrateGraph) -> Vec<Diagnostic> {
    config::PANIC_ENTRY_POINTS
        .iter()
        .filter(|(file_suffix, qual)| {
            graph.fns.iter().any(|f| f.file.ends_with(file_suffix))
                && graph.resolve_entry(file_suffix, qual).is_empty()
        })
        .map(|(file_suffix, qual)| Diagnostic {
            rule: config::PANIC_PATH_RATCHET,
            path: (*file_suffix).to_string(),
            line: 1,
            col: 1,
            message: format!(
                "panic-path entry point `{qual}` resolves to no function in this file — \
                 repoint it in PANIC_ENTRY_POINTS (crates/lint/src/config.rs) or its \
                 call tree silently leaves the ratchet"
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{extract_fns, CrateGraph};
    use crate::parser;
    use crate::tokenizer::{tokenize, TokKind, Token};

    fn graph_of(src: &str, rel: &str) -> CrateGraph {
        let toks = tokenize(src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        let tree = parser::parse(&sig);
        let fns = extract_fns(rel, &sig, &tree, false)
            .into_iter()
            .filter(|f| !f.is_test)
            .collect();
        CrateGraph::build(fns)
    }

    #[test]
    fn tainted_sink_call_is_reported_with_chain() {
        let g = graph_of(
            r#"
            fn jitter() -> u64 { Instant::now(); 7 }
            fn build_sample() -> u64 { jitter() }
            fn publish(sketch: &mut S) { sketch.record(build_sample()); }
            "#,
            "crates/core/src/x.rs",
        );
        let diags = taint_artifact_path(&g);
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert_eq!(d.rule, "taint-artifact-path");
        assert!(d.message.contains("`record`"));
        assert!(d.message.contains("publish -> build_sample -> jitter"));
    }

    #[test]
    fn clean_sink_call_is_silent() {
        let g = graph_of(
            r#"
            fn sample(now: SimTime) -> u64 { now.as_ns() }
            fn publish(sketch: &mut S, now: SimTime) { sketch.record(sample(now)); }
            "#,
            "crates/core/src/x.rs",
        );
        assert!(taint_artifact_path(&g).is_empty());
    }

    #[test]
    fn panic_debt_counts_only_reachable_fns() {
        let g = graph_of(
            r#"
            impl FrontDoor {
                fn place(&mut self) { self.pick(); }
                fn pick(&mut self) { self.heap[0].unwrap(); }
            }
            fn cold_path() { table[9]; other.unwrap(); panic!("x"); }
            "#,
            "crates/core/src/fleet.rs",
        );
        let (total, breakdown) = panic_path_debt(&g);
        // pick: heap[0] indexing + unwrap = 2; cold_path unreachable.
        assert_eq!(total, 2);
        assert_eq!(breakdown.len(), 1);
        assert_eq!(breakdown[0].0, "FrontDoor::pick");
        assert!(unresolved_panic_entries(&g).is_empty());
    }

    #[test]
    fn unresolved_entry_point_is_reported() {
        // fleet.rs is in the graph, but `FrontDoor::place` is gone.
        let g = graph_of(
            r#"
            impl FrontDoor {
                fn admit(&mut self) { self.heap[0].unwrap(); }
            }
            "#,
            "crates/core/src/fleet.rs",
        );
        let diags = unresolved_panic_entries(&g);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "panic-path-ratchet");
        assert_eq!(diags[0].path, "crates/core/src/fleet.rs");
        assert!(diags[0].message.contains("`FrontDoor::place`"));
        // Nothing reachable, nothing counted: the finding is the only signal.
        assert_eq!(panic_path_debt(&g).0, 0);
    }

    #[test]
    fn entry_points_outside_the_graph_are_not_reported() {
        // Another crate's graph holds none of the entry files.
        let g = graph_of("fn helper() { xs[0]; }", "crates/sim/src/x.rs");
        assert!(unresolved_panic_entries(&g).is_empty());
    }
}
