//! Workspace walking and the top-level lint entry points.
//!
//! Linting runs in two phases: a per-file pass (token-sequence rules,
//! unwrap counting, fact extraction) followed by per-crate flow analyses
//! over the assembled call graphs (`taint-artifact-path` and the
//! `panic-path-ratchet` debt measure).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::baseline;
use crate::callgraph::{CrateGraph, FnDef};
use crate::config::{self, crate_of};
use crate::rules::{analyze_file, AllowDirective, Diagnostic};
use crate::taint;

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All rule and `bad-allow` diagnostics, sorted by `(path, line, col)`.
    pub diags: Vec<Diagnostic>,
    /// Measured unwrap-ratchet counts per cargo package (crates with zero
    /// debt included, so the baseline lists every package explicitly).
    pub ratchet: BTreeMap<String, usize>,
    /// Measured panic-path debt per cargo package: panicking constructs
    /// reachable from the hot entry points in that crate's call graph.
    pub panic_ratchet: BTreeMap<String, usize>,
    /// Per-function panic-path breakdown, heaviest first:
    /// `(qualified name, file, line, count)`.
    pub panic_breakdown: Vec<(String, String, u32, usize)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Collect every workspace `.rs` file under `root`, depth-first in sorted
/// order (deterministic output), skipping `vendor/`, `target/`, `.git/`,
/// and the lint's own deliberately-violating fixture corpus.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if config::SKIP_DIRS.contains(&name.as_ref()) || rel == config::FIXTURE_DIR {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint every workspace `.rs` file under `root`. Does *not* apply the
/// ratchet baseline — see [`lint_workspace_with_baseline`].
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    // Seed every package so a debt-free crate still appears (as 0) in the
    // regenerated baseline, keeping the committed file exhaustive.
    for krate in packages(root)? {
        report.ratchet.insert(krate.clone(), 0);
        report.panic_ratchet.insert(krate, 0);
    }

    // Phase 1: per-file rules + fact extraction.
    let mut crate_fns: BTreeMap<String, Vec<FnDef>> = BTreeMap::new();
    let mut file_allows: BTreeMap<String, Vec<AllowDirective>> = BTreeMap::new();
    for path in workspace_files(root)? {
        let rel = rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        let analysis = analyze_file(&rel, &src);
        report.diags.extend(analysis.findings.diags);
        *report.ratchet.entry(crate_of(&rel)).or_insert(0) += analysis.findings.unwrap_count;
        if config::rule_enabled(config::TAINT_ARTIFACT_PATH, &rel) {
            let mut fns: Vec<FnDef> = analysis.fns.into_iter().filter(|f| !f.is_test).collect();
            // The bench measurement modules are sanctioned wall-clock
            // readers (see WALL_CLOCK_EXEMPT_FILES): their host timings
            // land in the artifacts' `host` section, which the determinism
            // gate cuts off before byte-comparison. Dropping that source class
            // here keeps taint focused on *unsanctioned* flows instead of
            // re-reporting the sanctioned one at every downstream sink.
            if config::WALL_CLOCK_EXEMPT_FILES.contains(&rel.as_str()) {
                for f in &mut fns {
                    f.sources.retain(|s| s.kind != "wall-clock");
                }
            }
            crate_fns.entry(crate_of(&rel)).or_default().extend(fns);
        }
        if !analysis.allows.is_empty() {
            file_allows.insert(rel.clone(), analysis.allows);
        }
        report.files_scanned += 1;
    }

    // Phase 2: per-crate flow analyses over the call graphs.
    for (krate, fns) in crate_fns {
        let graph = CrateGraph::build(fns);
        for d in taint::taint_artifact_path(&graph) {
            let covered = file_allows
                .get(&d.path)
                .is_some_and(|allows| allows.iter().any(|a| a.covers(d.rule, d.line)));
            if !covered {
                report.diags.push(d);
            }
        }
        report.diags.extend(taint::unresolved_panic_entries(&graph));
        let (debt, breakdown) = taint::panic_path_debt(&graph);
        *report.panic_ratchet.entry(krate).or_insert(0) += debt;
        report.panic_breakdown.extend(breakdown);
    }
    report
        .panic_breakdown
        .sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));

    report
        .diags
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// Lint the workspace and fold in ratchet-baseline violations. A missing
/// or unparseable baseline file is itself a failure (the gate must never
/// silently pass because the ratchet got lost).
pub fn lint_workspace_with_baseline(root: &Path) -> io::Result<Report> {
    let mut report = lint_workspace(root)?;
    let baseline_path = root.join(baseline::BASELINE_FILE);
    match fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(base) => report.diags.extend(baseline::check(
                &report.ratchet,
                &report.panic_ratchet,
                &base,
            )),
            Err(e) => report.diags.push(baseline_error(format!(
                "{} is malformed ({e}); fix it or regenerate with --update-baseline",
                baseline::BASELINE_FILE
            ))),
        },
        Err(_) => report.diags.push(baseline_error(format!(
            "{} not found at the workspace root; regenerate with --update-baseline",
            baseline::BASELINE_FILE
        ))),
    }
    Ok(report)
}

/// Report-only sweep of the integration-test trees (`tests/` directories)
/// that the hard rules skip: runs the unwrap counter and the narrowing
/// scan over them with test masking off, purely informational. Returns
/// `(diagnostics, unwrap-count)` — findings here never gate.
pub fn lint_test_trees(root: &Path) -> io::Result<(Vec<Diagnostic>, usize)> {
    use crate::tokenizer::{tokenize, TokKind, Token};

    let mut diags = Vec::new();
    let mut unwraps = 0usize;
    for path in workspace_files(root)? {
        let rel = rel_path(root, &path);
        if !(rel.starts_with("tests/") || rel.contains("/tests/")) {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let toks = tokenize(&src);
        let sig: Vec<&Token> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
        // In a test tree everything is "test code"; report with the mask
        // off so the sweep actually sees the files it exists to cover.
        let no_mask = vec![false; sig.len()];
        crate::rules::narrowing_casts_for_report(&rel, &sig, &no_mask, &mut diags);
        unwraps += crate::rules::unwraps_for_report(&sig, &no_mask);
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok((diags, unwraps))
}

fn baseline_error(message: String) -> Diagnostic {
    Diagnostic {
        rule: config::UNWRAP_RATCHET,
        path: baseline::BASELINE_FILE.to_string(),
        line: 1,
        col: 1,
        message,
    }
}

/// The cargo packages the ratchet tracks: the root package plus every
/// `crates/*` member, by baseline key name.
fn packages(root: &Path) -> io::Result<Vec<String>> {
    let mut out = vec!["microedge".to_string()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        out.extend(names.into_iter().map(|n| format!("microedge-{n}")));
    }
    Ok(out)
}

/// Locate the workspace root: the nearest ancestor of `start` containing
/// both `Cargo.toml` and a `crates/` directory.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
