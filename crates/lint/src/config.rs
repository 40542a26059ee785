//! Per-crate / per-file scoping for the lint rules.
//!
//! The scoping is deliberately *code*, not a config file: changing where a
//! determinism rule applies is a reviewable source change to the lint crate,
//! with the same weight as changing the rule itself.

/// Rule identifiers, exactly as they appear in diagnostics and in
/// `lint:allow(<rule-id>)` escape hatches.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// See [`NO_WALL_CLOCK`].
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
/// See [`NO_WALL_CLOCK`].
pub const NO_UNORDERED_COLLECTIONS: &str = "no-unordered-collections";
/// See [`NO_WALL_CLOCK`].
pub const NO_PARTIAL_FLOAT_CMP: &str = "no-partial-float-cmp";
/// See [`NO_WALL_CLOCK`].
pub const NO_UNSAFE: &str = "no-unsafe";
/// See [`NO_WALL_CLOCK`].
pub const UNWRAP_RATCHET: &str = "unwrap-ratchet";
/// See [`NO_WALL_CLOCK`].
pub const TAINT_ARTIFACT_PATH: &str = "taint-artifact-path";
/// See [`NO_WALL_CLOCK`].
pub const NO_NARROWING_AS_CAST: &str = "no-narrowing-as-cast";
/// See [`NO_WALL_CLOCK`].
pub const PANIC_PATH_RATCHET: &str = "panic-path-ratchet";
/// Diagnostic id for malformed `lint:allow` directives themselves.
pub const BAD_ALLOW: &str = "bad-allow";

/// Every rule id that may legally appear in a `lint:allow(...)` directive.
pub const ALLOWABLE_RULES: &[&str] = &[
    NO_WALL_CLOCK,
    NO_AMBIENT_RNG,
    NO_UNORDERED_COLLECTIONS,
    NO_PARTIAL_FLOAT_CMP,
    NO_UNSAFE,
    TAINT_ARTIFACT_PATH,
    NO_NARROWING_AS_CAST,
];

/// The bench crate's measurement modules: the only places allowed to read
/// the host wall clock, because they time the *simulator itself* (replay
/// wall time, admission throughput). Everything else must take time from
/// the `EventQueue`.
pub const WALL_CLOCK_EXEMPT_FILES: &[&str] = &[
    "crates/bench/src/perf.rs",
    "crates/bench/src/admission_overhead.rs",
    "crates/bench/src/scale.rs",
    "crates/bench/src/scale_sharded.rs",
    "crates/bench/src/fleet.rs",
    "crates/bench/src/netchaos.rs",
    "crates/bench/src/defrag.rs",
];

/// Crates whose data structures feed byte-identical JSON artifacts: any
/// `HashMap`/`HashSet` iteration order here could silently reorder output.
pub const ORDERED_COLLECTIONS_CRATES: &[&str] = &[
    "crates/sim",
    "crates/core",
    "crates/orch",
    "crates/metrics",
    "crates/tpu",
    "crates/cluster",
];

/// Crates where every lossy integer `as` cast must be a checked
/// `try_into().expect("<invariant>")` or a widening: these hold the
/// conservation ledgers, unit types, and artifact math where a silent
/// truncation corrupts results instead of crashing.
pub const NARROWING_CAST_CRATES: &[&str] = &["crates/core", "crates/sim", "crates/metrics"];

/// Sink *function names* for the `taint-artifact-path` analysis: calling
/// one of these from a nondeterminism-tainted function is a finding. They
/// are the points where a value escapes into a committed artifact, a
/// metrics sketch, or a cross-shard/cross-cluster message.
pub const TAINT_SINK_NAMES: &[&str] = &[
    // artifact serializers
    "to_json",
    "write_csv",
    // metrics sketches / recorders
    "record",
    "record_ns",
    "record_duration",
    "merge",
    // cross-shard / cross-cluster message builders
    "schedule_command",
    "admit_global",
    "submit_control",
    "pump_control",
    "place",
];

/// Sink name *prefixes* (e.g. every `render_*` artifact writer).
pub const TAINT_SINK_PREFIXES: &[&str] = &["render_"];

/// Hot entry points for the `panic-path-ratchet`: `(file suffix,
/// qualified name)`. Panicking constructs reachable from these in the
/// call graph are counted against the per-crate baseline.
pub const PANIC_ENTRY_POINTS: &[(&str, &str)] = &[
    // the deterministic replay loop ("World::step" of the paper)
    ("crates/core/src/runtime.rs", "World::run_until"),
    ("crates/core/src/runtime.rs", "World::run_to_completion"),
    ("crates/core/src/runtime.rs", "World::dispatch"),
    // sharded epoch exchange
    (
        "crates/core/src/shard.rs",
        "ShardedWorld::run_net_with_workers",
    ),
    // federated placement front door
    ("crates/core/src/fleet.rs", "FrontDoor::place"),
];

/// Directory names never scanned, at any depth. `vendor` holds offline
/// stand-ins for external crates (not ours to lint), `target` is build
/// output.
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor"];

/// The lint's own fixture corpus: deliberately-violating snippets that must
/// not count as workspace findings.
pub const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// True if `rule` applies to the workspace-relative path `rel`.
pub fn rule_enabled(rule: &str, rel: &str) -> bool {
    match rule {
        NO_WALL_CLOCK => !WALL_CLOCK_EXEMPT_FILES.contains(&rel),
        NO_UNORDERED_COLLECTIONS => ORDERED_COLLECTIONS_CRATES
            .iter()
            .any(|c| rel.strip_prefix(c).is_some_and(|r| r.starts_with('/'))),
        // The ratchet measures production robustness debt: integration-test
        // trees are excluded here, `#[cfg(test)]` modules by the scanner.
        UNWRAP_RATCHET => !rel.starts_with("tests/") && !rel.contains("/tests/"),
        NO_NARROWING_AS_CAST => {
            !rel.starts_with("tests/")
                && !rel.contains("/tests/")
                && NARROWING_CAST_CRATES
                    .iter()
                    .any(|c| rel.strip_prefix(c).is_some_and(|r| r.starts_with('/')))
        }
        // Taint runs per-crate over production code only; test trees never
        // feed artifacts.
        TAINT_ARTIFACT_PATH | PANIC_PATH_RATCHET => {
            !rel.starts_with("tests/") && !rel.contains("/tests/")
        }
        _ => true,
    }
}

/// True when `name` is a taint sink (exact name or configured prefix).
pub fn is_taint_sink(name: &str) -> bool {
    TAINT_SINK_NAMES.contains(&name) || TAINT_SINK_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// The cargo package a workspace-relative path belongs to, as named in
/// `lint-baseline.toml` (`crates/core` -> `microedge-core`; `benchmark/`,
/// a package and workspace of its own, -> `microedge-benchmark`; the root
/// package's `src/`, `examples/`, `tests/` -> `microedge`). The per-crate
/// call graph is keyed by it, so two packages' `main`s never merge.
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(dir) = rest.split('/').next() {
            return format!("microedge-{dir}");
        }
    }
    if rel.starts_with("benchmark/") {
        return "microedge-benchmark".to_string();
    }
    "microedge".to_string()
}

#[cfg(test)]
mod tests {
    use super::crate_of;

    #[test]
    fn crate_of_maps_paths_to_their_packages() {
        assert_eq!(crate_of("crates/core/src/runtime.rs"), "microedge-core");
        assert_eq!(crate_of("benchmark/src/span.rs"), "microedge-benchmark");
        assert_eq!(crate_of("benchmark/tests/smoke.rs"), "microedge-benchmark");
        assert_eq!(crate_of("examples/quickstart.rs"), "microedge");
        assert_eq!(crate_of("src/lib.rs"), "microedge");
        assert_eq!(crate_of("tests/end_to_end.rs"), "microedge");
    }
}
