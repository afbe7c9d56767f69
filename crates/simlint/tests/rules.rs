//! Per-rule fixture tests (positive / negative / suppressed) plus the
//! workspace self-check: the lint must run clean on this repository with
//! an exactly-tight ratchet, and the workspace fixes must be load-bearing
//! (deleting any allow or sort fix reintroduces a gating diagnostic,
//! which these tests would then fail to observe as "suppressed").

use simlint::diag::Diagnostic;
use simlint::rules::{
    BARE_ALLOW, FLOAT_ORDER, GLOBAL_METRICS, HASH_ITER, HASH_ITER_REACH, PANIC_IN_LIB,
    PAR_RAW_ATOMIC, SCOPE_DROP, UNKEYED_RNG, UNREACHED, WALLCLOCK,
};

/// (rule, line, suppressed) triples for compact assertions.
fn shape(diags: &[Diagnostic]) -> Vec<(&'static str, u32, bool)> {
    diags
        .iter()
        .map(|d| (d.rule, d.line, d.suppressed))
        .collect()
}

fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
    simlint::analyze_source(rel, src)
}

const RENDER_PATH: &str = "crates/sim-core/src/table.rs";
const LIB_PATH: &str = "crates/fabric/src/solver.rs";

// ---- R1: hash-iter-render (+ R7 subsumption on render paths) -------------

#[test]
fn r1_flags_decls_and_iteration_in_render_paths() {
    // Every r1 hit in a render-path file is also an r7 hit: the graph
    // rule strictly subsumes the path heuristic there. `hash-iter-reach`
    // sorts before `hash-iter-render` at the same line.
    let diags = lint(RENDER_PATH, include_str!("fixtures/r1_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (HASH_ITER_REACH, 1, false), // use std::collections::HashMap
            (HASH_ITER, 1, false),
            (HASH_ITER_REACH, 4, false), // let m: HashMap<..> = HashMap::new()
            (HASH_ITER, 4, false),
            (HASH_ITER_REACH, 6, false), // for (k, v) in &m
            (HASH_ITER, 6, false),
            (HASH_ITER_REACH, 10, false), // m.keys()
            (HASH_ITER, 10, false)
        ]
    );
}

#[test]
fn r1_ignores_btreemap_and_test_mods() {
    let clean = include_str!("fixtures/r1_clean.rs");
    assert!(lint(RENDER_PATH, clean).is_empty());
}

#[test]
fn r7_extends_r1_beyond_render_paths() {
    // Outside a render path r1 stays silent, but the fixture's fn is
    // named `render` — a name sink — so r7 still flags the *iteration*
    // sites (decls and keyed lookups leak no order there).
    let positive = include_str!("fixtures/r1_positive.rs");
    let diags = lint("crates/fabric/src/topology.rs", positive);
    assert_eq!(
        shape(&diags),
        vec![(HASH_ITER_REACH, 6, false), (HASH_ITER_REACH, 10, false)]
    );
}

#[test]
fn r1_suppressions_mark_but_do_not_gate() {
    // An allow(hash-iter-render) carries over to hash-iter-reach at the
    // same site — fixing for r1 must not re-open the finding under r7.
    let diags = lint(RENDER_PATH, include_str!("fixtures/r1_suppressed.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (HASH_ITER_REACH, 2, true),
            (HASH_ITER, 2, true),
            (HASH_ITER_REACH, 6, true),
            (HASH_ITER, 6, true)
        ]
    );
    assert!(diags.iter().all(|d| !d.is_failure()));
}

// ---- R2: wallclock -------------------------------------------------------

#[test]
fn r2_flags_clock_reads_in_lib_and_bin() {
    let src = include_str!("fixtures/r2_positive.rs");
    let diags = lint(LIB_PATH, src);
    assert_eq!(
        shape(&diags),
        vec![
            (WALLCLOCK, 1, false),
            (WALLCLOCK, 4, false),
            (WALLCLOCK, 9, false)
        ]
    );
    assert!(!lint("crates/bench/src/bin/repro.rs", src).is_empty());
}

#[test]
fn r2_allows_the_wallclock_module_and_benches() {
    let src = include_str!("fixtures/r2_positive.rs");
    assert!(lint("crates/sim-core/src/metrics.rs", src).is_empty());
    assert!(lint("crates/bench/benches/bench_maxmin.rs", src).is_empty());
    assert!(lint("crates/fabric/tests/proptests.rs", src).is_empty());
}

#[test]
fn r2_suppressed_with_justification() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r2_suppressed.rs"));
    assert_eq!(
        shape(&diags),
        vec![(WALLCLOCK, 2, true), (WALLCLOCK, 5, true)]
    );
}

// ---- R3: unkeyed-rng -----------------------------------------------------

#[test]
fn r3_flags_entropy_sources_everywhere_even_tests() {
    let src = include_str!("fixtures/r3_positive.rs");
    let diags = lint(LIB_PATH, src);
    assert_eq!(
        shape(&diags),
        vec![
            (UNKEYED_RNG, 1, false),
            (UNKEYED_RNG, 4, false),
            (UNKEYED_RNG, 6, false)
        ]
    );
    // Determinism discipline extends to test code.
    assert_eq!(lint("crates/fabric/tests/proptests.rs", src).len(), 3);
}

#[test]
fn r3_keyed_streams_are_clean() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r3_clean.rs")).is_empty());
}

// ---- R4: par-raw-atomic --------------------------------------------------

#[test]
fn r4_flags_raw_rmw_inside_parallel_regions() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r4_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PAR_RAW_ATOMIC, 6, false),  // fetch_add in thread::spawn closure
            (PAR_RAW_ATOMIC, 12, false), // fetch_max in thread::scope spawns
            (PAR_RAW_ATOMIC, 13, false),
            (PAR_RAW_ATOMIC, 23, false) // fetch_max in windowed par_map group
        ]
    );
}

#[test]
fn r4_serial_rmw_and_commutative_metrics_are_clean() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r4_clean.rs")).is_empty());
}

// ---- R5: panic-in-lib ----------------------------------------------------

#[test]
fn r5_flags_unwrap_expect_panic_in_lib_code() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r5_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PANIC_IN_LIB, 2, false),
            (PANIC_IN_LIB, 3, false),
            (PANIC_IN_LIB, 5, false)
        ]
    );
}

#[test]
fn r5_spares_tests_bins_and_fallible_combinators() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r5_clean.rs")).is_empty());
    // The same panicky code in a binary or bench target is allowed.
    let positive = include_str!("fixtures/r5_positive.rs");
    assert!(lint("crates/bench/src/bin/repro.rs", positive).is_empty());
    assert!(lint("crates/bench/benches/tables.rs", positive).is_empty());
}

#[test]
fn r5_suppression_and_the_bare_allow_meta_rule() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r5_suppressed.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (PANIC_IN_LIB, 3, true), // justified allow: suppressed
            (BARE_ALLOW, 8, false),  // allow without justification: gates
            (PANIC_IN_LIB, 8, true)  // ... though it does still suppress
        ]
    );
}

// ---- R7: hash-iter-reach (graph rule) ------------------------------------

#[test]
fn r7_flags_hash_iteration_reachable_from_a_name_sink() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r7_reach_positive.rs"));
    assert_eq!(shape(&diags), vec![(HASH_ITER_REACH, 6, false)]);
    // The message carries sink provenance: which emitter reaches the
    // iteration, and where it lives.
    assert!(
        diags[0].message.contains("snapshot_totals"),
        "{}",
        diags[0].message
    );
}

#[test]
fn r7_unreachable_iteration_and_keyed_lookups_are_clean() {
    // Same hashy helper, but no sink calls it — and the sink that does
    // exist only does a keyed lookup, which leaks no order.
    let diags = lint(LIB_PATH, include_str!("fixtures/r7_reach_clean.rs"));
    assert!(diags.is_empty(), "{:?}", shape(&diags));
}

// ---- R8: scope-drop (graph rule) -----------------------------------------

#[test]
fn r8_flags_raw_threads_that_reach_a_metrics_recorder() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r8_positive.rs"));
    assert_eq!(shape(&diags), vec![(SCOPE_DROP, 11, false)]);
    assert!(diags[0].message.contains("record"), "{}", diags[0].message);
}

#[test]
fn r8_scope_routed_and_recorder_free_regions_are_clean() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r8_clean.rs"));
    assert!(diags.is_empty(), "{:?}", shape(&diags));
    // sim-core is the scope machinery itself and is exempt.
    let positive = include_str!("fixtures/r8_positive.rs");
    assert!(lint("crates/sim-core/src/metrics.rs", positive).is_empty());
}

#[test]
fn r8_suppression_with_justification() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r8_suppressed.rs"));
    assert_eq!(shape(&diags), vec![(SCOPE_DROP, 12, true)]);
    assert!(diags.iter().all(|d| !d.is_failure()));
}

// ---- R9: float-order -----------------------------------------------------

#[test]
fn r9_flags_order_sensitive_float_reductions_in_par_regions() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r9_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![
            (FLOAT_ORDER, 4, false),  // .sum::<f64>()
            (FLOAT_ORDER, 9, false),  // float reduce closure
            (FLOAT_ORDER, 15, false)  // partial_cmp comparator
        ]
    );
}

#[test]
fn r9_integer_sums_and_assoc_minmax_reducers_are_clean() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r9_clean.rs"));
    assert!(diags.is_empty(), "{:?}", shape(&diags));
}

// ---- R10: global-metrics -------------------------------------------------

#[test]
fn r10_flags_global_registry_binding_in_lib_code() {
    let diags = lint(LIB_PATH, include_str!("fixtures/r10_positive.rs"));
    assert_eq!(
        shape(&diags),
        vec![(GLOBAL_METRICS, 4, false), (GLOBAL_METRICS, 8, false)]
    );
}

#[test]
fn r10_spares_active_shared_tests_bins_and_sim_core() {
    assert!(lint(LIB_PATH, include_str!("fixtures/r10_clean.rs")).is_empty());
    let positive = include_str!("fixtures/r10_positive.rs");
    // Binaries own the process-level registry (snapshot/reset at exit).
    assert!(lint("crates/campaign/src/bin/campaign.rs", positive).is_empty());
    // Integration tests pin global behavior directly.
    assert!(lint("crates/fabric/tests/metrics_proptests.rs", positive).is_empty());
    // sim-core is the scope machinery itself.
    assert!(lint("crates/sim-core/src/trace.rs", positive).is_empty());
}

// ---- R11: unreached-from-roots (graph rule) ------------------------------

/// Lint a library fixture together with a binary whose `main` calls
/// `entry`, the one root of the two-file workspace.
fn lint_with_root(src: &str) -> Vec<Diagnostic> {
    let files = [
        ("crates/fabric/src/bin/tool.rs", "fn main() { entry(); }\n"),
        (LIB_PATH, src),
    ];
    let files = files.map(|(rel, src)| (rel.to_string(), src.to_string()));
    simlint::analyze_files(&files).diagnostics
}

#[test]
fn r11_flags_library_fns_no_root_reaches() {
    let positive = include_str!("fixtures/r11_positive.rs");
    let diags = lint_with_root(positive);
    assert_eq!(shape(&diags), vec![(UNREACHED, 9, false)]);
    assert!(diags[0].message.contains("only_tests_call_me"));
    // With no root in the source set there is nothing to measure from.
    assert!(lint(LIB_PATH, positive).is_empty());
}

#[test]
fn r11_methods_fns_passed_by_name_and_trait_impls_are_reached() {
    for src in [
        include_str!("fixtures/r11_clean.rs"),
        include_str!("fixtures/r11_trait_impl.rs"),
    ] {
        let diags = lint_with_root(src);
        assert!(diags.is_empty(), "{:?}", shape(&diags));
    }
}

#[test]
fn r11_suppression_with_justification() {
    let diags = lint_with_root(include_str!("fixtures/r11_suppressed.rs"));
    assert_eq!(shape(&diags), vec![(UNREACHED, 5, true)]);
}

// ---- workspace self-check ------------------------------------------------

#[test]
fn workspace_is_clean() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    let failures: Vec<String> = outcome
        .failures()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        failures.is_empty() && outcome.ratchet_delta.over.is_empty(),
        "simlint found gating diagnostics:\n{}\nratchet over:\n{}",
        failures.join("\n"),
        outcome.ratchet_delta.over.join("\n")
    );
}

#[test]
fn workspace_ratchet_is_exactly_tight() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    assert!(
        outcome.ratchet_delta.under.is_empty(),
        "debt shrank below simlint.ratchet — run `cargo run -p simlint -- --update-ratchet`:\n{}",
        outcome.ratchet_delta.under.join("\n")
    );
}

#[test]
fn workspace_rules_are_live_not_vacuous() {
    let outcome = simlint::run_workspace(&simlint::default_root()).expect("scan workspace");
    let suppressed_rules: Vec<&str> = outcome
        .diagnostics
        .iter()
        .filter(|d| d.suppressed)
        .map(|d| d.rule)
        .collect();
    // The workspace carries real, justified suppressions for these rules;
    // deleting any one allow comment turns the suppressed diagnostic into
    // a gating failure (see workspace_is_clean). `scope-drop` has no
    // workspace suppression; the r8 fixture tests (r8_positive, r8_clean,
    // r8_suppressed) keep it live.
    for rule in [
        HASH_ITER,
        HASH_ITER_REACH,
        WALLCLOCK,
        PANIC_IN_LIB,
        UNREACHED,
    ] {
        assert!(
            suppressed_rules.contains(&rule),
            "expected at least one justified suppression for `{rule}` in the workspace"
        );
    }
    // The parallel-region rules (r4, r8, r9) have something to inspect:
    // the workspace still forks, through `par_map`.
    assert!(
        !outcome.parallel_regions.is_empty(),
        "expected at least one parallel region outside test code"
    );
    // And the reachability debt is non-empty but bounded by the ratchet.
    assert!(
        outcome
            .diagnostics
            .iter()
            .any(|d| d.ratcheted && d.rule == UNREACHED),
        "expected ratcheted unreached-from-roots debt"
    );
}

#[test]
fn workspace_graph_json_is_deterministic() {
    let root = simlint::default_root();
    let a = simlint::run_workspace(&root).expect("scan workspace");
    let b = simlint::run_workspace(&root).expect("scan workspace");
    assert_eq!(a.graph_json, b.graph_json, "graph JSON must be run-stable");
    assert!(a.graph_json.contains("\"sink\""));
}
