//! The rule registry. Every rule encodes one invariant the simulator's
//! parallel ≡ serial reproducibility guarantee rests on (see DESIGN
//! §3.8); each has fixture tests in `tests/rules.rs` proving it catches
//! its target pattern and respects suppressions.
//!
//! Rules come in two tiers: per-file token rules (r1–r6, r10) that see
//! one [`SourceFile`] at a time, and graph rules (r7–r9, r11) that run over
//! the workspace call graph ([`crate::graph`]) after every file is
//! parsed, so a violation in one crate can be traced to a sink in
//! another.

use crate::diag::Diagnostic;
use crate::graph::{Graph, NodeId};
use crate::lexer::TokKind;
use crate::parse::{self, ParsedFile};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Static description of one lint rule.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    /// The invariant the rule protects, surfaced by `--list-rules`.
    pub invariant: &'static str,
    /// Long-form rationale and fix guidance, surfaced by `--explain`.
    pub explain: &'static str,
    /// Ratchetable rules tolerate pre-existing debt recorded in
    /// `simlint.ratchet`; the debt may shrink but never grow.
    pub ratchet: bool,
}

pub const HASH_ITER: &str = "hash-iter-render";
pub const WALLCLOCK: &str = "wallclock";
pub const UNKEYED_RNG: &str = "unkeyed-rng";
pub const PAR_RAW_ATOMIC: &str = "par-raw-atomic";
pub const PANIC_IN_LIB: &str = "panic-in-lib";
pub const BARE_ALLOW: &str = "bare-allow";
pub const HASH_ITER_REACH: &str = "hash-iter-reach";
pub const SCOPE_DROP: &str = "scope-drop";
pub const FLOAT_ORDER: &str = "float-order";
pub const GLOBAL_METRICS: &str = "global-metrics";
pub const UNREACHED: &str = "unreached-from-roots";

pub const RULES: &[Rule] = &[
    Rule {
        id: HASH_ITER,
        summary: "no HashMap/HashSet in snapshot/render/report code paths",
        invariant: "rendered output must not depend on hash-iteration order; \
                    use BTreeMap/BTreeSet or sort before emitting",
        explain: "Files on the render path (tables, traces, JSON snapshots, the \
                  bench/campaign emitters) turn in-memory state into the bytes the \
                  CI cmp gates compare. HashMap/HashSet iteration order depends on \
                  RandomState and insertion history, so any hash-ordered container \
                  declared or iterated in these files can leak a different byte \
                  stream per run. Fix: use BTreeMap/BTreeSet, or collect-and-sort \
                  before emitting. This is the per-file rule; hash-iter-reach \
                  extends it across the call graph.",
        ratchet: false,
    },
    Rule {
        id: WALLCLOCK,
        summary: "no Instant/SystemTime outside sim-core::metrics (wallclock module)",
        invariant: "wall-clock reads are the one sanctioned nondeterminism and live \
                    in the metrics wallclock section, which determinism diffs exclude",
        explain: "Simulated time comes from the event calendar, never the host \
                  clock. The one legitimate wall-clock consumer is the metrics \
                  wallclock family in sim-core, whose snapshot section the \
                  determinism diff deliberately excludes. An Instant::now() \
                  anywhere else either influences simulation behavior (broken) or \
                  is timing telemetry in the wrong place (move it into the \
                  wallclock metric family).",
        ratchet: false,
    },
    Rule {
        id: UNKEYED_RNG,
        summary: "no thread_rng/from_entropy/OsRng — all randomness is keyed & seeded",
        invariant: "every random draw comes from a stream keyed by (seed, component, \
                    index), so serial and parallel schedules see identical draws",
        explain: "Randomness is reproducible only when every draw is a pure \
                  function of (seed, component, index) — sim-core::rng::StreamRng. \
                  thread_rng/from_entropy/OsRng pull from process entropy, so even \
                  a test using them cannot pin behavior. The rule therefore flags \
                  entropy sources in test code too.",
        ratchet: false,
    },
    Rule {
        id: PAR_RAW_ATOMIC,
        summary: "no raw atomic read-modify-write inside parallel closures",
        invariant: "metric updates under parallelism go through the commutative \
                    sim-core::metrics API; raw fetch_* orderings leak the schedule",
        explain: "A fetch_add inside a parallel closure (a par_map item or a raw \
                  thread::{scope,spawn} body) is only safe when the final \
                  value is schedule-independent, and raw atomics give no such \
                  guarantee for anything beyond a commutative counter — and even \
                  then the intermediate values observed by other threads depend on \
                  the schedule. The sim-core::metrics counters are the audited \
                  commutative path; use them, or restructure the parallel loop to \
                  write disjoint slices.",
        ratchet: false,
    },
    Rule {
        id: PANIC_IN_LIB,
        summary: "no unwrap/expect/panic! in library code outside tests",
        invariant: "library crates surface typed errors or documented-invariant \
                    expects; panics are budgeted and ratcheted downward",
        explain: "Library crates return typed errors; a panic in a worker thread \
                  unwinds the whole parallel map mid-simulation and loses the \
                  deterministic drain. Pre-existing panic debt is frozen per (rule, file) in \
                  simlint.ratchet — it may shrink (run --update-ratchet after \
                  fixing) but a commit can never grow it. A deliberate invariant \
                  panic stays allowed with simlint::allow(panic-in-lib): <why>.",
        ratchet: true,
    },
    Rule {
        id: BARE_ALLOW,
        summary: "every simlint::allow carries a justification",
        invariant: "suppressions are audit records; an allow without a reason \
                    cannot be reviewed",
        explain: "simlint::allow comments are the audit trail for every tolerated \
                  violation; one without a `: why this is sound` tail is a \
                  suppression nobody can review. This meta-rule cannot itself be \
                  suppressed.",
        ratchet: false,
    },
    Rule {
        id: HASH_ITER_REACH,
        summary: "no hash-ordered iteration reachable from a render/snapshot sink",
        invariant: "any function a render sink can reach must not iterate \
                    hash-ordered containers; order leaks transitively into \
                    emitted bytes",
        explain: "Graph rule. Sinks are seeded at every function in a render-path \
                  file plus every function whose name marks it as an emitter \
                  (render*/snapshot*/emit*/*_json/jsonl/report*), then reachability \
                  is propagated over the workspace call graph. A HashMap/HashSet \
                  iteration inside any reachable function — even three crates away \
                  from the sink — is flagged, with the sink it serves named in the \
                  message. This subsumes hash-iter-render's path heuristic: a \
                  helper crate can no longer leak hash order into a snapshot just \
                  because its file name looks innocent. Resolution is name-based \
                  and over-approximate (a false edge can only add a finding, never \
                  hide one); a keyed-lookup-only map that is never iterated is \
                  always clean. An existing allow(hash-iter-render) also covers \
                  this rule at the same site.",
        ratchet: true,
    },
    Rule {
        id: SCOPE_DROP,
        summary: "raw thread entry points must route through metrics::Scope",
        invariant: "every fork that can record metrics::active() goes through \
                    Scope::{install,par_map}, so scoped attribution survives \
                    the move to a worker thread",
        explain: "Graph rule. MetricsScope is thread-local: a raw thread::scope/\
                  thread::spawn hands closures to worker threads that see no \
                  installed scope, so metrics::active() silently resolves to \
                  nothing and per-variant/per-section snapshots lose those \
                  updates. The rule finds each raw thread region in library code, \
                  resolves the calls it makes, and walks the call graph; if any \
                  reachable function records metrics::active(), the fork must go \
                  through sim_core::metrics::Scope::{install,par_map} (which \
                  re-install the scope on the workers). Regions that provably \
                  record nothing scope-sensitive are clean as-is.",
        ratchet: true,
    },
    Rule {
        id: FLOAT_ORDER,
        summary: "no order-sensitive float reductions in parallel contexts",
        invariant: "parallel float folds must be associative-commutative (min/max) \
                    or restructured to a fixed reduction order; float addition is \
                    not associative",
        explain: "IEEE-754 addition and multiplication are not associative, so \
                  .sum::<f64>(), a reduce/fold over floats, or a \
                  partial_cmp-based comparator inside a parallel region can \
                  produce different bits per schedule — the one nondeterminism \
                  class a small-scale runtime cmp gate is most likely to miss. \
                  min/max reducers are exempt (associative and commutative). Fix: \
                  collect and reduce serially in index order, use integer/fixed- \
                  point accumulation, or switch comparators to total_cmp.",
        ratchet: true,
    },
    Rule {
        id: GLOBAL_METRICS,
        summary: "no metrics::global() in library crates — use active()/shared()",
        invariant: "library instrumentation resolves through the scope stack \
                    (metrics::active) or the shared-resource escape hatch \
                    (metrics::shared); binding the global registry directly \
                    would bypass scoped attribution and break per-variant and \
                    per-section snapshots",
        explain: "Binaries own the process-level registry (snapshot/reset at \
                  exit) and sim-core is the scope machinery itself; every other \
                  crate records through metrics::active() so a caller-installed \
                  scope claims the update, or metrics::shared() when attribution \
                  to one scope would be a race. metrics::global() in a library \
                  hard-binds the process registry and silently defeats both.",
        ratchet: false,
    },
    Rule {
        id: UNREACHED,
        summary: "every library fn is reached from a binary or an example",
        invariant: "code that no binary or example calls cannot affect a published \
                    number; it earns a place in a result or is deleted",
        explain: "Graph rule. Roots are every fn in a binary (src/main.rs, \
                  src/bin/*.rs) and in examples/. A non-test fn in a library file \
                  that no root reaches over the call graph is flagged: only tests \
                  or nothing call it. Fns in trait definitions and `impl Trait for \
                  T` blocks are exempt, since operators, formatting and generic \
                  bounds call them without a call site the graph sees. Resolution \
                  is by name, so a flagged fn has no caller of that name on any \
                  path from a root. A source set with no root (one library file) \
                  is not checked. Pre-existing debt is ratcheted and may only \
                  shrink. An oracle that tests compare against, or an entry point \
                  of a program outside the scanned workspace, stays with \
                  simlint::allow(unreached-from-roots): <why>.",
        ratchet: true,
    },
];

pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Files whose output feeds the byte-compared artifacts (tables, traces,
/// metric snapshots, the repro binary). Hash-ordered containers here are
/// exactly where iteration order could leak into rendered bytes. Every
/// function in these files seeds the hash-iter-reach sink set.
pub fn is_render_path(rel: &str) -> bool {
    const RENDER_FILES: &[&str] = &[
        "crates/sim-core/src/table.rs",
        "crates/sim-core/src/trace.rs",
        "crates/sim-core/src/json.rs",
        "crates/sim-core/src/metrics.rs",
        "crates/sim-core/src/stats.rs",
        "crates/sim-core/src/hist.rs",
    ];
    RENDER_FILES.contains(&rel)
        || rel.starts_with("crates/bench/src/")
        || rel.starts_with("crates/campaign/src/")
}

/// The one module allowed to read the wall clock: the metrics registry's
/// wallclock family, whose snapshot section determinism diffs exclude.
fn is_wallclock_module(rel: &str) -> bool {
    rel == "crates/sim-core/src/metrics.rs"
}

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

const RAW_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Run every per-file rule over one parsed file, appending raw (not yet
/// suppression-evaluated) diagnostics.
pub fn check_file(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    check_hash_iter(f, out);
    check_wallclock(f, out);
    check_unkeyed_rng(f, out);
    check_par_raw_atomic(f, out);
    check_panic_in_lib(f, out);
    check_bare_allow(f, out);
    check_global_metrics(f, out);
}

/// Sink seeds and reachability computed by the graph rules, kept for the
/// `--graph-json` dump.
pub struct GraphAnalysis {
    /// Render/emit sink nodes (r7 seeds).
    pub sinks: BTreeSet<NodeId>,
    /// Node → the sink it was first reached from.
    pub reach: BTreeMap<NodeId, NodeId>,
}

/// Run every graph rule over the parsed workspace, appending raw
/// diagnostics, and return the sink/reachability sets.
pub fn check_graph(
    files: &[(SourceFile, ParsedFile)],
    graph: &Graph,
    out: &mut Vec<Diagnostic>,
) -> GraphAnalysis {
    let sinks = render_sinks(files, graph);
    let reach = graph.reachable_from(&sinks);
    let recorders = active_recorders(files, graph);
    for (f, p) in files {
        check_hash_iter_reach(f, p, graph, &reach, out);
        check_scope_drop(f, p, graph, &recorders, out);
        check_float_order(f, out);
    }
    check_unreached(files, graph, out);
    GraphAnalysis { sinks, reach }
}

/// R11: non-test library fns that no binary or example reaches. Every
/// node of a binary or example file seeds the walk, its module-level
/// pseudo-node included.
fn check_unreached(files: &[(SourceFile, ParsedFile)], graph: &Graph, out: &mut Vec<Diagnostic>) {
    let roots: BTreeSet<NodeId> = (0..graph.nodes.len())
        .filter(|&id| matches!(graph.nodes[id].file_kind, FileKind::Bin | FileKind::Example))
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = graph.reachable_from(&roots);
    for (f, p) in files {
        if f.kind != FileKind::Lib {
            continue;
        }
        for (idx, d) in p.fns.iter().enumerate() {
            let Some(id) = graph.fn_node(&f.rel, idx) else {
                continue;
            };
            if d.in_trait || f.in_test_region(d.line) || reach.contains_key(&id) {
                continue;
            }
            out.push(Diagnostic::new(
                UNREACHED,
                &f.rel,
                d.line,
                format!(
                    "`{}` is reached from no binary or example; give it a caller \
                     in a paper result or delete it",
                    d.qual()
                ),
            ));
        }
    }
}

/// Does this fn name mark an output-producing function? These seed the
/// r7 sink set in files the path heuristic does not cover.
fn is_sink_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("render")
        || n.contains("snapshot")
        || n.contains("emit")
        || n.contains("jsonl")
        || n.ends_with("_json")
        || n.starts_with("report")
}

/// Seed the r7 sink set: every production fn (and the module-level
/// pseudo-node) in a render-path file, plus every production fn whose
/// name marks it as an emitter, anywhere in the workspace.
pub fn render_sinks(files: &[(SourceFile, ParsedFile)], graph: &Graph) -> BTreeSet<NodeId> {
    let mut sinks = BTreeSet::new();
    for (f, p) in files {
        if !matches!(f.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let render_file = is_render_path(&f.rel);
        if render_file {
            if let Some(top) = graph.toplevel_node(&f.rel) {
                sinks.insert(top);
            }
        }
        for (idx, d) in p.fns.iter().enumerate() {
            if f.in_test_region(d.line) {
                continue;
            }
            if render_file || is_sink_name(&d.name) {
                if let Some(id) = graph.fn_node(&f.rel, idx) {
                    sinks.insert(id);
                }
            }
        }
    }
    sinks
}

/// Sink provenance per token of `f`: for each token, the sink that first
/// reaches the innermost enclosing fn (tokens outside every fn body
/// belong to the module-level pseudo-node). Inner fns overwrite outer
/// ones, so a never-called nested fn does not inherit its parent's
/// reachability.
fn sink_mask(
    f: &SourceFile,
    p: &ParsedFile,
    graph: &Graph,
    reach: &BTreeMap<NodeId, NodeId>,
) -> Vec<Option<NodeId>> {
    let top_via = graph
        .toplevel_node(&f.rel)
        .and_then(|id| reach.get(&id).copied());
    let mut mask = vec![top_via; f.tokens.len()];
    let mut order: Vec<(usize, usize, usize)> = Vec::new(); // (span, fn idx, a..=b)
    for (idx, d) in p.fns.iter().enumerate() {
        if let Some((a, b)) = d.body {
            order.push((b - a, idx, a));
        }
    }
    // Widest first so narrower (inner) bodies overwrite.
    order.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));
    for (span, idx, a) in order {
        let via = graph
            .fn_node(&f.rel, idx)
            .and_then(|id| reach.get(&id).copied());
        for m in mask.iter_mut().skip(a).take(span + 1) {
            *m = via;
        }
    }
    mask
}

/// R7: hash-ordered containers reachable from a render sink. In
/// render-path files every hash-container mention on a reachable token
/// is flagged (exactly subsuming r1); elsewhere only *iteration* over a
/// hash-typed name is — a keyed lookup leaks no order.
fn check_hash_iter_reach(
    f: &SourceFile,
    p: &ParsedFile,
    graph: &Graph,
    reach: &BTreeMap<NodeId, NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    if !matches!(f.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    let toks = &f.tokens;
    let has_hash = toks
        .iter()
        .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"));
    if !has_hash {
        return;
    }
    let mask = sink_mask(f, p, graph, reach);
    let sink_of = |id: NodeId| {
        let n = &graph.nodes[id];
        format!("`{}` ({}:{})", n.qual, n.file, n.line)
    };
    let render_file = is_render_path(&f.rel);
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        if i >= 2 {
            let prev = &toks[i - 1];
            let name = &toks[i - 2];
            if (prev.is_punct(':') || prev.is_punct('=')) && name.kind == TokKind::Ident {
                hash_names.insert(name.text.as_str());
            }
        }
        if render_file {
            if let Some(via) = mask[i] {
                if flagged_lines.insert(t.line) {
                    out.push(Diagnostic::new(
                        HASH_ITER_REACH,
                        &f.rel,
                        t.line,
                        format!(
                            "hash-ordered `{}` reachable from render sink {}; use \
                             BTreeMap/BTreeSet or sort before emitting",
                            t.text,
                            sink_of(via)
                        ),
                    ));
                }
            }
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !hash_names.contains(t.text.as_str()) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        let Some(via) = mask[i] else { continue };
        let method_iter = i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str());
        let mut j = i;
        while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let for_iter = j > 0 && toks[j - 1].is_ident("in");
        if (method_iter || for_iter) && flagged_lines.insert(t.line) {
            out.push(Diagnostic::new(
                HASH_ITER_REACH,
                &f.rel,
                t.line,
                format!(
                    "iteration over hash-ordered `{}` is reachable from render \
                     sink {}; order leaks transitively into emitted bytes",
                    t.text,
                    sink_of(via)
                ),
            ));
        }
    }
}

/// Token `i` is the `active` of a `metrics::active` path.
fn is_metrics_active_at(f: &SourceFile, i: usize) -> bool {
    i >= 3
        && f.tokens[i].is_ident("active")
        && f.tokens[i - 1].is_punct(':')
        && f.tokens[i - 2].is_punct(':')
        && f.tokens[i - 3].is_ident("metrics")
}

/// Every node whose body records through `metrics::active()` — the
/// functions whose metric updates vanish on a scope-less worker thread.
pub fn active_recorders(files: &[(SourceFile, ParsedFile)], graph: &Graph) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    for (f, p) in files {
        for i in 0..f.tokens.len() {
            if !is_metrics_active_at(f, i) || f.in_test_region(f.tokens[i].line) {
                continue;
            }
            let id = match parse::innermost_fn(&p.fns, i) {
                Some(idx) => graph.fn_node(&f.rel, idx),
                None => graph.toplevel_node(&f.rel),
            };
            if let Some(id) = id {
                out.insert(id);
            }
        }
    }
    out
}

/// R8: a raw thread region in library code whose call graph reaches a
/// `metrics::active()` recorder, without routing through
/// `Scope::{install,par_map}`. sim-core is exempt: it *is* the scope
/// machinery.
fn check_scope_drop(
    f: &SourceFile,
    p: &ParsedFile,
    graph: &Graph,
    recorders: &BTreeSet<NodeId>,
    out: &mut Vec<Diagnostic>,
) {
    if f.kind != FileKind::Lib || f.rel.starts_with("crates/sim-core/") {
        return;
    }
    for &(a, b) in f.par_ranges() {
        let t0 = &f.tokens[a];
        if !prod_code(f, &[FileKind::Lib], t0.line) {
            continue;
        }
        // A region that mentions Scope routing (install/par_map on a
        // Scope, or an installed scope handle) re-installs the scope on
        // its workers.
        let routed = f.tokens[a..=b]
            .iter()
            .any(|t| t.is_ident("Scope") || t.is_ident("install") || t.is_ident("par_map"));
        if routed {
            continue;
        }
        let inline = (a..=b).any(|i| is_metrics_active_at(f, i));
        let reached = if inline {
            None
        } else {
            let mut seeds: BTreeSet<NodeId> = BTreeSet::new();
            for c in &p.calls {
                if c.tok >= a && c.tok <= b {
                    seeds.extend(graph.resolve(&c.callee, c.qualifier.as_deref()));
                }
            }
            let reach = graph.reachable_from(&seeds);
            match reach.keys().find(|id| recorders.contains(*id)) {
                Some(&id) => Some(id),
                None => continue, // nothing scope-sensitive is reachable
            }
        };
        let detail = match reached {
            None => "records `metrics::active()` directly in the fork".to_string(),
            Some(id) => {
                let n = &graph.nodes[id];
                format!(
                    "reaches `{}` ({}:{}), which records `metrics::active()`",
                    n.qual, n.file, n.line
                )
            }
        };
        out.push(Diagnostic::new(
            SCOPE_DROP,
            &f.rel,
            t0.line,
            format!(
                "raw thread `{}` {detail}; worker threads see no installed \
                 MetricsScope — route through sim_core::metrics::Scope::\
                 {{install,par_map}}",
                t0.text
            ),
        ));
    }
}

/// Is this token a float-type name (`f64`/`f32`)?
fn is_float_ty(t: &crate::lexer::Token) -> bool {
    t.is_ident("f64") || t.is_ident("f32")
}

/// Do the tokens of a reduce/fold argument list mention floats? Catches
/// type names, suffixed literals (`0.0f64`), and bare float literals
/// (`0.0` lexes as ident `0`, punct `.`, ident `0`).
fn args_mention_float(args: &[crate::lexer::Token]) -> bool {
    for (i, t) in args.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "f64" || t.text == "f32" || t.text.ends_with("f64") || t.text.ends_with("f32")
        {
            return true;
        }
        let digits = t.text.chars().all(|c| c.is_ascii_digit());
        if digits
            && i + 2 < args.len()
            && args[i + 1].is_punct('.')
            && args[i + 2]
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        {
            return true;
        }
    }
    false
}

/// R9: order-sensitive float reductions lexically inside a parallel
/// region. `min`/`max` reducers are associative-commutative and
/// exempt; everything else (float sum/product turbofish, float
/// reduce/fold, partial_cmp comparators) depends on reduction order.
fn check_float_order(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    let n = toks.len();
    for &(a, b) in f.par_ranges() {
        for i in a..=b.min(n.saturating_sub(1)) {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
                continue;
            }
            let is_method = i > 0 && toks[i - 1].is_punct('.');
            match t.text.as_str() {
                "sum" | "product" if is_method => {
                    let float_turbofish = i + 4 < n
                        && toks[i + 1].is_punct(':')
                        && toks[i + 2].is_punct(':')
                        && toks[i + 3].is_punct('<')
                        && is_float_ty(&toks[i + 4]);
                    if float_turbofish {
                        out.push(Diagnostic::new(
                            FLOAT_ORDER,
                            &f.rel,
                            t.line,
                            format!(
                                "parallel float `.{}::<{}>()`: float addition is not \
                                 associative, so the result depends on the thread \
                                 schedule; reduce serially in index order",
                                t.text,
                                toks[i + 4].text
                            ),
                        ));
                    }
                }
                "reduce" | "fold" if is_method && i + 1 < n && toks[i + 1].is_punct('(') => {
                    // Balanced argument span of the call.
                    let open = i + 1;
                    let d0 = f.depths[open];
                    let mut close = open + 1;
                    while close < n {
                        if toks[close].is_punct(')') && f.depths[close].paren == d0.paren + 1 {
                            break;
                        }
                        close += 1;
                    }
                    let args = &toks[open + 1..close.min(n)];
                    let assoc = args
                        .iter()
                        .any(|x| x.is_ident("min") || x.is_ident("max") || x.is_ident("total_cmp"));
                    if args_mention_float(args) && !assoc {
                        out.push(Diagnostic::new(
                            FLOAT_ORDER,
                            &f.rel,
                            t.line,
                            format!(
                                "parallel float `.{}(..)`: reduction order depends on \
                                 the thread schedule; use a min/max reducer or reduce \
                                 serially in index order",
                                t.text
                            ),
                        ));
                    }
                }
                "partial_cmp" => {
                    out.push(Diagnostic::new(
                        FLOAT_ORDER,
                        &f.rel,
                        t.line,
                        "`partial_cmp` inside a parallel region: NaN handling and \
                         comparator order can vary with the schedule; use \
                         `total_cmp` for floats"
                            .to_string(),
                    ));
                }
                _ => {}
            }
        }
    }
}

/// Apply suppressions: a diagnostic on an allowed line (or in a file
/// with a file-wide allow for its rule) is marked suppressed, not
/// dropped — the JSON report still shows it. An allow for
/// `hash-iter-render` also covers `hash-iter-reach` at the same site:
/// the graph rule subsumes the path rule, and a justification written
/// for one is a justification for both.
pub fn apply_suppressions(files: &[(SourceFile, ParsedFile)], diags: &mut [Diagnostic]) {
    let by_rel: BTreeMap<&str, &SourceFile> =
        files.iter().map(|(f, _)| (f.rel.as_str(), f)).collect();
    for d in diags.iter_mut() {
        // The bare-allow rule polices the suppression mechanism itself
        // and therefore cannot be silenced by it.
        if d.rule == BARE_ALLOW {
            continue;
        }
        let Some(f) = by_rel.get(d.file.as_str()) else {
            continue;
        };
        if f.suppressed(d.rule, d.line)
            || (d.rule == HASH_ITER_REACH && f.suppressed(HASH_ITER, d.line))
        {
            d.suppressed = true;
        }
    }
}

fn prod_code(f: &SourceFile, kind_ok: &[FileKind], line: u32) -> bool {
    kind_ok.contains(&f.kind) && !f.in_test_region(line)
}

/// R1: hash-ordered containers in render/report paths.
fn check_hash_iter(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !is_render_path(&f.rel) {
        return;
    }
    let toks = &f.tokens;
    // Names declared with a hash-container type in this file:
    // `x: HashMap<..>`, `x = HashMap::new()`, `type X = HashMap<..>`.
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    let mut flagged_lines: BTreeSet<u32> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        if i >= 2 && toks[i].kind == TokKind::Ident {
            let prev = &toks[i - 1];
            let name = &toks[i - 2];
            if (prev.is_punct(':') || prev.is_punct('=')) && name.kind == TokKind::Ident {
                hash_names.insert(name.text.as_str());
            }
        }
        if flagged_lines.insert(t.line) {
            out.push(Diagnostic::new(
                HASH_ITER,
                &f.rel,
                t.line,
                format!(
                    "hash-ordered `{}` in a render/report path; use BTreeMap/BTreeSet \
                     or sort before emitting",
                    t.text
                ),
            ));
        }
    }
    // Iteration over a declared hash name: `name.iter()`, `for .. in &name`.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !hash_names.contains(t.text.as_str()) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        let method_iter = i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str());
        let mut j = i;
        while j > 0 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
            j -= 1;
        }
        let for_iter = j > 0 && toks[j - 1].is_ident("in");
        if (method_iter || for_iter) && !flagged_lines.contains(&t.line) {
            flagged_lines.insert(t.line);
            out.push(Diagnostic::new(
                HASH_ITER,
                &f.rel,
                t.line,
                format!(
                    "iteration over hash-ordered `{}` in a render/report path; \
                     order can leak into emitted bytes",
                    t.text
                ),
            ));
        }
    }
}

/// R2: wall-clock reads outside the metrics wallclock module.
fn check_wallclock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if is_wallclock_module(&f.rel) {
        return;
    }
    for t in &f.tokens {
        if !(t.is_ident("Instant") || t.is_ident("SystemTime")) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            WALLCLOCK,
            &f.rel,
            t.line,
            format!(
                "`{}` outside sim-core::metrics; route timing through the \
                 wallclock metric family (its snapshot section is excluded \
                 from determinism diffs)",
                t.text
            ),
        ));
    }
}

/// R3: entropy-derived RNG anywhere — tests included, since a test that
/// draws from process entropy cannot pin determinism either.
fn check_unkeyed_rng(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &f.tokens {
        if t.kind == TokKind::Ident && ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(Diagnostic::new(
                UNKEYED_RNG,
                &f.rel,
                t.line,
                format!(
                    "`{}` draws from process entropy; all RNG must be a keyed, \
                     seeded stream (sim-core::rng::StreamRng)",
                    t.text
                ),
            ));
        }
    }
}

/// R4: raw atomic read-modify-write lexically inside a parallel region.
fn check_par_raw_atomic(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !f.has_par_regions() {
        return;
    }
    for (i, t) in f.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || !RAW_RMW.contains(&t.text.as_str()) {
            continue;
        }
        if i == 0 || !f.tokens[i - 1].is_punct('.') || !f.in_par_region(i) {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib, FileKind::Bin], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            PAR_RAW_ATOMIC,
            &f.rel,
            t.line,
            format!(
                "raw `{}` inside a parallel closure; update metrics through the \
                 commutative sim-core::metrics API instead",
                t.text
            ),
        ));
    }
}

/// R5: unwrap/expect/panic! in library code outside tests. Captured
/// `&mut` accumulation in parallel closures is rustc's job; this rule and
/// the ratchet handle the panic budget.
fn check_panic_in_lib(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                i > 0
                    && toks[i - 1].is_punct('.')
                    && i + 1 < toks.len()
                    && toks[i + 1].is_punct('(')
            }
            "panic" => i + 1 < toks.len() && toks[i + 1].is_punct('!'),
            _ => false,
        };
        if !hit || !prod_code(f, &[FileKind::Lib], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            PANIC_IN_LIB,
            &f.rel,
            t.line,
            format!(
                "`{}` in library code; return a typed error, or document the \
                 invariant and suppress with simlint::allow({PANIC_IN_LIB}): <why>",
                t.text
            ),
        ));
    }
}

/// R10: `metrics::global()` bound directly in library code. Binaries own
/// the process and may snapshot/reset the global registry; sim-core is
/// the scope machinery itself; everyone else records through
/// `metrics::active()` so a caller-installed scope can claim the update
/// (or `metrics::shared()` when scope attribution would be a race).
fn check_global_metrics(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if f.rel.starts_with("crates/sim-core/") {
        return;
    }
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if i < 3 || !t.is_ident("global") {
            continue;
        }
        if !(toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("metrics"))
        {
            continue;
        }
        if !prod_code(f, &[FileKind::Lib], t.line) {
            continue;
        }
        out.push(Diagnostic::new(
            GLOBAL_METRICS,
            &f.rel,
            t.line,
            "`metrics::global()` in library code bypasses scoped attribution; \
             record through `metrics::active()` (scope-aware) or \
             `metrics::shared()` (shared-resource telemetry)"
                .to_string(),
        ));
    }
}

/// Meta-rule: every allow must say why.
fn check_bare_allow(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for a in &f.allows {
        if !a.justified {
            out.push(Diagnostic::new(
                BARE_ALLOW,
                &f.rel,
                a.line,
                format!(
                    "simlint::allow({}) without a justification; append `: <why \
                     this is sound>`",
                    a.rules.join(", ")
                ),
            ));
        }
    }
}
