//! Static-analysis conformance tests (tier 1 for this layer):
//!
//! 1. **Static == dynamic.** The symbolic per-iteration scan counts
//!    derived by [`sqlem::analyze_strategy`] — without executing a
//!    single statement — must equal the counts recomputed from the
//!    engine's [`sqlengine::ExecMetrics`] records of a real steady-state
//!    iteration, on the same `(n, p, k)` grid `tests/cost_model.rs`
//!    uses. Not just the totals: the ordered `(table, rows)` sequence of
//!    every counted scan must match event for event.
//! 2. **Negative corpus.** Every broken script under `tests/corpus/`
//!    is rejected with a *typed*, *positioned* diagnostic — the right
//!    [`DiagnosticKind`] variant anchored to a statement index and a
//!    byte offset.
//! 3. **Golden reports.** The rendered [`sqlem::PlanReport`] for each
//!    strategy — and for the K-means and per-cluster models — at `p=3,
//!    k=2` is pinned as a snapshot under `tests/snapshots/` (refresh with
//!    `UPDATE_SNAPSHOTS=1`).
//!
//! Parts 1 and 3 cover all five models: the paper's three strategies
//! (hybrid also fused), K-means and per-cluster covariances.

use std::fs;
use std::path::PathBuf;

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use sqlem::{
    analyze_generator, build_generator, scan_threshold, CostCheck, EmSession, Generator,
    KmeansGenerator, PerClusterGenerator, PlanReport, ScanClass, SqlemConfig, Strategy,
};
use sqlengine::{
    check_script, CheckEnv, Database, DiagnosticKind, ExecMetrics, ScriptSpec, ScriptStmt,
};

// ---------------------------------------------------------------------------
// Part 1: static scan derivation == engine telemetry, exactly.
// ---------------------------------------------------------------------------

/// One model of the conformance grid: a strategy of the paper's EM
/// (hybrid possibly fused), or one of its two extensions.
#[derive(Debug, Clone, Copy)]
enum Model {
    Paper(Strategy, bool),
    Kmeans,
    PerCluster,
}

impl Model {
    fn config(self, k: usize) -> SqlemConfig {
        match self {
            Model::Paper(strategy, true) => SqlemConfig::new(k, strategy).with_fused_e_step(),
            Model::Paper(strategy, false) => SqlemConfig::new(k, strategy),
            Model::Kmeans | Model::PerCluster => SqlemConfig::new(k, Strategy::Hybrid),
        }
    }
}

/// Run one measured steady-state iteration (same protocol as
/// `tests/cost_model.rs`: warm-up iteration, then telemetry on) and
/// return the engine metrics for it.
fn measured_iteration(
    db: &mut Database,
    model: Model,
    n: usize,
    p: usize,
    k: usize,
) -> Vec<ExecMetrics> {
    let config = model.config(k).with_epsilon(0.0).with_max_iterations(3);
    match model {
        Model::Paper(..) => measure(db, &config, build_generator, n, p),
        Model::Kmeans => measure(db, &config, KmeansGenerator::new, n, p),
        Model::PerCluster => measure(db, &config, PerClusterGenerator::new, n, p),
    }
}

fn measure<G: Generator>(
    db: &mut Database,
    config: &SqlemConfig,
    build: impl Fn(&SqlemConfig, usize) -> G,
    n: usize,
    p: usize,
) -> Vec<ExecMetrics> {
    let data = generate_dataset(n, p, config.k, 7);
    let mut session = EmSession::create_with(db, config, p, build).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 11 })
        .unwrap();
    session.iterate_once().unwrap(); // warm-up
    session.enable_telemetry().unwrap();
    let from = session.database().metrics().len();
    session.iterate_once().unwrap();
    session.database().metrics().entries()[from..].to_vec()
}

/// The ordered `(table, rows)` sequence of every *counted* driver scan
/// in the measured iteration — build-side and sub-threshold scans are
/// free, exactly as `tests/cost_model.rs` classifies them.
fn dynamic_scan_events(
    entries: &[ExecMetrics],
    n: usize,
    p: usize,
    k: usize,
) -> Vec<(String, usize)> {
    let threshold = scan_threshold(n, p, k);
    entries
        .iter()
        .flat_map(|e| e.scans.iter())
        .filter(|s| !s.build && s.rows >= threshold)
        .map(|s| (s.table.clone(), s.rows))
        .collect()
}

/// Analyze a model against a *fresh, empty* database — the static
/// side never sees the session that actually ran.
fn static_report(model: Model, p: usize, k: usize) -> PlanReport {
    let mut db = Database::new();
    let config = model.config(k);
    let report = match model {
        Model::Paper(..) => analyze_generator(&mut db, &build_generator(&config, p), &config, p),
        Model::Kmeans => analyze_generator(&mut db, &KmeansGenerator::new(&config, p), &config, p),
        Model::PerCluster => {
            analyze_generator(&mut db, &PerClusterGenerator::new(&config, p), &config, p)
        }
    };
    report.unwrap()
}

/// One model's slice of the conformance grid.
type GridRow = (Model, &'static [(usize, usize, usize)]);

#[test]
fn static_scan_counts_match_engine_telemetry_on_the_cost_model_grid() {
    let grid: &[GridRow] = &[
        (
            Model::Paper(Strategy::Hybrid, false),
            &[(500, 4, 3), (800, 6, 5), (400, 3, 2), (600, 2, 7)],
        ),
        (Model::Paper(Strategy::Hybrid, true), &[(500, 4, 3)]),
        (Model::Paper(Strategy::Vertical, false), &[(300, 4, 3)]),
        (Model::Paper(Strategy::Horizontal, false), &[(400, 4, 3)]),
        (Model::Kmeans, &[(500, 4, 3), (400, 3, 2)]),
        (Model::PerCluster, &[(500, 4, 3), (400, 3, 2)]),
    ];
    for &(model, points) in grid {
        for &(n, p, k) in points {
            let mut db = Database::new();
            let entries = measured_iteration(&mut db, model, n, p, k);

            // Dynamic truth: counts recomputed from raw engine records.
            let threshold = scan_threshold(n, p, k);
            let dynamic = dynamic_scan_events(&entries, n, p, k);
            let dyn_n = dynamic.iter().filter(|(_, r)| *r <= n).count();
            let dyn_pn = dynamic.len() - dyn_n;

            // Static derivation: abstract interpretation of the script,
            // fresh database, nothing executed.
            let report = static_report(model, p, k);
            assert!(
                report.ok(),
                "{model:?} p={p} k={k} should analyze clean:\n{}",
                report.render()
            );
            let cost = report
                .cost
                .as_ref()
                .expect("steady-state iteration cost derived");
            assert_eq!(
                (cost.n_scans, cost.pn_scans),
                (dyn_n, dyn_pn),
                "{model:?} static vs dynamic scan counts for (n={n}, p={p}, k={k})"
            );
            assert!(
                matches!(report.cost_check, CostCheck::Verified { .. }),
                "{model:?} closed form should verify, got: {}",
                report.cost_check
            );

            // Event for event: every counted symbolic scan, evaluated at
            // this concrete (n, p, k), must reproduce the engine's
            // (table, rows) sequence in order.
            let evaluated: Vec<(String, usize)> = cost
                .scans
                .iter()
                .filter(|(_, class)| *class != ScanClass::Free)
                .map(|(ev, _)| (ev.table.clone(), ev.rows.eval(n, p, k) as usize))
                .collect();
            assert_eq!(
                evaluated, dynamic,
                "{model:?} symbolic scan events vs engine records \
                 for (n={n}, p={p}, k={k}, threshold={threshold})"
            );
        }
    }
}

#[test]
fn every_static_verdict_matches_the_paper_closed_form() {
    // The closed forms the grid test cross-checks against telemetry,
    // asserted symbolically for a wider (p, k) sweep — no execution at
    // all, so this sweep is cheap.
    for k in 2..=8 {
        for p in 2..=6 {
            for (model, expect) in [
                (Model::Paper(Strategy::Hybrid, false), (2 * k + 3, 1)),
                (Model::Paper(Strategy::Hybrid, true), (2 * k + 2, 1)),
                (Model::Paper(Strategy::Horizontal, false), (2 * k + 4, 0)),
                (Model::Paper(Strategy::Vertical, false), (1, 9)),
                (Model::Kmeans, (k + 3, 1)),
                (Model::PerCluster, (2 * k + 2, 1)),
            ] {
                let report = static_report(model, p, k);
                let cost = report.cost.as_ref().unwrap();
                assert_eq!(
                    (cost.n_scans, cost.pn_scans),
                    expect,
                    "{model:?} p={p} k={k}"
                );
                assert!(matches!(report.cost_check, CostCheck::Verified { .. }));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Part 2: the negative corpus.
// ---------------------------------------------------------------------------

fn corpus_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name)
}

/// Parse a corpus file into a [`ScriptSpec`]: statements split on `;`,
/// `--` comment lines stripped, with one annotation understood —
/// `-- expect-readonly` / `-- expect-mutating` set the *next*
/// statement's `expected_mutating` claim.
fn parse_corpus(text: &str) -> ScriptSpec {
    let mut statements = Vec::new();
    let mut expect: Option<bool> = None;
    for chunk in text.split(';') {
        let mut lines = Vec::new();
        for line in chunk.lines() {
            let t = line.trim();
            if let Some(comment) = t.strip_prefix("--") {
                if comment.trim().starts_with("expect-readonly") {
                    expect = Some(false);
                } else if comment.trim().starts_with("expect-mutating") {
                    expect = Some(true);
                }
                continue;
            }
            if !t.is_empty() {
                lines.push(t);
            }
        }
        let sql = lines.join(" ");
        if sql.is_empty() {
            continue;
        }
        let mut stmt = ScriptStmt::new(format!("stmt{}", statements.len()), sql);
        stmt.expected_mutating = expect.take();
        statements.push(stmt);
    }
    ScriptSpec {
        statements,
        ..ScriptSpec::default()
    }
}

#[test]
fn corpus_scripts_are_rejected_with_typed_positioned_diagnostics() {
    type Matcher = fn(&DiagnosticKind) -> bool;
    let corpus: &[(&str, Matcher)] = &[
        (
            "leak.sql",
            |k| matches!(k, DiagnosticKind::WorkTableLeak { table } if table == "scratch"),
        ),
        (
            "read_after_drop.sql",
            |k| matches!(k, DiagnosticKind::ReadAfterDrop { table } if table == "t"),
        ),
        (
            "use_before_create.sql",
            |k| matches!(k, DiagnosticKind::UseBeforeCreate { table } if table == "t"),
        ),
        (
            "double_create.sql",
            |k| matches!(k, DiagnosticKind::DoubleCreate { table } if table == "t"),
        ),
        ("div_by_zero.sql", |k| {
            matches!(k, DiagnosticKind::DivisionByZero { .. })
        }),
        ("mutation_drift.sql", |k| {
            matches!(
                k,
                DiagnosticKind::MutationMismatch {
                    expected: false,
                    derived: true
                }
            )
        }),
        ("parse_error.sql", |k| matches!(k, DiagnosticKind::Parse(_))),
        ("semantic.sql", |k| matches!(k, DiagnosticKind::Semantic(_))),
        ("oversized.sql", |k| {
            matches!(k, DiagnosticKind::TooLong { max: 120, .. })
        }),
    ];
    let env = CheckEnv {
        max_statement_len: 120,
        ..CheckEnv::default()
    };
    for (file, matches_kind) in corpus {
        let text = fs::read_to_string(corpus_path(file)).unwrap();
        let spec = parse_corpus(&text);
        assert!(
            !spec.statements.is_empty(),
            "{file}: corpus file parsed to an empty script"
        );
        let report = check_script(&spec, &env);
        assert!(!report.ok(), "{file}: broken script accepted");
        let diag = report
            .errors()
            .find(|d| matches_kind(&d.kind))
            .unwrap_or_else(|| {
                panic!(
                    "{file}: expected diagnostic kind not found; got: {:?}",
                    report.diagnostics
                )
            });
        assert!(
            diag.stmt.is_some(),
            "{file}: diagnostic not anchored to a statement: {diag}"
        );
        assert!(
            diag.pos.is_some(),
            "{file}: diagnostic has no byte position: {diag}"
        );
    }
}

#[test]
fn corpus_diagnostics_point_at_the_offending_token() {
    // Spot-check two byte positions end to end: the diagnostic's offset
    // must actually land on the named token inside the statement text.
    let env = CheckEnv::default();

    let text = fs::read_to_string(corpus_path("read_after_drop.sql")).unwrap();
    let spec = parse_corpus(&text);
    let report = check_script(&spec, &env);
    let diag = report
        .errors()
        .find(|d| matches!(&d.kind, DiagnosticKind::ReadAfterDrop { .. }))
        .unwrap();
    let stmt = &spec.statements[diag.stmt.unwrap()].sql;
    let at = diag.pos.unwrap();
    assert_eq!(&stmt[at..at + 1], "t", "position lands on the table name");

    let text = fs::read_to_string(corpus_path("div_by_zero.sql")).unwrap();
    let spec = parse_corpus(&text);
    let report = check_script(&spec, &env);
    let diag = report
        .errors()
        .find(|d| matches!(&d.kind, DiagnosticKind::DivisionByZero { .. }))
        .unwrap();
    let stmt = &spec.statements[diag.stmt.unwrap()].sql;
    let at = diag.pos.unwrap();
    assert_eq!(&stmt[at..at + 1], "0", "position lands on the zero literal");
}

// ---------------------------------------------------------------------------
// Part 3: golden rendered reports.
// ---------------------------------------------------------------------------

const P: usize = 3;
const K: usize = 2;

fn check_report_snapshot(name: &str, model: Model) {
    let report = static_report(model, P, K);
    let rendered = report.render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.txt"));
    if std::env::var("UPDATE_SNAPSHOTS").is_ok() {
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read snapshot {} ({e}); run with UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    if rendered != expected {
        let diverge = rendered
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()));
        panic!(
            "snapshot {name} diverges at line {}:\n  got:      {:?}\n  expected: {:?}\n\
             (run with UPDATE_SNAPSHOTS=1 to refresh)",
            diverge + 1,
            rendered.lines().nth(diverge).unwrap_or(""),
            expected.lines().nth(diverge).unwrap_or(""),
        );
    }
}

#[test]
fn plancheck_report_snapshot_hybrid() {
    check_report_snapshot(
        "plancheck_hybrid_p3_k2",
        Model::Paper(Strategy::Hybrid, false),
    );
}

#[test]
fn plancheck_report_snapshot_hybrid_fused() {
    check_report_snapshot(
        "plancheck_hybrid_fused_p3_k2",
        Model::Paper(Strategy::Hybrid, true),
    );
}

#[test]
fn plancheck_report_snapshot_horizontal() {
    check_report_snapshot(
        "plancheck_horizontal_p3_k2",
        Model::Paper(Strategy::Horizontal, false),
    );
}

#[test]
fn plancheck_report_snapshot_vertical() {
    check_report_snapshot(
        "plancheck_vertical_p3_k2",
        Model::Paper(Strategy::Vertical, false),
    );
}

#[test]
fn plancheck_report_snapshot_kmeans() {
    check_report_snapshot("plancheck_kmeans_p3_k2", Model::Kmeans);
}

#[test]
fn plancheck_report_snapshot_percluster() {
    check_report_snapshot("plancheck_percluster_p3_k2", Model::PerCluster);
}
