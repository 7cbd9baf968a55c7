//! Golden-SQL snapshot tests (tier 1): the exact text every generator
//! emits for a small fixed problem size, pinned under
//! `tests/snapshots/*.sql`.
//!
//! The generated SQL **is** the paper's artifact — Figures 5–10 are SQL
//! listings — so accidental drift in the emitted text (a lost CASE
//! guard, a changed join predicate, a renamed work table) is a
//! correctness bug even when the numbers still happen to come out right.
//! These tests freeze the full script per strategy — and per model: the
//! K-means and per-cluster-covariance generators are pinned the same way
//! — DDL, post-load seeding, E step, M step, scoring and the llh query.
//!
//! To update after an intentional generator change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test snapshots
//! ```
//!
//! then review the diff like any other code change.

use sqlem::{
    build_generator, Generator, KmeansGenerator, PerClusterGenerator, SqlemConfig, Strategy,
};
use sqlengine::SqlExecutor;

/// Problem size for the snapshots: small enough to read, large enough
/// that per-dimension/per-cluster unrolling (y1..y3, c1..c2) shows up.
const P: usize = 3;
const K: usize = 2;
const N: usize = 1000;

/// Render a generator's full script as one annotated SQL document.
fn render<G: Generator + ?Sized>(generator: &G) -> String {
    let mut out = String::new();
    let mut section = |title: &str, stmts: &[sqlem::Stmt]| {
        out.push_str(&format!("-- ==== {title} ====\n"));
        for s in stmts {
            out.push_str(&format!("-- {}\n{};\n\n", s.purpose, s.sql));
        }
    };
    section("create tables", &generator.create_tables());
    section("post load (n = 1000)", &generator.post_load(N));
    section("E step", &generator.e_step());
    section("M step", &generator.m_step());
    section("score", &generator.score_step());
    out.push_str("-- ==== loglikelihood ====\n");
    out.push_str(&format!("{};\n", generator.llh_sql()));
    out
}

fn check_snapshot(name: &str, config: &SqlemConfig) {
    check_rendered(name, &render(&build_generator(config, P)));
}

fn check_rendered(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.sql"));
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {}: {e}", path.display()));
    if rendered != golden {
        let diverges = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "generated SQL for `{name}` drifted from tests/snapshots/{name}.sql \
             (first difference at line {}).\n  golden:    {:?}\n  generated: {:?}\n\
             If the change is intentional, re-pin with \
             UPDATE_SNAPSHOTS=1 cargo test --test snapshots",
            diverges + 1,
            golden.lines().nth(diverges).unwrap_or("<eof>"),
            rendered.lines().nth(diverges).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn horizontal_sql_matches_snapshot() {
    check_snapshot(
        "horizontal_p3_k2",
        &SqlemConfig::new(K, Strategy::Horizontal),
    );
}

#[test]
fn vertical_sql_matches_snapshot() {
    check_snapshot("vertical_p3_k2", &SqlemConfig::new(K, Strategy::Vertical));
}

#[test]
fn hybrid_sql_matches_snapshot() {
    check_snapshot("hybrid_p3_k2", &SqlemConfig::new(K, Strategy::Hybrid));
}

#[test]
fn hybrid_fused_sql_matches_snapshot() {
    check_snapshot(
        "hybrid_fused_p3_k2",
        &SqlemConfig::new(K, Strategy::Hybrid).with_fused_e_step(),
    );
}

#[test]
fn kmeans_sql_matches_snapshot() {
    let config = SqlemConfig::new(K, Strategy::Hybrid);
    check_rendered("kmeans_p3_k2", &render(&KmeansGenerator::new(&config, P)));
}

#[test]
fn percluster_sql_matches_snapshot() {
    let config = SqlemConfig::new(K, Strategy::Hybrid);
    check_rendered(
        "percluster_p3_k2",
        &render(&PerClusterGenerator::new(&config, P)),
    );
}

#[test]
fn snapshots_parse_under_default_engine_limits() {
    // Every pinned statement must survive the engine's own parser and
    // analyzer limits — a snapshot that cannot even parse is stale.
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        return; // files are being rewritten concurrently by the other tests
    }
    for name in [
        "horizontal_p3_k2",
        "vertical_p3_k2",
        "hybrid_p3_k2",
        "hybrid_fused_p3_k2",
        "kmeans_p3_k2",
        "percluster_p3_k2",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(format!("{name}.sql"));
        let script = std::fs::read_to_string(&path).unwrap();
        // DDL + post-load must run; E/M statements reference tables the
        // DDL creates, so the whole script prepares in order.
        // The engine's parser takes bare statements: drop the `-- …`
        // annotation lines the snapshot renderer adds.
        let bare: String = script
            .lines()
            .filter(|l| !l.trim_start().starts_with("--"))
            .collect::<Vec<_>>()
            .join("\n");
        let statements: Vec<String> = bare
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        let mut db = sqlengine::Database::new();
        if let Err(e) = db.prepare_script(&statements) {
            panic!("{name} statement {} does not prepare: {}", e.index, e.error);
        }
    }
}
