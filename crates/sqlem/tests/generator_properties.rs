//! Seeded properties of the SQL generators, over all of them: the
//! paper's horizontal, vertical and hybrid strategies, the hybrid with
//! the fused E step, K-means and per-cluster covariances. For any
//! problem shape every generated statement must parse and reference only
//! the session's prefixed tables, and the strategies keep their §3
//! statement-size shapes. Cases draw from the in-repo `prng`, so a
//! failure reproduces from its case number.

use emcore::GmmParams;
use prng::{Rng, StdRng};
use sqlem::{
    build_generator, Generator, KmeansGenerator, ParamSet, PerClusterGenerator, SqlemConfig, Stmt,
    Strategy,
};
use sqlengine::parser::parse;

/// Every generator a session can run.
#[derive(Debug, Clone, Copy)]
enum Model {
    Paper(Strategy),
    HybridFused,
    Kmeans,
    PerCluster,
}

const MODELS: [Model; 6] = [
    Model::Paper(Strategy::Horizontal),
    Model::Paper(Strategy::Vertical),
    Model::Paper(Strategy::Hybrid),
    Model::HybridFused,
    Model::Kmeans,
    Model::PerCluster,
];

/// Every statement a session of `model` submits for `(p, k)` under
/// `prefix`: DDL, post-load seeding, a parameter write, one E and M
/// step, the objective read and scoring.
fn script(model: Model, p: usize, k: usize, prefix: &str) -> Vec<Stmt> {
    let hybrid = SqlemConfig::new(k, Strategy::Hybrid).with_prefix(prefix);
    match model {
        Model::Paper(strategy) => {
            let config = SqlemConfig::new(k, strategy).with_prefix(prefix);
            statements(&build_generator(&config, p), p, k)
        }
        Model::HybridFused => statements(&build_generator(&hybrid.with_fused_e_step(), p), p, k),
        Model::Kmeans => statements(&KmeansGenerator::new(&hybrid, p), p, k),
        Model::PerCluster => statements(&PerClusterGenerator::new(&hybrid, p), p, k),
    }
}

fn statements<G: Generator>(g: &G, p: usize, k: usize) -> Vec<Stmt> {
    let params = GmmParams::new(vec![vec![0.5; p]; k], vec![1.0; p], vec![1.0 / k as f64; k]);
    let mut all = g.create_tables();
    all.extend(g.post_load(12345));
    all.extend(g.write_params(&G::Params::from_gmm(params)));
    all.extend(g.e_step());
    all.extend(g.m_step());
    all.push(Stmt::new("read llh", g.llh_sql()));
    all.extend(g.score_step());
    all
}

/// The tables a statement names: the (comma-separated) lists after
/// `INTO`, `FROM`, `UPDATE`, `CREATE TABLE` and `DROP TABLE IF EXISTS`.
fn referenced_tables(sql: &str) -> Vec<&str> {
    let mut tables = Vec::new();
    for kw in [
        "INTO ",
        "FROM ",
        "UPDATE ",
        "CREATE TABLE ",
        "TABLE IF EXISTS ",
    ] {
        for (at, _) in sql.match_indices(kw) {
            for word in sql[at + kw.len()..].split_whitespace() {
                tables.push(word.trim_end_matches(','));
                if !word.ends_with(',') {
                    break;
                }
            }
        }
    }
    tables
}

#[test]
fn every_statement_parses_and_references_only_prefixed_tables() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    for case in 0..40 {
        let (p, k) = (rng.random_range(1..12), rng.random_range(1..12));
        for model in MODELS {
            for stmt in script(model, p, k, "px_") {
                assert!(
                    parse(&stmt.sql).is_ok(),
                    "case {case}: {model:?} p={p} k={k} [{}] failed to parse:\n{}",
                    stmt.purpose,
                    stmt.sql
                );
                let tables = referenced_tables(&stmt.sql);
                assert!(!tables.is_empty(), "case {case}: no table in {}", stmt.sql);
                for table in tables {
                    assert!(
                        table.starts_with("px_"),
                        "case {case}: {model:?} unprefixed table {table:?} in: {}",
                        stmt.sql
                    );
                }
            }
        }
    }
}

/// The vertical strategy's statements never grow with p or k (its §3.4
/// selling point); the horizontal distance statement grows with k; the
/// hybrid stays far below horizontal once kp is non-trivial.
#[test]
fn statement_growth_shapes() {
    let len_of = |strategy: Strategy, p: usize, k: usize| {
        build_generator(&SqlemConfig::new(k, strategy), p).longest_statement()
    };
    let mut rng = StdRng::seed_from_u64(0xE2);
    for case in 0..40 {
        let (p, k) = (rng.random_range(2..10), rng.random_range(2..10));
        let v_small = len_of(Strategy::Vertical, 2, 2);
        let v_here = len_of(Strategy::Vertical, p, k);
        assert!(
            (v_here as i64 - v_small as i64).abs() < 32,
            "case {case}: vertical p={p} k={k}"
        );
        assert!(
            len_of(Strategy::Horizontal, p, k + 1) > len_of(Strategy::Horizontal, p, k),
            "case {case}: horizontal p={p} k={k}"
        );
        if p * k >= 16 {
            assert!(
                len_of(Strategy::Hybrid, p, k) < len_of(Strategy::Horizontal, p, k),
                "case {case}: hybrid vs horizontal p={p} k={k}"
            );
        }
    }
}
