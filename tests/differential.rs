//! Differential tests (tier 1): SQL-generated EM vs. the in-memory
//! oracle, compared **per iteration and per parameter family**.
//!
//! The paper's §1.4 requirement is that pushing EM into SQL must "keep
//! the basic behavior of the EM algorithm unchanged". These tests run
//! each strategy in lockstep with [`emcore::em::em_step`] from the same
//! initial parameters and require, at every one of ≥3 iterations:
//!
//! * the loglikelihood (relative, since llh is `O(n)`),
//! * the mixture weights `W`,
//! * the means `C`,
//! * the diagonal covariances `R`
//!
//! to agree to floating-point noise — including through the two §2.5
//! degenerate regimes, which get dedicated scenarios below: the
//! inverse-distance fallback when every cluster's density underflows,
//! and zero-covariance skipping when a dimension collapses — and a
//! degenerate cluster whose weight collapses. Those three scenarios also
//! run over every other executor tier — two and four in-process shards
//! behind a `Coordinator`, and a `RemoteConnection` to an in-process
//! `Server` — and must reproduce the embedded run bit for bit,
//! iteration by iteration.

use datagen::generate_dataset;
use emcore::em::em_step;
use emcore::init::{initialize, InitStrategy};
use emcore::GmmParams;
use sqlem::{EmSession, SqlemConfig, Strategy};
use sqlengine::{Database, SharedDatabase, SqlExecutor};
use sqlwire::{ClientConfig, Coordinator, RemoteConnection, Server, ServerConfig};

const ITERS: usize = 3;

fn family_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Assert per-family agreement between a SQL-side parameter read-back
/// and the oracle, with a context string for failure messages.
fn assert_params_agree(sql: &GmmParams, oracle: &GmmParams, tol: f64, ctx: &str) {
    for (j, (ms, mo)) in sql.means.iter().zip(&oracle.means).enumerate() {
        let d = family_diff(ms, mo);
        assert!(d <= tol, "{ctx}: mean of cluster {j} diverged by {d}");
    }
    let d = family_diff(&sql.cov, &oracle.cov);
    assert!(d <= tol, "{ctx}: diagonal covariance diverged by {d}");
    let d = family_diff(&sql.weights, &oracle.weights);
    assert!(d <= tol, "{ctx}: weights diverged by {d}");
}

/// The loglikelihood and parameters after each of `ITERS` iterations
/// from explicit initial parameters, run on `db`.
fn trace<E: SqlExecutor>(
    db: &mut E,
    strategy: Strategy,
    points: &[Vec<f64>],
    init: &GmmParams,
) -> Vec<(f64, GmmParams)> {
    let config = SqlemConfig::new(init.k(), strategy)
        .with_epsilon(0.0)
        .with_max_iterations(ITERS);
    let mut session = EmSession::create(db, &config, init.p()).unwrap();
    session.load_points(points).unwrap();
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    (0..ITERS)
        .map(|_| {
            let llh = session.iterate_once().unwrap();
            (llh, session.params().unwrap())
        })
        .collect()
}

/// Run `ITERS` lockstep iterations from explicit shared parameters.
fn lockstep(strategy: Strategy, points: &[Vec<f64>], init: GmmParams, ctx: &str) {
    let sql = trace(&mut Database::new(), strategy, points, &init);
    let mut oracle = init;
    for (iter, (sql_llh, sql_params)) in sql.into_iter().enumerate() {
        let (next, oracle_llh) = em_step(&oracle, points).unwrap();
        oracle = next;
        let denom = oracle_llh.abs().max(1.0);
        assert!(
            ((sql_llh - oracle_llh) / denom).abs() < 1e-9,
            "{ctx} iter {iter}: llh {sql_llh} vs oracle {oracle_llh}"
        );
        assert_params_agree(&sql_params, &oracle, 1e-8, &format!("{ctx} iter {iter}"));
    }
}

/// One iteration's llh and parameters as raw IEEE-754 bits.
fn bits((llh, params): &(f64, GmmParams)) -> Vec<u64> {
    let cells = params.means.iter().flatten().chain(&params.cov);
    std::iter::once(llh)
        .chain(cells)
        .chain(&params.weights)
        .map(|v| v.to_bits())
        .collect()
}

/// The same run over two and four in-process shards and over the wire
/// must reproduce the embedded run's every iteration bit for bit.
fn tiers_match_embedded(strategy: Strategy, points: &[Vec<f64>], init: &GmmParams, ctx: &str) {
    let embedded = trace(&mut Database::new(), strategy, points, init);
    let same = |tier: &str, run: Vec<(f64, GmmParams)>| {
        for (iter, (got, want)) in run.iter().zip(&embedded).enumerate() {
            assert_eq!(bits(got), bits(want), "{ctx} over {tier}, iter {iter}");
        }
    };
    for shards in [2, 4] {
        let mut coord = Coordinator::new((0..shards).map(|_| Database::new()).collect()).unwrap();
        same(
            &format!("{shards} shards"),
            trace(&mut coord, strategy, points, init),
        );
    }
    let server = Server::bind(
        "127.0.0.1:0",
        SharedDatabase::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut conn = RemoteConnection::connect(&addr, ClientConfig::default()).unwrap();
    same("the wire", trace(&mut conn, strategy, points, init));
    drop(conn);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn every_strategy_tracks_the_oracle_per_iteration() {
    let (n, p, k) = (300, 3, 2);
    let data = generate_dataset(n, p, k, 42);
    let init = initialize(&data.points, k, &InitStrategy::Random { seed: 42 });
    for strategy in [Strategy::Hybrid, Strategy::Horizontal, Strategy::Vertical] {
        lockstep(strategy, &data.points, init.clone(), &format!("{strategy}"));
    }
}

/// §2.5 inverse-distance fallback: clusters at 0 and 10 000 with unit
/// variance, and a batch of points near 2 500 — every cluster density
/// underflows for those points (`exp(-0.5·2500²) = 0`), so both sides
/// must switch to `x_ij = (1/δ_ij)/Σ(1/δ_il)` and skip the points in
/// the llh sum.
#[test]
fn underflow_fallback_agrees_with_oracle() {
    let mut points: Vec<Vec<f64>> = Vec::new();
    for i in 0..60 {
        points.push(vec![(i % 7) as f64 * 0.3]);
        points.push(vec![10_000.0 + (i % 7) as f64 * 0.3]);
    }
    for i in 0..8 {
        points.push(vec![2_500.0 + i as f64]); // the underflow region
    }
    let init = GmmParams::new(vec![vec![0.0], vec![10_000.0]], vec![1.0], vec![0.5, 0.5]);

    // Sanity: this scenario really exercises the fallback — the oracle's
    // responsibility routine reports an unrepresentable density product.
    let mut x = vec![0.0; 2];
    assert!(
        emcore::gaussian::responsibilities(&init, &[2_500.0], &mut x).is_none(),
        "expected densities to underflow at distance 2500"
    );
    assert!((x[0] + x[1] - 1.0).abs() < 1e-12, "fallback normalizes");
    assert!(
        x[0] > x[1],
        "closer cluster gets more inverse-distance mass"
    );

    for strategy in [Strategy::Hybrid, Strategy::Horizontal, Strategy::Vertical] {
        let ctx = format!("underflow/{strategy}");
        lockstep(strategy, &points, init.clone(), &ctx);
        tiers_match_embedded(strategy, &points, &init, &ctx);
    }
}

/// §2.5 zero-covariance skip: the second dimension is constant, so after
/// the first M step its covariance collapses to exactly 0. Iterations 2
/// and 3 then divide by the guarded `CASE WHEN r = 0 THEN 1` covariance
/// and skip the dimension in `|R|` — on both sides identically.
///
/// The constant is 0.0 on purpose: `C = Σx·0/Σx` and `R = Σx·(0−0)²/n`
/// are exact in floating point no matter the summation order, so SQL
/// and oracle both land on a covariance of *exactly* 0 — any other
/// constant leaves ~1e-32 residue on one side and the exact-zero skip
/// becomes a coin flip.
#[test]
fn zero_covariance_dimension_agrees_with_oracle() {
    let data = generate_dataset(200, 1, 2, 9);
    let points: Vec<Vec<f64>> = data
        .points
        .iter()
        .map(|pt| vec![pt[0], 0.0]) // constant second dimension
        .collect();
    let init = initialize(&points, 2, &InitStrategy::Random { seed: 9 });

    // Sanity: the collapse actually happens after one oracle step.
    let (after_one, _) = em_step(&init, &points).unwrap();
    assert_eq!(after_one.cov[1], 0.0, "constant dimension collapses to 0");

    for strategy in [Strategy::Hybrid, Strategy::Horizontal, Strategy::Vertical] {
        let ctx = format!("zero-cov/{strategy}");
        lockstep(strategy, &points, init.clone(), &ctx);
        tiers_match_embedded(strategy, &points, &init, &ctx);
    }
}

/// A degenerate cluster: the third component starts 13 σ beyond every
/// point, so after one M step its weight has collapsed to below 1e-37 —
/// positive, not zero, and it stays collapsed. Its sums are then 37
/// orders of magnitude below the other clusters' in the same statements
/// (the covariance sums all clusters' contributions), so every tier
/// must round the same wide sums: each iteration over two and four
/// shards and over the wire is the embedded run's, bit for bit.
#[test]
fn collapsed_cluster_weight_agrees_with_oracle() {
    let mut points: Vec<Vec<f64>> = Vec::new();
    for i in 0..80 {
        let (a, b) = ((i % 9) as f64 * 0.25, (i % 5) as f64 * 0.2);
        points.push(vec![a, b]);
        points.push(vec![10.0 + a, b]);
    }
    let init = GmmParams::new(
        vec![vec![0.0, 0.0], vec![10.0, 0.0], vec![25.0, 0.0]],
        vec![1.0, 1.0],
        vec![1.0 / 3.0; 3],
    );

    // Sanity: the third weight collapses, and stays collapsed, on the
    // oracle's side.
    let (one, _) = em_step(&init, &points).unwrap();
    let (two, _) = em_step(&one, &points).unwrap();
    for params in [&one, &two] {
        let w = params.weights[2];
        assert!(w > 0.0 && w < 1e-30, "third weight {w:e}");
    }

    for strategy in [Strategy::Hybrid, Strategy::Horizontal, Strategy::Vertical] {
        let ctx = format!("collapsed-weight/{strategy}");
        lockstep(strategy, &points, init.clone(), &ctx);
        tiers_match_embedded(strategy, &points, &init, &ctx);
    }
}
