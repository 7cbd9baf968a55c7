//! Seeded properties of whole SQLEM runs, for every model a session can
//! run: the paper's three strategies, the fused hybrid, K-means and
//! per-cluster covariances. On any small random problem the EM models'
//! loglikelihood never decreases and their weights stay normalized with
//! non-negative finite covariances, K-means' SSE never increases, and
//! the scores cover exactly the loaded points with labels in `0..k`.
//! Cases draw from the in-repo `prng`, so a failure reproduces from its
//! case number.

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use prng::{Rng, StdRng};
use sqlem::{
    build_generator, EmSession, Generator, KmeansGenerator, ParamSet, PerClusterGenerator,
    SqlemConfig, SqlemError, Strategy,
};
use sqlengine::Database;

/// Run `build`'s model on `points` from a random start and check its
/// invariants; `minimizes` marks K-means' SSE, otherwise the objective
/// is a loglikelihood.
fn check<G: Generator>(
    label: &str,
    config: &SqlemConfig,
    build: impl Fn(&SqlemConfig, usize) -> G,
    points: &[Vec<f64>],
    seed: u64,
    minimizes: bool,
) {
    let mut db = Database::new();
    let mut session = EmSession::create_with(&mut db, config, points[0].len(), build).unwrap();
    session.load_points(points).unwrap();
    session.initialize(&InitStrategy::Random { seed }).unwrap();
    let run = match session.run() {
        Ok(run) => run,
        // A randomly-initialized EM cluster can legitimately die on tiny
        // data; the failure must be the *domain* error, not a raw SQL
        // error. K-means keeps an empty cluster's centroid instead.
        Err(SqlemError::DegenerateCluster(_)) if !minimizes => return,
        Err(other) => panic!("{label}: {other}"),
    };
    for w in run.llh_history.windows(2) {
        let slack = 1e-6 * w[0].abs().max(1.0);
        let ok = if minimizes {
            w[1] <= w[0] + slack
        } else {
            w[1] >= w[0] - slack
        };
        assert!(
            ok,
            "{label}: objective moved the wrong way {} -> {}",
            w[0], w[1]
        );
    }
    let (_, cov, weights) = run.params.cells();
    let total: f64 = weights.iter().sum();
    assert!(
        (total - 1.0).abs() <= 1e-6,
        "{label}: weights sum to {total}"
    );
    assert!(
        cov.iter().all(|&v| v >= 0.0 && v.is_finite()),
        "{label}: covariance {cov:?}"
    );
    let scores = session.scores().unwrap();
    assert_eq!(scores.len(), points.len(), "{label}: scores");
    assert!(scores.iter().all(|&s| s < config.k), "{label}: {scores:?}");
}

#[test]
fn every_model_keeps_its_invariants_and_scores_every_point() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    for case in 0..24 {
        let (n, p, k) = (
            rng.random_range(40..160),
            rng.random_range(1..4),
            rng.random_range(1..4),
        );
        let seed = rng.random_range(0..1000) as u64;
        let points = generate_dataset(n, p, k, seed).points;
        let label = |model: &str| format!("case {case}: {model} n={n} p={p} k={k} seed={seed}");
        let base = SqlemConfig::new(k, Strategy::Hybrid)
            .with_epsilon(0.0)
            .with_max_iterations(4);
        for strategy in Strategy::ALL {
            let mut config = base.clone();
            config.strategy = strategy;
            check(
                &label(strategy.name()),
                &config,
                build_generator,
                &points,
                seed,
                false,
            );
        }
        let fused = base.clone().with_fused_e_step();
        check(
            &label("hybrid-fused"),
            &fused,
            build_generator,
            &points,
            seed,
            false,
        );
        check(
            &label("kmeans"),
            &base,
            KmeansGenerator::new,
            &points,
            seed,
            true,
        );
        check(
            &label("per-cluster"),
            &base,
            PerClusterGenerator::new,
            &points,
            seed,
            false,
        );
    }
}
