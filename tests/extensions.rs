//! End-to-end tests for the paper's noted extensions: categorical
//! attributes via binary expansion (§3.7), per-cluster covariances
//! (§2.1) and K-means (§2.2) — the last two also over a sharded
//! executor, since they are `EmSession` models like the paper's own.

use datagen::categorical::{CategoricalEncoder, MixedRow};
use emcore::emfull::FullParams;
use emcore::init::InitStrategy;
use emcore::GmmParams;
use prng::{Rng, StdRng};
use sqlem::{EmSession, KmeansGenerator, PerClusterGenerator, SqlemConfig, SqlemRun, Strategy};
use sqlengine::{Database, SqlExecutor};
use sqlwire::Coordinator;

/// §3.7 end to end: two behavioural segments that differ in a categorical
/// attribute; after one-hot expansion, SQLEM's centroids read back as the
/// per-segment category probabilities.
#[test]
fn categorical_expansion_clusters_and_reads_back_probabilities() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut rows = Vec::new();
    // Segment A: small baskets, 80% cash. Segment B: big baskets, 90% card.
    for i in 0..400 {
        let noise: f64 = rng.random::<f64>();
        if i % 2 == 0 {
            rows.push(MixedRow {
                numeric: vec![5.0 + noise],
                categorical: vec![if rng.random::<f64>() < 0.8 {
                    "cash"
                } else {
                    "card"
                }
                .to_string()],
            });
        } else {
            rows.push(MixedRow {
                numeric: vec![50.0 + noise * 5.0],
                categorical: vec![if rng.random::<f64>() < 0.9 {
                    "card"
                } else {
                    "cash"
                }
                .to_string()],
            });
        }
    }
    let encoder = CategoricalEncoder::fit(&rows);
    let points = encoder.transform(&rows);
    let p = encoder.expanded_p();
    assert_eq!(p, 3); // 1 numeric + {card, cash}

    let mut db = Database::new();
    let config = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20);
    let mut session = EmSession::create(&mut db, &config, p).unwrap();
    session.load_points(&points).unwrap();
    let init = GmmParams::new(
        vec![vec![15.0, 0.5, 0.5], vec![40.0, 0.5, 0.5]],
        vec![100.0, 0.25, 0.25],
        vec![0.5, 0.5],
    );
    session.initialize(&InitStrategy::Explicit(init)).unwrap();
    let run = session.run().unwrap();

    // Identify the small-basket cluster and decode its centroid.
    let small = if run.params.means[0][0] < run.params.means[1][0] {
        0
    } else {
        1
    };
    let probs = encoder.centroid_probabilities(&run.params.means[small]);
    let cash = probs[0].iter().find(|(l, _)| *l == "cash").unwrap().1;
    assert!(
        (cash - 0.8).abs() < 0.07,
        "small-basket cash probability {cash}, expected ≈ 0.8"
    );
    let big = 1 - small;
    let probs = encoder.centroid_probabilities(&run.params.means[big]);
    let card = probs[0].iter().find(|(l, _)| *l == "card").unwrap().1;
    assert!(
        (card - 0.9).abs() < 0.07,
        "big-basket card probability {card}, expected ≈ 0.9"
    );
}

/// §2.1 end to end: per-cluster covariances beat the shared-R model on
/// heteroscedastic data, measured by loglikelihood on the same points.
#[test]
fn per_cluster_covariance_fits_heteroscedastic_data_better() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut normal = datagen::normal::Normal::new();
    let mut pts = Vec::new();
    for _ in 0..600 {
        pts.push(vec![normal.sample_with(&mut rng, 0.0, 0.5)]);
        pts.push(vec![normal.sample_with(&mut rng, 40.0, 8.0)]);
    }

    // Shared-R SQLEM.
    let mut db1 = Database::new();
    let shared_cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(30);
    let mut shared = EmSession::create(&mut db1, &shared_cfg, 1).unwrap();
    shared.load_points(&pts).unwrap();
    shared
        .initialize(&InitStrategy::Explicit(GmmParams::new(
            vec![vec![10.0], vec![30.0]],
            vec![100.0],
            vec![0.5, 0.5],
        )))
        .unwrap();
    let shared_run = shared.run().unwrap();

    // Per-cluster SQLEM.
    let mut db2 = Database::new();
    let full_cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(30);
    let mut full =
        EmSession::create_with(&mut db2, &full_cfg, 1, PerClusterGenerator::new).unwrap();
    full.load_points(&pts).unwrap();
    full.set_params(&FullParams {
        means: vec![vec![10.0], vec![30.0]],
        covs: vec![vec![100.0], vec![100.0]],
        weights: vec![0.5, 0.5],
    })
    .unwrap();
    let full_run = full.run().unwrap();

    let shared_llh = *shared_run.llh_history.last().unwrap();
    let full_llh = *full_run.llh_history.last().unwrap();
    assert!(
        full_llh > shared_llh + 100.0,
        "per-cluster llh {full_llh} should clearly beat shared {shared_llh}"
    );

    // And the recovered spreads differ by the right magnitude: the wide
    // cluster's variance is ~(8/0.5)² = 256× the tight one's.
    let (tight, wide) = if full_run.params.covs[0][0] < full_run.params.covs[1][0] {
        (0, 1)
    } else {
        (1, 0)
    };
    let ratio = full_run.params.covs[wide][0] / full_run.params.covs[tight][0];
    assert!(
        (50.0..=1500.0).contains(&ratio),
        "variance ratio {ratio}, expected ~256"
    );
}

/// The fused hybrid (§5 future work) runs the full quickstart pipeline
/// and matches the classic hybrid on final parameters.
#[test]
fn fused_hybrid_full_pipeline() {
    let data = datagen::generate_dataset(1_500, 3, 3, 13);
    let init = emcore::init::initialize(&data.points, 3, &InitStrategy::Random { seed: 13 });
    let run_with = |fused: bool| {
        let mut db = Database::new();
        let mut config = SqlemConfig::new(3, Strategy::Hybrid)
            .with_epsilon(1e-4)
            .with_max_iterations(12);
        if fused {
            config = config.with_fused_e_step();
        }
        let mut s = EmSession::create(&mut db, &config, 3).unwrap();
        s.load_points(&data.points).unwrap();
        s.initialize(&InitStrategy::Explicit(init.clone())).unwrap();
        let run = s.run().unwrap();
        let scores = s.scores().unwrap();
        (run, scores)
    };
    let (classic, classic_scores) = run_with(false);
    let (fused, fused_scores) = run_with(true);
    assert_eq!(classic.iterations, fused.iterations);
    assert!(emcore::compare::max_param_diff(&classic.params, &fused.params) < 1e-8);
    assert_eq!(classic_scores, fused_scores);
}

/// Two separated 2-D blobs of different spread; enough rows that both
/// shards own data.
fn two_blobs() -> Vec<Vec<f64>> {
    let mut pts = Vec::new();
    for i in 0..40 {
        let t = (i % 8) as f64 * 0.15;
        pts.push(vec![t, -t]);
        pts.push(vec![9.0 + 3.0 * t, 9.0 - 2.0 * t]);
    }
    pts
}

fn two_shards() -> Coordinator<Database> {
    Coordinator::new(vec![Database::new(), Database::new()]).unwrap()
}

/// K-means' ε and iteration cap.
fn kmeans_config(k: usize) -> SqlemConfig {
    SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20)
}

/// The K-means session is generic over the executor: over a 2-shard
/// coordinator the centroids, SSE history and assignments are
/// bit-identical to the embedded run.
#[test]
fn kmeans_over_two_shards_matches_embedded() {
    fn run<E: SqlExecutor>(db: &mut E) -> (SqlemRun, Vec<usize>) {
        let mut session =
            EmSession::create_with(db, &kmeans_config(2), 2, KmeansGenerator::new).unwrap();
        session.load_points(&two_blobs()).unwrap();
        session
            .set_params(&KmeansGenerator::params(vec![
                vec![2.0, 2.0],
                vec![7.0, 7.0],
            ]))
            .unwrap();
        let run = session.run().unwrap();
        (run, session.scores().unwrap())
    }
    let (embedded, embedded_assignments) = run(&mut Database::new());
    let (sharded, sharded_assignments) = run(&mut two_shards());
    assert!(embedded.iterations >= 2);
    assert_eq!(sharded.params.means, embedded.params.means);
    assert_eq!(sharded.llh_history, embedded.llh_history);
    assert_eq!(sharded.outcome, embedded.outcome);
    assert_eq!(sharded_assignments, embedded_assignments);
}

/// Likewise the per-cluster session: `FullParams`, llh history and
/// scores bit-identical between one embedded database and two shards.
#[test]
fn per_cluster_over_two_shards_matches_embedded() {
    fn run<E: SqlExecutor>(db: &mut E) -> (SqlemRun<FullParams>, Vec<usize>) {
        let config = SqlemConfig::new(2, Strategy::Hybrid)
            .with_epsilon(1e-12)
            .with_max_iterations(6);
        let mut session = EmSession::create_with(db, &config, 2, PerClusterGenerator::new).unwrap();
        session.load_points(&two_blobs()).unwrap();
        session
            .set_params(&FullParams {
                means: vec![vec![2.0, 2.0], vec![7.0, 7.0]],
                covs: vec![vec![8.0, 8.0], vec![8.0, 8.0]],
                weights: vec![0.5, 0.5],
            })
            .unwrap();
        let run = session.run().unwrap();
        (run, session.scores().unwrap())
    }
    let (embedded, embedded_scores) = run(&mut Database::new());
    let (sharded, sharded_scores) = run(&mut two_shards());
    assert!(embedded.iterations >= 2);
    assert_eq!(sharded.params, embedded.params);
    assert_eq!(sharded.llh_history, embedded.llh_history);
    assert_eq!(sharded.outcome, embedded.outcome);
    assert_eq!(sharded_scores, embedded_scores);
}

/// An empty K-means cluster keeps its centroid, as Lloyd's algorithm
/// does (`emcore::kmeans::kmeans_from`): two blobs and a third centroid
/// no point is ever nearest to. Coordinates are dyadic so every mean is
/// exact and the in-memory run is the oracle bit for bit — embedded and
/// over two shards.
#[test]
fn kmeans_empty_cluster_keeps_its_centroid() {
    let mut pts = Vec::new();
    for i in 0..20 {
        let (x, y) = ((i % 4) as f64 * 0.25, (i / 4) as f64 * 0.125);
        pts.push(vec![x, y]);
        pts.push(vec![8.0 + x, 8.0 + y]);
    }
    let init = vec![vec![0.0, 0.0], vec![8.0, 8.0], vec![100.0, 100.0]];
    let oracle = emcore::kmeans::kmeans_from(&pts, init.clone(), 20);
    assert_eq!(oracle.centroids[2], vec![100.0, 100.0]);
    fn run<E: SqlExecutor>(
        db: &mut E,
        pts: &[Vec<f64>],
        init: &[Vec<f64>],
    ) -> (SqlemRun, Vec<usize>) {
        let mut session =
            EmSession::create_with(db, &kmeans_config(3), 2, KmeansGenerator::new).unwrap();
        session.load_points(pts).unwrap();
        session
            .set_params(&KmeansGenerator::params(init.to_vec()))
            .unwrap();
        let run = session.run().unwrap();
        (run, session.scores().unwrap())
    }
    for (label, (run, scores)) in [
        ("embedded", run(&mut Database::new(), &pts, &init)),
        ("2 shards", run(&mut two_shards(), &pts, &init)),
    ] {
        assert_eq!(run.params.means, oracle.centroids, "{label}");
        assert_eq!(scores, oracle.assignments, "{label}");
        assert_eq!(run.outcome, emcore::EmOutcome::Converged, "{label}");
    }
}
