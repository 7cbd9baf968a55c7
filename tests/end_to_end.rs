//! Cross-crate end-to-end tests: datagen → sqlem (all strategies) →
//! emcore oracle/metrics.

use datagen::generate_dataset;
use emcore::compare::{max_param_diff, purity};
use emcore::init::{initialize, InitStrategy};
use emcore::GmmParams;
use sqlem::{EmSession, SqlemConfig, Strategy};
use sqlengine::{Database, SqlExecutor};
use sqlwire::{ClientConfig, Coordinator, RemoteConnection, Server, ServerConfig};

/// Full pipeline: generate → load → initialize from a sample → run →
/// score, with quality gates on the recovered model.
#[test]
fn full_pipeline_recovers_well_separated_mixture() {
    let (n, p, k) = (4_000, 3, 4);
    let data = generate_dataset(n, p, k, 77);
    let mut db = Database::new();
    let config = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-3)
        .with_max_iterations(15);
    let mut session = EmSession::create(&mut db, &config, p).unwrap();
    session.load_points(&data.points).unwrap();
    // EM refines, it does not search globally (§2.2: "it can get stuck in
    // a locally optimal solution"); start from a coarse perturbation of
    // the true structure, as a practitioner's sampled initialization
    // would provide on well-separated data.
    let rough = emcore::GmmParams {
        means: data
            .spec
            .clusters
            .iter()
            .enumerate()
            .map(|(j, c)| c.mean.iter().map(|m| m + 1.0 + 0.3 * j as f64).collect())
            .collect(),
        cov: vec![4.0; p],
        weights: vec![1.0 / k as f64; k],
    };
    session.initialize(&InitStrategy::Explicit(rough)).unwrap();
    let run = session.run().unwrap();
    run.params.validate().unwrap();

    // Every generating mean has a recovered mean within 3 global σ-units
    // of it (lattice spacing is 6, cluster σ = 1 — noise shifts means a
    // bit toward the bounding box).
    for spec_cluster in &data.spec.clusters {
        let nearest = run
            .params
            .means
            .iter()
            .map(|m| {
                m.iter()
                    .zip(&spec_cluster.mean)
                    .map(|(a, b)| (a - b).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            nearest < 3.0,
            "no recovered mean near spec mean {:?} (best {nearest})",
            spec_cluster.mean
        );
    }

    // Hard segmentation separates the true clusters well despite noise.
    let scores = session.scores().unwrap();
    let pur = purity(&data.labels, &scores, k);
    assert!(pur > 0.9, "purity {pur}");
}

/// Running in parallel — a coordinator over four in-process shards, the
/// AMP analogue — must not change the result.
#[test]
fn parallel_engine_produces_identical_clustering_story() {
    let (n, p, k) = (6_000, 3, 3);
    let data = generate_dataset(n, p, k, 31);
    let init = initialize(&data.points, k, &InitStrategy::Random { seed: 31 });
    let config = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(4);
    let init = InitStrategy::Explicit(init);
    fn run<E: SqlExecutor>(
        db: &mut E,
        config: &SqlemConfig,
        points: &[Vec<f64>],
        init: &InitStrategy,
    ) -> GmmParams {
        let mut session = EmSession::create(db, config, points[0].len()).unwrap();
        session.load_points(points).unwrap();
        session.initialize(init).unwrap();
        session.run().unwrap().params
    }
    let serial = run(&mut Database::new(), &config, &data.points, &init);
    let mut shards = Coordinator::new((0..4).map(|_| Database::new()).collect()).unwrap();
    let parallel = run(&mut shards, &config, &data.points, &init);
    // Every sum is exact, so the shards' merge is the single node's.
    let d = max_param_diff(&serial, &parallel);
    assert_eq!(d, 0.0, "parallel diverged from serial by {d}");
}

/// The paper's §1.3 requirement: results must not depend on input order.
#[test]
fn input_order_does_not_change_the_solution() {
    let (n, p, k) = (2_000, 2, 3);
    let data = generate_dataset(n, p, k, 55);
    let mut reversed = data.points.clone();
    reversed.reverse();
    let init = initialize(&data.points, k, &InitStrategy::Random { seed: 55 });

    let run_on = |points: &[Vec<f64>]| {
        let mut db = Database::new();
        let config = SqlemConfig::new(k, Strategy::Hybrid)
            .with_epsilon(0.0)
            .with_max_iterations(5);
        let mut session = EmSession::create(&mut db, &config, p).unwrap();
        session.load_points(points).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init.clone()))
            .unwrap();
        session.run().unwrap().params
    };
    let a = run_on(&data.points);
    let b = run_on(&reversed);
    // Identical multiset of points ⇒ identical solution up to FP
    // summation order.
    let d = max_param_diff(&a, &b);
    assert!(d < 1e-6, "order-dependent result: {d}");
}

/// Two sessions with different prefixes can run interleaved in one
/// database without clobbering each other.
#[test]
fn interleaved_prefixed_sessions() {
    let data_a = generate_dataset(500, 2, 2, 1);
    let data_b = generate_dataset(700, 3, 3, 2);
    let init_a = initialize(&data_a.points, 2, &InitStrategy::Random { seed: 1 });
    let init_b = initialize(&data_b.points, 3, &InitStrategy::Random { seed: 2 });

    let mut db = Database::new();
    // Interleave: create A, create B, run A one step, run B one step…
    // (requires sequential &mut access, so scopes alternate).
    {
        let cfg = SqlemConfig::new(2, Strategy::Hybrid).with_prefix("a_");
        let mut sa = EmSession::create(&mut db, &cfg, 2).unwrap();
        sa.load_points(&data_a.points).unwrap();
        sa.initialize(&InitStrategy::Explicit(init_a)).unwrap();
        sa.iterate_once().unwrap();
    }
    {
        let cfg = SqlemConfig::new(3, Strategy::Vertical).with_prefix("b_");
        let mut sb = EmSession::create(&mut db, &cfg, 3).unwrap();
        sb.load_points(&data_b.points).unwrap();
        sb.initialize(&InitStrategy::Explicit(init_b)).unwrap();
        sb.iterate_once().unwrap();
    }
    // A's tables are untouched by B's run.
    assert_eq!(db.table_len("a_z").unwrap(), 500);
    assert_eq!(db.table_len("b_y").unwrap(), 700 * 3);
    let r = db.execute("SELECT count(*) FROM a_yx").unwrap();
    assert_eq!(r.scalar_f64(), Some(500.0));
}

/// K-means (SQL) and EM (SQL) broadly agree on well-separated data: the
/// EM means match the K-means centroids.
#[test]
fn sql_kmeans_and_sql_em_agree_on_separated_data() {
    let (n, p, k) = (1_500, 2, 3);
    let data = generate_dataset(n, p, k, 9);

    let mut db1 = Database::new();
    let em_cfg = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20);
    let mut em = EmSession::create(&mut db1, &em_cfg, p).unwrap();
    em.load_points(&data.points).unwrap();
    em.initialize(&InitStrategy::FromSample {
        fraction: 0.2,
        seed: 9,
        em_iterations: 5,
    })
    .unwrap();
    let em_run = em.run().unwrap();

    let mut db2 = Database::new();
    let km_cfg = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20);
    let mut km = EmSession::create_with(&mut db2, &km_cfg, p, sqlem::KmeansGenerator::new).unwrap();
    km.load_points(&data.points).unwrap();
    km.set_params(&sqlem::KmeansGenerator::params(em_run.params.means.clone()))
        .unwrap();
    let km_run = km.run().unwrap();

    // Seeded at EM's solution, K-means stays there (both are local
    // optima of closely related objectives on well-separated blobs).
    for (em_mean, km_c) in em_run.params.means.iter().zip(&km_run.params.means) {
        let dist: f64 = em_mean
            .iter()
            .zip(km_c)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(dist < 1.0, "EM mean and K-means centroid diverged: {dist}");
    }
}

/// The `sink:` line of `EXPLAIN` for the distance statement (YD) of
/// `script`, run on `exec`.
fn yd_sink<E: SqlExecutor>(exec: &mut E, script: &[sqlem::Stmt]) -> String {
    let yd = script.iter().find(|s| s.purpose.contains("distances (YD"));
    let sql = &yd.expect("a distance statement").sql;
    let select = &sql[sql.find("SELECT").expect("INSERT … SELECT")..];
    let plan = exec.execute(&format!("EXPLAIN {select}")).unwrap();
    let lines = plan.rows.iter().map(|row| row[0].to_string());
    lines
        .filter(|l| l.starts_with("sink:"))
        .collect::<Vec<_>>()
        .join("; ")
}

/// A model's run as bits — the loglikelihood (K-means: SSE) trace, then
/// means, covariances and weights — with its YD's `sink:` line. The
/// points reach `Y` by `load_points`, in `rid` order, or by
/// `load_from_table`'s pivot out of a table `src`, one dimension after
/// the other.
fn run_bits<E: SqlExecutor, G: sqlem::Generator>(
    exec: &mut E,
    build: impl Fn(&SqlemConfig, usize) -> G,
    pivot: bool,
    points: &[Vec<f64>],
    init: &GmmParams,
) -> (Vec<u64>, String) {
    use sqlem::ParamSet;
    let p = points[0].len();
    if pivot {
        let cols: Vec<String> = (1..=p).map(|d| format!("x{d}")).collect();
        let ddl: Vec<String> = cols.iter().map(|c| format!("{c} DOUBLE")).collect();
        let ddl = format!(
            "CREATE TABLE src (rid BIGINT PRIMARY KEY, {})",
            ddl.join(", ")
        );
        exec.execute(&ddl).unwrap();
        let rows = points.iter().enumerate().map(|(i, pt)| {
            let cells = pt.iter().map(|&x| sqlengine::Value::Double(x));
            std::iter::once(sqlengine::Value::Int(i as i64 + 1))
                .chain(cells)
                .collect()
        });
        exec.bulk_insert_rows("src", rows.collect()).unwrap();
    }
    let k = init.k();
    let config = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(0.0)
        .with_max_iterations(4);
    let mut session = EmSession::create_with(exec, &config, p, build).unwrap();
    if pivot {
        let cols: Vec<String> = (1..=p).map(|d| format!("x{d}")).collect();
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        session.load_from_table("src", "rid", &cols).unwrap();
    } else {
        session.load_points(points).unwrap();
    }
    session
        .initialize(&InitStrategy::Explicit(init.clone()))
        .unwrap();
    let run = session.run().unwrap();
    let script = session.script();
    drop(session);
    let (means, cov, weights) = run.params.cells();
    let means = means.concat();
    let cells = run
        .llh_history
        .iter()
        .chain(&means)
        .chain(&cov)
        .chain(weights);
    let bits = cells.map(|v| v.to_bits());
    (bits.collect(), yd_sink(exec, &script))
}

/// One GROUP BY, two sinks: where `Y` is stored in `rid` order the
/// distance statement streams, where a pivot wrote it a dimension at a
/// time it hashes — and the paper's EM, K-means and per-cluster
/// covariances come out bit for bit the same either way, embedded and
/// over two shards (each shard streams or hashes its own slice).
#[test]
fn streamed_and_hashed_distances_give_the_same_bits() {
    let (n, p, k) = (1_200, 3, 3);
    let data = generate_dataset(n, p, k, 23);
    let init = initialize(&data.points, k, &InitStrategy::Random { seed: 23 });
    let kmeans_init = sqlem::KmeansGenerator::params(init.means.clone());
    fn both<G: sqlem::Generator>(
        model: &str,
        build: impl Fn(&SqlemConfig, usize) -> G + Copy,
        points: &[Vec<f64>],
        init: &GmmParams,
    ) {
        for shards in [1, 2] {
            let run = |pivot: bool| match shards {
                1 => run_bits(&mut Database::new(), build, pivot, points, init),
                _ => {
                    let dbs = (0..shards).map(|_| Database::new()).collect();
                    let mut coord = Coordinator::new(dbs).unwrap();
                    run_bits(&mut coord, build, pivot, points, init)
                }
            };
            let ((streamed, stream_sink), (hashed, hash_sink)) = (run(false), run(true));
            let ctx = format!("{model}, {shards} shard(s)");
            assert!(
                stream_sink.contains("stream aggregate"),
                "{ctx}: {stream_sink}"
            );
            assert!(hash_sink.contains("hash aggregate"), "{ctx}: {hash_sink}");
            assert_eq!(streamed, hashed, "{ctx}");
        }
    }
    both("hybrid", sqlem::build_generator, &data.points, &init);
    both(
        "k-means",
        sqlem::KmeansGenerator::new,
        &data.points,
        &kmeans_init,
    );
    both(
        "per-cluster",
        sqlem::PerClusterGenerator::new,
        &data.points,
        &init,
    );
}

/// Every iteration and every score drops and re-creates its work tables,
/// and the catalog hands each dropped table's storage to the CREATE that
/// follows: after 3 iterations and 2 scores the distance statement still
/// streams, and the loglikelihoods, parameters and scores come out bit
/// for bit the same embedded, over two shards and over the wire.
#[test]
fn recreated_work_tables_give_the_same_bits_everywhere() {
    let (n, p, k) = (1_500, 3, 3);
    let data = generate_dataset(n, p, k, 31);
    let init = initialize(&data.points, k, &InitStrategy::Random { seed: 31 });
    fn run<E: SqlExecutor>(
        exec: &mut E,
        points: &[Vec<f64>],
        init: &GmmParams,
    ) -> (Vec<u64>, Vec<usize>, String) {
        use sqlem::ParamSet;
        let config = SqlemConfig::new(init.k(), Strategy::Hybrid).with_epsilon(0.0);
        let mut session = EmSession::create(exec, &config, points[0].len()).unwrap();
        session.load_points(points).unwrap();
        session
            .initialize(&InitStrategy::Explicit(init.clone()))
            .unwrap();
        let mut bits: Vec<u64> = (0..3)
            .map(|_| session.iterate_once().unwrap().to_bits())
            .collect();
        let scores = session.scores().unwrap();
        assert_eq!(session.scores().unwrap(), scores, "a second score");
        let params = session.params().unwrap();
        let (means, cov, weights) = params.cells();
        let means = means.concat();
        let cells = means.iter().chain(&cov).chain(weights);
        bits.extend(cells.map(|v| v.to_bits()));
        let script = session.script();
        drop(session);
        (bits, scores, yd_sink(exec, &script))
    }
    let embedded = run(&mut Database::new(), &data.points, &init);
    let dbs = vec![Database::new(), Database::new()];
    let sharded = run(&mut Coordinator::new(dbs).unwrap(), &data.points, &init);
    let server = Server::bind(
        "127.0.0.1:0",
        sqlengine::SharedDatabase::default(),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let mut conn = RemoteConnection::connect(addr.as_str(), ClientConfig::default()).unwrap();
    let remote = run(&mut conn, &data.points, &init);
    drop(conn);
    handle.shutdown();
    join.join().unwrap().unwrap();

    assert!(embedded.2.contains("stream aggregate"), "{}", embedded.2);
    assert_eq!(embedded.1.len(), n);
    for (how, other) in [("2 shards", &sharded), ("remote", &remote)] {
        assert_eq!(other.0, embedded.0, "{how}: loglikelihoods and parameters");
        assert_eq!(other.1, embedded.1, "{how}: scores");
        assert!(other.2.contains("stream aggregate"), "{how}: {}", other.2);
    }
}
