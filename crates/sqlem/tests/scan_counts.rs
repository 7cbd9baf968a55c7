//! §3 cost-model checks at the `sqlem` crate level, counted from the
//! engine's per-statement [`ExecMetrics`]: what the horizontal and
//! vertical strategies pay in table passes, how the statement count
//! grows with `k`, and that the fused E step is the same mathematics.
//! (The hybrid `2k+3` + 1 and the fused `2k+2` counts themselves are
//! asserted by the workspace-level `tests/cost_model.rs`.)
//!
//! The paper's metric counts each join once by its streamed (driver)
//! input, so only driver scans are classified: `threshold..=n` rows is
//! an `n`-scan, more is a `pn`-scan. Parameter tables have at most
//! max(k, p) rows and fall below the threshold.

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use emcore::GmmParams;
use sqlem::{scan_threshold, EmSession, SqlemConfig, Strategy};
use sqlengine::{Database, ExecMetrics};

/// One measured steady-state iteration (after a warm-up iteration, so
/// every work table exists with n rows): its `(n-scans, pn-scans)` and
/// the parameters it arrived at.
fn measured_iteration(config: &SqlemConfig, n: usize, p: usize) -> ((usize, usize), GmmParams) {
    let k = config.k;
    let data = generate_dataset(n, p, k, 42);
    let mut db = Database::new();
    let mut session = EmSession::create(&mut db, config, p).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 1 })
        .unwrap();
    session.iterate_once().unwrap();
    session.enable_telemetry().unwrap();
    let from = session.database().metrics().len();
    session.iterate_once().unwrap();

    let threshold = scan_threshold(n, p, k);
    let driver_rows: Vec<usize> = session.database().metrics().entries()[from..]
        .iter()
        .flat_map(ExecMetrics::driver_scans)
        .map(|s| s.rows)
        .collect();
    let n_scans = driver_rows
        .iter()
        .filter(|&&rows| rows >= threshold && rows <= n)
        .count();
    let pn_scans = driver_rows.iter().filter(|&&rows| rows > n).count();
    ((n_scans, pn_scans), session.params().unwrap())
}

fn config(k: usize, strategy: Strategy) -> SqlemConfig {
    SqlemConfig::new(k, strategy)
        .with_epsilon(0.0)
        .with_max_iterations(3)
}

#[test]
fn horizontal_iteration_has_no_pn_scan() {
    // The horizontal strategy reads only wide n-row tables: 2k+3 n-row
    // scans like the hybrid (same statement shapes, distances read Z
    // instead of the vertical Y), and nothing bigger.
    let (n, p, k) = (500, 4, 3);
    let ((n_scans, pn_scans), _) = measured_iteration(&config(k, Strategy::Horizontal), n, p);
    assert_eq!(n_scans, 2 * k + 3 + 1, "2k+3 plus the distance scan of Z");
    assert_eq!(pn_scans, 0);
}

#[test]
fn vertical_iteration_pays_multiple_big_scans() {
    // §3.4: the vertical strategy flows through pn- and kn-row tables;
    // count how many driver scans exceed n rows and require it to be
    // well above the hybrid's single one.
    let (n, p, k) = (500, 4, 3);
    let ((_, pn_scans), _) = measured_iteration(&config(k, Strategy::Vertical), n, p);
    assert!(
        pn_scans >= 4,
        "vertical should scan >n-row tables repeatedly, got {pn_scans}"
    );
}

#[test]
fn hybrid_statement_count_is_linear_in_k() {
    // The iteration issues O(k) statements: each extra cluster adds one
    // CR transpose, one C update and one RK update.
    let count_stmts = |k: usize| {
        let config = SqlemConfig::new(k, Strategy::Hybrid);
        let g = sqlem::build_generator(&config, 4);
        g.e_step().len() + g.m_step().len()
    };
    let c3 = count_stmts(3);
    let c6 = count_stmts(6);
    let c12 = count_stmts(12);
    assert_eq!(c6 - c3, 3 * 3, "each extra cluster adds 3 statements");
    assert_eq!(c12 - c6, 6 * 3);
}

#[test]
fn fused_hybrid_matches_classic() {
    // §5 future work implemented: fusing YP+YX drops one n-row scan and
    // is identical mathematics — the two variants agree to FP noise.
    let (n, p, k) = (500, 4, 3);
    let classic = config(k, Strategy::Hybrid);
    let ((classic_scans, _), classic_params) = measured_iteration(&classic, n, p);
    let ((fused_scans, _), fused_params) = measured_iteration(&classic.with_fused_e_step(), n, p);
    assert_eq!(fused_scans + 1, classic_scans);
    assert!(emcore::compare::max_param_diff(&classic_params, &fused_params) < 1e-9);
}
