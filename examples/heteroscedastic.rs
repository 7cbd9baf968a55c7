//! Per-cluster covariances in SQL — the §2.1 extension ("not hard to
//! extend this work to handle a different Σ for each cluster") — on data
//! the shared-R model cannot describe: one tight cluster, one diffuse
//! cluster.
//!
//! ```text
//! cargo run --release --example heteroscedastic
//! ```

use datagen::normal::Normal;
use emcore::emfull::FullParams;
use emcore::init::InitStrategy;
use emcore::GmmParams;
use prng::StdRng;
use sqlem::{EmSession, PerClusterGenerator, SqlemConfig, Strategy};
use sqlengine::Database;

fn main() {
    // A tight service cluster (σ ≈ 0.5) and a diffuse one (σ ≈ 10).
    let mut rng = StdRng::seed_from_u64(3);
    let mut normal = Normal::new();
    let mut pts = Vec::new();
    for _ in 0..2_000 {
        pts.push(vec![
            normal.sample_with(&mut rng, 0.0, 0.5),
            normal.sample_with(&mut rng, 0.0, 0.5),
        ]);
        pts.push(vec![
            normal.sample_with(&mut rng, 30.0, 10.0),
            normal.sample_with(&mut rng, -20.0, 6.0),
        ]);
    }
    println!(
        "{} points: tight blob at (0,0), diffuse blob at (30,-20)\n",
        pts.len()
    );

    // Shared global R (the paper's base model).
    let mut db1 = Database::new();
    let shared_cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(30);
    let mut shared = EmSession::create(&mut db1, &shared_cfg, 2).unwrap();
    shared.load_points(&pts).unwrap();
    shared
        .initialize(&InitStrategy::Explicit(GmmParams::new(
            vec![vec![5.0, 0.0], vec![25.0, -15.0]],
            vec![100.0, 100.0],
            vec![0.5, 0.5],
        )))
        .unwrap();
    let shared_run = shared.run().unwrap();
    println!(
        "shared-R SQLEM:   llh = {:>12.1}, pooled variances = {:?}",
        shared_run.llh_history.last().unwrap(),
        shared_run
            .params
            .cov
            .iter()
            .map(|v| (v * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // Per-cluster R (the extension).
    let mut db2 = Database::new();
    let full_cfg = SqlemConfig::new(2, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(30);
    let mut full =
        EmSession::create_with(&mut db2, &full_cfg, 2, PerClusterGenerator::new).unwrap();
    full.load_points(&pts).unwrap();
    full.set_params(&FullParams {
        means: vec![vec![5.0, 0.0], vec![25.0, -15.0]],
        covs: vec![vec![100.0, 100.0], vec![100.0, 100.0]],
        weights: vec![0.5, 0.5],
    })
    .unwrap();
    let full_run = full.run().unwrap();
    println!(
        "per-cluster SQLEM: llh = {:>12.1}",
        full_run.llh_history.last().unwrap()
    );
    for (j, (m, c)) in full_run
        .params
        .means
        .iter()
        .zip(&full_run.params.covs)
        .enumerate()
    {
        println!(
            "  cluster {j}: mean ≈ ({:.1}, {:.1}), variances ≈ ({:.2}, {:.2})",
            m[0], m[1], c[0], c[1]
        );
    }
    println!(
        "\nΔllh (per-cluster − shared) = {:.1} — the free Σ_j model fits \
         heteroscedastic data strictly better,\nat the robustness cost §2.5 \
         warns about (per-cluster covariances collapse to zero more easily).",
        full_run.llh_history.last().unwrap() - shared_run.llh_history.last().unwrap()
    );
}
