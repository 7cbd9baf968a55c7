//! SQL K-means — the paper's §2.2 simplification of SQLEM (`W = 1/k,
//! R = I`, hard assignments) — validated against the in-memory Lloyd's
//! algorithm on the same data and initialization.
//!
//! ```text
//! cargo run --release --example kmeans_sql
//! ```

use datagen::generate_dataset;
use sqlem::{EmSession, KmeansGenerator, SqlemConfig, Strategy};
use sqlengine::Database;

fn main() {
    let (n, p, k) = (5_000, 4, 5);
    let data = generate_dataset(n, p, k, 21);

    // Seed centroids from k spread-out data points.
    let step = n / k;
    let init: Vec<Vec<f64>> = (0..k).map(|j| data.points[j * step].clone()).collect();

    let mut db = Database::new();
    let config = SqlemConfig::new(k, Strategy::Hybrid)
        .with_epsilon(1e-6)
        .with_max_iterations(20);
    let mut session =
        EmSession::create_with(&mut db, &config, p, KmeansGenerator::new).expect("create");
    session.load_points(&data.points).expect("load");
    session
        .set_params(&KmeansGenerator::params(init.clone()))
        .expect("init");
    let sql_run = session.run().expect("run");
    println!(
        "SQL K-means: {} iterations, converged = {}, final SSE = {:.1}",
        sql_run.iterations,
        sql_run.outcome == emcore::EmOutcome::Converged,
        sql_run.llh_history.last().unwrap()
    );

    let mem_run = emcore::kmeans::kmeans_from(&data.points, init, 20);
    println!(
        "in-memory K-means: {} iterations, inertia = {:.1}",
        mem_run.iterations, mem_run.inertia
    );

    // Same algorithm, same start → same centroids.
    let mut worst: f64 = 0.0;
    for (a, b) in sql_run.params.means.iter().zip(&mem_run.centroids) {
        for (x, y) in a.iter().zip(b) {
            worst = worst.max((x - y).abs());
        }
    }
    println!("max centroid difference SQL vs memory: {worst:.2e}");
    assert!(worst < 1e-9);

    let assignments = session.scores().expect("assignments");
    let purity = emcore::compare::purity(&data.labels, &assignments, k);
    println!("purity vs generating clusters: {purity:.3}");
}
