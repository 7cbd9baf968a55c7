//! Shows how the engine executes each generated E/M-step statement —
//! `EXPLAIN` output for the hybrid strategy's SELECT bodies. This
//! substantiates the paper's §1.4 claim that the generated statements
//! "can be easily optimized and executed in parallel": every join is a
//! hash join on RID/v or a broadcast of a tiny parameter table. The
//! driver table of each plan is read in 1024-row batches of typed
//! columns; a join marked `(primary-key index)` probes the index its
//! build table maintains anyway (`z.rid = yx.rid`, `y.v = cr.v`), one
//! marked `(<n> distinct build keys)` hashes the build table for the
//! statement.
//!
//! ```text
//! cargo run --release --example explain_plans
//! ```

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use sqlem::{EmSession, SqlemConfig, Strategy};
use sqlengine::Database;

fn main() {
    let (n, p, k) = (1_000, 3, 2);
    let data = generate_dataset(n, p, k, 1);
    let mut db = Database::new();
    let config = SqlemConfig::new(k, Strategy::Hybrid).with_max_iterations(1);
    let mut session = EmSession::create(&mut db, &config, p).unwrap();
    session.load_points(&data.points).unwrap();
    session
        .initialize(&InitStrategy::Random { seed: 1 })
        .unwrap();
    // One iteration so every work table is populated.
    session.iterate_once().unwrap();
    let script = session.script();
    drop(session);

    for stmt in script {
        // EXPLAIN applies to the SELECT bodies of INSERT…SELECT.
        let Some(select_at) = stmt.sql.find("SELECT") else {
            continue;
        };
        if !stmt.sql.starts_with("INSERT") {
            continue;
        }
        let select_sql = &stmt.sql[select_at..];
        match db.execute(&format!("EXPLAIN {select_sql}")) {
            Ok(plan) => {
                println!("-- {}", stmt.purpose);
                for row in &plan.rows {
                    println!("   {}", row[0]);
                }
                println!();
            }
            Err(e) => println!("-- {} (not explainable: {e})\n", stmt.purpose),
        }
    }
}
