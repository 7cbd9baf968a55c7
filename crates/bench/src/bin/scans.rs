//! Verifies the §3.5 cost model interactively: runs one steady-state
//! hybrid iteration with per-statement metrics on and prints every table
//! pass the engine reported, then checks the "2k+3 scans of n-row tables
//! plus one scan of a pn-row table" claim for several (n, p, k), both as
//! recounted here from the raw [`sqlengine::ExecMetrics`] and as the
//! driver's [`sqlem::IterationReport`] classified them.

#![forbid(unsafe_code)]

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use sqlem::{scan_threshold, EmSession, SqlemConfig, Strategy};
use sqlengine::Database;

fn main() {
    for (n, p, k) in [
        (2_000usize, 4usize, 3usize),
        (5_000, 6, 5),
        (10_000, 10, 10),
    ] {
        let data = generate_dataset(n, p, k, 1);
        let mut db = Database::new();
        let config = SqlemConfig::new(k, Strategy::Hybrid)
            .with_epsilon(0.0)
            .with_max_iterations(3);
        let mut session = EmSession::create(&mut db, &config, p).unwrap();
        session.load_points(&data.points).unwrap();
        session
            .initialize(&InitStrategy::Random { seed: 1 })
            .unwrap();
        session.iterate_once().unwrap(); // warm-up: all work tables exist
        session.enable_telemetry().unwrap();
        let from = session.database().metrics().len();
        session.iterate_once().unwrap();

        let scans: Vec<_> = session.database().metrics().entries()[from..]
            .iter()
            .flat_map(|m| &m.scans)
            .collect();
        println!("== hybrid iteration, n = {n}, p = {p}, k = {k} ==");
        println!("{:>10} {:>10} {:>8}", "table", "rows", "role");
        for e in &scans {
            println!(
                "{:>10} {:>10} {:>8}",
                e.table,
                e.rows,
                if e.build { "build" } else { "driver" }
            );
        }
        let threshold = scan_threshold(n, p, k);
        let n_scans = scans
            .iter()
            .filter(|e| !e.build && e.rows >= threshold && e.rows <= n)
            .count();
        let pn_scans = scans.iter().filter(|e| !e.build && e.rows > n).count();
        println!(
            "driver scans of n-row tables: {n_scans} (paper: 2k+3 = {}), \
             of pn-row tables: {pn_scans} (paper: 1)",
            2 * k + 3
        );
        assert_eq!(n_scans, 2 * k + 3);
        assert_eq!(pn_scans, 1);

        // The driver's own classification of the measured iteration
        // must agree with the recount above.
        let report = session
            .iteration_reports()
            .last()
            .expect("telemetry was enabled");
        println!("telemetry: {}\n", report.summary());
        assert_eq!(report.n_scans, n_scans);
        assert_eq!(report.pn_scans, pn_scans);
    }
    println!("§3.5 scan-count claim verified.");
}
