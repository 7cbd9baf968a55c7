//! Timed EM runs: the paper's "time per iteration" metric.

use datagen::generate_dataset;
use emcore::init::InitStrategy;
use sqlem::{EmSession, SqlemConfig, Strategy};
use sqlengine::{Database, SqlExecutor};
use sqlwire::Coordinator;

/// Result of a timed run.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Mean seconds per iteration (excluding load and initialization,
    /// matching §4.2's benchmarking of the iteration itself).
    pub secs_per_iteration: f64,
    /// Iterations actually timed.
    pub iterations: usize,
    /// Loglikelihood trace.
    pub llh_history: Vec<f64>,
}

/// Generate a `(n, p, k)` dataset (20% noise, §4.2), run `iterations` EM
/// iterations under `strategy`, and report the mean time per iteration.
///
/// `shards` is where the SQL runs: 1 is one embedded `Database`, more
/// an in-process `Coordinator` over that many (the paper's AMPs).
pub fn time_em_iterations(
    strategy: Strategy,
    n: usize,
    p: usize,
    k: usize,
    iterations: usize,
    seed: u64,
    shards: usize,
) -> TimedRun {
    let data = generate_dataset(n, p, k, seed);
    let config = SqlemConfig::new(k, strategy)
        .with_epsilon(0.0)
        .with_max_iterations(iterations);
    if shards <= 1 {
        return timed_run(&mut Database::new(), &config, p, &data.points, seed);
    }
    let dbs = (0..shards).map(|_| Database::new()).collect();
    let mut coordinator = Coordinator::new(dbs).expect("coordinator assembly failed");
    timed_run(&mut coordinator, &config, p, &data.points, seed)
}

fn timed_run<E: SqlExecutor>(
    db: &mut E,
    config: &SqlemConfig,
    p: usize,
    points: &[Vec<f64>],
    seed: u64,
) -> TimedRun {
    let mut session = EmSession::create(db, config, p).expect("session creation failed");
    session.load_points(points).expect("load failed");
    // Sample-based initialization (§3.1) keeps the run numerically sane
    // at every sweep size; its cost is excluded from the timing.
    session
        .initialize(&InitStrategy::FromSample {
            fraction: 0.1,
            seed,
            em_iterations: 3,
        })
        .expect("init failed");
    let run = session.run().expect("EM run failed");
    TimedRun {
        secs_per_iteration: run.secs_per_iteration(),
        iterations: run.iterations,
        llh_history: run.llh_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_reports_requested_iterations() {
        let t = time_em_iterations(Strategy::Hybrid, 300, 2, 2, 3, 7, 1);
        assert_eq!(t.iterations, 3);
        assert_eq!(t.llh_history.len(), 3);
        assert!(t.secs_per_iteration > 0.0);
    }

    #[test]
    fn all_strategies_complete_a_timed_run() {
        for strategy in Strategy::ALL {
            let t = time_em_iterations(strategy, 200, 2, 2, 2, 3, 1);
            assert!(t.secs_per_iteration > 0.0, "{strategy}");
        }
    }

    #[test]
    fn a_sharded_run_matches_the_embedded_one() {
        let embedded = time_em_iterations(Strategy::Hybrid, 300, 2, 2, 3, 7, 1);
        let sharded = time_em_iterations(Strategy::Hybrid, 300, 2, 2, 3, 7, 2);
        let bits = |t: &TimedRun| {
            t.llh_history
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&embedded), bits(&sharded));
    }
}
