//! The four workloads: which executor, which strategy, which data, how
//! long each phase runs.
//!
//! Sizes are chosen so that one iteration costs tenths of a second (or,
//! on `wire_manystmt`, so that one run holds hundreds of
//! iterations): every timed phase then lasts seconds and holds enough
//! samples for a quartile, which is what makes two runs of the same
//! build agree.

use datagen::retail::{retail_dataset, RetailConfig, RETAIL_K, RETAIL_P};
use datagen::Dataset;
use emcore::{GmmParams, InitStrategy};
use sqlem::{SqlemConfig, Strategy};

/// What the driver talks to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// An in-memory `Database` in the benchmark's process.
    Embedded,
    /// `RemoteConnection` → `Server` thread → in-memory `Database`.
    Wire,
    /// `Coordinator` over [`SHARDS`] in-memory `Database` shards.
    Sharded,
}

/// Shards behind the coordinator: one per core of the 2-core box the
/// bounds were measured on, so the run never has more busy threads than
/// cores.
pub const SHARDS: usize = 2;

/// Which generator makes the points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `datagen::retail`: the §4.1 nine-segment market-basket shape.
    Retail,
    /// `datagen::generate_dataset`: Gaussian lattice plus 20 % noise.
    Mixture,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// What the driver talks to.
    pub executor: Executor,
    /// SQL generation strategy.
    pub strategy: Strategy,
    /// Point generator.
    pub data: Data,
    /// Points.
    pub n: usize,
    /// Dimensions.
    pub p: usize,
    /// Clusters.
    pub k: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hybrid_retail",
        executor: Executor::Embedded,
        strategy: Strategy::Hybrid,
        data: Data::Retail,
        n: 8_000,
        p: RETAIL_P,
        k: RETAIL_K,
    },
    Workload {
        name: "vertical_join",
        executor: Executor::Embedded,
        strategy: Strategy::Vertical,
        data: Data::Mixture,
        n: 3_000,
        p: 6,
        k: 9,
    },
    Workload {
        name: "wire_manystmt",
        executor: Executor::Wire,
        strategy: Strategy::Hybrid,
        data: Data::Mixture,
        n: 200,
        p: 4,
        k: 40,
    },
    Workload {
        name: "sharded_retail",
        executor: Executor::Sharded,
        strategy: Strategy::Hybrid,
        data: Data::Retail,
        n: 8_000,
        p: RETAIL_P,
        k: RETAIL_K,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at a size that finishes in a fraction of a
    /// second (`--quick`): every code path and check, no useful timing.
    pub fn quick(self) -> Workload {
        Workload {
            n: match self.executor {
                Executor::Wire => 60,
                _ => 240,
            },
            // The retail generator has its nine segments at any size.
            k: match self.data {
                Data::Retail => self.k,
                Data::Mixture => self.k.min(6),
            },
            ..self
        }
    }

    /// The points and the mixture they were drawn from, a function of
    /// `seed` only.
    pub fn dataset(&self, seed: u64) -> Dataset {
        match self.data {
            Data::Retail => retail_dataset(&RetailConfig { n: self.n, seed }),
            Data::Mixture => datagen::generate_dataset(self.n, self.p, self.k, seed),
        }
    }

    /// Driver configuration: the iteration loop is the benchmark's, so
    /// ε is 0 and nothing ends a run early.
    pub fn config(&self) -> SqlemConfig {
        SqlemConfig::new(self.k, self.strategy)
            .with_epsilon(0.0)
            .with_prefix("pb_")
    }

    /// Initial parameters: the generating mixture itself (§3.1's
    /// "user-supplied approximate solution"), with its per-cluster
    /// variances pooled into the model's one diagonal R.
    ///
    /// The cost of an iteration depends on where the model is (how many
    /// densities underflow, how groups hash): from §3.1's sample-based
    /// start one `hybrid_retail` run's iterations cost 0.45, 0.46, 0.48,
    /// 0.50, 0.60, … 0.74, 0.76, 0.65, 0.63 s in that order. The timed
    /// phase lasts a fixed time, not a fixed count, so how far along
    /// that curve a run gets, and with it any statistic of its samples,
    /// would depend on how fast the program is — the thing being
    /// measured. Started at the truth the model stays there and every
    /// iteration of every run does statistically the same work, at the
    /// cost level of the long tail of a real run.
    pub fn init(&self, data: &Dataset) -> InitStrategy {
        let clusters = &data.spec.clusters;
        let pooled = (0..self.p)
            .map(|d| clusters.iter().map(|c| c.weight * c.cov[d]).sum())
            .collect();
        InitStrategy::Explicit(GmmParams::new(
            clusters.iter().map(|c| c.mean.clone()).collect(),
            pooled,
            clusters.iter().map(|c| c.weight).collect(),
        ))
    }
}

/// How long each phase runs and the fewest samples it may hold. A
/// sample is one operation, or several when they are short.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Times the run goes round its timed phases; every round gives each
    /// phase an equal share of its seconds and minimum samples.
    pub rounds: usize,
    /// Seconds of set-up repetitions.
    pub setup_s: f64,
    /// Fewest set-up repetitions.
    pub setup_min: usize,
    /// Untimed iterations before the timed ones (the first prepares the
    /// script; the first two are compared with the reference).
    pub warmup: usize,
    /// Seconds of timed iterations.
    pub iter_s: f64,
    /// Fewest timed iterations.
    pub iter_min: usize,
    /// Seconds of `scores()` repetitions.
    pub score_s: f64,
    /// Fewest `scores()` repetitions.
    pub score_min: usize,
    /// Seconds given to each direct per-layer measurement (traced run).
    pub micro_s: f64,
    /// Fewest repetitions of the script parse.
    pub parse_min: usize,
    /// Rows of the bulk load the wire codec is measured on.
    pub bulk_rows: usize,
}

impl Budget {
    /// Split `seconds` of measurement over the phases. An untraced run
    /// spends it all on the three end-to-end phases; a traced run runs
    /// the iterations twice (spans off, then on) and keeps a share for
    /// the direct per-layer measurements, so each phase is shorter.
    pub fn split(seconds: f64, traced: bool) -> Budget {
        if traced {
            Budget {
                rounds: 3,
                setup_s: 0.08 * seconds,
                setup_min: 3,
                warmup: 2,
                iter_s: 0.25 * seconds,
                iter_min: 6,
                score_s: 0.04 * seconds,
                score_min: 3,
                micro_s: 0.05 * seconds,
                parse_min: 200,
                bulk_rows: 20_000,
            }
        } else {
            Budget {
                rounds: 5,
                setup_s: 0.20 * seconds,
                setup_min: 9,
                warmup: 2,
                iter_s: 0.60 * seconds,
                iter_min: 14,
                score_s: 0.20 * seconds,
                score_min: 9,
                micro_s: 0.0,
                parse_min: 0,
                bulk_rows: 0,
            }
        }
    }

    /// `--quick`: the fewest samples that still exercise every path.
    pub fn quick() -> Budget {
        Budget {
            rounds: 1,
            setup_s: 0.0,
            setup_min: 2,
            warmup: 2,
            iter_s: 0.0,
            iter_min: 3,
            score_s: 0.0,
            score_min: 2,
            micro_s: 0.0,
            parse_min: 3,
            bulk_rows: 500,
        }
    }
}
