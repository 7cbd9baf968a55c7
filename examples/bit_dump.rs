//! Every result bit of a short EM run, per strategy and per executor —
//! the dump a change that must not move a bit is checked with.
//!
//! For hybrid, hybrid with the fused E step, vertical and horizontal —
//! and for the two extension models, K-means (§2.2) and per-cluster
//! covariances (§2.1) — on an embedded `Database` and through a
//! `Coordinator` over 2 shards, it prints
//! the loglikelihood (K-means: SSE) history, the means, the covariance
//! and the weights as `f64::to_bits` hex, and a hash of the scores; the
//! two extensions also print how the run ended. The data is the §4.1
//! retail shape (p = 6, k = 9) from a sample-based start (K-means: from
//! k spread data points), so the early iterations' responsibilities
//! underflow (§2.5) and the M step's sums span 1e-310 … 1.
//!
//! Two uses. Across builds: run it at the parent commit and at the
//! change and `diff` the two outputs — on one machine they must be
//! byte-identical (across machines `libm` may differ, so no golden
//! copy is checked in). Within one build: the two executors' sections
//! of a strategy must be equal; the example checks that itself and
//! exits non-zero otherwise, which is what `ci.sh` runs it for.
//!
//! ```text
//! cargo run --release --example bit_dump
//! ```

use std::process::ExitCode;

use datagen::retail::{retail_dataset, RetailConfig, RETAIL_K, RETAIL_P};
use emcore::init::InitStrategy;
use sqlem::{
    build_generator, EmSession, Generator, KmeansGenerator, ParamSet, PerClusterGenerator,
    SqlemConfig, Strategy,
};
use sqlengine::{Database, SqlExecutor};
use sqlwire::Coordinator;

/// Kept at the size earlier builds dumped, so a dump still diffs
/// against theirs.
const N: usize = 4500;
const SEED: u64 = 20000518;
const ITERATIONS: usize = 5;

fn hex(values: &[f64]) -> String {
    let words: Vec<String> = values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    words.join(" ")
}

/// Which model a section runs: the paper's EM under the configured
/// strategy, or one of its two extensions.
#[derive(Clone, Copy)]
enum Model {
    Paper,
    Kmeans,
    PerCluster,
}

/// One section: everything the run produced, bit for bit.
fn dump<E: SqlExecutor>(
    exec: &mut E,
    model: Model,
    config: &SqlemConfig,
    points: &[Vec<f64>],
) -> String {
    let from_sample = InitStrategy::FromSample {
        fraction: 0.1,
        seed: SEED,
        em_iterations: 3,
    };
    match model {
        Model::Paper => run(exec, config, build_generator, &from_sample, points, false),
        Model::Kmeans => {
            let spread = (0..RETAIL_K).map(|j| points[j * N / RETAIL_K].clone());
            let init = InitStrategy::Explicit(KmeansGenerator::params(spread.collect()));
            run(exec, config, KmeansGenerator::new, &init, points, true)
        }
        Model::PerCluster => run(
            exec,
            config,
            PerClusterGenerator::new,
            &from_sample,
            points,
            true,
        ),
    }
}

fn run<E: SqlExecutor, G: Generator>(
    exec: &mut E,
    config: &SqlemConfig,
    build: impl Fn(&SqlemConfig, usize) -> G,
    init: &InitStrategy,
    points: &[Vec<f64>],
    with_outcome: bool,
) -> String {
    let mut session = EmSession::create_with(exec, config, RETAIL_P, build).expect("create");
    session.load_points(points).expect("load");
    session.initialize(init).expect("initialize");
    let run = session.run().expect("run");
    let scores = session.scores().expect("scores");
    // FNV-1a over the labels.
    let hash = scores.iter().fold(0xcbf29ce484222325u64, |h, &s| {
        (h ^ s as u64).wrapping_mul(0x100000001b3)
    });
    let (means, cov, weights) = run.params.cells();
    let mut out = format!(
        "llh {}\nmeans {}\ncov {}\nweights {}\nscores {hash:016x} ({} rows)\n",
        hex(&run.llh_history),
        hex(&means.concat()),
        hex(&cov),
        hex(weights),
        scores.len(),
    );
    if with_outcome {
        out.push_str(&format!("outcome {:?}\n", run.outcome));
    }
    out
}

fn main() -> ExitCode {
    let data = retail_dataset(&RetailConfig { n: N, seed: SEED });
    let base = |strategy| {
        SqlemConfig::new(RETAIL_K, strategy)
            .with_epsilon(0.0)
            .with_max_iterations(ITERATIONS)
    };
    let strategies = [
        ("hybrid", Model::Paper, base(Strategy::Hybrid)),
        (
            "hybrid-fused",
            Model::Paper,
            base(Strategy::Hybrid).with_fused_e_step(),
        ),
        ("vertical", Model::Paper, base(Strategy::Vertical)),
        ("horizontal", Model::Paper, base(Strategy::Horizontal)),
        ("kmeans", Model::Kmeans, base(Strategy::Hybrid)),
        ("per-cluster", Model::PerCluster, base(Strategy::Hybrid)),
    ];
    let mut equal = true;
    for &(name, model, ref config) in &strategies {
        let sections = [
            (
                "embedded",
                dump(&mut Database::new(), model, config, &data.points),
            ),
            (
                "coordinator/2",
                dump(
                    &mut Coordinator::new(vec![Database::new(), Database::new()])
                        .expect("coordinator"),
                    model,
                    config,
                    &data.points,
                ),
            ),
        ];
        for (executor, section) in &sections {
            print!("== {name} {executor}\n{section}");
            if *section != sections[0].1 {
                eprintln!("bit_dump: {name}: {executor} differs from embedded");
                equal = false;
            }
        }
    }
    if equal {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
