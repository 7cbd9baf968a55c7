//! Regenerates the paper's synthetic-data figures and the strategy /
//! baseline comparisons.
//!
//! ```text
//! figures [fig11|fig12|fig13|strategies|baselines|ablations|all]
//!         [--quick] [--max-n N] [--out DIR]
//! ```
//!
//! `--quick` shrinks the sweeps for smoke runs (used by `cargo bench`
//! wrappers and CI); defaults reproduce the paper's parameter ranges at
//! laptop scale. CSVs land in `--out` (default `results/`).

#![forbid(unsafe_code)]

use std::path::PathBuf;

use sqlem::Strategy;
use sqlem_bench::report::Series;
use sqlem_bench::timing::time_em_iterations;

struct Opts {
    cmd: String,
    quick: bool,
    max_n: usize,
    out: PathBuf,
}

fn parse_args() -> Opts {
    let mut cmd = "all".to_string();
    let mut quick = false;
    let mut max_n = 1_000_000;
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--max-n" => {
                max_n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-n requires an integer");
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out requires a path"));
            }
            other if !other.starts_with('-') => cmd = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }
    Opts {
        cmd,
        quick,
        max_n,
        out,
    }
}

/// Fig. 11: time per iteration vs dimensionality p (k = 20, n = 10,000).
fn fig11(opts: &Opts) {
    let (k, n, iters) = if opts.quick {
        (5, 2_000, 2)
    } else {
        (20, 10_000, 3)
    };
    let ps: &[usize] = if opts.quick {
        &[2, 5, 10]
    } else {
        &[2, 5, 10, 20, 30, 40, 50]
    };
    let mut series = Series::new("p", "secs_per_iteration");
    for &p in ps {
        let t = time_em_iterations(Strategy::Hybrid, n, p, k, iters, 11, 1);
        println!("fig11: p = {p:>3} -> {:.4} s/iter", t.secs_per_iteration);
        series.push(p as f64, t.secs_per_iteration);
    }
    println!(
        "{}",
        series.to_table(&format!(
            "Figure 11 — time/iteration vs p (k = {k}, n = {n}, hybrid)"
        ))
    );
    series
        .write_csv(&opts.out.join("fig11_p_sweep.csv"))
        .unwrap();
}

/// Fig. 12: time per iteration vs clusters k (p = 20, n = 10,000).
fn fig12(opts: &Opts) {
    let (p, n, iters) = if opts.quick {
        (5, 2_000, 2)
    } else {
        (20, 10_000, 3)
    };
    let ks: &[usize] = if opts.quick {
        &[2, 5, 10]
    } else {
        &[2, 5, 10, 20, 30, 40, 50]
    };
    let mut series = Series::new("k", "secs_per_iteration");
    for &k in ks {
        let t = time_em_iterations(Strategy::Hybrid, n, p, k, iters, 12, 1);
        println!("fig12: k = {k:>3} -> {:.4} s/iter", t.secs_per_iteration);
        series.push(k as f64, t.secs_per_iteration);
    }
    println!(
        "{}",
        series.to_table(&format!(
            "Figure 12 — time/iteration vs k (p = {p}, n = {n}, hybrid)"
        ))
    );
    series
        .write_csv(&opts.out.join("fig12_k_sweep.csv"))
        .unwrap();
}

/// Fig. 13: time per iteration vs database size n (p = 10, k = 10).
fn fig13(opts: &Opts) {
    let (p, k, iters) = (10, 10, 2);
    let base: Vec<usize> = vec![
        10_000, 50_000, 100_000, 250_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
    ];
    let ns: Vec<usize> = if opts.quick {
        vec![2_000, 5_000, 10_000]
    } else {
        base.into_iter().filter(|&n| n <= opts.max_n).collect()
    };
    let mut series = Series::new("n", "secs_per_iteration");
    for &n in &ns {
        let t = time_em_iterations(Strategy::Hybrid, n, p, k, iters, 13, 1);
        println!("fig13: n = {n:>9} -> {:.4} s/iter", t.secs_per_iteration);
        series.push(n as f64, t.secs_per_iteration);
    }
    println!(
        "{}",
        series.to_table(&format!(
            "Figure 13 — time/iteration vs n (p = {p}, k = {k}, hybrid)"
        ))
    );
    series
        .write_csv(&opts.out.join("fig13_n_sweep.csv"))
        .unwrap();
}

/// §3 strategy comparison at matched sizes + the horizontal statement-
/// length blowup.
fn strategies(opts: &Opts) {
    let (n, p, k, iters) = if opts.quick {
        (1_000, 4, 3, 2)
    } else {
        (20_000, 10, 8, 3)
    };
    println!("== Strategy comparison (n = {n}, p = {p}, k = {k}) ==");
    println!(
        "{:>12} {:>16} {:>22}",
        "strategy", "secs/iteration", "longest stmt (bytes)"
    );
    let mut series = Series::new("strategy_ord", "secs_per_iteration");
    for (ord, strategy) in Strategy::ALL.iter().enumerate() {
        let config = sqlem::SqlemConfig::new(k, *strategy);
        let generator = sqlem::build_generator(&config, p);
        let longest = generator.longest_statement();
        let t = time_em_iterations(*strategy, n, p, k, iters, 42, 1);
        println!(
            "{:>12} {:>16.4} {:>22}",
            strategy.name(),
            t.secs_per_iteration,
            longest
        );
        series.push(ord as f64, t.secs_per_iteration);
    }
    // The parser-ceiling table: horizontal distance-statement size vs kp.
    println!("\n== Horizontal distance-statement size (the §3.3 ceiling) ==");
    println!(
        "{:>6} {:>6} {:>8} {:>16}",
        "p", "k", "kp", "statement bytes"
    );
    for (pp, kk) in [(10, 10), (20, 20), (50, 20), (100, 50), (100, 100)] {
        let g = sqlem::generator::HorizontalGenerator::new(sqlem::Names::new(""), pp, kk);
        println!(
            "{:>6} {:>6} {:>8} {:>16}",
            pp,
            kk,
            pp * kk,
            g.distance_statement_len()
        );
    }
    series
        .write_csv(&opts.out.join("strategy_comparison.csv"))
        .unwrap();
}

/// §4.3: SQLEM vs in-memory EM and SEM at a matched workload.
fn baselines(opts: &Opts) {
    let (n, p, k, iters) = if opts.quick {
        (2_000, 4, 3, 2)
    } else {
        (50_000, 10, 10, 3)
    };
    let data = datagen::generate_dataset(n, p, k, 99);
    let init =
        emcore::init::initialize(&data.points, k, &emcore::InitStrategy::Random { seed: 99 });

    println!("== Baselines (n = {n}, p = {p}, k = {k}, {iters} iterations) ==");
    let mut series = Series::new("method_ord", "secs_per_iteration");

    // SQLEM hybrid.
    let t = time_em_iterations(Strategy::Hybrid, n, p, k, iters, 99, 1);
    println!(
        "{:>22}: {:.4} s/iter (llh trace {:?})",
        "SQLEM hybrid",
        t.secs_per_iteration,
        last(&t.llh_history)
    );
    series.push(0.0, t.secs_per_iteration);

    // In-memory classical EM (the workstation alternative).
    let t0 = std::time::Instant::now();
    let mut params = init.clone();
    let mut mem_llh = 0.0;
    for _ in 0..iters {
        let (next, llh) = emcore::em::em_step(&params, &data.points).unwrap();
        params = next;
        mem_llh = llh;
    }
    let mem_secs = t0.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{:>22}: {:.4} s/iter (final llh {mem_llh:.1})",
        "in-memory EM", mem_secs
    );
    series.push(1.0, mem_secs);

    // SEM: one scan with compression.
    let t0 = std::time::Instant::now();
    let sem = emcore::sem::run_sem(
        &data.points,
        &emcore::sem::SemConfig {
            k,
            chunk_size: (n / 10).max(k * 10),
            compression_threshold: 0.95,
            iterations_per_chunk: 2,
            seed: 99,
        },
    );
    let sem_secs = t0.elapsed().as_secs_f64();
    println!(
        "{:>22}: {:.4} s total (one scan; {} of {} points compressed)",
        "SEM (BFR-style)", sem_secs, sem.compressed, n
    );
    series.push(2.0, sem_secs);

    // Solution quality on equal footing: loglikelihood on the full data.
    let sqlem_llh = last(&t.llh_history).unwrap_or(f64::NAN);
    let sem_llh = emcore::gaussian::loglikelihood(&sem.params, &data.points);
    println!(
        "loglikelihood — SQLEM: {sqlem_llh:.1}, in-memory EM: {mem_llh:.1}, SEM: {sem_llh:.1}"
    );
    series.write_csv(&opts.out.join("baselines.csv")).unwrap();
}

fn last(xs: &[f64]) -> Option<f64> {
    xs.last().copied()
}

/// Design ablations: classic vs fused E step, shard count.
fn ablations(opts: &Opts) {
    let (n, p, k, iters) = if opts.quick {
        (2_000, 4, 3, 2)
    } else {
        (20_000, 8, 6, 3)
    };
    println!("== Ablations (n = {n}, p = {p}, k = {k}) ==");
    let mut series = Series::new("variant_ord", "secs_per_iteration");

    // Classic vs fused (the §5 scan-count optimization).
    for (ord, fused) in [(0usize, false), (1, true)] {
        let data = datagen::generate_dataset(n, p, k, 7);
        let mut db = sqlengine::Database::new();
        let mut config = sqlem::SqlemConfig::new(k, Strategy::Hybrid)
            .with_epsilon(0.0)
            .with_max_iterations(iters);
        if fused {
            config = config.with_fused_e_step();
        }
        let mut session = sqlem::EmSession::create(&mut db, &config, p).unwrap();
        session.load_points(&data.points).unwrap();
        session
            .initialize(&emcore::InitStrategy::FromSample {
                fraction: 0.1,
                seed: 7,
                em_iterations: 3,
            })
            .unwrap();
        let run = session.run().unwrap();
        println!(
            "{:>22}: {:.4} s/iter",
            if fused {
                "hybrid (fused E)"
            } else {
                "hybrid (classic)"
            },
            run.secs_per_iteration()
        );
        series.push(ord as f64, run.secs_per_iteration());
    }

    // Shard count: embedded, then an in-process coordinator (the AMPs).
    for (ord, shards) in [(2usize, 1usize), (3, 2), (4, 4)] {
        let t = time_em_iterations(Strategy::Hybrid, n, p, k, iters, 7, shards);
        println!(
            "{:>22}: {:.4} s/iter",
            format!("hybrid, shards = {shards}"),
            t.secs_per_iteration
        );
        series.push(ord as f64, t.secs_per_iteration);
    }
    series.write_csv(&opts.out.join("ablations.csv")).unwrap();
}

fn main() {
    let opts = parse_args();
    match opts.cmd.as_str() {
        "fig11" => fig11(&opts),
        "fig12" => fig12(&opts),
        "fig13" => fig13(&opts),
        "strategies" => strategies(&opts),
        "baselines" => baselines(&opts),
        "ablations" => ablations(&opts),
        "all" => {
            fig11(&opts);
            fig12(&opts);
            fig13(&opts);
            strategies(&opts);
            baselines(&opts);
            ablations(&opts);
        }
        other => panic!(
            "unknown command {other}; expected \
             fig11|fig12|fig13|strategies|baselines|ablations|all"
        ),
    }
}
