//! The repo benchmark: one workload per process.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!           [--quick] [--out-dir DIR]
//! ```
//!
//! `--trace 0` (the default) prints the end-to-end metrics, measured
//! with spans and telemetry off. `--trace 1` prints the per-layer
//! metrics and writes the spans to `DIR/trace_<workload>.jsonl`. Both
//! check the run's outputs first and exit non-zero if a check fails.
//! The last line of standard output is the JSON object the driver reads.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sqlem_perfbench::env::{Embedded, Env, Sharded, Wire};
use sqlem_perfbench::layers;
use sqlem_perfbench::report::{self, Metric, END_TO_END, PER_LAYER};
use sqlem_perfbench::run::{check, measure, Ctx, Measured};
use sqlem_perfbench::span::SpanStore;
use sqlem_perfbench::stats::median;
use sqlem_perfbench::workload::{Budget, Executor, Workload, WORKLOADS};

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: WORKLOADS[0],
        seed: 20000518,
        seconds: 20.0,
        traced: false,
        quick: false,
        out_dir: PathBuf::from("perfbench/.run"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or(format!(
                    "unknown workload {name}; one of: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => opts.quick = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload NAME is required")?;
    Ok(opts)
}

/// The four end-to-end values, each with the samples behind it.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        Metric::timing("setup_s", &m.setup_s),
        Metric::timing("iter_s", &m.iter_s),
        Metric::timing("score_s", &m.score_s),
        Metric {
            name: "peak_rss_mb",
            value: m.peak_rss_mib,
            note: String::new(),
        },
    ]
}

/// Measure, check, and (for a traced run) take the direct per-layer
/// measurements. Returns the metrics and the check failures.
fn run<V: Env>(
    env: &mut V,
    ctx: &Ctx<'_>,
    wal_dir: &Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let m = measure(env, ctx)?;
    let failures = check(ctx, &m)?;
    if !ctx.traced {
        return Ok((end_to_end(&m), failures));
    }
    let spans = ctx.store.spans();
    let mut numbers = layers::from_trace(ctx, &m, &spans)?;
    numbers.extend(m.probed.iter().copied());
    numbers.extend(layers::parse(ctx)?);
    numbers.extend(layers::native(ctx, median(&m.iter_s.raw))?);
    if ctx.workload.executor == Executor::Wire {
        numbers.extend(layers::durable(ctx, wal_dir)?);
    }
    println!("# engine time per traced iteration, by statement purpose:");
    for line in layers::top_statements(ctx, &m, 6) {
        println!("{line}");
    }
    let note = format!(
        "{} traced, {} untraced iterations",
        m.traced.len(),
        m.iterations - m.traced.len()
    );
    let metrics = numbers
        .into_iter()
        .map(|(name, value)| Metric {
            name,
            value,
            note: note.clone(),
        })
        .collect();
    Ok((metrics, failures))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = if opts.quick {
        opts.workload.quick()
    } else {
        opts.workload
    };
    let data = workload.dataset(opts.seed);
    let init = workload.init(&data);
    let ctx = Ctx {
        workload,
        points: &data.points,
        init: &init,
        seed: opts.seed,
        budget: if opts.quick {
            Budget::quick()
        } else {
            Budget::split(opts.seconds, opts.traced)
        },
        traced: opts.traced,
        store: SpanStore::new(),
    };
    // The WAL probe's data directory: one per process, so concurrent
    // runs cannot collide, and inside `--out-dir`, so a run writes
    // nowhere else.
    let wal_dir = opts
        .out_dir
        .join(format!("wal-{}-{}", workload.name, std::process::id()));
    let outcome = match workload.executor {
        Executor::Embedded => run(&mut Embedded, &ctx, &wal_dir),
        Executor::Wire => run(&mut Wire::default(), &ctx, &wal_dir),
        Executor::Sharded => run(&mut Sharded, &ctx, &wal_dir),
    };
    let (measured, failures) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };

    let catalogue = if opts.traced { PER_LAYER } else { END_TO_END };
    let metrics = match report::fill(catalogue, &measured) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    if opts.traced {
        let path = opts.out_dir.join(format!("trace_{}.jsonl", workload.name));
        let written = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                ctx.store.write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            });
        if let Err(e) = written {
            eprintln!("benchmark: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for failure in &failures {
        eprintln!("benchmark: {}: CHECK FAILED: {failure}", workload.name);
    }

    let (attempted, failed) = (ctx.store.attempted(), ctx.store.failed());
    println!(
        "workload {} seed {} n {} p {} k {} cores {}",
        workload.name,
        opts.seed,
        workload.n,
        workload.p,
        workload.k,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    print!("{}", report::render_text(catalogue, &metrics));
    println!("ops_attempted {attempted}  ops_failed {failed}");
    let correct = failures.is_empty() && failed == 0;
    println!(
        "{}",
        report::render_json(catalogue, &metrics, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
