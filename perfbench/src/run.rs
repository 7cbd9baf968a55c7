//! One run of one workload: set-up, warm-up, timed iterations (spans
//! off, then — in a traced run — spans on), score repetitions, set-up
//! repetitions; then the output checks.

use std::sync::Arc;
use std::time::Instant;

use emcore::{GmmParams, InitStrategy};
use sqlem::{EmSession, SqlemError};
use sqlengine::{Database, ExecMetrics, SqlExecutor};

use crate::calib::{Calibrator, Slowdown};
use crate::env::Env;
use crate::procstat;
use crate::span::{SpanExecutor, SpanId, SpanStore};
use crate::workload::{Budget, Workload};

/// Everything a run needs to know.
pub struct Ctx<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its points, generated from the seed by the benchmark.
    pub points: &'a [Vec<f64>],
    /// Initial parameters.
    pub init: &'a InitStrategy,
    /// The seed the points came from.
    pub seed: u64,
    /// Phase lengths.
    pub budget: Budget,
    /// Record spans and `ExecMetrics` for the per-layer numbers?
    pub traced: bool,
    /// Span store and call counters.
    pub store: Arc<SpanStore>,
}

/// One traced iteration: its phase span and the engine's own telemetry
/// for the statements it ran.
pub struct TracedIteration {
    /// The iteration's phase span.
    pub phase: SpanId,
    /// One `ExecMetrics` per statement, fetched through the executor.
    pub entries: Vec<ExecMetrics>,
}

/// What a run measured, before it is turned into named metrics.
pub struct Measured {
    /// Set-ups of throwaway sessions on fresh executors.
    pub setup_s: Samples,
    /// Timed `iterate_once` calls, spans off.
    pub iter_s: Samples,
    /// Process CPU seconds per timed iteration, spans off.
    pub iter_cpu_s: f64,
    /// Traced `iterate_once` calls (traced run only).
    pub traced_iter_s: Samples,
    /// Spans and telemetry of the traced iterations.
    pub traced: Vec<TracedIteration>,
    /// `scores()` repetitions.
    pub score_s: Samples,
    /// `VmHWM` after set-up, the warm-up iterations and one score.
    pub peak_rss_mib: f64,
    /// llh returned by each warm-up iteration.
    pub warmup_llh: Vec<f64>,
    /// Parameters after the warm-up iterations.
    pub warmup_params: GmmParams,
    /// Parameters after the last iteration.
    pub final_params: GmmParams,
    /// `iterate_once` calls made in all.
    pub iterations: usize,
    /// n-scans / pn-scans of each traced iteration, as the driver's
    /// telemetry classified them.
    pub scans: Vec<(usize, usize)>,
    /// Per-layer numbers only the live executor could give
    /// ([`Env::probe`]).
    pub probed: Vec<(&'static str, f64)>,
}

fn sql<T>(what: &str, r: Result<T, SqlemError>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Create the session's tables, load the points and write the initial
/// parameters: what a user waits for before the first iteration.
pub fn set_up<'a, E: SqlExecutor>(
    exec: &'a mut E,
    ctx: &Ctx<'_>,
) -> Result<EmSession<'a, E>, String> {
    let w = &ctx.workload;
    let mut session = {
        let _span = ctx.store.phase("create");
        sql("create", EmSession::create(exec, &w.config(), w.p))?
    };
    {
        let _span = ctx.store.phase("load");
        sql("load_points", session.load_points(ctx.points))?;
    }
    {
        let _span = ctx.store.phase("init");
        sql("initialize", session.initialize(ctx.init))?;
    }
    Ok(session)
}

/// Repeat `body` until `min` samples are in and `seconds` have passed.
/// `body` returns the seconds it measured, so it can leave its own
/// preparation and teardown out of the sample.
pub fn repeat_for(
    seconds: f64,
    min: usize,
    mut body: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || started.elapsed().as_secs_f64() < seconds {
        samples.push(body()?);
    }
    Ok(samples)
}

/// The timed samples of one phase.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall seconds per operation, as the clock read them.
    pub raw: Vec<f64>,
    /// The same divided by the machine's slowdown around each sample
    /// ([`crate::calib`]): seconds at nominal machine speed.
    pub calibrated: Vec<f64>,
    /// The slowdown each sample was divided by.
    pub slowdown: Vec<f64>,
    /// Wall seconds the phase has taken so far, kernels included.
    spent: f64,
}

/// Operations shorter than this are timed several to a sample, so the
/// calibration kernel around each sample stays a small share of the run.
const SAMPLE_S: f64 = 0.1;

/// Share of a set-up that keeps every shard busy at once, on an
/// executor that has shards. Two measurements give it: the spans of a
/// traced `sharded_retail` run show 1.3 busy threads during set-up
/// (routing the load is serial, inserting it parallel) against 1.8
/// during iterations and scores, which count as fully parallel; and
/// with one vCPU taken by a busy-looping process, set-up slowed 1.24×
/// while the two-thread kernel slowed 1.8× and the one-thread kernel
/// not at all (`PROBES.md`, probe 5). It is a property of today's
/// loader; it cannot be measured as CPU ÷ wall while sampling, because
/// a starved vCPU lowers that ratio too.
const SETUP_PARALLEL_SHARE: f64 = 0.3;

/// The samples of the four timed phases.
#[derive(Default)]
struct Phases {
    iter_s: Samples,
    traced_iter_s: Samples,
    score_s: Samples,
    setup_s: Samples,
}

impl Samples {
    /// Take calibrated samples of `op` (which returns the seconds it
    /// measured for one operation) until the phase has had the share
    /// `due` (0–1] of its `seconds` and of its `min` samples.
    /// `parallel_share` says which mix of the serial and the parallel
    /// kernel the operation feels ([`Slowdown::at`]).
    fn round(
        &mut self,
        calibrator: &mut Calibrator,
        parallel_share: f64,
        due: f64,
        seconds: f64,
        min: usize,
        mut op: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        let min = (min as f64 * due).ceil() as usize;
        let mut before = calibrator.slowdown()?;
        while self.raw.len() < min || self.spent < seconds * due {
            let started = Instant::now();
            let (mut secs, mut ops) = (op()?, 1.0);
            // Batch only when there is time to: `--quick` takes single ops.
            while secs < SAMPLE_S.min(seconds) {
                secs += op()?;
                ops += 1.0;
            }
            let after = calibrator.slowdown()?;
            let slowdown = Slowdown::mean(before, after).at(parallel_share);
            self.raw.push(secs / ops);
            self.calibrated.push(secs / ops / slowdown);
            self.slowdown.push(slowdown);
            self.spent += started.elapsed().as_secs_f64();
            before = after;
        }
        Ok(())
    }
}

/// Wall seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Run the workload's phases against executors opened by `env`: one
/// session set up, warmed up, iterated (spans off, then — in a traced
/// run — spans on) and scored; then set-ups of throwaway sessions on
/// fresh executors.
pub fn measure<V: Env>(env: &mut V, ctx: &Ctx<'_>) -> Result<Measured, String> {
    let store = &ctx.store;
    let budget = &ctx.budget;
    let mut calibrator = Calibrator::new(ctx.workload.executor)?;
    store.set_recording(ctx.traced);

    let mut exec = SpanExecutor::driver(env.open(store)?, store);
    let mut session = set_up(&mut exec, ctx)?;
    let script = session.script();
    session.executor().learn_purposes(&script);

    let mut warmup_llh = Vec::new();
    for _ in 0..budget.warmup {
        let _span = store.phase("warmup");
        warmup_llh.push(sql("warm-up iteration", session.iterate_once())?);
    }
    let warmup_params = sql("read parameters", session.params())?;
    // The footprint of a fixed amount of work — set-up, the warm-up
    // iterations, one score — read before the phases whose length
    // depends on the clock: memory that grows with the iteration count
    // would otherwise make a faster run look bigger.
    let warmup_scores = {
        let _span = store.phase("warmup");
        sql("scores", session.scores())?
    };
    if warmup_scores.len() != ctx.points.len() {
        return Err("scores() did not return one cluster per point".into());
    }
    let peak_rss_mib = procstat::peak_rss_mib().ok_or("no /proc/self/status: needs Linux")?;

    // The run goes round its timed phases `rounds` times, a share of each
    // phase's seconds per round, so that every metric's samples are
    // spread over the whole run: a spell of heavy interference from the
    // host (they last seconds) then spoils a minority of each metric's
    // samples, which a median shrugs off, instead of all of one's.
    let mut phases = Phases::default();
    let mut iterations = 0usize;
    let mut iter_cpu_s = 0.0;
    let mut traced = Vec::new();
    for round in 1..=budget.rounds {
        let due = round as f64 / budget.rounds as f64;

        // The end-to-end iterations: spans off, telemetry off.
        store.set_recording(false);
        phases.iter_s.round(
            &mut calibrator,
            1.0,
            due,
            budget.iter_s,
            budget.iter_min,
            || {
                // CPU is read around the iteration alone, so the
                // calibration kernel's does not count.
                let cpu = || procstat::cpu_seconds().ok_or("no /proc/self/stat: needs Linux");
                let cpu0 = cpu()?;
                let (secs, llh) = timed(|| session.iterate_once());
                iter_cpu_s += cpu()? - cpu0;
                sql("iteration", llh)?;
                iterations += 1;
                Ok(secs)
            },
        )?;

        // The same iterations again with one span per executor call and
        // the engine's per-statement telemetry switched on.
        if ctx.traced {
            store.set_recording(true);
            sql("enable telemetry", session.enable_telemetry())?;
            let (seconds, min) = (budget.iter_s, budget.iter_min);
            phases
                .traced_iter_s
                .round(&mut calibrator, 1.0, due, seconds, min, || {
                    let cursor = session
                        .executor()
                        .inner()
                        .metrics_len()
                        .map_err(|e| format!("metrics cursor: {e}"))?;
                    let span = store.phase("iteration");
                    let (secs, llh) = timed(|| session.iterate_once());
                    let phase = span.id().expect("recording is on");
                    drop(span);
                    sql("traced iteration", llh)?;
                    let entries = session
                        .executor()
                        .inner()
                        .metrics_since(cursor)
                        .map_err(|e| format!("fetch telemetry: {e}"))?;
                    traced.push(TracedIteration { phase, entries });
                    Ok(secs)
                })?;
            sql("disable telemetry", session.disable_telemetry())?;
        }

        // The product's output: the segmentation, read back in rid
        // order. With no iteration in between it may not change.
        let mut first_scores: Option<Vec<usize>> = None;
        phases.score_s.round(
            &mut calibrator,
            1.0,
            due,
            budget.score_s,
            budget.score_min,
            || {
                let span = store.phase("score");
                let (secs, scores) = timed(|| session.scores());
                drop(span);
                let scores = sql("scores", scores)?;
                match &first_scores {
                    None => first_scores = Some(scores),
                    Some(first) if *first == scores => {}
                    Some(_) => return Err("scores() changed between repetitions".into()),
                }
                Ok(secs)
            },
        )?;

        // Set-up of a throwaway session on a fresh executor: what a user
        // waits for before the first iteration.
        let (seconds, min) = (budget.setup_s, budget.setup_min);
        phases.setup_s.round(
            &mut calibrator,
            SETUP_PARALLEL_SHARE,
            due,
            seconds,
            min,
            || {
                let span = store.phase("setup");
                let t0 = Instant::now();
                let mut exec = SpanExecutor::driver(env.open(store)?, store);
                drop(set_up(&mut exec, ctx)?);
                let secs = t0.elapsed().as_secs_f64();
                drop(span);
                env.close(exec.into_inner())?;
                Ok(secs)
            },
        )?;
    }
    store.set_recording(false);
    let scans = session
        .iteration_reports()
        .iter()
        .map(|r| (r.n_scans, r.pn_scans))
        .collect();
    let final_params = sql("read parameters", session.params())?;
    let iter_cpu_s = iter_cpu_s / iterations as f64;

    let iterations = budget.warmup + iterations + traced.len();
    drop(session);
    let probed = if ctx.traced {
        env.probe(exec.inner(), ctx)?
    } else {
        Vec::new()
    };
    env.close(exec.into_inner())?;

    Ok(Measured {
        setup_s: phases.setup_s,
        iter_s: phases.iter_s,
        iter_cpu_s,
        traced_iter_s: phases.traced_iter_s,
        traced,
        score_s: phases.score_s,
        peak_rss_mib,
        warmup_llh,
        warmup_params,
        final_params,
        iterations,
        scans,
        probed,
    })
}

/// Every parameter of the model, in one fixed order.
fn flat(p: &GmmParams) -> impl Iterator<Item = f64> + '_ {
    p.means
        .iter()
        .flatten()
        .chain(&p.cov)
        .chain(&p.weights)
        .copied()
}

fn bits_equal(a: &GmmParams, b: &GmmParams) -> bool {
    flat(a).map(f64::to_bits).eq(flat(b).map(f64::to_bits))
}

/// Largest difference between corresponding parameters, relative to the
/// larger magnitude of the two (or to 1 for values below it).
fn max_relative_diff(a: &GmmParams, b: &GmmParams) -> f64 {
    flat(a)
        .zip(flat(b))
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0))
        .fold(0.0, f64::max)
}

/// The output checks. Returns the failures (empty = correct).
///
/// * bit-identity (the repo's contract across transports and shard
///   counts): the warm-up iterations' llh and the parameters after them
///   equal an embedded in-memory run on the same points;
/// * the final parameters agree with native `emcore` EM run for the
///   same number of iterations from the same initialization;
/// * the hybrid strategy's cost model, as the engine counted it: 2k+3
///   scans of n-row tables and one of the pn-row table per iteration.
pub fn check(ctx: &Ctx<'_>, m: &Measured) -> Result<Vec<String>, String> {
    let w = &ctx.workload;
    let mut failures = Vec::new();

    if w.executor != crate::workload::Executor::Embedded {
        // The store stopped recording when the measurement ended, and a
        // bare `Database` is not counted among the run's executor calls.
        let mut db = Database::new();
        let mut session = set_up(&mut db, ctx)?;
        for (i, llh) in m.warmup_llh.iter().enumerate() {
            let reference = sql("reference iteration", session.iterate_once())?;
            if reference.to_bits() != llh.to_bits() {
                failures.push(format!(
                    "llh of iteration {} is {llh:e}, embedded reference {reference:e}",
                    i + 1
                ));
            }
        }
        let reference = sql("reference parameters", session.params())?;
        if !bits_equal(&reference, &m.warmup_params) {
            failures.push(format!(
                "parameters after {} iterations differ from the embedded reference",
                m.warmup_llh.len()
            ));
        }
    }

    let mut native = emcore::init::initialize(ctx.points, w.k, ctx.init);
    for _ in 0..m.iterations {
        native = emcore::em::em_step(&native, ctx.points)
            .map_err(|e| format!("native EM: {e}"))?
            .0;
    }
    let diff = max_relative_diff(&native, &m.final_params);
    if diff.is_nan() || diff > 1e-6 {
        failures.push(format!(
            "final parameters differ from native EM by {diff:e} (relative) after {} iterations",
            m.iterations
        ));
    }

    if w.strategy == sqlem::Strategy::Hybrid {
        let expected = (2 * w.k + 3, 1);
        if let Some(bad) = m.scans.iter().find(|s| **s != expected) {
            failures.push(format!(
                "a traced iteration made {} n-scans and {} pn-scans, expected {} and {}",
                bad.0, bad.1, expected.0, expected.1
            ));
        }
    }
    Ok(failures)
}
