//! Static plan analysis of a strategy's full generated script (the
//! tent-pole behind [`SqlemConfig::preflight`]).
//!
//! [`analyze_strategy`] assembles the exact statement sequence a
//! session will execute — DDL, post-load seeding, a parameter write,
//! one EM iteration (E step, M step, llh read), scoring, cleanup —
//! and hands it to the engine's abstract interpreter
//! ([`sqlengine::check_script`]) together with symbolic descriptions
//! of the bulk-loaded point tables ("`z` has `n` rows with `n`
//! distinct `rid`"). Nothing executes; the result is a
//! [`PlanReport`] proving, before the first byte of DDL:
//!
//! * **the §3.3 cost model** — per-iteration driver scans as
//!   closed-form polynomials in `(n, p, k)`, classified into n-scans
//!   and pn-scans with the same threshold the runtime telemetry uses,
//!   and compared against the generator's closed form
//!   ([`Generator::expected_scans`]: `2k+3` n-scans + 1 pn-scan for the
//!   hybrid, and so on);
//! * **table lifecycle** — no work-table leaks (the checkpoint table is
//!   declared persistent), no use-before-create, no read-after-drop;
//! * **expression safety** — parser-capacity overflow (the §3.3
//!   horizontal failure mode), division-by-zero reachability through
//!   the §2.5 guard idioms, non-finite literals.
//!
//! The driver runs the analysis automatically when
//! [`SqlemConfig::preflight`] is on and, when the horizontal strategy
//! over-runs a capacity limit, falls back to the hybrid strategy,
//! recording a [`FallbackDecision`].
//!
//! [`SqlemConfig::preflight`]: crate::SqlemConfig::preflight

use emcore::GmmParams;
use sqlengine::{
    check_script, AnalyzeErrorKind, Card, CheckEnv, DerivedScan, Diagnostic, DiagnosticKind,
    ScriptReport, ScriptSpec, ScriptStmt, SqlExecutor, TableLoad,
};

use crate::config::{SqlemConfig, Strategy};
use crate::error::SqlemError;
use crate::generator::{build_generator, Generator, Stmt};
use crate::naming::Names;
use crate::params::ParamSet;

/// Placeholder row count used when sizing `post_load` statements before
/// any data is loaded (matches `Generator::longest_statement`).
pub(crate) const PLACEHOLDER_N: usize = 1_000_000_000;

/// How one driver scan counts toward the §3.3 cost model, under the
/// same threshold regime as the runtime telemetry
/// ([`crate::telemetry::scan_threshold`]): parameter-table scans are
/// free, `n`-row scans are n-scans, anything super-linear in `n` is a
/// pn-scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanClass {
    /// Below the threshold — a parameter table, not counted.
    Free,
    /// Exactly `n` rows.
    N,
    /// More than `n` rows (`pn`, `kpn`, …).
    Pn,
}

impl std::fmt::Display for ScanClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScanClass::Free => "free",
            ScanClass::N => "n-scan",
            ScanClass::Pn => "pn-scan",
        })
    }
}

/// Classify a symbolic scan cardinality for concrete `(p, k)`,
/// leaving `n` symbolic.
///
/// Precondition: `n ≥ pk+1` (the telemetry threshold; any real data
/// set the cost model applies to satisfies it, since below that the
/// "scans" are all parameter-table sized anyway). Under it the
/// runtime threshold `min(n, pk+1).max(k+1).max(p+1)` is exactly
/// `pk+1`, so:
///
/// * degree ≥ 2 in `n`, or degree 1 with a lead coefficient > 1 or a
///   constant offset → more than `n` rows → pn-scan;
/// * exactly `n` (lead 1, no offset) → n-scan;
/// * constants ≥ `pk+1` → n-scan (requires `n ≥` that constant);
///   smaller constants → free.
pub fn classify_scan(rows: &Card, p: usize, k: usize) -> ScanClass {
    let poly = rows.poly_in_n(p, k);
    match poly.len() {
        0 => ScanClass::Free,
        1 => {
            if poly[0] >= (p * k + 1) as i128 {
                ScanClass::N
            } else {
                ScanClass::Free
            }
        }
        2 if poly[1] == 1 && poly[0] == 0 => ScanClass::N,
        _ => ScanClass::Pn,
    }
}

/// The derived per-iteration cost: every steady-state driver scan
/// with its classification.
#[derive(Debug, Clone)]
pub struct IterationCost {
    /// Scans of exactly `n` rows.
    pub n_scans: usize,
    /// Scans super-linear in `n`.
    pub pn_scans: usize,
    /// Every scan of one steady iteration, in order, classified.
    pub scans: Vec<(DerivedScan, ScanClass)>,
}

/// Outcome of comparing the derived cost against the paper's closed
/// form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostCheck {
    /// Derivation matches the closed form exactly.
    Verified {
        /// Derived (= closed form) n-scans per iteration.
        n_scans: usize,
        /// Derived (= closed form) pn-scans per iteration.
        pn_scans: usize,
    },
    /// Derivation disagrees with the closed form — a generator (or
    /// cost-model) bug; the script is rejected.
    Mismatch {
        /// `(n-scans, pn-scans)` the closed form predicts.
        expected: (usize, usize),
        /// `(n-scans, pn-scans)` the interpreter derived.
        derived: (usize, usize),
    },
    /// Comparison not performed (degenerate dimensions, unsteady
    /// iteration, or errors elsewhere in the script).
    Skipped {
        /// Why.
        reason: String,
    },
}

impl std::fmt::Display for CostCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostCheck::Verified { n_scans, pn_scans } => write!(
                f,
                "verified: {n_scans} n-scan(s) + {pn_scans} pn-scan(s) per iteration \
                 matches the closed form"
            ),
            CostCheck::Mismatch { expected, derived } => write!(
                f,
                "MISMATCH: derived {} n-scan(s) + {} pn-scan(s), closed form expects \
                 {} n-scan(s) + {} pn-scan(s)",
                derived.0, derived.1, expected.0, expected.1
            ),
            CostCheck::Skipped { reason } => write!(f, "skipped: {reason}"),
        }
    }
}

/// One reason a [`PlanReport`] is not [`ok`](PlanReport::ok).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// An error-severity diagnostic of the script analysis.
    Script(Diagnostic),
    /// The derived per-iteration cost contradicts the closed form
    /// ([`CostCheck::Mismatch`]).
    CostMismatch {
        /// `(n-scans, pn-scans)` the closed form predicts.
        expected: (usize, usize),
        /// `(n-scans, pn-scans)` the interpreter derived.
        derived: (usize, usize),
    },
}

impl PlanError {
    /// True for a capacity overflow — statement bytes (the §3.3
    /// horizontal failure mode) or a complexity ceiling (term count,
    /// depth, column width) — the class a leaner
    /// strategy can fix. Everything else (lifecycle violations,
    /// mutation-classification drift, provable division by zero,
    /// cost-model contradictions) is a generator bug, not a sizing
    /// problem.
    pub fn is_capacity(&self) -> bool {
        match self {
            PlanError::Script(d) => match &d.kind {
                DiagnosticKind::TooLong { .. } => true,
                DiagnosticKind::Semantic(e) => {
                    matches!(e.kind, AnalyzeErrorKind::TooComplex { .. })
                }
                _ => false,
            },
            PlanError::CostMismatch { .. } => false,
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Script(d) => {
                write!(f, "{:?}: {}", d.purpose, d.kind)?;
                if let Some(pos) = d.pos {
                    write!(f, " (byte {pos})")?;
                }
                Ok(())
            }
            PlanError::CostMismatch { expected, derived } => write!(
                f,
                "\"per-iteration cost\": derived {} n-scan(s) + {} pn-scan(s) per iteration, \
                 closed form expects {} + {} — generator or cost-model bug",
                derived.0, derived.1, expected.0, expected.1
            ),
        }
    }
}

/// Why and how the driver changed strategy before running (§3.6: the
/// hybrid exists precisely because horizontal over-runs parser limits).
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackDecision {
    /// The strategy the configuration asked for.
    pub from: Strategy,
    /// The strategy actually used.
    pub to: Strategy,
    /// The capacity finding that forced the switch.
    pub reason: String,
}

impl std::fmt::Display for FallbackDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "falling back from {} to {}: {}",
            self.from, self.to, self.reason
        )
    }
}

/// Everything the static analysis proved about one generator's script.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The configured strategy.
    pub strategy: Strategy,
    /// The generator analyzed ([`Generator::name`]).
    pub model: &'static str,
    /// Whether the E step was generated fused.
    pub fused: bool,
    /// Dimensionality.
    pub p: usize,
    /// Cluster count.
    pub k: usize,
    /// The engine's statement-length cap the script was checked
    /// against.
    pub max_statement_len: usize,
    /// The underlying abstract-interpretation report.
    pub script: ScriptReport,
    /// Per-iteration scan derivation, when the iteration span reached
    /// a steady state.
    pub cost: Option<IterationCost>,
    /// Closed-form comparison outcome.
    pub cost_check: CostCheck,
}

impl PlanReport {
    /// True when the script carries no error-severity diagnostic and
    /// the cost model was not contradicted.
    pub fn ok(&self) -> bool {
        self.script.ok() && !matches!(self.cost_check, CostCheck::Mismatch { .. })
    }

    /// Everything that makes the report not [`ok`](Self::ok), in script
    /// order, then the cost check.
    pub fn errors(&self) -> Vec<PlanError> {
        let mut errors: Vec<PlanError> = self
            .script
            .errors()
            .cloned()
            .map(PlanError::Script)
            .collect();
        if let CostCheck::Mismatch { expected, derived } = self.cost_check {
            errors.push(PlanError::CostMismatch { expected, derived });
        }
        errors
    }

    /// One-line verdict for logs and the CLI `lint` subcommand.
    pub fn summary(&self) -> String {
        let longest = self.script.statements.iter().max_by_key(|s| s.bytes);
        let errors = self.errors().len();
        let verdict = if errors == 0 {
            "ok".to_string()
        } else {
            format!("{errors} finding(s)")
        };
        format!(
            "{}: {} statement(s), longest {} byte(s) ({:?}, cap {}), \
             max {} term(s) — {}",
            self.model,
            self.script.statements.len(),
            longest.map_or(0, |s| s.bytes),
            longest.map_or("", |s| s.purpose.as_str()),
            self.max_statement_len,
            self.script
                .statements
                .iter()
                .map(|s| s.terms)
                .max()
                .unwrap_or(0),
            verdict
        )
    }

    /// Deterministic rendering for the CLI `analyze` subcommand and
    /// the golden snapshots.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let fused = if self.fused { " (fused E step)" } else { "" };
        let _ = writeln!(out, "plan: {} p={} k={}{fused}", self.model, self.p, self.k);
        out.push_str(&self.script.render());
        if let Some(cost) = &self.cost {
            let _ = writeln!(out, "per-iteration driver scans (steady state):");
            for (ev, class) in &cost.scans {
                let _ = writeln!(
                    out,
                    "  [{:>3}] {:<40} {} = {} -> {}",
                    ev.stmt, ev.purpose, ev.table, ev.rows, class
                );
            }
            let _ = writeln!(
                out,
                "derived cost: {} n-scan(s) + {} pn-scan(s) per iteration",
                cost.n_scans, cost.pn_scans
            );
        }
        let _ = writeln!(out, "cost model: {}", self.cost_check);
        out
    }
}

fn extend(statements: &mut Vec<ScriptStmt>, batch: Vec<Stmt>) {
    statements.extend(batch.into_iter().map(|s| ScriptStmt::new(s.purpose, s.sql)));
}

/// Assemble the full symbolic script a session will execute with
/// `generator` on `p`-dimensional data: DDL, symbolic bulk load,
/// post-load seeding, a parameter write, one iteration (declared as
/// the steady-state span), scoring, and the driver's cleanup drops.
pub fn script_spec<G: Generator + ?Sized>(
    generator: &G,
    config: &SqlemConfig,
    p: usize,
) -> ScriptSpec {
    let names = Names::new(&config.table_prefix);
    let mut statements: Vec<ScriptStmt> = Vec::new();
    extend(&mut statements, generator.create_tables());

    // The bulk load happens through the driver's insert path, not the
    // script; model it symbolically right after the DDL.
    let load_at = statements.len();
    let n = Card::n();
    let mut loads = Vec::new();
    let (wide, long) = generator.layouts();
    if wide {
        loads.push((
            load_at,
            TableLoad {
                table: names.z(),
                rows: n.clone(),
                distinct: vec![("rid".into(), n.clone())],
            },
        ));
    }
    if long {
        loads.push((
            load_at,
            TableLoad {
                table: names.y(),
                rows: n.mul(&Card::p()),
                distinct: vec![("rid".into(), n.clone()), ("v".into(), Card::p())],
            },
        ));
    }

    extend(&mut statements, generator.post_load(PLACEHOLDER_N));
    // A shape-correct placeholder parameter set: the rendered literals'
    // lengths barely vary, so any valid values size the write statements.
    let dummy = GmmParams::new(
        vec![vec![0.0; p]; config.k],
        vec![1.0; p],
        vec![1.0 / config.k as f64; config.k],
    );
    extend(
        &mut statements,
        generator.write_params(&G::Params::from_gmm(dummy)),
    );

    // One EM iteration: E step, M step, llh read — exactly what
    // `EmSession::iterate_once` executes in a loop.
    let iter_start = statements.len();
    extend(&mut statements, generator.e_step());
    extend(&mut statements, generator.m_step());
    let mut llh = ScriptStmt::new("read llh", generator.llh_sql());
    llh.expected_mutating = Some(false);
    statements.push(llh);
    let iteration = Some(iter_start..statements.len());

    extend(&mut statements, generator.score_step());

    // The driver's `cleanup()`: drop every table the session may have
    // created. Checkpoint tables are deliberately excluded — they are
    // declared persistent instead.
    for t in names.all(config.k) {
        statements.push(ScriptStmt::new(
            format!("cleanup: drop {t}"),
            format!("DROP TABLE IF EXISTS {t}"),
        ));
    }

    ScriptSpec {
        statements,
        loads,
        iteration,
        persistent_prefixes: vec![format!("{}ckpt", config.table_prefix.to_ascii_lowercase())],
    }
}

/// The check environment as the target executor reports it: its
/// catalog, its analyzer limits, its parser cap. Against a remote
/// server these are the server's own values, so the analysis models
/// exactly the parser that will see the script.
pub fn check_env(db: &mut dyn SqlExecutor) -> Result<CheckEnv, SqlemError> {
    Ok(CheckEnv {
        catalog: db
            .catalog_snapshot()
            .map_err(|e| SqlemError::from_sql("preflight catalog snapshot", e))?,
        limits: db.analyze_limits(),
        max_statement_len: db.max_statement_len(),
    })
}

/// Statically analyze the full script the configured strategy will
/// generate for `p`-dimensional data, without executing anything.
///
/// The executor is only *queried* (catalog snapshot, capacity
/// limits); the `Err` case is a transport failure
/// fetching them.
pub fn analyze_strategy(
    db: &mut dyn SqlExecutor,
    config: &SqlemConfig,
    p: usize,
) -> Result<PlanReport, SqlemError> {
    analyze_generator(db, &build_generator(config, p), config, p)
}

/// [`analyze_strategy`] for any generator built from `config`.
pub fn analyze_generator<G: Generator + ?Sized>(
    db: &mut dyn SqlExecutor,
    generator: &G,
    config: &SqlemConfig,
    p: usize,
) -> Result<PlanReport, SqlemError> {
    Ok(analyze_in_env(&check_env(db)?, generator, config, p))
}

/// [`analyze_generator`] against an explicit environment (no executor
/// needed — useful for tests and offline analysis).
pub fn analyze_in_env<G: Generator + ?Sized>(
    env: &CheckEnv,
    generator: &G,
    config: &SqlemConfig,
    p: usize,
) -> PlanReport {
    let spec = script_spec(generator, config, p);
    let script = check_script(&spec, env);
    let k = config.k;

    let cost = script.iteration.as_ref().filter(|it| it.steady).map(|it| {
        let scans: Vec<(DerivedScan, ScanClass)> = it
            .scans
            .iter()
            .map(|ev| (ev.clone(), classify_scan(&ev.rows, p, k)))
            .collect();
        IterationCost {
            n_scans: scans.iter().filter(|(_, c)| *c == ScanClass::N).count(),
            pn_scans: scans.iter().filter(|(_, c)| *c == ScanClass::Pn).count(),
            scans,
        }
    });

    // Compare against the closed form only when nothing else is wrong
    // (capacity errors must stay classified as capacity so fallback
    // still triggers) and the dimensions are non-degenerate (at p = 1
    // or k = 1 several work tables collapse below the threshold and
    // the closed forms legitimately do not apply).
    let cost_check = if !script.ok() {
        CostCheck::Skipped {
            reason: "script has errors".into(),
        }
    } else if p < 2 || k < 2 {
        CostCheck::Skipped {
            reason: format!("closed form needs p >= 2 and k >= 2 (p={p}, k={k})"),
        }
    } else if let Some(cost) = &cost {
        let expected = generator.expected_scans();
        if (cost.n_scans, cost.pn_scans) == expected {
            CostCheck::Verified {
                n_scans: cost.n_scans,
                pn_scans: cost.pn_scans,
            }
        } else {
            CostCheck::Mismatch {
                expected,
                derived: (cost.n_scans, cost.pn_scans),
            }
        }
    } else {
        CostCheck::Skipped {
            reason: "no steady-state iteration derivation".into(),
        }
    };

    PlanReport {
        strategy: config.strategy,
        model: generator.name(),
        fused: generator.fused(),
        p,
        k,
        max_statement_len: env.max_statement_len,
        script,
        cost,
        cost_check,
    }
}

/// Analyze all three strategies for one `(p, k)` — the workhorse of the
/// CLI `lint` and `analyze` subcommands and a convenient sweep primitive.
pub fn analyze_all(
    db: &mut dyn SqlExecutor,
    config: &SqlemConfig,
    p: usize,
) -> Result<Vec<PlanReport>, SqlemError> {
    let env = check_env(db)?;
    Ok(Strategy::ALL
        .iter()
        .map(|&strategy| {
            let mut cfg = config.clone();
            cfg.strategy = strategy;
            analyze_in_env(&env, &build_generator(&cfg, p), &cfg, p)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::Database;

    fn analyze(strategy: Strategy, fused: bool, p: usize, k: usize) -> PlanReport {
        let mut db = Database::new();
        let mut config = SqlemConfig::new(k, strategy);
        config.fused_e_step = fused;
        analyze_strategy(&mut db, &config, p).unwrap()
    }

    #[test]
    fn classify_scan_regimes() {
        let (p, k) = (4, 3);
        assert_eq!(classify_scan(&Card::n(), p, k), ScanClass::N);
        assert_eq!(
            classify_scan(&Card::n().mul(&Card::p()), p, k),
            ScanClass::Pn
        );
        assert_eq!(
            classify_scan(&Card::n().add(&Card::constant(1)), p, k),
            ScanClass::Pn
        );
        assert_eq!(classify_scan(&Card::constant(12), p, k), ScanClass::Free);
        assert_eq!(classify_scan(&Card::constant(13), p, k), ScanClass::N);
        assert_eq!(classify_scan(&Card::zero(), p, k), ScanClass::Free);
        // At p = 1 a "pn" table is literally n rows.
        assert_eq!(
            classify_scan(&Card::n().mul(&Card::p()), 1, k),
            ScanClass::N
        );
    }

    #[test]
    fn hybrid_cost_model_verifies() {
        let report = analyze(Strategy::Hybrid, false, 4, 3);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(
            report.cost_check,
            CostCheck::Verified {
                n_scans: 2 * 3 + 3,
                pn_scans: 1
            },
            "{}",
            report.render()
        );
    }

    #[test]
    fn fused_hybrid_saves_one_n_scan() {
        let report = analyze(Strategy::Hybrid, true, 4, 3);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(
            report.cost_check,
            CostCheck::Verified {
                n_scans: 2 * 3 + 2,
                pn_scans: 1
            },
            "{}",
            report.render()
        );
    }

    #[test]
    fn horizontal_cost_model_verifies() {
        let report = analyze(Strategy::Horizontal, false, 4, 3);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(
            report.cost_check,
            CostCheck::Verified {
                n_scans: 2 * 3 + 4,
                pn_scans: 0
            },
            "{}",
            report.render()
        );
    }

    #[test]
    fn vertical_cost_model_verifies() {
        let report = analyze(Strategy::Vertical, false, 4, 3);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(
            report.cost_check,
            CostCheck::Verified {
                n_scans: 1,
                pn_scans: 9
            },
            "{}",
            report.render()
        );
    }

    #[test]
    fn degenerate_dimensions_skip_the_closed_form() {
        let report = analyze(Strategy::Hybrid, false, 1, 3);
        assert!(report.script.ok(), "{}", report.render());
        assert!(
            matches!(report.cost_check, CostCheck::Skipped { .. }),
            "{:?}",
            report.cost_check
        );
    }

    #[test]
    fn small_problems_are_clean_in_every_strategy() {
        let mut db = Database::new();
        let config = SqlemConfig::new(3, Strategy::Hybrid);
        for report in analyze_all(&mut db, &config, 4).unwrap() {
            assert!(
                report.ok() && report.errors().is_empty(),
                "{} should be clean for p=4 k=3: {:?}",
                report.strategy,
                report.errors()
            );
            assert!(report.script.statements.len() > 5);
            let s = report.summary();
            assert!(s.starts_with(&format!("{}:", report.strategy)), "{s}");
            assert!(s.ends_with("ok"), "{s}");
        }
    }

    #[test]
    fn horizontal_overflow_detected_statically() {
        let mut db = Database::new();
        db.set_max_statement_len(16 * 1024);
        let (p, k) = (40, 25); // kp = 1000, the paper's ceiling
        let config = SqlemConfig::new(k, Strategy::Horizontal);
        let report = analyze_strategy(&mut db, &config, p).unwrap();
        assert!(!report.ok());
        let errors = report.errors();
        assert!(errors.iter().all(PlanError::is_capacity), "{errors:?}");
        assert!(errors.iter().any(|e| matches!(
            e,
            PlanError::Script(d) if matches!(d.kind, DiagnosticKind::TooLong { .. })
        )));
        assert!(report.summary().ends_with("finding(s)"));
        // Hybrid fits the same problem under the same cap.
        let hybrid = SqlemConfig::new(k, Strategy::Hybrid);
        assert!(analyze_strategy(&mut db, &hybrid, p).unwrap().ok());
    }

    #[test]
    fn term_limit_overflow_classified_as_capacity() {
        let mut db = Database::new();
        db.config_mut().limits.max_terms = 64;
        let config = SqlemConfig::new(20, Strategy::Horizontal);
        let report = analyze_strategy(&mut db, &config, 20).unwrap();
        assert!(!report.ok());
        let errors = report.errors();
        assert!(errors.iter().any(|e| matches!(
            e,
            PlanError::Script(Diagnostic { kind: DiagnosticKind::Semantic(a), .. })
                if matches!(a.kind, AnalyzeErrorKind::TooComplex { .. })
        )));
        assert!(errors.iter().all(PlanError::is_capacity), "{errors:?}");
    }

    #[test]
    fn cost_mismatch_is_not_a_capacity_error() {
        // A cost-model contradiction must be a non-capacity error so
        // auto-fallback does NOT treat it as a sizing problem.
        let mut report = analyze(Strategy::Hybrid, false, 4, 3);
        report.cost_check = CostCheck::Mismatch {
            expected: (9, 1),
            derived: (8, 1),
        };
        assert!(!report.ok());
        let errors = report.errors();
        assert_eq!(errors.len(), 1);
        assert!(!errors[0].is_capacity());
    }

    #[test]
    fn iteration_span_is_steady_for_every_strategy() {
        for &strategy in &Strategy::ALL {
            let report = analyze(strategy, false, 3, 2);
            let iter = report.script.iteration.as_ref().unwrap();
            assert!(iter.steady, "{strategy}: {}", report.render());
            assert!(!iter.scans.is_empty());
        }
    }
}
