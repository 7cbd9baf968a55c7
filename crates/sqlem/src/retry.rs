//! The one statement runner: [`Retrying`] wraps any [`SqlExecutor`] and
//! re-submits transiently-failed calls per a [`RetryPolicy`].
//!
//! The paper's deployment model (§1.4) is a thin client driving a remote
//! DBMS: individual statements can fail transiently (deadlock victim,
//! timeout, connection blip) without the overall computation being in
//! any trouble. Because the engine guarantees atomic statement semantics
//! (a failed statement leaves its target untouched — see
//! `docs/ROBUSTNESS.md`), re-submitting the identical statement is
//! always safe, and for a transient failure it is the right move.
//!
//! A [`RetryPolicy`] says how many times to re-submit and how long to
//! wait between attempts: exponential backoff (`base · 2^attempt`,
//! capped) with deterministic seed-derived jitter so two clients with
//! different seeds don't stampede in lockstep — and so tests replay
//! exactly.
//!
//! Only errors classified transient by [`sqlengine::Error::is_transient`]
//! are retried; organic engine errors (parse, analysis, arithmetic,
//! duplicate key, …) are deterministic and would only reproduce.

use std::time::Duration;

use sqlengine::{
    Error, ExecMetrics, Limits, PartialAggResult, PrepareError, PreparedId, QueryResult, Result,
    SqlExecutor, SymbolicCatalog, Value,
};

/// Retry budget and backoff schedule for one SQLEM session.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per statement, including the first (so `1` means
    /// "never retry"). Must be ≥ 1.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter stream (deterministic across runs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

impl RetryPolicy {
    /// Policy with `max_attempts` total attempts and a small default
    /// backoff (1 ms base, 100 ms cap).
    pub fn new(max_attempts: usize) -> Self {
        assert!(max_attempts >= 1, "max_attempts must be at least 1");
        RetryPolicy {
            max_attempts,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
            seed: 0,
        }
    }

    /// Policy that retries without sleeping — for tests and in-process
    /// engines where backoff buys nothing.
    pub fn immediate(max_attempts: usize) -> Self {
        RetryPolicy::new(max_attempts).with_base_delay(Duration::ZERO)
    }

    /// Builder: set the base backoff.
    pub fn with_base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// Builder: set the backoff ceiling.
    pub fn with_max_delay(mut self, d: Duration) -> Self {
        self.max_delay = d;
        self
    }

    /// Builder: set the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Backoff before retry number `attempt` (0-based: the delay after
    /// the first failure is `delay_for(0)`): `base · 2^attempt ·
    /// uniform[1, 2)`, capped at `max_delay`. A pure function of
    /// `(self, attempt)` — no hidden state — so schedules replay
    /// exactly.
    pub fn delay_for(&self, attempt: usize) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16) as u32);
        let capped = exp.min(self.max_delay);
        // Jitter in [1.0, 2.0), drawn from (seed, attempt) — replayable.
        let jitter = 1.0
            + unit_f64(splitmix64(
                self.seed ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F),
            ));
        capped.mul_f64(jitter).min(self.max_delay)
    }

    /// Whether a failure on 0-based attempt `attempt` leaves budget for
    /// another try.
    pub fn allows_retry(&self, attempt: usize) -> bool {
        attempt + 1 < self.max_attempts
    }
}

/// An executor that re-submits each transiently-failed call to `inner`
/// per `policy`, and is itself a [`SqlExecutor`] — so everything handed
/// it (the driver, the loader, checkpointing, parameter read-back) is
/// retried at *statement* granularity without knowing about retry.
///
/// Sound only because the engine's statement semantics are atomic: a
/// transiently-failed statement left no effects, so the re-run executes
/// against exactly the state the first attempt saw (docs/ROBUSTNESS.md).
/// The granularity matters against a remote executor: re-issuing the
/// *same* call replays under its original sequence number
/// (exactly-once), whereas retrying anything coarser would re-issue
/// earlier, already-acknowledged statements under fresh ones.
///
/// It makes no executor call of its own except
/// [`SqlExecutor::note_statement_retry`] before a re-run, which tells
/// an armed fault injector the next statement is the *same* one (shared
/// sequence number and firing budgets). Infallible calls pass straight
/// through, and with no policy so does everything else.
pub struct Retrying<'a, E: SqlExecutor> {
    inner: &'a mut E,
    policy: Option<RetryPolicy>,
    retries: usize,
}

impl<'a, E: SqlExecutor> Retrying<'a, E> {
    /// Wrap `inner`; `None` never retries.
    pub fn new(inner: &'a mut E, policy: Option<RetryPolicy>) -> Self {
        Retrying {
            inner,
            policy,
            retries: 0,
        }
    }

    /// Re-submissions performed so far.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        self.inner
    }

    /// The wrapped executor, mutably (calls made through it are not
    /// retried).
    pub fn inner_mut(&mut self) -> &mut E {
        self.inner
    }

    /// The retry loop: `call` until it succeeds, fails non-`transient`ly
    /// or the policy's attempts are spent.
    fn run<T, Err>(
        &mut self,
        transient: impl Fn(&Err) -> bool,
        mut call: impl FnMut(&mut E) -> std::result::Result<T, Err>,
    ) -> std::result::Result<T, Err> {
        let mut attempt = 0usize;
        loop {
            let err = match call(self.inner) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let Some(policy) = &self.policy else {
                return Err(err);
            };
            if !transient(&err) || !policy.allows_retry(attempt) {
                return Err(err);
            }
            let delay = policy.delay_for(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            attempt += 1;
            self.retries += 1;
            self.inner.note_statement_retry();
        }
    }

    fn run_sql<T>(&mut self, call: impl FnMut(&mut E) -> Result<T>) -> Result<T> {
        self.run(Error::is_transient, call)
    }
}

impl<E: SqlExecutor> SqlExecutor for Retrying<'_, E> {
    fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.run_sql(|e| e.execute(sql))
    }

    fn execute_partial(&mut self, sql: &str) -> Result<PartialAggResult> {
        self.run_sql(|e| e.execute_partial(sql))
    }

    fn prepare_script(
        &mut self,
        statements: &[String],
    ) -> std::result::Result<Vec<PreparedId>, PrepareError> {
        // Preparation is pure registration (no table effects), so a
        // wire flake mid-script is safe to retry wholesale: the re-run
        // registers fresh ids and any half-registered batch is simply
        // never referenced.
        self.run(
            |e: &PrepareError| e.error.is_transient(),
            |e| e.prepare_script(statements),
        )
    }

    fn run_prepared(&mut self, id: PreparedId) -> Result<QueryResult> {
        self.run_sql(|e| e.run_prepared(id))
    }

    fn clear_prepared(&mut self) -> Result<()> {
        self.run_sql(|e| e.clear_prepared())
    }

    fn bulk_insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize> {
        if self.policy.is_none() {
            return self.inner.bulk_insert_rows(table, rows);
        }
        // The trait consumes the rows, so a re-run needs its own copy.
        self.run_sql(|e| e.bulk_insert_rows(table, rows.clone()))
    }

    fn table_rows(&mut self, table: &str) -> Result<usize> {
        self.run_sql(|e| e.table_rows(table))
    }

    fn has_table(&mut self, table: &str) -> Result<bool> {
        self.run_sql(|e| e.has_table(table))
    }

    fn catalog_snapshot(&mut self) -> Result<SymbolicCatalog> {
        self.run_sql(|e| e.catalog_snapshot())
    }

    fn max_statement_len(&self) -> usize {
        self.inner.max_statement_len()
    }

    fn analyze_limits(&self) -> Limits {
        self.inner.analyze_limits()
    }

    fn memory_budget_bytes(&self) -> Option<u64> {
        self.inner.memory_budget_bytes()
    }

    fn note_statement_retry(&mut self) {
        self.inner.note_statement_retry();
    }

    fn set_metrics_enabled(&mut self, on: bool) -> Result<()> {
        self.run_sql(|e| e.set_metrics_enabled(on))
    }

    fn metrics_enabled(&self) -> bool {
        self.inner.metrics_enabled()
    }

    fn metrics_len(&mut self) -> Result<usize> {
        self.run_sql(|e| e.metrics_len())
    }

    fn metrics_since(&mut self, from: usize) -> Result<Vec<ExecMetrics>> {
        self.run_sql(|e| e.metrics_since(from))
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_then_cap() {
        let p = RetryPolicy::new(10)
            .with_base_delay(Duration::from_millis(1))
            .with_max_delay(Duration::from_millis(8));
        let d0 = p.delay_for(0);
        let d3 = p.delay_for(3);
        assert!(d0 >= Duration::from_millis(1));
        assert!(d0 <= Duration::from_millis(2), "{d0:?}");
        assert!(d3 <= Duration::from_millis(8), "{d3:?}");
        // Far-out attempts stay at the cap instead of overflowing.
        assert!(p.delay_for(60) <= Duration::from_millis(8));
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let a = RetryPolicy::new(5).with_seed(1);
        let b = RetryPolicy::new(5).with_seed(1);
        let c = RetryPolicy::new(5).with_seed(2);
        assert_eq!(a.delay_for(1), b.delay_for(1));
        assert_ne!(
            a.delay_for(1),
            c.delay_for(1),
            "different seed, different jitter"
        );
    }

    #[test]
    fn immediate_never_sleeps() {
        let p = RetryPolicy::immediate(4);
        for attempt in 0..8 {
            assert_eq!(p.delay_for(attempt), Duration::ZERO);
        }
    }

    #[test]
    fn attempt_budget() {
        let p = RetryPolicy::new(3);
        assert!(p.allows_retry(0));
        assert!(p.allows_retry(1));
        assert!(!p.allows_retry(2), "third failure exhausts 3 attempts");
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_rejected() {
        RetryPolicy::new(0);
    }
}
