//! Run configuration: which strategy, how many clusters, when to stop.

use crate::retry::RetryPolicy;

/// The three SQL implementation strategies of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// §3.3 — wide tables, `Θ(kp)`-character distance expression.
    Horizontal,
    /// §3.4 — `(RID, v, val)` tables, joins + GROUP BY everywhere.
    Vertical,
    /// §3.5 — distances vertical, everything else horizontal. The paper's
    /// recommended solution and the default.
    Hybrid,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 3] = [Strategy::Horizontal, Strategy::Vertical, Strategy::Hybrid];

    /// Lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Horizontal => "horizontal",
            Strategy::Vertical => "vertical",
            Strategy::Hybrid => "hybrid",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for one SQLEM run (the Fig. 3 inputs `k`, ε,
/// `maxiterations`, plus the strategy choice).
#[derive(Debug, Clone)]
pub struct SqlemConfig {
    /// Number of clusters.
    pub k: usize,
    /// Stop when |Δllh| ≤ ε.
    pub epsilon: f64,
    /// Hard iteration cap (paper: 10 for large data, never beyond 20,
    /// §3.1).
    pub max_iterations: usize,
    /// Which SQL strategy to generate.
    pub strategy: Strategy,
    /// Optional table-name prefix so several sessions can share one
    /// database.
    pub table_prefix: String,
    /// Hybrid only: fuse the YP and YX statements into one (the paper's
    /// §5 future-work item "synchronizing operations to decrease table
    /// scans"). Saves one n-row scan per iteration (2k+2 instead of
    /// 2k+3) at the cost of a wider YX row. Ignored by the other
    /// strategies.
    pub fused_e_step: bool,
    /// Also stop when no parameter moved by more than this between
    /// consecutive iterations — the paper's §5 future-work item "avoiding
    /// computations that do not change mixture parameters in consecutive
    /// iterations". `None` (default) keeps the pure-llh criterion of
    /// Fig. 3. The check reads back only the tiny C/R/W tables.
    pub param_epsilon: Option<f64>,
    /// Statically analyze every generated statement before creating any
    /// table (default on). Catches the §3.3 parser-limit overflow — and
    /// any generator bug — before the first byte of DDL executes. When
    /// it finds the horizontal strategy over a capacity limit
    /// (statement length or term count), the session switches to the
    /// hybrid strategy and records the decision
    /// ([`crate::EmSession::fallback`]).
    pub preflight: bool,
    /// Re-submit statements that fail with a transient error, per this
    /// policy. `None` (default) fails fast on the first error. Safe
    /// because the engine's statement semantics are atomic (see
    /// `docs/ROBUSTNESS.md`).
    pub retry: Option<RetryPolicy>,
    /// Persist the model + iteration counter + llh history into durable
    /// checkpoint table after every completed iteration (default off).
    /// An interrupted run can then continue via
    /// [`crate::EmSession::resume_from_checkpoint`]. On a durable
    /// database (`Database::open_durable`) the checkpoint table is
    /// WAL-logged like everything else, so a resume works across real
    /// process restarts, not just dropped sessions.
    pub checkpoint: bool,
    /// When an M step kills a cluster (zero responsibility mass) or
    /// produces non-finite parameters, deterministically re-seed the
    /// dead cluster and repeat the iteration instead of aborting
    /// (default off). Recoveries are reported in
    /// [`crate::SqlemRun::recoveries`].
    pub recover_degenerate: bool,
    /// Seed for degenerate-cluster re-seeding (so recovery is
    /// reproducible).
    pub recovery_seed: u64,
    /// Load the input points in bulk-insert chunks of at most this
    /// many rows (`None`, the default, loads each layout in one
    /// statement). Under a memory budget the loader also *shrinks*
    /// the chunk — halving it on each `ResourceExhausted` failure —
    /// so an over-budget load degrades gracefully instead of failing.
    pub load_chunk_rows: Option<usize>,
}

impl SqlemConfig {
    /// Defaults matching the paper's large-data-set settings.
    pub fn new(k: usize, strategy: Strategy) -> Self {
        assert!(k >= 1, "k must be at least 1");
        SqlemConfig {
            k,
            epsilon: 1e-3,
            max_iterations: 10,
            strategy,
            table_prefix: String::new(),
            fused_e_step: false,
            param_epsilon: None,
            preflight: true,
            retry: None,
            checkpoint: false,
            recover_degenerate: false,
            recovery_seed: 0,
            load_chunk_rows: None,
        }
    }

    /// Builder: set ε.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Builder: set the iteration cap.
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        assert!(max >= 1);
        self.max_iterations = max;
        self
    }

    /// Builder: set a table prefix.
    pub fn with_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.table_prefix = prefix.into();
        self
    }

    /// Builder: enable the fused E step (§5 future work; hybrid only).
    pub fn with_fused_e_step(mut self) -> Self {
        self.fused_e_step = true;
        self
    }

    /// Builder: stop when parameters stabilize within `eps` (§5 future
    /// work), in addition to the llh criterion.
    pub fn with_param_epsilon(mut self, eps: f64) -> Self {
        self.param_epsilon = Some(eps);
        self
    }

    /// Builder: skip the pre-flight analysis and submit generated SQL
    /// directly, reproducing the paper's workflow where parser limits
    /// surface at statement submission (§3.3).
    pub fn without_preflight(mut self) -> Self {
        self.preflight = false;
        self
    }

    /// Builder: retry transiently-failing statements per `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Builder: checkpoint the model after every iteration.
    pub fn with_checkpoints(mut self) -> Self {
        self.checkpoint = true;
        self
    }

    /// Builder: re-seed degenerate clusters instead of aborting, using
    /// `seed` for reproducible re-seeding.
    pub fn with_degenerate_recovery(mut self, seed: u64) -> Self {
        self.recover_degenerate = true;
        self.recovery_seed = seed;
        self
    }

    /// Builder: load input points in chunks of at most `rows` rows.
    pub fn with_load_chunk_rows(mut self, rows: usize) -> Self {
        assert!(rows >= 1, "load_chunk_rows must be at least 1");
        self.load_chunk_rows = Some(rows);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = SqlemConfig::new(9, Strategy::Hybrid)
            .with_epsilon(1e-6)
            .with_max_iterations(20)
            .with_prefix("retail_");
        assert_eq!(c.k, 9);
        assert_eq!(c.epsilon, 1e-6);
        assert_eq!(c.max_iterations, 20);
        assert_eq!(c.table_prefix, "retail_");
        assert!(!c.fused_e_step);
        assert!(c.preflight);
        let bare = SqlemConfig::new(2, Strategy::Hybrid).without_preflight();
        assert!(!bare.preflight);
        let f = SqlemConfig::new(2, Strategy::Hybrid).with_fused_e_step();
        assert!(f.fused_e_step);
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Hybrid.to_string(), "hybrid");
        assert_eq!(Strategy::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_rejected() {
        SqlemConfig::new(0, Strategy::Hybrid);
    }
}
