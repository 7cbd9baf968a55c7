//! Error type for SQLEM sessions.

use sqlengine::Error as SqlError;

use crate::config::Strategy;
use crate::plan::PlanError;

/// Anything that can go wrong while driving a SQLEM run.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlemError {
    /// The underlying engine rejected or failed a generated statement.
    /// Carries the statement's purpose tag for diagnosis.
    Sql {
        /// What the failing statement was doing (e.g. `"E: distances"`).
        purpose: String,
        /// The engine error.
        source: SqlError,
    },
    /// A generated statement exceeded the engine's statement-length limit
    /// — the horizontal strategy's failure mode at high `kp` (§3.3).
    StatementTooLong {
        /// What the statement was doing.
        purpose: String,
        /// Its length in bytes.
        len: usize,
        /// The engine's limit.
        max: usize,
    },
    /// The pre-flight analysis rejected the strategy's generated script
    /// before anything executed (and the horizontal→hybrid fallback was
    /// not applicable, or itself failed).
    Preflight {
        /// The strategy whose script failed the analysis.
        strategy: Strategy,
        /// Every error of its [`crate::PlanReport`].
        errors: Vec<PlanError>,
    },
    /// Parameter read-back found missing or malformed rows.
    BadParamTable(String),
    /// The data does not match the configuration (arity, emptiness).
    BadInput(String),
    /// A cluster lost all responsibility mass; the mean-update division
    /// failed inside the DBMS.
    DegenerateCluster(usize),
    /// A parameter read back from the C/R/W tables is NaN or infinite —
    /// the model degenerated without tripping a SQL-level error. Names
    /// the offending cluster (0-based; for the global covariance vector
    /// the "cluster" is the dimension index) and parameter cell.
    Degenerate {
        /// 0-based cluster index (dimension index for covariance cells).
        cluster: usize,
        /// Which parameter cell went non-finite (e.g. `"mean y2"`,
        /// `"weight"`, `"covariance r1"`).
        param: String,
    },
}

impl std::fmt::Display for SqlemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlemError::Sql { purpose, source } => {
                write!(f, "SQL step {purpose:?} failed: {source}")
            }
            SqlemError::StatementTooLong { purpose, len, max } => write!(
                f,
                "generated statement {purpose:?} is {len} bytes, over the DBMS parser \
                 limit of {max} (the §3.3 horizontal-strategy failure mode)"
            ),
            SqlemError::Preflight { strategy, errors } => {
                write!(
                    f,
                    "pre-flight analysis rejected the {strategy} strategy's script \
                     ({} finding(s))",
                    errors.len()
                )?;
                for error in errors {
                    write!(f, "; {error}")?;
                }
                Ok(())
            }
            SqlemError::BadParamTable(m) => write!(f, "parameter table read-back failed: {m}"),
            SqlemError::BadInput(m) => write!(f, "bad input: {m}"),
            SqlemError::DegenerateCluster(j) => {
                write!(f, "cluster {j} received zero total responsibility")
            }
            SqlemError::Degenerate { cluster, param } => {
                write!(
                    f,
                    "degenerate model: {param} of cluster {cluster} is not finite"
                )
            }
        }
    }
}

impl std::error::Error for SqlemError {}

impl SqlemError {
    /// Wrap an engine error, promoting length overflows to the dedicated
    /// variant.
    pub fn from_sql(purpose: &str, source: SqlError) -> Self {
        match source {
            SqlError::StatementTooLong { len, max } => SqlemError::StatementTooLong {
                purpose: purpose.to_string(),
                len,
                max,
            },
            other => SqlemError::Sql {
                purpose: purpose.to_string(),
                source: other,
            },
        }
    }

    /// Is a retry of the failed step worth attempting? Delegates to the
    /// engine's classification: only injected transient faults qualify;
    /// every domain-level error (preflight, bad input, degenerate model,
    /// …) is deterministic.
    pub fn is_transient(&self) -> bool {
        matches!(self, SqlemError::Sql { source, .. } if source.is_transient())
    }

    /// Did the failed step run out of working memory
    /// ([`sqlengine::Error::ResourceExhausted`], locally enforced or
    /// relayed from a server)? The loader reacts by shrinking its
    /// bulk-insert chunk before retrying.
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(
            self,
            SqlemError::Sql {
                source: SqlError::ResourceExhausted { .. },
                ..
            }
        )
    }

    /// Is this a degenerate-model condition (a dead cluster or a
    /// non-finite parameter) that [`crate::SqlemConfig::recover_degenerate`]
    /// can repair?
    pub fn is_degenerate(&self) -> bool {
        matches!(
            self,
            SqlemError::DegenerateCluster(_) | SqlemError::Degenerate { .. }
        )
    }

    /// The cluster a degenerate-model error names, 0-based, if any
    /// ([`SqlemError::DegenerateCluster`] carries the paper's 1-based
    /// table index and is shifted down here).
    pub fn degenerate_cluster(&self) -> Option<usize> {
        match self {
            SqlemError::DegenerateCluster(j) => Some(j.saturating_sub(1)),
            SqlemError::Degenerate { cluster, .. } => Some(*cluster),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_overflow_promoted() {
        let e = SqlemError::from_sql(
            "E: distances",
            SqlError::StatementTooLong { len: 9, max: 4 },
        );
        assert!(matches!(e, SqlemError::StatementTooLong { .. }));
        assert!(e.to_string().contains("horizontal"));
    }

    #[test]
    fn sql_errors_keep_purpose() {
        let e = SqlemError::from_sql("M: means", SqlError::UnknownTable("c".into()));
        assert!(e.to_string().contains("M: means"));
    }
}
