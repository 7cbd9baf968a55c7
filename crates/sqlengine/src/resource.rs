//! Memory budgets and per-statement resource accounting.
//!
//! The paper ran SQLEM inside a parallel DBMS whose workload manager
//! bounded every query's footprint; this module gives the engine the
//! same governance. A [`MemoryBudget`] is a shared, optionally-chained
//! byte limit (per-namespace budgets chain to a server-global parent); a
//! [`ResourceTracker`] accounts one statement's working memory against
//! it and releases everything when the statement finishes.
//!
//! Sizes follow a **deterministic logical model**, not allocator truth:
//! a scalar cell costs [`VALUE_BYTES`], a string adds its UTF-8 length,
//! a row adds [`ROW_OVERHEAD_BYTES`], and hash-table entries add
//! [`ENTRY_OVERHEAD_BYTES`] — also where the rows are held as columns
//! ([`rows_bytes`], charged a batch at a time). The model is platform-independent so the
//! peak-memory gauge in [`crate::ExecMetrics`] is bit-identical across
//! machines: charges are **monotone** for the life of a statement
//! (nothing is released until the statement ends), so the statement's
//! peak equals its total.
//!
//! What is charged: join build sides and broadcast index tables
//! (`exec/select.rs`), materialized output rows, merged GROUP BY tables
//! (`exec/aggregate.rs`), staged INSERT/UPDATE buffers (`exec/dml.rs`)
//! and bulk-load staging (`Database::bulk_insert`). Committed table
//! storage is *not* charged — the budget governs transient working
//! memory, which is what concurrent sessions contend for.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::expr::Column;
use crate::value::Value;

/// Logical size of one scalar cell ([`Value`]), in bytes.
pub const VALUE_BYTES: u64 = 16;

/// Logical per-row overhead (vector header + length), in bytes.
pub const ROW_OVERHEAD_BYTES: u64 = 24;

/// Logical per-entry overhead of a hash-table slot (join build map,
/// GROUP BY table), in bytes.
pub const ENTRY_OVERHEAD_BYTES: u64 = 16;

/// Logical size of one aggregate accumulator state, in bytes.
pub const AGG_STATE_BYTES: u64 = 32;

/// Logical size of one [`Value`] under the accounting model.
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Str(s) => VALUE_BYTES + s.len() as u64,
        _ => VALUE_BYTES,
    }
}

/// Logical size of one row (cells plus [`ROW_OVERHEAD_BYTES`]).
pub fn row_bytes(row: &[Value]) -> u64 {
    ROW_OVERHEAD_BYTES + row.iter().map(value_bytes).sum::<u64>()
}

/// Logical size of rows `rows` of a column set: what [`row_bytes`] of
/// each of them adds up to.
pub fn rows_bytes(cols: &[Column], rows: std::ops::Range<usize>) -> u64 {
    let strings = |col: &Column| match col {
        Column::Val(v) => v[rows.clone()]
            .iter()
            .map(|v| value_bytes(v) - VALUE_BYTES)
            .sum(),
        _ => 0,
    };
    rows.len() as u64 * row_width_bytes(cols.len()) + cols.iter().map(strings).sum::<u64>()
}

/// Logical size of a row of `arity` non-string cells: [`row_bytes`]
/// without the per-string length bytes.
fn row_width_bytes(arity: usize) -> u64 {
    ROW_OVERHEAD_BYTES + arity as u64 * VALUE_BYTES
}

struct BudgetInner {
    /// Byte limit; `u64::MAX` means "track but never reject".
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
    parent: Option<MemoryBudget>,
}

/// A shared byte budget, cloneable across threads and sessions.
///
/// Budgets chain: charging a namespace budget also charges its parent
/// (the server-global budget), and either level can reject. All
/// counters are atomic; a clone observes the same live state.
#[derive(Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl std::fmt::Debug for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBudget")
            .field("limit", &self.inner.limit)
            .field("used", &self.used())
            .field("peak", &self.peak())
            .finish()
    }
}

impl MemoryBudget {
    /// A budget capped at `limit_bytes`.
    pub fn new(limit_bytes: u64) -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit: limit_bytes,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                parent: None,
            }),
        }
    }

    /// Parse a budget's limit as written on a command line: a positive
    /// byte count with an optional `K`/`M`/`G` suffix (powers of 1024).
    pub fn parse_limit(s: &str) -> Option<u64> {
        let t = s.trim().to_ascii_lowercase();
        let (digits, unit) = match t.char_indices().last() {
            Some((i, 'k')) => (&t[..i], 1 << 10),
            Some((i, 'm')) => (&t[..i], 1 << 20),
            Some((i, 'g')) => (&t[..i], 1 << 30),
            _ => (t.as_str(), 1),
        };
        digits
            .parse::<u64>()
            .ok()?
            .checked_mul(unit)
            .filter(|&b| b > 0)
    }

    /// A budget that tracks usage but never rejects a charge — useful
    /// to observe peak footprint without governing it.
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// A child budget capped at `limit_bytes` whose charges also count
    /// against (and can be rejected by) `parent`.
    pub fn child_of(parent: &MemoryBudget, limit_bytes: u64) -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit: limit_bytes,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                parent: Some(parent.clone()),
            }),
        }
    }

    /// The configured limit in bytes (`u64::MAX` when unlimited).
    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes currently charged at this level.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::SeqCst)
    }

    /// High-water mark of [`MemoryBudget::used`] since creation.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::SeqCst)
    }

    /// Charge `bytes` at this level only; returns the new total, or the
    /// total that would have resulted if it exceeds the limit.
    fn charge_local(&self, bytes: u64) -> std::result::Result<u64, u64> {
        let after = self
            .inner
            .used
            .fetch_add(bytes, Ordering::SeqCst)
            .saturating_add(bytes);
        if after > self.inner.limit {
            self.inner.used.fetch_sub(bytes, Ordering::SeqCst);
            return Err(after);
        }
        self.inner.peak.fetch_max(after, Ordering::SeqCst);
        Ok(after)
    }

    /// Charge `bytes` against this budget and every ancestor. On
    /// rejection (at any level) nothing remains charged and the typed
    /// transient [`Error::ResourceExhausted`] names the tightest
    /// offended limit.
    pub fn try_charge(&self, context: &str, bytes: u64) -> Result<()> {
        if let Some(parent) = &self.inner.parent {
            parent.try_charge(context, bytes)?;
        }
        if let Err(would_be) = self.charge_local(bytes) {
            if let Some(parent) = &self.inner.parent {
                parent.release(bytes);
            }
            return Err(Error::resource_exhausted(
                context,
                would_be,
                self.inner.limit,
            ));
        }
        Ok(())
    }

    /// Return `bytes` to this budget and every ancestor.
    pub fn release(&self, bytes: u64) {
        self.inner.used.fetch_sub(bytes, Ordering::SeqCst);
        if let Some(parent) = &self.inner.parent {
            parent.release(bytes);
        }
    }
}

/// Per-statement working-memory account.
///
/// Created once per executed statement; every allocating operator
/// charges it. Charges are monotone while the statement runs (peak =
/// total) and are released in one piece when the tracker drops —
/// whether the statement committed or aborted, no bytes leak into the
/// shared [`MemoryBudget`].
#[derive(Debug, Default)]
pub struct ResourceTracker {
    budget: Option<MemoryBudget>,
    charged: Cell<u64>,
}

impl ResourceTracker {
    /// A tracker accounting against `budget` (pure gauge when `None`).
    pub fn new(budget: Option<MemoryBudget>) -> Self {
        ResourceTracker {
            budget,
            charged: Cell::new(0),
        }
    }

    /// Charge `bytes` of working memory for `context`. Fails with the
    /// typed transient [`Error::ResourceExhausted`] when the budget (or
    /// any of its ancestors) would be exceeded; on failure the tracker
    /// and budget are left exactly as before the call.
    pub fn charge(&self, context: &str, bytes: u64) -> Result<()> {
        if bytes == 0 {
            return Ok(());
        }
        if let Some(budget) = &self.budget {
            budget.try_charge(context, bytes)?;
        }
        self.charged.set(self.charged.get() + bytes);
        Ok(())
    }

    /// Charge the first `n` rows of a column set, row by row as far as
    /// the total is concerned ([`row_bytes`] each) but in one charge per
    /// batch. A batch that does not fit is charged row by row after all,
    /// so the statement fails at the row, and with the footprint,
    /// row-at-a-time staging fails with.
    pub fn charge_rows(&self, context: &str, cols: &[Column], n: usize) -> Result<()> {
        if self.charge(context, rows_bytes(cols, 0..n)).is_ok() {
            return Ok(());
        }
        (0..n).try_for_each(|row| self.charge(context, rows_bytes(cols, row..row + 1)))
    }

    /// Total bytes charged by this statement so far. Because charges
    /// are monotone, this is also the statement's peak footprint.
    pub fn charged(&self) -> u64 {
        self.charged.get()
    }
}

impl Drop for ResourceTracker {
    fn drop(&mut self) {
        if let Some(budget) = &self.budget {
            budget.release(self.charged.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_limit_is_a_positive_byte_count_in_powers_of_1024() {
        assert_eq!(MemoryBudget::parse_limit("4096"), Some(4096));
        assert_eq!(MemoryBudget::parse_limit(" 1K "), Some(1 << 10));
        assert_eq!(MemoryBudget::parse_limit("3m"), Some(3 << 20));
        assert_eq!(MemoryBudget::parse_limit("2G"), Some(2 << 30));
        for bad in ["0", "0K", "", "K", "-1", "1.5M", "1T", "99999999999G"] {
            assert_eq!(MemoryBudget::parse_limit(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn sizes_follow_the_logical_model() {
        assert_eq!(value_bytes(&Value::Int(1)), 16);
        assert_eq!(value_bytes(&Value::Double(1.5)), 16);
        assert_eq!(value_bytes(&Value::Null), 16);
        assert_eq!(value_bytes(&Value::str("abcd")), 20);
        assert_eq!(row_bytes(&[Value::Int(1), Value::Double(2.0)]), 24 + 32);
        assert_eq!(row_width_bytes(2), 24 + 32);
    }

    #[test]
    fn a_batch_is_charged_as_its_rows_and_fails_at_the_row_that_does_not_fit() {
        let strs = ["abcd", "", "xy"].map(Value::str).to_vec();
        let cols = [Column::I64(vec![1, 2, 3], None), Column::Val(strs.clone())];
        let per_row = |i: usize| row_bytes(&[Value::Int(0), strs[i].clone()]);
        assert_eq!(rows_bytes(&cols, 0..3), (0..3).map(per_row).sum::<u64>());
        assert_eq!(rows_bytes(&cols, 1..2), per_row(1));
        let budget = MemoryBudget::new(per_row(0) + per_row(1) + 1);
        let tracker = ResourceTracker::new(Some(budget));
        assert_eq!(
            tracker.charge_rows("staged insert", &cols, 3).unwrap_err(),
            Error::resource_exhausted(
                "staged insert",
                rows_bytes(&cols, 0..3),
                per_row(0) + per_row(1) + 1
            )
        );
        assert_eq!(tracker.charged(), per_row(0) + per_row(1));
    }

    #[test]
    fn charges_accumulate_and_release_on_drop() {
        let budget = MemoryBudget::new(1000);
        {
            let tracker = ResourceTracker::new(Some(budget.clone()));
            tracker.charge("join build", 400).unwrap();
            tracker.charge("group table", 100).unwrap();
            assert_eq!(tracker.charged(), 500);
            assert_eq!(budget.used(), 500);
            assert_eq!(budget.peak(), 500);
        }
        assert_eq!(budget.used(), 0, "drop releases everything");
        assert_eq!(budget.peak(), 500, "peak survives the release");
    }

    #[test]
    fn over_budget_charge_is_typed_and_leaves_no_residue() {
        let budget = MemoryBudget::new(100);
        let tracker = ResourceTracker::new(Some(budget.clone()));
        tracker.charge("staged insert", 80).unwrap();
        let err = tracker.charge("staged insert", 40).unwrap_err();
        match &err {
            Error::ResourceExhausted {
                context,
                used_bytes,
                budget_bytes,
            } => {
                assert_eq!(context, "staged insert");
                assert_eq!(*used_bytes, 120);
                assert_eq!(*budget_bytes, 100);
            }
            other => panic!("unexpected {other}"),
        }
        assert!(err.is_transient());
        assert_eq!(tracker.charged(), 80, "failed charge not recorded");
        assert_eq!(budget.used(), 80, "failed charge rolled back");
    }

    #[test]
    fn chained_budgets_reject_at_either_level_and_roll_back() {
        let global = MemoryBudget::new(150);
        let ns_a = MemoryBudget::child_of(&global, 100);
        let ns_b = MemoryBudget::child_of(&global, 100);
        ns_a.try_charge("a", 90).unwrap();
        // Child limit trips first.
        assert!(matches!(
            ns_a.try_charge("a", 20),
            Err(Error::ResourceExhausted {
                budget_bytes: 100,
                ..
            })
        ));
        assert_eq!(global.used(), 90, "rejected charge left no residue");
        // Global limit trips even though the sibling has room.
        assert!(matches!(
            ns_b.try_charge("b", 80),
            Err(Error::ResourceExhausted {
                budget_bytes: 150,
                ..
            })
        ));
        assert_eq!(ns_b.used(), 0);
        assert_eq!(global.used(), 90);
        ns_a.release(90);
        assert_eq!(global.used(), 0);
    }

    #[test]
    fn unlimited_budget_tracks_but_never_rejects() {
        let budget = MemoryBudget::unlimited();
        let tracker = ResourceTracker::new(Some(budget.clone()));
        tracker.charge("scan", u64::MAX / 4).unwrap();
        assert_eq!(budget.peak(), u64::MAX / 4);
    }

    #[test]
    fn gauge_only_tracker_never_fails() {
        let tracker = ResourceTracker::new(None);
        tracker.charge("anything", u64::MAX / 2).unwrap();
        assert_eq!(tracker.charged(), u64::MAX / 2);
    }
}
