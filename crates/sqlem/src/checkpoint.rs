//! Per-iteration checkpointing: persist the mixture model *inside the
//! database* so an interrupted run can resume instead of starting over.
//!
//! The paper's driver (§1.4, Fig. 3) keeps no state of its own — after
//! every M step the entire model lives in the tiny C/R/W tables. That
//! makes checkpointing nearly free: copy those `O(pk)` values plus the
//! iteration counter and loglikelihood history into dedicated tables
//! after each iteration. A crashed client then re-attaches, reads the
//! checkpoint back, and re-enters the loop at the recorded iteration;
//! because each E step drops and recreates its work tables, re-running a
//! half-finished iteration is idempotent.
//!
//! ## Generations
//!
//! One table, [`crate::Names::ckpt`], holds every cell of a checkpoint
//! as a row `(iteration, part, i, val)`: `iteration` names the
//! *generation*, `part` says what the cell is (the shape `k` and `p`, a
//! mean cell `j·p + d`, a covariance cell, a weight or a loglikelihood)
//! and `i` is its index within the part. Writing generation `t` is four
//! statements, each atomic (see `docs/ROBUSTNESS.md`):
//!
//! 1. `CREATE TABLE IF NOT EXISTS`;
//! 2. `DELETE … WHERE iteration >= t` (a stale generation, e.g. an
//!    earlier run's, which a fresh run over the same prefix finds ahead
//!    of its own);
//! 3. one bulk insert of generation `t`;
//! 4. `DELETE … WHERE iteration < t`.
//!
//! So after every step some complete generation is readable: `t − 1`
//! until step 3 commits, `t` from then on. [`read_checkpoint`] takes the
//! newest generation whose row counts match its own shape cells.
//!
//! The layout is strategy-agnostic, so a run checkpointed under one
//! strategy can in principle resume under another. Any model's
//! parameters fit it: the cells are the [`ParamSet::cells`] of the
//! model (`p` global covariances for [`GmmParams`], `k × p` for
//! per-cluster ones).
//!
//! ## Durable databases
//!
//! On a database opened with [`sqlengine::Database::open_durable`],
//! every checkpoint write is WAL-framed like any other statement (the
//! bulk insert as its binary rows, so the doubles stay bit-exact), and
//! the table survives a **process kill**: a fresh process reopens the
//! directory and [`crate::EmSession::resume_from_checkpoint`] finds the
//! checkpoint. A kill mid-checkpoint replays only the committed
//! statements, which leaves the previous generation, the new one, or
//! both.

use emcore::GmmParams;
use sqlengine::{SqlExecutor, Value};

use crate::error::SqlemError;
use crate::naming::Names;
use crate::params::ParamSet;

/// One durable snapshot of a run: everything [`crate::EmSession::run`]
/// needs to continue where a previous session stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<P = GmmParams> {
    /// Iterations completed when the snapshot was taken.
    pub iteration: usize,
    /// Loglikelihood after each completed iteration (length =
    /// `iteration`).
    pub llh_history: Vec<f64>,
    /// The model as of the last completed M step.
    pub params: P,
}

/// `part` of the two shape cells, `k` (`i = 0`) and `p` (`i = 1`).
const SHAPE: usize = 0;
/// `part` of the mean cells, `i = j·p + d` for cluster `j`, dimension `d`.
const MEAN: usize = 1;
/// `part` of the covariance cells.
const COV: usize = 2;
/// `part` of the mixture weights.
const WEIGHT: usize = 3;
/// `part` of the loglikelihood history, one cell per iteration.
const LLH: usize = 4;

fn exec(db: &mut dyn SqlExecutor, sql: &str) -> Result<(), SqlemError> {
    db.execute(sql)
        .map(|_| ())
        .map_err(|e| SqlemError::from_sql("checkpoint", e))
}

/// Write generation `ckpt.iteration` of the checkpoint for this
/// session's prefix, replacing the previous one; see the module docs.
pub fn write_checkpoint<P: ParamSet>(
    db: &mut dyn SqlExecutor,
    names: &Names,
    ckpt: &Checkpoint<P>,
) -> Result<(), SqlemError> {
    let table = names.ckpt();
    let t = ckpt.iteration;
    let (k, p) = ckpt.params.shape();
    let (means, cov, weights) = ckpt.params.cells();
    let parts: [(usize, &[f64]); 5] = [
        (SHAPE, &[k as f64, p as f64]),
        (MEAN, &means.concat()),
        (COV, &cov),
        (WEIGHT, weights),
        (LLH, &ckpt.llh_history),
    ];
    let rows = parts
        .iter()
        .flat_map(|&(part, cells)| {
            cells.iter().enumerate().map(move |(i, &val)| {
                vec![
                    Value::Int(t as i64),
                    Value::Int(part as i64),
                    Value::Int(i as i64),
                    Value::Double(val),
                ]
            })
        })
        .collect();
    exec(
        db,
        &format!(
            "CREATE TABLE IF NOT EXISTS {table} (iteration BIGINT, part BIGINT, i BIGINT, \
             val DOUBLE, PRIMARY KEY (iteration, part, i))"
        ),
    )?;
    exec(db, &format!("DELETE FROM {table} WHERE iteration >= {t}"))?;
    db.bulk_insert_rows(&table, rows)
        .map_err(|e| SqlemError::from_sql("checkpoint", e))?;
    exec(db, &format!("DELETE FROM {table} WHERE iteration < {t}"))
}

/// Rebuild one generation from its cells, grouped by part, or say why
/// its row counts do not match its shape cells.
fn generation<P: ParamSet>(
    iteration: usize,
    parts: [Vec<f64>; 5],
) -> Result<Checkpoint<P>, SqlemError> {
    let [shape, means, cov, weights, llh_history] = parts;
    let bad = |m: String| SqlemError::BadParamTable(format!("checkpoint {iteration}: {m}"));
    let dim = |v: f64| (v >= 1.0 && v.fract() == 0.0).then_some(v as usize);
    let [Some(k), Some(p)] = (match shape[..] {
        [k, p] => [dim(k), dim(p)],
        _ => [None, None],
    }) else {
        return Err(bad(format!("bad shape cells {shape:?}")));
    };
    if means.len() != k * p || cov.len() != P::cov_len(k, p) || weights.len() != k {
        return Err(bad(format!(
            "shape mismatch: {} mean cells, {} cov, {} weights for k={k} p={p}",
            means.len(),
            cov.len(),
            weights.len()
        )));
    }
    if llh_history.len() != iteration {
        return Err(bad(format!(
            "llh history has {} entries",
            llh_history.len()
        )));
    }
    let means = means.chunks(p).map(<[f64]>::to_vec).collect();
    Ok(Checkpoint {
        iteration,
        llh_history,
        params: P::from_cells(means, cov, weights),
    })
}

/// Read the checkpoint for this session's prefix, if one exists.
///
/// Returns `Ok(None)` when no checkpoint was ever written, and the
/// newest generation whose row counts match its shape cells otherwise.
/// When no generation matches (a checkpoint of another model type, or
/// damaged rows), the newest one's mismatch is reported as
/// [`SqlemError::BadParamTable`].
pub fn read_checkpoint<P: ParamSet>(
    db: &mut dyn SqlExecutor,
    names: &Names,
) -> Result<Option<Checkpoint<P>>, SqlemError> {
    let table = names.ckpt();
    let read_err = |e| SqlemError::from_sql("checkpoint read", e);
    if !db.has_table(&table).map_err(read_err)? {
        return Ok(None);
    }
    let r = db
        .execute(&format!(
            "SELECT iteration, part, i, val FROM {table} ORDER BY iteration, part, i"
        ))
        .map_err(read_err)?;
    let mut generations: Vec<(usize, [Vec<f64>; 5])> = Vec::new();
    for row in &r.rows {
        let cell = |c: usize| row[c].as_i64().and_then(|v| usize::try_from(v).ok());
        let part = cell(1).filter(|&part| part <= LLH);
        let (Some(iteration), Some(part), Some(val)) = (cell(0), part, row[3].as_f64()) else {
            return Err(SqlemError::BadParamTable(format!(
                "bad checkpoint row {row:?}"
            )));
        };
        match generations.last_mut() {
            Some((t, parts)) if *t == iteration => parts[part].push(val),
            _ => {
                let mut parts: [Vec<f64>; 5] = Default::default();
                parts[part].push(val);
                generations.push((iteration, parts));
            }
        }
    }
    let mut newest_err = None;
    for (iteration, parts) in generations.into_iter().rev() {
        match generation(iteration, parts) {
            Ok(ckpt) => return Ok(Some(ckpt)),
            Err(e) => {
                newest_err.get_or_insert(e);
            }
        }
    }
    newest_err.map_or(Ok(None), Err)
}

/// Drop the checkpoint table for this prefix (if any).
pub fn clear_checkpoint(db: &mut dyn SqlExecutor, names: &Names) -> Result<(), SqlemError> {
    exec(db, &format!("DROP TABLE IF EXISTS {}", names.ckpt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::emfull::FullParams;
    use sqlengine::{Database, FaultPlan, FaultRule};

    fn sample() -> Checkpoint {
        Checkpoint {
            iteration: 3,
            llh_history: vec![-120.5, -118.25, -118.0078125],
            params: GmmParams::new(
                vec![vec![0.1, 0.2], vec![9.9, 10.1]],
                vec![1.5, 2.5],
                vec![0.25, 0.75],
            ),
        }
    }

    #[test]
    fn db_roundtrip_is_exact() {
        let mut awkward = sample();
        awkward.params.means[0][0] = 1.0 / 3.0;
        awkward.params.cov[1] = f64::MIN_POSITIVE;
        awkward.llh_history[0] = -1.234_567_890_123_456_7e300;
        for ckpt in [sample(), awkward] {
            let mut db = Database::new();
            let names = Names::new("s_");
            write_checkpoint(&mut db, &names, &ckpt).unwrap();
            let back = read_checkpoint::<GmmParams>(&mut db, &names)
                .unwrap()
                .unwrap();
            assert_eq!(back, ckpt, "bit-identical roundtrip");
        }
    }

    #[test]
    fn overwrite_replaces_previous() {
        let mut db = Database::new();
        let names = Names::new("");
        let mut ckpt = sample();
        write_checkpoint(&mut db, &names, &ckpt).unwrap();
        ckpt.iteration = 4;
        ckpt.llh_history.push(-117.9);
        ckpt.params.weights = vec![0.5, 0.5];
        write_checkpoint(&mut db, &names, &ckpt).unwrap();
        let back = read_checkpoint::<GmmParams>(&mut db, &names)
            .unwrap()
            .unwrap();
        assert_eq!(back, ckpt);
        // Only generation 4's cells are left: shape, means, cov,
        // weights, llh.
        assert_eq!(db.table_len(&names.ckpt()).unwrap(), 2 + 4 + 2 + 2 + 4);
    }

    #[test]
    fn missing_and_invalidated_checkpoints_read_as_none() {
        let mut db = Database::new();
        let names = Names::new("");
        assert_eq!(read_checkpoint::<GmmParams>(&mut db, &names).unwrap(), None);
        // A table holding no generation reads as none too.
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        db.execute(&format!("DELETE FROM {}", names.ckpt()))
            .unwrap();
        assert_eq!(read_checkpoint::<GmmParams>(&mut db, &names).unwrap(), None);
    }

    #[test]
    fn clear_drops_all_tables() {
        let mut db = Database::new();
        let names = Names::new("x_");
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        clear_checkpoint(&mut db, &names).unwrap();
        assert!(!db.contains_table(&names.ckpt()), "checkpoint table leaked");
        // Idempotent on an empty database.
        clear_checkpoint(&mut db, &names).unwrap();
    }

    #[test]
    fn per_cluster_covariances_round_trip() {
        let ckpt = Checkpoint {
            iteration: 1,
            llh_history: vec![-3.5],
            params: FullParams {
                means: vec![vec![0.1, 0.2], vec![9.9, 10.1]],
                covs: vec![vec![1.5, 2.5], vec![0.5, 1.0 / 3.0]],
                weights: vec![0.25, 0.75],
            },
        };
        let mut db = Database::new();
        let names = Names::new("pc_");
        write_checkpoint(&mut db, &names, &ckpt).unwrap();
        let back = read_checkpoint::<FullParams>(&mut db, &names).unwrap();
        assert_eq!(back, Some(ckpt));
        // A shared-R reader sees k × p covariance cells: not its shape.
        assert!(read_checkpoint::<GmmParams>(&mut db, &names).is_err());
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let mut db = Database::new();
        let names = Names::new("");
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        db.execute(&format!("DELETE FROM {} WHERE i = 1", names.ckpt()))
            .unwrap();
        assert!(matches!(
            read_checkpoint::<GmmParams>(&mut db, &names),
            Err(SqlemError::BadParamTable(_))
        ));
    }

    /// Generation 4 on top of `sample()`'s generation 3.
    fn next_generation() -> Checkpoint {
        let mut ckpt = sample();
        ckpt.iteration = 4;
        ckpt.llh_history.push(-117.9);
        ckpt.params.weights = vec![0.5, 0.5];
        ckpt
    }

    #[test]
    fn a_failure_at_any_statement_of_a_write_leaves_a_generation() {
        let names = Names::new("g_");
        let (old, new) = (sample(), next_generation());
        // (statement the fault hit, after it ran?, what reads back)
        let mut reads = Vec::new();
        let mut statements = Vec::new();
        for after_exec in [false, true] {
            for n in 0.. {
                let mut db = Database::new();
                write_checkpoint(&mut db, &names, &old).unwrap();
                let rule = FaultRule::nth(n).permanent();
                let rule = if after_exec { rule.after_exec() } else { rule };
                db.set_fault_plan(FaultPlan::single(rule));
                let failed = write_checkpoint(&mut db, &names, &new).is_err();
                db.clear_fault_plan();
                let back = read_checkpoint::<GmmParams>(&mut db, &names).unwrap();
                if !failed {
                    assert_eq!(back.as_ref(), Some(&new));
                    statements.push(n);
                    break;
                }
                reads.push((n, after_exec, back));
            }
        }
        for (n, after_exec, back) in &reads {
            let ctx = format!("fault at statement {n}, after_exec {after_exec}");
            assert!(back.is_some(), "{ctx}: no generation readable");
        }
        assert_eq!(statements, [4, 4], "a write is four statements");
        for (n, after_exec, back) in reads {
            // Statement 2 is the bulk insert: the new generation is
            // readable once it has run.
            let landed = n > 2 || (after_exec && n == 2);
            let want = if landed { &new } else { &old };
            let ctx = format!("fault at statement {n}, after_exec {after_exec}");
            assert_eq!(back.as_ref(), Some(want), "{ctx}");
        }
    }

    #[test]
    fn an_older_generation_overwrites_a_newer_one() {
        // A fresh run over an earlier run's checkpoint restarts the
        // generations at its own.
        let mut db = Database::new();
        let names = Names::new("");
        write_checkpoint(&mut db, &names, &next_generation()).unwrap();
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        let back = read_checkpoint::<GmmParams>(&mut db, &names).unwrap();
        assert_eq!(back, Some(sample()));
        assert_eq!(db.table_len(&names.ckpt()).unwrap(), 2 + 4 + 2 + 2 + 3);
    }

    #[test]
    fn a_damaged_newest_generation_falls_back_to_the_previous_one() {
        let mut db = Database::new();
        let names = Names::new("");
        let (old, new) = (sample(), next_generation());
        write_checkpoint(&mut db, &names, &old).unwrap();
        // Stop the write before its last DELETE: generation 4 beside 3.
        db.set_fault_plan(FaultPlan::single(FaultRule::nth(3).permanent()));
        assert!(write_checkpoint(&mut db, &names, &new).is_err());
        db.clear_fault_plan();
        let t = names.ckpt();
        let back = read_checkpoint::<GmmParams>(&mut db, &names).unwrap();
        assert_eq!(back, Some(new));
        db.execute(&format!(
            "DELETE FROM {t} WHERE iteration = 4 AND part = 3 AND i = 0"
        ))
        .unwrap();
        let back = read_checkpoint::<GmmParams>(&mut db, &names).unwrap();
        assert_eq!(back, Some(old));
    }
}
