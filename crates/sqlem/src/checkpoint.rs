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
//! ## Crash consistency
//!
//! The validity marker ([`crate::Names::ckpt_meta`], a single row) is
//! deleted **first** and re-inserted **last**. A crash anywhere inside
//! [`write_checkpoint`] therefore leaves no meta row, and
//! [`read_checkpoint`] reports "no checkpoint" rather than serving a
//! torn one. Statement atomicity (see `docs/ROBUSTNESS.md`) covers each
//! individual write.
//!
//! The table layout is strategy-agnostic — plain `(index, value)` pairs
//! — so a run checkpointed under one strategy can in principle resume
//! under another. Any model's parameters fit it: the cells are the
//! [`ParamSet::cells`] of the model (`ckptr` holds `p` global covariances
//! for [`GmmParams`], `k × p` for per-cluster ones).
//!
//! ## Durable databases
//!
//! On a database opened with [`sqlengine::Database::open_durable`],
//! every checkpoint write is WAL-framed like any other statement, so
//! the `ckpt*` tables survive a **process kill**: a fresh process
//! reopens the directory and [`crate::EmSession::resume_from_checkpoint`]
//! finds the checkpoint without any text side-channel ([`to_text`]/
//! [`from_text`] remain available for moving checkpoints *between*
//! databases). The delete-first/
//! insert-last marker protocol composes with WAL recovery: a kill
//! mid-checkpoint replays only the committed statements, which is a
//! state this module already treats as "no checkpoint yet" or "previous
//! checkpoint intact".

use emcore::GmmParams;
use sqlengine::SqlExecutor;

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

fn exec(db: &mut dyn SqlExecutor, sql: &str) -> Result<(), SqlemError> {
    db.execute(sql)
        .map(|_| ())
        .map_err(|e| SqlemError::from_sql("checkpoint", e))
}

/// Format an f64 so it parses back bit-identically (17 significant
/// digits round-trip IEEE doubles; NaN/±inf get spelled out).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "inf" } else { "-inf" }.to_string()
    } else {
        format!("{v:.17e}")
    }
}

/// Write (or overwrite) the checkpoint for this session's prefix.
///
/// Meta is invalidated first and revalidated last; see the module docs.
pub fn write_checkpoint<P: ParamSet>(
    db: &mut dyn SqlExecutor,
    names: &Names,
    ckpt: &Checkpoint<P>,
) -> Result<(), SqlemError> {
    let (meta, c, r, w, llh) = (
        names.ckpt_meta(),
        names.ckpt_c(),
        names.ckpt_r(),
        names.ckpt_w(),
        names.ckpt_llh(),
    );
    let (k, p) = ckpt.params.shape();
    let (means, cov, weights) = ckpt.params.cells();
    exec(
        db,
        &format!(
            "CREATE TABLE IF NOT EXISTS {meta} (iteration BIGINT, k BIGINT, p BIGINT, llh DOUBLE)"
        ),
    )?;
    exec(
        db,
        &format!("CREATE TABLE IF NOT EXISTS {c} (cell BIGINT PRIMARY KEY, val DOUBLE)"),
    )?;
    exec(
        db,
        &format!("CREATE TABLE IF NOT EXISTS {r} (v BIGINT PRIMARY KEY, val DOUBLE)"),
    )?;
    exec(
        db,
        &format!("CREATE TABLE IF NOT EXISTS {w} (i BIGINT PRIMARY KEY, val DOUBLE)"),
    )?;
    exec(
        db,
        &format!("CREATE TABLE IF NOT EXISTS {llh} (iteration BIGINT PRIMARY KEY, val DOUBLE)"),
    )?;

    // 1. Invalidate.
    exec(db, &format!("DELETE FROM {meta}"))?;
    // 2. Model matrices (cell = j*p + d for mean [j][d], 0-based).
    exec(db, &format!("DELETE FROM {c}"))?;
    let mut c_rows = Vec::with_capacity(k * p);
    for (j, mean) in means.iter().enumerate() {
        for (d, &val) in mean.iter().enumerate() {
            c_rows.push(format!("({}, {})", j * p + d, fmt_f64(val)));
        }
    }
    exec(db, &format!("INSERT INTO {c} VALUES {}", c_rows.join(", ")))?;
    exec(db, &format!("DELETE FROM {r}"))?;
    let r_rows: Vec<String> = cov
        .iter()
        .enumerate()
        .map(|(d, &val)| format!("({d}, {})", fmt_f64(val)))
        .collect();
    exec(db, &format!("INSERT INTO {r} VALUES {}", r_rows.join(", ")))?;
    exec(db, &format!("DELETE FROM {w}"))?;
    let w_rows: Vec<String> = weights
        .iter()
        .enumerate()
        .map(|(j, &val)| format!("({j}, {})", fmt_f64(val)))
        .collect();
    exec(db, &format!("INSERT INTO {w} VALUES {}", w_rows.join(", ")))?;
    // 3. Loglikelihood history.
    exec(db, &format!("DELETE FROM {llh}"))?;
    if !ckpt.llh_history.is_empty() {
        let llh_rows: Vec<String> = ckpt
            .llh_history
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("({i}, {})", fmt_f64(v)))
            .collect();
        exec(
            db,
            &format!("INSERT INTO {llh} VALUES {}", llh_rows.join(", ")),
        )?;
    }
    // 4. Revalidate — the single point at which the checkpoint becomes
    // visible to readers.
    let last_llh = ckpt.llh_history.last().copied().unwrap_or(f64::NAN);
    exec(
        db,
        &format!(
            "INSERT INTO {meta} VALUES ({}, {k}, {p}, {})",
            ckpt.iteration,
            fmt_f64(last_llh)
        ),
    )?;
    Ok(())
}

fn read_f64_pairs(
    db: &mut dyn SqlExecutor,
    table: &str,
    key: &str,
) -> Result<Vec<f64>, SqlemError> {
    let r = db
        .execute(&format!("SELECT {key}, val FROM {table} ORDER BY {key}"))
        .map_err(|e| SqlemError::from_sql("checkpoint read", e))?;
    r.rows
        .iter()
        .map(|row| {
            row[1]
                .as_f64()
                .ok_or_else(|| SqlemError::BadParamTable(format!("bad cell in {table}")))
        })
        .collect()
}

/// Read the checkpoint for this session's prefix, if a valid one exists.
///
/// Returns `Ok(None)` when no checkpoint was ever written or a write was
/// interrupted before revalidation. Shape mismatches (a checkpoint taken
/// with different `k`/`p` than the tables now hold) are reported as
/// [`SqlemError::BadParamTable`].
pub fn read_checkpoint<P: ParamSet>(
    db: &mut dyn SqlExecutor,
    names: &Names,
) -> Result<Option<Checkpoint<P>>, SqlemError> {
    let meta = names.ckpt_meta();
    if !db
        .has_table(&meta)
        .map_err(|e| SqlemError::from_sql("checkpoint read", e))?
    {
        return Ok(None);
    }
    let m = db
        .execute(&format!("SELECT iteration, k, p, llh FROM {meta}"))
        .map_err(|e| SqlemError::from_sql("checkpoint read", e))?;
    let Some(row) = m.rows.first() else {
        return Ok(None); // invalidated (torn write)
    };
    let geti = |idx: usize| -> Result<usize, SqlemError> {
        row[idx]
            .as_i64()
            .filter(|&v| v >= 0)
            .map(|v| v as usize)
            .ok_or_else(|| SqlemError::BadParamTable(format!("bad checkpoint meta cell {idx}")))
    };
    let (iteration, k, p) = (geti(0)?, geti(1)?, geti(2)?);
    if k == 0 || p == 0 {
        return Err(SqlemError::BadParamTable("empty checkpoint shape".into()));
    }
    let c_cells = read_f64_pairs(db, &names.ckpt_c(), "cell")?;
    let cov = read_f64_pairs(db, &names.ckpt_r(), "v")?;
    let weights = read_f64_pairs(db, &names.ckpt_w(), "i")?;
    if c_cells.len() != k * p || cov.len() != P::cov_len(k, p) || weights.len() != k {
        return Err(SqlemError::BadParamTable(format!(
            "checkpoint shape mismatch: {} mean cells, {} cov, {} weights for k={k} p={p}",
            c_cells.len(),
            cov.len(),
            weights.len()
        )));
    }
    let means: Vec<Vec<f64>> = c_cells.chunks(p).map(<[f64]>::to_vec).collect();
    let llh_history = read_f64_pairs(db, &names.ckpt_llh(), "iteration")?;
    if llh_history.len() != iteration {
        return Err(SqlemError::BadParamTable(format!(
            "checkpoint llh history has {} entries for iteration {iteration}",
            llh_history.len()
        )));
    }
    Ok(Some(Checkpoint {
        iteration,
        llh_history,
        params: P::from_cells(means, cov, weights),
    }))
}

/// Drop the checkpoint tables for this prefix (if any).
pub fn clear_checkpoint(db: &mut dyn SqlExecutor, names: &Names) -> Result<(), SqlemError> {
    for table in names.checkpoints() {
        exec(db, &format!("DROP TABLE IF EXISTS {table}"))?;
    }
    Ok(())
}

/// Serialize a checkpoint to a small line-oriented text format, for
/// carrying a resume point across *processes* (the in-memory engine dies
/// with its process; `sqlem-cli --checkpoint/--resume` uses this).
pub fn to_text<P: ParamSet>(ckpt: &Checkpoint<P>) -> String {
    let (k, p) = ckpt.params.shape();
    let (means, cov, weights) = ckpt.params.cells();
    let mut out = String::from("sqlem-checkpoint v1\n");
    out.push_str(&format!("iteration {}\n", ckpt.iteration));
    out.push_str(&format!("k {k}\n"));
    out.push_str(&format!("p {p}\n"));
    let join = |vals: &[f64]| {
        vals.iter()
            .map(|&v| fmt_f64(v))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.push_str(&format!("llh {}\n", join(&ckpt.llh_history)));
    out.push_str(&format!("weights {}\n", join(weights)));
    out.push_str(&format!("cov {}\n", join(&cov)));
    for mean in means {
        out.push_str(&format!("mean {}\n", join(mean)));
    }
    out
}

/// Parse the [`to_text`] format back.
pub fn from_text<P: ParamSet>(text: &str) -> Result<Checkpoint<P>, SqlemError> {
    let bad = |m: &str| SqlemError::BadInput(format!("checkpoint file: {m}"));
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("sqlem-checkpoint v1") {
        return Err(bad("missing 'sqlem-checkpoint v1' header"));
    }
    let mut iteration = None;
    let mut k = None;
    let mut p = None;
    let mut llh_history = None;
    let mut weights = None;
    let mut cov = None;
    let mut means: Vec<Vec<f64>> = Vec::new();
    let parse_vals = |rest: &str| -> Result<Vec<f64>, SqlemError> {
        rest.split_whitespace()
            .map(|t| match t {
                "nan" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                _ => t.parse::<f64>().map_err(|_| {
                    SqlemError::BadInput(format!("checkpoint file: bad number {t:?}"))
                }),
            })
            .collect()
    };
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "iteration" => {
                iteration = Some(rest.parse::<usize>().map_err(|_| bad("bad iteration"))?)
            }
            "k" => k = Some(rest.parse::<usize>().map_err(|_| bad("bad k"))?),
            "p" => p = Some(rest.parse::<usize>().map_err(|_| bad("bad p"))?),
            "llh" => llh_history = Some(parse_vals(rest)?),
            "weights" => weights = Some(parse_vals(rest)?),
            "cov" => cov = Some(parse_vals(rest)?),
            "mean" => means.push(parse_vals(rest)?),
            _ => return Err(bad(&format!("unknown line tag {tag:?}"))),
        }
    }
    let iteration = iteration.ok_or_else(|| bad("missing iteration"))?;
    let k = k.ok_or_else(|| bad("missing k"))?;
    let p = p.ok_or_else(|| bad("missing p"))?;
    let llh_history = llh_history.ok_or_else(|| bad("missing llh"))?;
    let weights = weights.ok_or_else(|| bad("missing weights"))?;
    let cov = cov.ok_or_else(|| bad("missing cov"))?;
    if means.len() != k
        || means.iter().any(|m| m.len() != p)
        || weights.len() != k
        || cov.len() != P::cov_len(k, p)
    {
        return Err(bad("shape mismatch between header and vectors"));
    }
    if llh_history.len() != iteration {
        return Err(bad("llh history length does not match iteration"));
    }
    Ok(Checkpoint {
        iteration,
        llh_history,
        params: P::from_cells(means, cov, weights),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emcore::emfull::FullParams;
    use sqlengine::Database;

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
        let mut db = Database::new();
        let names = Names::new("s_");
        let ckpt = sample();
        write_checkpoint(&mut db, &names, &ckpt).unwrap();
        let back = read_checkpoint::<GmmParams>(&mut db, &names)
            .unwrap()
            .unwrap();
        assert_eq!(back, ckpt, "bit-identical roundtrip");
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
    }

    #[test]
    fn missing_and_invalidated_checkpoints_read_as_none() {
        let mut db = Database::new();
        let names = Names::new("");
        assert_eq!(read_checkpoint::<GmmParams>(&mut db, &names).unwrap(), None);
        // Simulate a torn write: tables exist, meta row deleted.
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        db.execute(&format!("DELETE FROM {}", names.ckpt_meta()))
            .unwrap();
        assert_eq!(read_checkpoint::<GmmParams>(&mut db, &names).unwrap(), None);
    }

    #[test]
    fn clear_drops_all_tables() {
        let mut db = Database::new();
        let names = Names::new("x_");
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        clear_checkpoint(&mut db, &names).unwrap();
        for t in names.checkpoints() {
            assert!(!db.contains_table(&t), "{t} leaked");
        }
        // Idempotent on an empty database.
        clear_checkpoint(&mut db, &names).unwrap();
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let ckpt = sample();
        let text = to_text(&ckpt);
        let back = from_text::<GmmParams>(&text).unwrap();
        assert_eq!(back, ckpt);
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
        assert_eq!(from_text::<FullParams>(&to_text(&ckpt)).unwrap(), ckpt);
        let mut db = Database::new();
        let names = Names::new("pc_");
        write_checkpoint(&mut db, &names, &ckpt).unwrap();
        let back = read_checkpoint::<FullParams>(&mut db, &names).unwrap();
        assert_eq!(back, Some(ckpt));
        // A shared-R reader sees k × p covariance cells: not its shape.
        assert!(read_checkpoint::<GmmParams>(&mut db, &names).is_err());
    }

    #[test]
    fn text_roundtrip_preserves_awkward_floats() {
        let mut ckpt = sample();
        ckpt.params.means[0][0] = 1.0 / 3.0;
        ckpt.params.cov[1] = f64::MIN_POSITIVE;
        ckpt.llh_history[0] = -1.234_567_890_123_456_7e300;
        let back = from_text::<GmmParams>(&to_text(&ckpt)).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn malformed_text_is_rejected() {
        assert!(from_text::<GmmParams>("").is_err());
        assert!(from_text::<GmmParams>("sqlem-checkpoint v1\niteration 1\n").is_err());
        let mut ckpt = sample();
        ckpt.llh_history.pop();
        let text = to_text(&ckpt); // iteration 3 but 2 llh entries
        assert!(from_text::<GmmParams>(&text).is_err());
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let mut db = Database::new();
        let names = Names::new("");
        write_checkpoint(&mut db, &names, &sample()).unwrap();
        db.execute(&format!("DELETE FROM {} WHERE i = 1", names.ckpt_w()))
            .unwrap();
        assert!(matches!(
            read_checkpoint::<GmmParams>(&mut db, &names),
            Err(SqlemError::BadParamTable(_))
        ));
    }
}
