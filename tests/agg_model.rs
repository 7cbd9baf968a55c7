//! The columnar group table (`sqlengine::exec::aggregate`: one
//! accumulator column per aggregate, updated batch by batch in typed
//! loops, finalized into typed columns) against the obvious reference:
//! one `AggState` per group and aggregate, fed one row at a time through
//! `AggState::update`, finalized group by group — HAVING, then the items.
//! The reference state is this file's own: the engine keeps none beside
//! its columns.
//!
//! Part one runs seeded random plans — `SUM`/`AVG`/`COUNT`/`COUNT(*)`/
//! `MIN`/`MAX` over a wild DOUBLE column, a BIGINT
//! column past 2^53 (whose sums are BIGINT in one group and DOUBLE in
//! the next), NULL-bearing columns of both types, an all-NULL column and
//! a `CASE` that is BIGINT or DOUBLE by row; no GROUP BY, a clustered
//! key (runs of 7 that straddle the batch boundary), `rid` (runs one
//! row long), a key whose runs are one row long, a NULL-bearing key,
//! two keys; HAVING or none; an item that fails (`ln` of a non-positive
//! number) in some group; a join with a primary-keyed table in the
//! E step's distance shape; the table stored in `rid` order and a copy
//! of it stored backwards; inputs cut at 0, 1 and around 1024 rows — as
//! SQL over the whole table and merged from the partial results of 1, 2
//! and 4 contiguous shards. Every cell must be the reference's: variant,
//! sign of zero, NaN payload; a failing statement must fail with the
//! reference's error: the first row that fails to accumulate (a VARCHAR
//! reaching a `SUM`), else the first failing group's, that group's
//! HAVING before its items. A one-key GROUP BY over a driver column
//! stored in non-decreasing order streams (`EXPLAIN` reads `stream
//! aggregate`); every other shape, and every shard's partial, hashes.
//!
//! A second set of plans holds `MIN` and `MAX` over NULL-free columns —
//! where the group table keeps a typed column of best values — to the
//! same reference: a DOUBLE of ±0 (the least value: the first to arrive
//! must stay), 1, 2 and NaNs of two payloads, its negation, a BIGINT
//! with ±2^53 ± 1 and the `i64` bounds among small numbers, and a `CASE`
//! that is that BIGINT in the first batch and that DOUBLE after it, so a
//! group meets a BIGINT, then a DOUBLE — each with no GROUP BY, streamed,
//! hashed, and merged from 1, 2 and 4 shards.
//!
//! The same checks then run against the reference itself with a fault
//! seeded in — a group's rows fed batch by batch in the wrong order, and
//! the items of a group evaluated before its HAVING — and must reject
//! both: the assertions can tell.
//!
//! Part two holds `INSERT … SELECT` over a GROUP BY to the first group
//! whose aggregate does not coerce to the target's type, and to leaving
//! the target as it was.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use prng::{Rng, StdRng};
use sqlengine::exec::aggregate::AggKind;
use sqlengine::expr::BATCH_ROWS;
use sqlengine::{DataType, Database, Error, ExactSum, PartialAggResult, Value};

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

/// `t`'s columns; `tr` is a copy of `t` stored in descending `rid` order.
const COLUMNS: &str = "(rid BIGINT PRIMARY KEY, c BIGINT, u BIGINT, k2 BIGINT, \
                       d DOUBLE, b BIGINT, nd DOUBLE, nb BIGINT, z DOUBLE, pick BIGINT, \
                       v DOUBLE, w DOUBLE, e DOUBLE, ne DOUBLE, eb BIGINT)";

/// The primary-keyed table a join probes, as the E step's `CR`: a mean
/// and a variance for each `u` below [`CR_ROWS`] — rows of `t` with a
/// larger `u` find no match.
const CR_DDL: &str = "CREATE TABLE cr (cu BIGINT PRIMARY KEY, cj DOUBLE, r DOUBLE)";
const CR_ROWS: i64 = 30;

/// Row `cu` of `cr`: its mean and variance.
fn cr_row(cu: i64) -> (f64, f64) {
    (cu as f64 * 0.25 - 3.0, 0.5 + cu as f64 / 16.0)
}

/// The row of `t` whose `SUM` of [`Arg::Varchar`] meets a string.
const VARCHAR_RID: i64 = 4000;

/// Rows of `t`: several batches on every shard.
const ROWS: usize = 5000;

/// Rows of one clustered (`c`) group: not a divisor of [`BATCH_ROWS`],
/// so a group straddles every batch boundary.
const RUN: usize = 7;

// Column positions.
const RID: usize = 0;
const C: usize = 1;
const U: usize = 2;
const K2: usize = 3;
const D: usize = 4;
const B: usize = 5;
const NB: usize = 7;
const PICK: usize = 9;
const V: usize = 10;
const W: usize = 11;
const E: usize = 12;
const NE: usize = 13;
const EB: usize = 14;

fn wild_double(rng: &mut StdRng) -> f64 {
    let unit: f64 = rng.random();
    match rng.random_range(0..16usize) {
        0 => f64::from_bits(f64::NAN.to_bits() | rng.random_range(1..3usize) as u64),
        1 => -0.0,
        2 => 0.0,
        3 => f64::from_bits(rng.next_u64() % (1 << 52)), // subnormal
        // A responsibility: 1 down to 1e-300, so sums go wide.
        4..=6 => unit * 10f64.powi(-(rng.random_range(0..300usize) as i32)),
        7 => (unit - 0.5) * 1.0e300,
        _ => (unit - 0.5) * 200.0,
    }
}

/// Mostly small; one in six beyond 2^53, where neighbouring integers
/// share a double and a sum of seven no longer fits a BIGINT result.
fn wild_int(rng: &mut StdRng) -> i64 {
    let small = rng.random_range(0..2001usize) as i64 - 1000;
    match rng.random_range(0..6usize) {
        0 => (1 << 53) + small,
        1 if small % 2 == 0 => -(1 << 53) - small,
        _ => small,
    }
}

/// Row `rid`'s draw among 32, from its number alone (the seeded rows
/// above stay as they were).
fn bucket(rid: usize) -> u64 {
    (rid as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59
}

/// A NULL-free DOUBLE for `MIN`/`MAX`: ±0 half the time, the least
/// value, whose first arrival must stay; 1 or 2; one row in 16 a NaN of
/// one of two payloads, above every number.
fn extremum_double(rid: usize) -> f64 {
    match bucket(rid) {
        0 => f64::from_bits(f64::NAN.to_bits() | 1),
        1 => f64::from_bits(f64::NAN.to_bits() | 2),
        2..=9 => -0.0,
        10..=17 => 0.0,
        18..=24 => 1.0,
        _ => 2.0,
    }
}

/// A NULL-free BIGINT for `MIN`/`MAX`: ±2^53 ± 1 and the `i64` bounds
/// among small numbers.
fn extremum_int(rid: usize) -> i64 {
    match bucket(rid) {
        0 => (1 << 53) + 1,
        1 => (1 << 53) - 1,
        2 => -(1 << 53) - 1,
        3 => i64::MIN,
        4 => i64::MAX,
        b => b as i64 % 11 - 5,
    }
}

fn table_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    (0..ROWS)
        .map(|rid| {
            let nullable = |rng: &mut StdRng, v: Value| match rng.random_range(0..5usize) {
                0 => Value::Null,
                _ => v,
            };
            let nd = Value::Double(wild_double(rng));
            let nb = Value::Int(wild_int(rng));
            vec![
                Value::Int(rid as i64),
                Value::Int((rid / RUN) as i64),
                Value::Int((rid % 37) as i64),
                Value::Int((rid / RUN % 5) as i64),
                Value::Double(wild_double(rng)),
                Value::Int(wild_int(rng)),
                nullable(rng, nd),
                nullable(rng, nb),
                Value::Null,
                Value::Int(rng.random_range(0..2usize) as i64),
                Value::Double(rng.random::<f64>() * 20.0 - 10.0),
                // Falls by one from one clustered group to the next.
                Value::Double(1000.0 - (rid / RUN) as f64),
                Value::Double(extremum_double(rid)),
                Value::Double(-extremum_double(rid)),
                Value::Int(extremum_int(rid)),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Func {
    Sum,
    Avg,
    Count,
    CountStar,
    Min,
    Max,
}

/// An aggregate's argument: a column of `t`, the `CASE` that is
/// `b` (BIGINT) where `pick > 0` and `d` (DOUBLE) elsewhere, a
/// distance term as the E step sums them (non-negative, same-scale),
/// the same over the joined `cr` row, `v` but a string in row
/// [`VARCHAR_RID`], or `eb` (BIGINT) in the first batch of `t` and `e`
/// (DOUBLE) after it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arg {
    Col(usize),
    Mixed,
    Dist,
    JoinDist,
    Varchar,
    Flip,
}

const ARG_COLS: [(usize, &str); 7] = [
    (D, "d"),
    (B, "b"),
    (6, "nd"),
    (7, "nb"),
    (8, "z"),
    (V, "v"),
    (W, "w"),
];

/// The NULL-free columns only the extremum plans read.
const EXTREMUM_COLS: [(usize, &str); 3] = [(E, "e"), (NE, "ne"), (EB, "eb")];

type Agg = (Func, Arg);

fn agg_sql((func, arg): Agg) -> String {
    let mut cols = ARG_COLS.iter().chain(&EXTREMUM_COLS);
    let arg = match arg {
        Arg::Col(c) => cols.find(|(pos, _)| *pos == c).unwrap().1,
        Arg::Mixed => "CASE WHEN pick > 0 THEN b ELSE d END",
        Arg::Dist => "(v - 3) ** 2 / 0.7",
        Arg::JoinDist => "(v - cj) ** 2 / r",
        Arg::Varchar => &format!("CASE WHEN rid = {VARCHAR_RID} THEN 'x' ELSE v END"),
        Arg::Flip => &format!("CASE WHEN rid < {BATCH_ROWS} THEN eb ELSE e END"),
    };
    match func {
        Func::Sum => format!("SUM({arg})"),
        Func::Avg => format!("AVG({arg})"),
        Func::Count => format!("COUNT({arg})"),
        Func::CountStar => "COUNT(*)".into(),
        Func::Min => format!("MIN({arg})"),
        Func::Max => format!("MAX({arg})"),
    }
}

/// A SELECT item over the aggregates.
#[derive(Debug, Clone, Copy)]
enum Item {
    /// Aggregate `i` of the plan.
    Agg(usize),
    /// `ln(<aggregate i> - t)`: fails where the aggregate is at most `t`.
    LnAbove(usize, f64),
}

#[derive(Debug, Clone, Copy)]
enum Having {
    /// `HAVING COUNT(*) > m`
    CountAbove(i64),
    /// `HAVING ln(<aggregate i> - t) > -1.0E300`: true unless it fails
    /// (or is NULL).
    LnAbove(usize, f64),
}

#[derive(Debug, Clone)]
struct Plan {
    /// GROUP BY columns (none: one implicit group).
    keys: Vec<usize>,
    aggs: Vec<Agg>,
    items: Vec<Item>,
    having: Option<Having>,
    /// `WHERE rid < below`.
    below: usize,
    /// Read `tr`, the copy stored backwards, instead of `t`.
    backwards: bool,
    /// Join `cr` on `u = cu`.
    join: bool,
}

impl Plan {
    fn sql(&self) -> String {
        let name = |k: &usize| match *k {
            RID => "rid",
            C => "c",
            U => "u",
            K2 => "k2",
            NB => "nb",
            k => unreachable!("column {k} is no key"),
        };
        let keys: Vec<&str> = self.keys.iter().map(name).collect();
        let ln = |i: usize, t: f64| format!("ln({} - {t:?})", agg_sql(self.aggs[i]));
        let items = self.items.iter().map(|item| match *item {
            Item::Agg(i) => agg_sql(self.aggs[i]),
            Item::LnAbove(i, t) => ln(i, t),
        });
        let list: Vec<String> = keys.iter().map(|k| k.to_string()).chain(items).collect();
        let table = if self.backwards { "tr" } else { "t" };
        let mut sql = match self.join {
            false => format!(
                "SELECT {} FROM {table} WHERE rid < {}",
                list.join(", "),
                self.below
            ),
            true => format!(
                "SELECT {} FROM {table}, cr WHERE rid < {} AND u = cu",
                list.join(", "),
                self.below
            ),
        };
        if !keys.is_empty() {
            sql += &format!(" GROUP BY {}", keys.join(", "));
        }
        match self.having {
            None => {}
            Some(Having::CountAbove(m)) => sql += &format!(" HAVING COUNT(*) > {m}"),
            Some(Having::LnAbove(i, t)) => sql += &format!(" HAVING {} > -1.0E300", ln(i, t)),
        }
        sql
    }

    /// Does the statement stream: one key, a driver column stored in
    /// non-decreasing order without NULLs?
    fn streams(&self) -> bool {
        !self.backwards && matches!(self.keys[..], [RID] | [C])
    }
}

/// How a plan is run: in one database, or merged from contiguous shards.
#[derive(Debug, Clone, Copy)]
enum How {
    Whole,
    Shards(usize),
}

const HOWS: [How; 4] = [How::Whole, How::Shards(1), How::Shards(2), How::Shards(4)];

type Outcome = Result<Vec<Vec<Value>>, Error>;

trait Subject {
    fn run(&mut self, plan: &Plan, how: How) -> Outcome;
}

// ---------------------------------------------------------------------
// The reference, and the faults it can be seeded with
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// A group is fed the rows of a later batch before those of an
    /// earlier one: group-major, out of row order across the boundary.
    BatchesBackwards,
    /// A group's items are evaluated before its HAVING.
    HavingAfterItems,
}

struct Reference {
    rows: Vec<Vec<Value>>,
    fault: Option<Fault>,
}

/// One group's accumulator of one aggregate on its own, fed one row at
/// a time ([`AggState::update`]) and finalized on its own: the
/// reference the engine's accumulator columns are held to.
#[derive(Debug)]
enum AggState {
    /// `SUM` — exact sum plus SQL bookkeeping.
    Sum {
        /// Exact running sum.
        acc: ExactSum,
        /// Non-NULL inputs seen (SUM over zero inputs is NULL).
        count: u64,
        /// Every input was an integer (integral SUM stays integral).
        all_int: bool,
    },
    /// `COUNT` — rows counted so far.
    Count(u64),
    /// `AVG` — exact sum plus the divisor count.
    Avg {
        /// Exact running sum.
        acc: ExactSum,
        /// Non-NULL inputs seen.
        count: u64,
    },
    /// `MIN` — best value so far (None = no non-NULL input).
    Min(Option<Value>),
    /// `MAX` — best value so far.
    Max(Option<Value>),
}

/// The order MIN and MAX pick by: SQL comparison, except that a NaN —
/// which SQL comparison orders against nothing — has one fixed place,
/// above every number, where ORDER BY ([`Value::total_cmp`]) sorts it
/// too. NaNs order among themselves by bit pattern, so which one
/// survives never depends on scan or merge order either.
fn extremum_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) if x.is_nan() || y.is_nan() => Some(nan_cmp(x, y)),
        _ => a.sql_cmp(b),
    }
}

/// [`extremum_cmp`] of two doubles of which one at least is a NaN.
fn nan_cmp(x: f64, y: f64) -> Ordering {
    (x.is_nan(), x.to_bits()).cmp(&(y.is_nan(), y.to_bits()))
}

/// Does `candidate` displace the current MIN/MAX `best`?
fn displaces(best: &Option<Value>, candidate: &Value, want: Ordering) -> bool {
    match best {
        None => true,
        Some(b) => extremum_cmp(candidate, b) == Some(want),
    }
}

impl AggState {
    /// The state of `kind` before any input.
    fn new(kind: AggKind) -> AggState {
        match kind {
            AggKind::Sum => AggState::Sum {
                acc: ExactSum::new(),
                count: 0,
                all_int: true,
            },
            AggKind::Count => AggState::Count(0),
            AggKind::Avg => AggState::Avg {
                acc: ExactSum::new(),
                count: 0,
            },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
        }
    }

    /// Feed one input: `None` is `COUNT(*)`'s "count every row";
    /// otherwise NULLs are skipped by every aggregate.
    fn update(&mut self, v: Option<Value>) -> Result<(), Error> {
        let Some(val) = v else {
            if let AggState::Count(c) = self {
                *c += 1;
            }
            return Ok(());
        };
        if val.is_null() {
            return Ok(());
        }
        // SUM/AVG take an integer as the integer it is: past 2^53 its
        // nearest double is another number.
        let add_to = |acc: &mut ExactSum, what: &str| {
            match val {
                Value::Int(i) => acc.add_i64(i),
                _ => acc.add(val.as_f64().ok_or_else(|| Error::TypeMismatch {
                    context: format!("{what} over non-numeric value {val}"),
                })?),
            }
            Ok::<(), Error>(())
        };
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum {
                acc,
                count,
                all_int,
            } => {
                add_to(acc, "SUM")?;
                *all_int &= matches!(val, Value::Int(_));
                *count += 1;
            }
            AggState::Avg { acc, count } => {
                add_to(acc, "AVG")?;
                *count += 1;
            }
            AggState::Min(best) => {
                if displaces(best, &val, Ordering::Less) {
                    *best = Some(val);
                }
            }
            AggState::Max(best) => {
                if displaces(best, &val, Ordering::Greater) {
                    *best = Some(val);
                }
            }
        }
        Ok(())
    }

    /// The aggregate's result over the inputs fed so far.
    fn finalize(&self) -> Value {
        match self {
            AggState::Sum {
                acc,
                count,
                all_int,
            } => {
                let total = acc.finalize();
                if *count == 0 {
                    Value::Null
                } else if *all_int && total.abs() < 9.0e15 {
                    Value::Int(total as i64)
                } else {
                    Value::Double(total)
                }
            }
            AggState::Count(c) => Value::Int(*c as i64),
            AggState::Avg { acc, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(acc.finalize() / *count as f64)
                }
            }
            AggState::Min(b) | AggState::Max(b) => b.clone().unwrap_or(Value::Null),
        }
    }
}

fn fresh(func: Func) -> AggState {
    AggState::new(match func {
        Func::Sum => AggKind::Sum,
        Func::Avg => AggKind::Avg,
        Func::Count | Func::CountStar => AggKind::Count,
        Func::Min => AggKind::Min,
        Func::Max => AggKind::Max,
    })
}

/// `ln(v - t)` as the engine's evaluators have it.
fn ln_above(v: &Value, t: f64) -> Result<Value, Error> {
    let Some(x) = v.as_f64() else {
        return Ok(Value::Null);
    };
    let x = x - t;
    if x <= 0.0 {
        return Err(Error::Arithmetic(format!("ln({x}) is undefined")));
    }
    Ok(Value::Double(x.ln()))
}

/// The joined `cr` row of a row of `t`, if it has one.
fn joined(row: &[Value]) -> Option<(f64, f64)> {
    let u = row[U].as_i64().unwrap();
    (u < CR_ROWS).then(|| cr_row(u))
}

impl Subject for Reference {
    fn run(&mut self, plan: &Plan, _: How) -> Outcome {
        // The rows in stored order that pass WHERE and find a join match.
        let mut rows: Vec<&Vec<Value>> = self.rows.iter().collect();
        if plan.backwards {
            rows.reverse();
        }
        rows.retain(|row| {
            let rid = row[RID].as_i64().unwrap() as usize;
            rid < plan.below && (!plan.join || joined(row).is_some())
        });
        // Groups in first-seen order, each with the rows it holds.
        let mut ids: BTreeMap<Vec<Option<i64>>, usize> = BTreeMap::new();
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        if plan.keys.is_empty() {
            ids.insert(Vec::new(), 0);
            groups.push((Vec::new(), Vec::new()));
        }
        let mut group_of = Vec::with_capacity(rows.len());
        for (pos, row) in rows.iter().enumerate() {
            let key: Vec<Value> = plan.keys.iter().map(|&k| row[k].clone()).collect();
            let cells = key.iter().map(Value::as_i64).collect();
            let id = *ids.entry(cells).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[id].1.push(pos);
            group_of.push(id);
        }

        // Every row accumulates before any group is finalized: in row
        // order, or group by group with the batches backwards.
        let mut feed: Vec<usize> = (0..rows.len()).collect();
        if self.fault == Some(Fault::BatchesBackwards) {
            feed.clear();
            for (_, members) in &groups {
                let mut members = members.clone();
                // Stable: rows of one batch keep their order.
                members.sort_by_key(|pos| std::cmp::Reverse(pos / BATCH_ROWS));
                feed.extend(members);
            }
        }
        let fresh_states = || plan.aggs.iter().map(|(f, _)| fresh(*f)).collect();
        let mut states: Vec<Vec<AggState>> = groups.iter().map(|_| fresh_states()).collect();
        for pos in feed {
            let row = rows[pos];
            for (state, (func, arg)) in states[group_of[pos]].iter_mut().zip(&plan.aggs) {
                let input = match (func, arg) {
                    (Func::CountStar, _) => None,
                    (_, Arg::Col(c)) => Some(row[*c].clone()),
                    (_, Arg::Mixed) => {
                        let picked = matches!(row[PICK], Value::Int(p) if p > 0);
                        Some(row[if picked { B } else { D }].clone())
                    }
                    (_, Arg::Dist | Arg::JoinDist) => {
                        let (mean, var) = match arg {
                            Arg::Dist => (3.0, 0.7),
                            _ => joined(row).unwrap(),
                        };
                        let v = row[V].as_f64().unwrap() - mean;
                        Some(Value::Double(v.powf(std::hint::black_box(2.0)) / var))
                    }
                    (_, Arg::Varchar) => match row[RID] {
                        Value::Int(VARCHAR_RID) => Some(Value::str("x")),
                        _ => Some(row[V].clone()),
                    },
                    (_, Arg::Flip) => {
                        let first = row[RID].as_i64().unwrap() < BATCH_ROWS as i64;
                        Some(row[if first { EB } else { E }].clone())
                    }
                };
                state.update(input)?;
            }
        }

        let mut out = Vec::new();
        for ((key, members), states) in groups.into_iter().zip(states) {
            let results: Vec<Value> = states.iter().map(AggState::finalize).collect();
            let items = || -> Result<Vec<Value>, Error> {
                let item = |item: &Item| match *item {
                    Item::Agg(i) => Ok(results[i].clone()),
                    Item::LnAbove(i, t) => ln_above(&results[i], t),
                };
                plan.items.iter().map(item).collect()
            };
            let having = || -> Result<bool, Error> {
                Ok(match plan.having {
                    None => true,
                    Some(Having::CountAbove(m)) => members.len() as i64 > m,
                    Some(Having::LnAbove(i, t)) => {
                        matches!(ln_above(&results[i], t)?, Value::Double(y) if y > -1.0e300)
                    }
                })
            };
            let row = match self.fault {
                Some(Fault::HavingAfterItems) => {
                    let row = items()?;
                    having()?.then_some(row)
                }
                _ => match having()? {
                    true => Some(items()?),
                    false => None,
                },
            };
            out.extend(row.map(|items| key.into_iter().chain(items).collect()));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct Engine {
    whole: Database,
    /// The table cut into 1, 2 and 4 contiguous shards.
    sharded: Vec<Vec<Database>>,
    /// Finalizes merged partials: the schema, no rows.
    shadow: Database,
}

/// A database holding `t`, `tr` and `cr`.
fn database_with(t: &[Vec<Value>], tr: &[Vec<Value>]) -> Database {
    let mut db = Database::new();
    db.execute(&format!(
        "CREATE TABLE t {COLUMNS}; CREATE TABLE tr {COLUMNS}; {CR_DDL}"
    ))
    .unwrap();
    db.bulk_insert("t", t.to_vec()).unwrap();
    db.bulk_insert("tr", tr.to_vec()).unwrap();
    let cr = (0..CR_ROWS).map(|cu| {
        let (cj, r) = cr_row(cu);
        vec![Value::Int(cu), Value::Double(cj), Value::Double(r)]
    });
    db.bulk_insert("cr", cr).unwrap();
    db
}

impl Engine {
    fn new(rows: &[Vec<Value>]) -> Engine {
        let backwards: Vec<Vec<Value>> = rows.iter().rev().cloned().collect();
        let cut = |shards: usize| {
            let len = rows.len().div_ceil(shards);
            let chunks = rows.chunks(len).zip(backwards.chunks(len));
            chunks.map(|(t, tr)| database_with(t, tr)).collect()
        };
        Engine {
            whole: database_with(rows, &backwards),
            sharded: [1, 2, 4].map(cut).into(),
            shadow: database_with(&[], &[]),
        }
    }
}

/// Does `EXPLAIN` of `sql` in `db` name the streaming sink?
fn explains_a_stream(db: &mut Database, sql: &str) -> bool {
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let mut lines = plan.rows.iter().map(|row| row[0].to_string());
    lines.any(|l| l.starts_with("sink: stream aggregate"))
}

impl Subject for Engine {
    fn run(&mut self, plan: &Plan, how: How) -> Outcome {
        let sql = plan.sql();
        let result = match how {
            How::Whole => {
                let streams = explains_a_stream(&mut self.whole, &sql);
                assert_eq!(streams, plan.streams(), "{sql}");
                self.whole.execute(&sql)?
            }
            How::Shards(shards) => {
                let mut merged = PartialAggResult::default();
                for shard in &mut self.sharded[shards.trailing_zeros() as usize] {
                    merged.merge(&shard.execute_partial(&sql)?)?;
                }
                self.shadow.finalize_partials(&sql, &merged)?
            }
        };
        Ok(result.rows.into_iter().map(|r| r.into_vec()).collect())
    }
}

// ---------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------

/// Same variant, and doubles by bit pattern (sign of zero, NaN payload).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        (Value::Double(_), _) | (_, Value::Double(_)) => false,
        _ => a == b,
    }
}

fn same_outcome(got: &Outcome, want: &Outcome) -> bool {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            got.len() == want.len()
                && got.iter().zip(want).all(|(g, w)| {
                    g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same_value(a, b))
                })
        }
        (Err(got), Err(want)) => got == want,
        _ => false,
    }
}

fn random_agg(rng: &mut StdRng, join: bool) -> Agg {
    const FUNCS: [Func; 6] = [
        Func::Sum,
        Func::Avg,
        Func::Count,
        Func::CountStar,
        Func::Min,
        Func::Max,
    ];
    let func = FUNCS[rng.random_range(0..FUNCS.len())];
    let arg = match (func, rng.random_range(0..ARG_COLS.len() + 3)) {
        (_, n) if n == ARG_COLS.len() => Arg::Mixed,
        (_, n) if n == ARG_COLS.len() + 1 => Arg::Dist,
        (_, n) if n == ARG_COLS.len() + 2 && join => Arg::JoinDist,
        (_, n) if n == ARG_COLS.len() + 2 => Arg::Dist,
        (_, n) => Arg::Col(ARG_COLS[n].0),
    };
    (func, arg)
}

const KEY_SHAPES: [&[usize]; 6] = [&[], &[C], &[RID], &[U], &[NB], &[K2, U]];

fn random_plan(rng: &mut StdRng) -> Plan {
    let keys = KEY_SHAPES[rng.random_range(0..KEY_SHAPES.len())].to_vec();
    let (backwards, join) = (
        rng.random_range(0..4usize) == 0,
        rng.random_range(0..4usize) == 0,
    );
    let mut aggs: Vec<Agg> = (0..rng.random_range(1..5usize))
        .map(|_| random_agg(rng, join))
        .collect();
    let mut items: Vec<Item> = (0..aggs.len()).map(Item::Agg).collect();
    // One plan in three reads an extremum of the tame column through an
    // `ln` that some groups fail (a 7-row group's maximum is below 9
    // one time in two).
    let ln_of_extremum = |rng: &mut StdRng, aggs: &mut Vec<Agg>| {
        let func = [Func::Max, Func::Min][rng.random_range(0..2usize)];
        aggs.push((func, Arg::Col(V)));
        (aggs.len() - 1, rng.random_range(0..10usize) as f64 + 0.5)
    };
    if rng.random_range(0..3usize) == 0 {
        let (i, t) = ln_of_extremum(rng, &mut aggs);
        items.push(Item::LnAbove(i, t));
    }
    let having = match rng.random_range(0..4usize) {
        0 => Some(Having::CountAbove(
            [0, 6, 7, 135, 1000][rng.random_range(0..5usize)],
        )),
        1 => {
            let (i, t) = ln_of_extremum(rng, &mut aggs);
            Some(Having::LnAbove(i, t))
        }
        _ => None,
    };
    let below = match rng.random_range(0..8usize) {
        0 => 0,
        1 => 1,
        2 => BATCH_ROWS - 1,
        3 => BATCH_ROWS,
        4 => BATCH_ROWS + 1,
        _ => ROWS,
    };
    Plan {
        keys,
        aggs,
        items,
        having,
        below,
        backwards,
        join,
    }
}

/// The plans every subject must get right whatever the seed draws:
/// empty input with and without GROUP BY, the tame column's aggregates
/// over each key shape, and the three orders in which a HAVING and an
/// item can fail.
fn fixed_plans() -> Vec<Plan> {
    let tame = vec![
        (Func::Avg, Arg::Col(V)),
        (Func::Min, Arg::Col(V)),
        (Func::Sum, Arg::Col(D)),
        (Func::CountStar, Arg::Col(V)),
    ];
    let plain = |keys: &[usize], aggs: &[Agg], below: usize| Plan {
        keys: keys.to_vec(),
        aggs: aggs.to_vec(),
        items: (0..aggs.len()).map(Item::Agg).collect(),
        having: None,
        below,
        backwards: false,
        join: false,
    };
    let mut plans = vec![plain(&[], &tame, 0), plain(&[C], &tame, 0)];
    plans.extend(KEY_SHAPES.iter().map(|keys| plain(keys, &tame, ROWS)));
    // The same over the copy stored backwards: every shape hashes.
    let backwards = |plan: Plan| Plan {
        backwards: true,
        ..plan
    };
    plans.extend(
        KEY_SHAPES
            .iter()
            .map(|keys| backwards(plain(keys, &tame, ROWS))),
    );
    // The E step's distances: `GROUP BY rid` over a primary-key join,
    // whose matches come in probing-row order (rows without one drop).
    let distances = [(Func::Sum, Arg::JoinDist), (Func::Avg, Arg::JoinDist)];
    for keys in [&[RID][..], &[C]] {
        let plan = plain(keys, &distances, ROWS);
        plans.push(Plan { join: true, ..plan });
        let plan = backwards(plain(keys, &distances, ROWS));
        plans.push(Plan { join: true, ..plan });
    }
    // `w` is 1000 - c: `ln(MAX(w) - 990.5)` fails from group 10 on,
    // `ln(MIN(w) - 980.25)` from group 20 on.
    let extrema = [(Func::Max, Arg::Col(W)), (Func::Min, Arg::Col(W))];
    let ordered = |item: Item, having: Having| Plan {
        keys: vec![C],
        aggs: extrema.to_vec(),
        items: vec![Item::Agg(1), item],
        having: Some(having),
        below: ROWS,
        backwards: false,
        join: false,
    };
    plans.extend([
        // The item fails at an earlier group than HAVING: the item's error.
        ordered(Item::LnAbove(0, 990.5), Having::LnAbove(1, 980.25)),
        // Both fail at group 10: HAVING's error.
        ordered(Item::LnAbove(0, 990.5), Having::LnAbove(1, 990.25)),
        // HAVING keeps no group (none has more than 7 rows): no error.
        ordered(Item::LnAbove(0, 990.5), Having::CountAbove(RUN as i64)),
    ]);
    // A string reaches a SUM batches after a group failed in its item,
    // or in its HAVING: the row's accumulation error, not the group's.
    for (item, having) in [
        (Item::LnAbove(0, 990.5), Having::CountAbove(0)),
        (Item::Agg(0), Having::LnAbove(1, 980.25)),
    ] {
        let mut plan = ordered(item, having);
        plan.aggs.push((Func::Sum, Arg::Varchar));
        plan.items.push(Item::Agg(2));
        plans.push(plan.clone());
        plans.push(backwards(plan));
    }
    plans
}

/// `MIN` and `MAX` of every NULL-free extremum argument, with no GROUP
/// BY and by `c` (streamed over `t`, hashed over `tr`) and by `u`
/// (hashed, ~135 rows a group: every group sees both batch variants of
/// [`Arg::Flip`]).
fn extremum_plans() -> Vec<Plan> {
    let args = [Arg::Col(E), Arg::Col(NE), Arg::Col(EB), Arg::Flip];
    let aggs: Vec<Agg> = args
        .iter()
        .flat_map(|&arg| [(Func::Min, arg), (Func::Max, arg)])
        .collect();
    let mut plans = Vec::new();
    for (keys, backwards) in [(&[][..], false), (&[C], false), (&[C], true), (&[U], false)] {
        plans.push(Plan {
            keys: keys.to_vec(),
            items: (0..aggs.len()).map(Item::Agg).collect(),
            aggs: aggs.clone(),
            having: None,
            below: ROWS,
            backwards,
            join: false,
        });
    }
    plans
}

/// Run every plan every way; the first disagreement with the reference,
/// or how many statements failed (as the reference said they would).
fn check_all(subject: &mut dyn Subject, truth: &mut Reference) -> Result<usize, String> {
    let mut rng = StdRng::seed_from_u64(0x0A66_C015);
    let mut plans = fixed_plans();
    plans.extend((0..120).map(|_| random_plan(&mut rng)));
    check_plans(subject, truth, &plans)
}

/// Run `plans` every way; the first disagreement with the reference, or
/// how many statements failed (as the reference said they would).
fn check_plans(
    subject: &mut dyn Subject,
    truth: &mut Reference,
    plans: &[Plan],
) -> Result<usize, String> {
    let mut failing = 0;
    for plan in plans {
        let want = truth.run(plan, How::Whole);
        failing += want.is_err() as usize;
        for how in HOWS {
            let got = subject.run(plan, how);
            if !same_outcome(&got, &want) {
                let show = |o: &Outcome| match o {
                    Ok(rows) => format!("{} row(s), first {:?}", rows.len(), rows.first()),
                    Err(e) => format!("error {e:?}"),
                };
                return Err(format!(
                    "{} ({how:?}): {}; the reference says {}",
                    plan.sql(),
                    show(&got),
                    show(&want)
                ));
            }
        }
    }
    Ok(failing)
}

#[test]
fn statements_aggregate_as_the_row_at_a_time_reference_whatever_the_partitioning() {
    let rows = table_rows(&mut StdRng::seed_from_u64(0x0A66_7AB1));
    let mut truth = Reference {
        rows: rows.clone(),
        fault: None,
    };
    let failing = check_all(&mut Engine::new(&rows), &mut truth).unwrap();
    // The plans have to reach both outcomes.
    assert!((10..100).contains(&failing), "{failing} failing plans");
}

#[test]
fn min_and_max_over_null_free_columns_are_the_references_whatever_the_partitioning() {
    let rows = table_rows(&mut StdRng::seed_from_u64(0x0A66_7AB1));
    let mut truth = Reference {
        rows: rows.clone(),
        fault: None,
    };
    let plans = extremum_plans();
    assert_eq!(
        check_plans(&mut Engine::new(&rows), &mut truth, &plans),
        Ok(0)
    );
    // The data reach what the plans are for: a group whose least value
    // is a zero of either sign, a NaN maximum, and (by `u`) both signs
    // of zero in one group.
    let e: Vec<f64> = (0..ROWS).map(extremum_double).collect();
    assert!(e.iter().any(|x| x.is_nan()) && e.iter().any(|x| x.is_sign_negative()));
    let group: Vec<f64> = e.iter().step_by(37).copied().collect();
    let zero = |negative: bool| move |x: &f64| *x == 0.0 && x.is_sign_negative() == negative;
    assert!(group.iter().any(zero(false)) && group.iter().any(zero(true)));
}

#[test]
fn the_checks_reject_updates_out_of_row_order_and_a_having_evaluated_after_the_items() {
    let rows = table_rows(&mut StdRng::seed_from_u64(0x0A66_7AB1));
    let subject = |fault| Reference {
        rows: rows.clone(),
        fault,
    };
    let mut truth = subject(None);
    check_all(&mut subject(None), &mut truth).unwrap();
    for fault in [Fault::BatchesBackwards, Fault::HavingAfterItems] {
        let verdict = check_all(&mut subject(Some(fault)), &mut truth);
        assert!(verdict.is_err(), "{fault:?} passes the checks");
    }
}

// ---------------------------------------------------------------------
// Part two: INSERT … SELECT
// ---------------------------------------------------------------------

#[test]
fn an_insert_select_fails_at_the_first_group_whose_aggregate_does_not_coerce() {
    // Group g of `t` holds g, g and g + h: the sum is integral where h
    // is, and that is every group before the fourth.
    let mut db = Database::new();
    db.execute("CREATE TABLE t (rid BIGINT PRIMARY KEY, g BIGINT, x DOUBLE)")
        .unwrap();
    let halves = [0.0, 1.0, 0.0, 0.5, 0.0, 0.25];
    let rows: Vec<Vec<Value>> = (0..3 * halves.len())
        .map(|rid| {
            let g = rid / 3;
            let x = g as f64 + if rid % 3 == 2 { halves[g] } else { 0.0 };
            vec![
                Value::Int(rid as i64),
                Value::Int(g as i64),
                Value::Double(x),
            ]
        })
        .collect();
    db.bulk_insert("t", rows).unwrap();
    db.execute("CREATE TABLE o (g BIGINT PRIMARY KEY, s BIGINT, n BIGINT)")
        .unwrap();

    let insert = "INSERT INTO o SELECT g, SUM(x), COUNT(*) FROM t";
    let err = db.execute(&format!("{insert} GROUP BY g")).unwrap_err();
    let want = Value::Double(9.5).coerce_to(DataType::BigInt).unwrap_err();
    assert_eq!(err, want);
    let count =
        |db: &mut Database| db.execute("SELECT COUNT(*) FROM o").unwrap().rows[0][0].clone();
    assert_eq!(
        count(&mut db),
        Value::Int(0),
        "a failed insert changes nothing"
    );

    // With the failing groups kept out by HAVING, and by WHERE, it lands.
    for (tail, groups) in [
        ("GROUP BY g HAVING SUM(x) = 3 * g OR g = 1", 4),
        ("WHERE g < 3 GROUP BY g", 3),
    ] {
        let done = db.execute(&format!("{insert} {tail}")).unwrap();
        assert_eq!(done.rows_affected, groups, "{tail}");
        let sums = db.execute("SELECT g, s, n FROM o ORDER BY g").unwrap();
        for row in &sums.rows {
            let g = row[0].as_i64().unwrap();
            let s = 3 * g + (g == 1) as i64;
            assert_eq!(row[1..], [Value::Int(s), Value::Int(3)], "group {g}");
        }
        db.execute("DELETE FROM o").unwrap();
    }
}
