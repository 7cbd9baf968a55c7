//! Aggregation (GROUP BY), hashed or streamed, and aggregate-expression
//! rewriting.
//!
//! The planner rewrites projection/HAVING expressions into *post-aggregate*
//! expressions over a synthetic row `[group keys…, aggregate results…]`.
//! Each distinct aggregate call (`SUM(Z.y1*x1)` etc.) becomes one
//! accumulator slot; expressions combining aggregates — the M step's
//! `sum(Z.y1*x1)/sum(x1)` — evaluate over the finalized slots.
//!
//! Accumulation is batch-at-a-time ([`AggSink`]'s `BatchSink::push`):
//! the group-key and argument expressions are evaluated once per batch
//! into typed columns, and the key columns are hashed once, a column at
//! a time. The group table is columns on both sides. The distinct keys
//! sit under the engine's one hash table ([`crate::keytable`]) as one
//! column per GROUP BY expression in first-seen order — each key exactly
//! as it first arrived: `Int(1)` stays `Int(1)` when `Double(1.0)` joins
//! its group. The accumulators are one column per planned aggregate —
//! `SUM`/`AVG` a vector of [`ExactSum`]s beside a vector of counts,
//! `COUNT` a vector of counts, `MIN`/`MAX` a typed column of best
//! values — and group `g` is row `g` of every one
//! of them: a new group is one push per column, and nothing is
//! allocated per group. A batch is cut into *runs* of equal keys, one
//! lookup per run, and the runs are then fed aggregate by
//! aggregate, the loop chosen once per batch by the aggregate and the
//! variant of its argument column: a run of a DOUBLE column goes to its
//! sum as one slice (`ExactSum::add_slice`, which picks its tier once,
//! not per row), a BIGINT column integer by integer
//! (`ExactSum::add_i64`: exact past 2^53 too). Values reach an
//! accumulator in row order, exactly as they did one row at a time.
//! Finalizing writes each aggregate's results as one typed column
//! beside the key columns and runs HAVING and the SELECT items over
//! those as over any other batch, so an `INSERT … SELECT` appends
//! columns to its target and no row is built between GROUP BY and the
//! table; rows are made once, for a client. Groups are numbered in 32
//! bits; a statement that meets more fails with [`Error::GroupTableFull`].
//!
//! Input already in key order needs no group table: [`StreamSink`] holds
//! one open group and hands each batch's finished groups through the same
//! finalize tail as they complete. `exec::select` picks it when the one
//! GROUP BY key is a driver column stored in non-decreasing order — the
//! E step's `GROUP BY rid` over `Y`, loaded in `rid` order — and the hash
//! sink ([`AggSink`]) for everything else, the scatter half of a
//! distributed aggregate included. Both give every result the same bits.
//!
//! Numeric behaviour: `SUM`/`AVG` skip NULLs; `SUM` over zero non-NULL
//! inputs is NULL (SQL), `COUNT` is 0; `SUM` of integers stays integral,
//! anything else is a double.
//!
//! `SUM`/`AVG` accumulate through [`ExactSum`], so the finalized value
//! is the correctly-rounded sum of the input multiset — bit-identical
//! under any partitioning across cluster shards. An `ExactSum` is 48
//! bytes while its sum is short (a `GROUP BY rid` table holds n·k of
//! them) and moves itself into a fixed-point superaccumulator when it is
//! not (the M step's whole-table sums over underflowing
//! responsibilities), where an add costs the same whatever the magnitude
//! spread; which of the two a sum was in never shows in a result. The
//! group table crosses a process or the wire as these columns, and there
//! is one merge, column into column: a single-node SELECT finalizes its
//! own group table, a shard
//! ships it un-finalized ([`PartialAggResult`]) and the coordinator
//! merges and finalizes. `MIN`/`MAX` order by SQL comparison
//! with every NaN above every number (where ORDER BY sorts it), so they
//! too are independent of scan and merge order: every aggregate merges
//! exactly, in any order.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::ops::Range;

use crate::analyze::{AnalyzeErrorKind, Checked, Clause, Planned};
use crate::ast::{is_aggregate_name, Expr};
use crate::error::{Error, Result};
use crate::exactsum::ExactSum;
use crate::exec::select::BatchSink;
use crate::expr::{compile, scalar_func, Batch, CExpr, Column, ColumnResolver, Ty};
use crate::keytable::{hash_rows, KeySet, KeyView, MAX_KEYS};
use crate::value::Value;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(expr)` or `COUNT(*)` (arg = None)
    Count,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggKind {
    fn from_name(name: &str) -> Option<AggKind> {
        Some(match name {
            "sum" => AggKind::Sum,
            "count" => AggKind::Count,
            "avg" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            _ => return None,
        })
    }
}

/// One aggregate accumulator specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Which aggregate.
    pub kind: AggKind,
    /// Argument over the base (joined) row; `None` = `COUNT(*)`.
    pub arg: Option<CExpr>,
}

/// A fully planned aggregation.
#[derive(Debug, Clone)]
pub struct AggPlan {
    /// Group-key expressions over the base row.
    pub keys: Vec<CExpr>,
    /// Accumulator specs.
    pub aggs: Vec<AggSpec>,
    /// Projection items over `[keys…, aggs…]`.
    pub items: Vec<CExpr>,
    /// HAVING over `[keys…, aggs…]`.
    pub having: Option<CExpr>,
}

/// Rewrite SELECT items + HAVING into an [`AggPlan`]. The first
/// `n_visible` items are the SELECT list, the rest hidden ORDER BY keys.
pub fn plan_aggregate(
    item_exprs: &[impl Borrow<Expr>],
    n_visible: usize,
    group_by: &[Expr],
    having: Option<&Expr>,
    resolver: &ColumnResolver<'_>,
) -> Planned<AggPlan> {
    let keys: Vec<CExpr> = group_by
        .iter()
        .map(|e| compile(e, resolver).map_err(|k| k.at(Clause::GroupBy)))
        .collect::<Planned<_>>()?;

    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut items = Vec::with_capacity(item_exprs.len());
    for (j, e) in item_exprs.iter().enumerate() {
        let clause = Clause::of_item(j, n_visible);
        items.push(rewrite(e.borrow(), &keys, &mut aggs, resolver).map_err(|k| k.at(clause))?);
    }
    let having = having
        .map(|h| rewrite(h, &keys, &mut aggs, resolver).map_err(|k| k.at(Clause::Having)))
        .transpose()?;
    Ok(AggPlan {
        keys,
        aggs,
        items,
        having,
    })
}

/// Rewrite one expression into a post-aggregate expression.
///
/// Rules, applied top-down:
/// 1. a subexpression that compiles (aggregate-free) to the same [`CExpr`]
///    as a group key becomes a reference to that key slot;
/// 2. an aggregate call becomes a reference to its accumulator slot
///    (deduplicated structurally);
/// 3. otherwise recurse; a leaf column that survives to here is a
///    non-grouped column — an error.
fn rewrite(
    expr: &Expr,
    keys: &[CExpr],
    aggs: &mut Vec<AggSpec>,
    resolver: &ColumnResolver<'_>,
) -> Checked<CExpr> {
    // Rule 1: matches a group key? (What does not compile is reported
    // by the recursion below, at the leaf that is wrong.)
    if !expr.contains_aggregate() {
        if let Ok(compiled) = compile(expr, resolver) {
            if let Some(i) = keys.iter().position(|k| *k == compiled) {
                return Ok(CExpr::Col(i));
            }
            // A constant is fine as-is.
            let mut constant = true;
            compiled.for_each_slot(&mut |_| constant = false);
            if constant {
                return Ok(compiled);
            }
        }
    }
    let misuse = |m: String| Err(AnalyzeErrorKind::AggregateMisuse(m));
    let mut sub = |e: &Expr| rewrite(e, keys, aggs, resolver);
    Ok(match expr {
        Expr::Func { name, args } if is_aggregate_name(name) => {
            let kind = AggKind::from_name(name).expect("an aggregate name");
            let arg = match args.as_slice() {
                [] if kind == AggKind::Count => None,
                [] => return misuse(format!("{name}() requires an argument")),
                [arg] if arg.contains_aggregate() => {
                    return misuse("nested aggregate calls are not allowed".into())
                }
                [arg] => Some(compile(arg, resolver)?),
                _ => return misuse(format!("{name}() takes one argument, got {}", args.len())),
            };
            let spec = AggSpec { kind, arg };
            let idx = match aggs.iter().position(|a| *a == spec) {
                Some(i) => i,
                None => {
                    aggs.push(spec);
                    aggs.len() - 1
                }
            };
            CExpr::Col(keys.len() + idx)
        }
        Expr::Literal(v) => CExpr::Const(v.clone()),
        Expr::Column { table, name } => {
            // A name that does not resolve is that error, not this one.
            resolver.resolve(table.as_deref(), name)?;
            let display = match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            };
            return misuse(format!(
                "column {display} must appear in GROUP BY or inside an aggregate"
            ));
        }
        Expr::Unary { op, expr } => CExpr::Unary(*op, Box::new(sub(expr)?)),
        Expr::Binary { op, left, right } => {
            CExpr::Binary(*op, Box::new(sub(left)?), Box::new(sub(right)?))
        }
        Expr::Func { name, args } => CExpr::Func(
            scalar_func(name, args.len())?,
            args.iter().map(sub).collect::<Checked<_>>()?,
        ),
        Expr::Case { whens, else_expr } => CExpr::Case {
            whens: whens
                .iter()
                .map(|(c, r)| Ok((sub(c)?, sub(r)?)))
                .collect::<Checked<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(sub(e)?)),
                None => None,
            },
        },
        Expr::IsNull { expr, negated } => CExpr::IsNull(Box::new(sub(expr)?), *negated),
    })
}

// ---------------------------------------------------------------------
// Accumulation
// ---------------------------------------------------------------------

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

impl AggSpec {
    /// The static type of what this aggregate's column finalizes to
    /// (`Accumulators::finalize`) when base-row slot `i` holds values
    /// of type `slots[i]`, or why accumulating it can only fail. (An
    /// integral `SUM` past ±9·10¹⁵ finalizes as a DOUBLE; like the
    /// DOUBLE → BIGINT coercion check that depends on the data.)
    pub fn result_ty(&self, slots: &[Ty]) -> Checked<Ty> {
        let arg = match &self.arg {
            Some(a) => a.ty(slots)?,
            None => Ty::Null,
        };
        let numeric = || arg.require_numeric(|| format!("{:?}", self.kind).to_ascii_lowercase());
        Ok(match self.kind {
            AggKind::Count => Ty::Int,
            AggKind::Min | AggKind::Max => arg,
            AggKind::Sum => numeric()?.arith(Ty::Int),
            AggKind::Avg => {
                numeric()?;
                Ty::Double
            }
        })
    }
}

// ---------------------------------------------------------------------
// The group table, in memory and in transit
// ---------------------------------------------------------------------

/// What `SUM` holds, a vector per field — the exact running sum, the
/// non-NULL inputs (a `SUM` of none is NULL) and whether each was an
/// integer (an integral `SUM` stays integral): row `g` of each is group
/// `g`'s. (`AVG` carries `all_int` without reading it.)
#[derive(Debug, Clone, Default)]
struct Sums {
    acc: Vec<ExactSum>,
    count: Vec<u64>,
    all_int: Vec<bool>,
}

/// What `MIN` or `MAX` holds, a column of the best value of each group
/// so far: row `g` is group `g`'s, NULL until its first non-NULL input.
/// While every input is a DOUBLE, or every one a BIGINT, it is a column
/// of that type with a validity mask, updated in a typed loop; an input
/// of another variant once a group holds a value demotes it to a
/// [`Column::Val`], compared value by value — as a [`KeySet`] key column
/// demotes. Either way a value displaces the best only when
/// [`extremum_cmp`] orders it strictly before (`MIN`) or after (`MAX`),
/// so the first of equal values stays.
#[derive(Debug, Clone)]
struct Extrema {
    /// `Less` for `MIN`, `Greater` for `MAX`.
    want: Ordering,
    /// A DOUBLE or BIGINT column, its mask always present, or values.
    best: Column,
    /// Whether a group holds a value: until one does the column may
    /// take any variant.
    seen: bool,
}

/// One planned aggregate's accumulators, one per group: plain vectors
/// and columns a batch updates in typed loops.
#[derive(Debug, Clone)]
enum Accumulators {
    Sum(Sums),
    Avg(Sums),
    Count(Vec<u64>),
    /// `MIN`, `MAX`.
    Best(Extrema),
}

/// One group's accumulator of one aggregate, borrowed from its column:
/// what a partial result is written out in ([`PartialAggResult::group`])
/// and what a merge copies or merges in.
#[derive(Debug, Clone, Copy)]
pub enum AggCell<'a> {
    /// `SUM`: the exact sum, the non-NULL inputs, whether each was an integer.
    Sum(&'a ExactSum, u64, bool),
    /// `AVG`: the exact sum and the non-NULL inputs.
    Avg(&'a ExactSum, u64),
    /// `COUNT`: the rows counted.
    Count(u64),
    /// `MIN`: row `.1` of the column `.0` is the best value (NULL: none).
    Min(&'a Column, usize),
    /// `MAX`: as `MIN`.
    Max(&'a Column, usize),
}

impl AggCell<'_> {
    /// The aggregate this is an accumulator of.
    fn kind(&self) -> AggKind {
        match self {
            AggCell::Sum(..) => AggKind::Sum,
            AggCell::Avg(..) => AggKind::Avg,
            AggCell::Count(_) => AggKind::Count,
            AggCell::Min(..) => AggKind::Min,
            AggCell::Max(..) => AggKind::Max,
        }
    }
}

/// Call `f` with each run's group and rows, in row order.
fn for_runs(runs: &[(usize, usize)], mut f: impl FnMut(usize, Range<usize>)) {
    let mut start = 0;
    for &(gid, end) in runs {
        f(gid, start..end);
        start = end;
    }
}

impl Sums {
    /// Add each run's rows of a column to its group's sum, exactly and
    /// in row order.
    fn add(&mut self, col: &Column, runs: &[(usize, usize)]) {
        let Sums {
            acc,
            count,
            all_int,
        } = self;
        match col {
            // A DOUBLE column without NULLs: a run is one slice, so the
            // sum picks its tier once per run, not once per row.
            Column::F64(v, None) => for_runs(runs, |gid, rows| {
                count[gid] += rows.len() as u64;
                all_int[gid] = false;
                acc[gid].add_slice(&v[rows]);
            }),
            // Otherwise value by value, in row order: an integer as the
            // integer it is (exact past 2^53), a NULL skipped (a string
            // ended the batch before it).
            _ => for_runs(runs, |gid, rows| {
                for p in rows {
                    match col.value(p) {
                        Value::Int(i) => acc[gid].add_i64(i),
                        Value::Double(d) => {
                            acc[gid].add(d);
                            all_int[gid] = false;
                        }
                        _ => continue,
                    }
                    count[gid] += 1;
                }
            }),
        }
    }

    /// Which groups saw an input (`SUM`/`AVG` of the others is NULL), as
    /// a column's validity.
    fn seen(&self) -> Option<Vec<bool>> {
        let seen = || self.count.iter().map(|c| *c > 0).collect();
        self.count.contains(&0).then(seen)
    }
}

/// Fold the values of `v` (NULL where `valid` says so) into the best of
/// each run's group, in row order: `beats(x, b)` when `x` displaces `b`.
/// Whether a value was kept.
fn keep_best<T: Copy>(
    (best, held): (&mut [T], &mut [bool]),
    (v, valid): (&[T], &Option<Vec<bool>>),
    runs: &[(usize, usize)],
    beats: impl Fn(T, T) -> bool,
) -> bool {
    let mut kept = false;
    for_runs(runs, |g, rows| {
        for p in rows {
            let x = v[p];
            if valid.as_ref().is_none_or(|m| m[p]) && (!held[g] || beats(x, best[g])) {
                (best[g], held[g], kept) = (x, true, true);
            }
        }
    });
    kept
}

impl Extrema {
    fn new(want: Ordering) -> Extrema {
        Extrema {
            want,
            best: Column::F64(Vec::new(), Some(Vec::new())),
            seen: false,
        }
    }

    /// Append a group, NULL.
    fn grow(&mut self) {
        match &mut self.best {
            Column::F64(v, Some(held)) => {
                v.push(0.0);
                held.push(false);
            }
            Column::I64(v, Some(held)) => {
                v.push(0);
                held.push(false);
            }
            Column::Val(v) => v.push(Value::Null),
            col => unreachable!("a typed best column keeps its mask: {col:?}"),
        }
    }

    /// Make the column one that takes `arg`'s cells: as it is when it is
    /// of `arg`'s variant or values already; `arg`'s variant while no
    /// group holds a value; values otherwise.
    fn settle(&mut self, arg: &Column) {
        let n = self.best.len();
        self.best = match (&self.best, arg) {
            (Column::F64(..), Column::F64(..))
            | (Column::I64(..), Column::I64(..))
            | (Column::Val(_), _) => return,
            (_, Column::F64(..)) if !self.seen => Column::F64(vec![0.0; n], Some(vec![false; n])),
            (_, Column::I64(..)) if !self.seen => Column::I64(vec![0; n], Some(vec![false; n])),
            (best, _) => Column::Val((0..n).map(|g| best.value(g)).collect()),
        };
    }

    /// Offer each run's rows of `arg` to its group, in row order.
    fn update(&mut self, arg: &Column, runs: &[(usize, usize)]) {
        self.settle(arg);
        let want = self.want;
        let kept = match (&mut self.best, arg) {
            (Column::F64(best, Some(held)), Column::F64(v, valid)) => {
                let beats = |x: f64, b: f64| match x.is_nan() || b.is_nan() {
                    true => nan_cmp(x, b) == want,
                    false => x.partial_cmp(&b) == Some(want),
                };
                keep_best((best, held), (v, valid), runs, beats)
            }
            (Column::I64(best, Some(held)), Column::I64(v, valid)) => {
                keep_best((best, held), (v, valid), runs, |x, b| x.cmp(&b) == want)
            }
            (Column::Val(best), arg) => {
                let mut kept = false;
                for_runs(runs, |g, rows| {
                    for p in rows {
                        let x = arg.value(p);
                        let displaces =
                            best[g].is_null() || extremum_cmp(&x, &best[g]) == Some(want);
                        if !x.is_null() && displaces {
                            (best[g], kept) = (x, true);
                        }
                    }
                });
                kept
            }
            (best, arg) => unreachable!("{best:?} was settled to take {arg:?}"),
        };
        self.seen |= kept;
    }

    /// Every group's best value as a column — what
    /// [`Column::from_values`] makes of the values.
    fn finalize(&self) -> Column {
        match &self.best {
            _ if !self.seen => {
                let n = self.best.len();
                Column::F64(vec![0.0; n], (n > 0).then(|| vec![false; n]))
            }
            Column::F64(v, Some(held)) => Column::F64(v.clone(), mask(held)),
            Column::I64(v, Some(held)) => Column::I64(v.clone(), mask(held)),
            col => Column::from_values((0..col.len()).map(|g| col.value(g)).collect()),
        }
    }
}

/// A validity mask as a column keeps it: none when it marks nothing.
fn mask(held: &[bool]) -> Option<Vec<bool>> {
    held.contains(&false).then(|| held.to_vec())
}

impl Accumulators {
    fn new(kind: AggKind) -> Accumulators {
        match kind {
            AggKind::Sum => Accumulators::Sum(Sums::default()),
            AggKind::Avg => Accumulators::Avg(Sums::default()),
            AggKind::Count => Accumulators::Count(Vec::new()),
            AggKind::Min => Accumulators::Best(Extrema::new(Ordering::Less)),
            AggKind::Max => Accumulators::Best(Extrema::new(Ordering::Greater)),
        }
    }

    /// The aggregate whose accumulators these are.
    fn kind(&self) -> AggKind {
        match self {
            Accumulators::Sum(_) => AggKind::Sum,
            Accumulators::Avg(_) => AggKind::Avg,
            Accumulators::Count(_) => AggKind::Count,
            Accumulators::Best(e) if e.want == Ordering::Less => AggKind::Min,
            Accumulators::Best(_) => AggKind::Max,
        }
    }

    /// Group `g`'s accumulator.
    fn cell(&self, g: usize) -> AggCell<'_> {
        match self {
            Accumulators::Sum(s) => AggCell::Sum(&s.acc[g], s.count[g], s.all_int[g]),
            Accumulators::Avg(s) => AggCell::Avg(&s.acc[g], s.count[g]),
            Accumulators::Count(counts) => AggCell::Count(counts[g]),
            Accumulators::Best(e) if e.want == Ordering::Less => AggCell::Min(&e.best, g),
            Accumulators::Best(e) => AggCell::Max(&e.best, g),
        }
    }

    /// Fold in `cell`, an accumulator of this aggregate: a new group's
    /// copy (`into` is `None`), or merged into group `into`'s in place.
    fn absorb(&mut self, into: Option<usize>, cell: AggCell<'_>) {
        let (s, acc, count, all_int) = match (self, cell) {
            (Accumulators::Sum(s), AggCell::Sum(acc, count, all_int)) => (s, acc, count, all_int),
            (Accumulators::Avg(s), AggCell::Avg(acc, count)) => (s, acc, count, true),
            (Accumulators::Count(counts), AggCell::Count(c)) => match into {
                None => return counts.push(c),
                Some(g) => return counts[g] += c,
            },
            (Accumulators::Best(e), AggCell::Min(col, row) | AggCell::Max(col, row)) => {
                let g = match into {
                    Some(g) => g,
                    None => {
                        e.grow();
                        e.best.len() - 1
                    }
                };
                if !col.is_null(row) {
                    e.update(&col.slice(row..row + 1), &[(g, 1)]);
                }
                return;
            }
            (accs, cell) => unreachable!("{cell:?} was checked to be a {:?}", accs.kind()),
        };
        match into {
            None => {
                s.acc.push(acc.clone());
                s.count.push(count);
                s.all_int.push(all_int);
            }
            Some(g) => {
                s.acc[g].merge(acc);
                s.count[g] += count;
                s.all_int[g] &= all_int;
            }
        }
    }

    /// Append a new group's accumulator, before any input.
    fn grow(&mut self) {
        match self {
            Accumulators::Sum(s) | Accumulators::Avg(s) => {
                s.acc.push(ExactSum::new());
                s.count.push(0);
                s.all_int.push(true);
            }
            Accumulators::Count(counts) => counts.push(0),
            Accumulators::Best(e) => e.grow(),
        }
    }

    /// Feed every run of a batch its rows of the argument column
    /// (`None`: `COUNT(*)`, which counts every row): which loop runs is
    /// decided here, once per batch. Run after run, so the values of a
    /// group reach its accumulator in row order.
    fn update(&mut self, arg: Option<&Column>, runs: &[(usize, usize)]) {
        match (self, arg) {
            (Accumulators::Count(counts), None) => {
                for_runs(runs, |gid, rows| counts[gid] += rows.len() as u64)
            }
            (_, None) => {}
            (Accumulators::Count(counts), Some(col)) => for_runs(runs, |gid, rows| {
                counts[gid] += rows.filter(|&p| !col.is_null(p)).count() as u64
            }),
            (Accumulators::Sum(sums) | Accumulators::Avg(sums), Some(col)) => sums.add(col, runs),
            (Accumulators::Best(e), Some(col)) => e.update(col, runs),
        }
    }

    /// Every group's result as one column: DOUBLE or BIGINT where every
    /// group's is (NULLs aside), [`Column::Val`] otherwise. (The
    /// row-at-a-time reference these results are held to is
    /// `tests/agg_model.rs`'s.)
    fn finalize(&self) -> Column {
        match self {
            Accumulators::Count(counts) => {
                Column::I64(counts.iter().map(|c| *c as i64).collect(), None)
            }
            Accumulators::Avg(s) => {
                let mean = |(a, c): (&ExactSum, &u64)| match c {
                    0 => 0.0,
                    _ => a.finalize() / *c as f64,
                };
                Column::F64(s.acc.iter().zip(&s.count).map(mean).collect(), s.seen())
            }
            Accumulators::Sum(s) => {
                let totals: Vec<f64> = s.acc.iter().map(ExactSum::finalize).collect();
                // An integral SUM stays integral while a double holds it.
                let integral = |g: usize| s.all_int[g] && totals[g].abs() < 9.0e15;
                if !(0..totals.len()).any(|g| s.count[g] > 0 && integral(g)) {
                    return Column::F64(totals, s.seen());
                }
                let value = |g: usize| match (s.count[g], integral(g)) {
                    (0, _) => Value::Null,
                    (_, true) => Value::Int(totals[g] as i64),
                    (_, false) => Value::Double(totals[g]),
                };
                Column::from_values((0..totals.len()).map(value).collect())
            }
            Accumulators::Best(e) => e.finalize(),
        }
    }
}

/// The group table: the distinct keys in first-seen order, one column
/// per GROUP BY expression ([`KeySet`]: each key kept as the value that
/// arrived first), and one column of accumulators per planned aggregate.
/// Without GROUP BY the one key is the empty key.
#[derive(Debug, Clone, Default)]
struct Groups {
    keys: KeySet,
    /// Row `g` of each belongs to key `g`.
    accs: Vec<Accumulators>,
}

impl Groups {
    fn new(arity: usize, accs: Vec<Accumulators>) -> Groups {
        Groups {
            keys: KeySet::new(arity),
            accs,
        }
    }

    /// The group of the key in each row of `keys` that `rows` names
    /// (with its hash), in order ([`KeySet::intern_rows`]):
    /// `found(accs, row, group, new)` is told each, and owes each of
    /// `accs` its accumulator for a new group.
    fn intern_rows(
        &mut self,
        keys: &[Column],
        rows: impl IntoIterator<Item = (usize, u64)>,
        mut found: impl FnMut(&mut [Accumulators], usize, usize, bool),
    ) -> Result<()> {
        let Groups { keys: set, accs } = self;
        set.intern_rows(keys, rows, |row, entered| {
            let full = || Error::GroupTableFull {
                max_groups: MAX_KEYS,
            };
            let (gid, new) = entered.ok_or_else(full)?;
            found(accs, row, gid as usize, new);
            Ok(())
        })
    }

    /// Fail unless groups of `arity` key cells with accumulators of
    /// `kinds` are this table's kind. They may have crossed a process
    /// boundary, so a mismatch is a typed error, not a panic.
    fn check(&self, arity: usize, kinds: impl Iterator<Item = AggKind>) -> Result<()> {
        let mine: Vec<AggKind> = self.accs.iter().map(Accumulators::kind).collect();
        let theirs: Vec<AggKind> = kinds.collect();
        match self.keys.columns().len() {
            n if (n, &mine) == (arity, &theirs) => Ok(()),
            n => Err(mismatched(n, &mine, arity, &theirs)),
        }
    }

    /// Fold in `n` groups of checked kinds, in order — row `i` of `keys`
    /// with `cell(i, j)` for aggregate `j`: the one merge loop behind
    /// shards, the wire and the gather step.
    fn absorb<'c>(
        &mut self,
        keys: &[Column],
        n: usize,
        cell: impl Fn(usize, usize) -> AggCell<'c>,
    ) -> Result<()> {
        self.keys.reserve(n);
        let rows = hash_rows(keys, 0..n).into_iter().enumerate();
        self.intern_rows(keys, rows, |accs, row, gid, new| {
            for (j, acc) in accs.iter_mut().enumerate() {
                acc.absorb((!new).then_some(gid), cell(row, j));
            }
        })
    }

    /// Fold in another table's groups, in its order, once they are
    /// checked to be this statement's (a table without any has no shape).
    fn absorb_table(&mut self, other: &Groups) -> Result<()> {
        let (keys, accs) = (other.keys.columns(), &other.accs);
        if other.keys.is_empty() {
            return Ok(());
        }
        self.check(keys.len(), accs.iter().map(Accumulators::kind))?;
        self.absorb(keys, other.keys.len(), |row, j| accs[j].cell(row))
    }
}

/// The typed error for a group of `arity` key cells and accumulators
/// of `theirs` met by a table of `n` and `mine`.
fn mismatched(n: usize, mine: &[AggKind], arity: usize, theirs: &[AggKind]) -> Error {
    Error::Unsupported(format!(
        "mismatched partial-aggregate kinds: {n} key cell(s) and {mine:?} \
         vs {arity} and {theirs:?}"
    ))
}

/// The group table of one aggregate statement with its accumulators
/// un-finalized: what a shard returns for a scattered statement and
/// ships group by group. The coordinator merges shards' tables, then
/// hands the merged one back to the engine for the finalize tail
/// (HAVING, projection, ORDER BY, LIMIT). One without groups has no
/// shape: it merges with any.
#[derive(Debug, Clone, Default)]
pub struct PartialAggResult {
    groups: Groups,
}

impl PartialAggResult {
    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.keys.len()
    }

    /// Group `g`, in first-seen order: its key and one accumulator per
    /// aggregate.
    pub fn group(&self, g: usize) -> (Vec<Value>, impl ExactSizeIterator<Item = AggCell<'_>>) {
        let Groups { keys, accs } = &self.groups;
        (keys.key(g), accs.iter().map(move |a| a.cell(g)))
    }

    /// Merge another shard's partial result: a group present on both
    /// sides merges accumulator by accumulator, a new group appends in
    /// `other`'s order — merging shards in index order therefore yields
    /// a deterministic group order. Two sides that are not one
    /// statement's partial results are an error that changes nothing.
    pub fn merge(&mut self, other: &PartialAggResult) -> Result<()> {
        if self.group_count() == 0 {
            self.groups = other.groups.clone();
            return Ok(());
        }
        self.groups.absorb_table(&other.groups)
    }
}

/// A [`PartialAggResult`] built from what crossed a process boundary,
/// group by group as [`PartialAggResult::group`] hands it out — a
/// [`key`](PartialBuilder::key), then one [`cell`](PartialBuilder::cell)
/// per aggregate. Each cell is appended straight into its aggregate's
/// accumulator column, and [`finish`](PartialBuilder::finish) interns
/// every key in one pass, through the merge shards' tables take: a key
/// that arrived before merges into its first group, whose key stays as
/// it first arrived. The first group shapes the table; a group of another
/// key arity or aggregates is a typed error, which ends the build.
#[derive(Debug, Default)]
pub struct PartialBuilder {
    /// One column of key cells per GROUP BY expression, a row per group.
    keys: Vec<Vec<Value>>,
    /// One accumulator column per aggregate, a row per group.
    accs: Vec<Accumulators>,
    /// The open group's key, if a group is open.
    open: Option<Vec<Value>>,
    /// The cells the open group has had.
    cells: usize,
    /// Groups closed so far.
    groups: usize,
}

impl PartialBuilder {
    /// Open the next group with its key, closing the one before.
    pub fn key(&mut self, key: Vec<Value>) -> Result<()> {
        self.close()?;
        (self.open, self.cells) = (Some(key), 0);
        Ok(())
    }

    /// Append the open group's next accumulator.
    pub fn cell(&mut self, cell: AggCell<'_>) -> Result<()> {
        let Some(key) = &self.open else {
            return Err(Error::Unsupported(
                "an aggregate cell before its key".into(),
            ));
        };
        let j = self.cells;
        if self.groups == 0 && j == self.accs.len() {
            self.accs.push(Accumulators::new(cell.kind()));
        }
        match self.accs.get_mut(j) {
            Some(acc) if acc.kind() == cell.kind() => acc.absorb(None, cell),
            _ => {
                let mine = self.kinds();
                let theirs = [&mine[..j], &[cell.kind()]].concat();
                return Err(mismatched(self.keys.len(), &mine, key.len(), &theirs));
            }
        }
        self.cells += 1;
        Ok(())
    }

    /// The table's aggregates.
    fn kinds(&self) -> Vec<AggKind> {
        self.accs.iter().map(Accumulators::kind).collect()
    }

    /// Close the open group: fail unless it is of the table's shape (the
    /// first group's), or append its key.
    fn close(&mut self) -> Result<()> {
        let Some(key) = self.open.take() else {
            return Ok(());
        };
        if self.groups == 0 {
            self.keys = vec![Vec::new(); key.len()];
        }
        if (key.len(), self.cells) != (self.keys.len(), self.accs.len()) {
            let mine = self.kinds();
            let theirs = &mine[..self.cells];
            return Err(mismatched(self.keys.len(), &mine, key.len(), theirs));
        }
        for (col, cell) in self.keys.iter_mut().zip(key) {
            col.push(cell);
        }
        self.groups += 1;
        Ok(())
    }

    /// The groups as one partial result, each key interned once.
    pub fn finish(mut self) -> Result<PartialAggResult> {
        self.close()?;
        let keys: Vec<Column> = self.keys.into_iter().map(Column::from_values).collect();
        let accs = self.accs.iter().map(|a| Accumulators::new(a.kind()));
        let mut groups = Groups::new(keys.len(), accs.collect());
        groups.absorb(&keys, self.groups, |row, j| self.accs[j].cell(row))?;
        Ok(PartialAggResult { groups })
    }
}

/// Hash-aggregation sink: the group table of one statement's pipeline.
pub struct AggSink<'p> {
    plan: &'p AggPlan,
    groups: Groups,
    /// The runs of the batch in hand ([`AggSink::find_runs`]); kept
    /// between batches for its allocation.
    runs: Vec<(usize, usize)>,
    /// Input rows consumed (telemetry: expr-eval accounting).
    rows_seen: u64,
}

impl<'p> AggSink<'p> {
    /// Fresh sink for `plan`.
    pub fn new(plan: &'p AggPlan) -> Self {
        let accs = plan.aggs.iter().map(|a| Accumulators::new(a.kind));
        AggSink {
            groups: Groups::new(plan.keys.len(), accs.collect()),
            plan,
            runs: Vec::new(),
            rows_seen: 0,
        }
    }

    /// Hand the accumulated groups over un-finalized (the scatter half
    /// of a distributed aggregate).
    pub fn into_partial(self) -> PartialAggResult {
        PartialAggResult {
            groups: self.groups,
        }
    }

    /// Rebuild a sink from a merged partial result (the gather half),
    /// adopting its columns. They crossed a process boundary, so their
    /// key arity and aggregate kinds are checked against the plan first.
    pub fn from_partial(plan: &'p AggPlan, partial: PartialAggResult) -> Result<Self> {
        let mut sink = AggSink::new(plan);
        if partial.group_count() > 0 {
            let kinds = sink.plan.aggs.iter().map(|a| a.kind);
            partial.groups.check(sink.plan.keys.len(), kinds)?;
            sink.groups = partial.groups;
        }
        Ok(sink)
    }

    /// Produce the final output (HAVING + projection applied): one
    /// column per item of the plan, a row per surviving group, the
    /// whole table run through `project_groups` as one batch.
    pub fn finalize(mut self) -> Result<Vec<Column>> {
        // Implicit aggregation over an empty input yields one group.
        if self.plan.keys.is_empty() {
            self.find_runs(&[], 0)?;
        }
        let Groups { keys, accs } = self.groups;
        let groups = keys.len();
        let slots = keys.into_columns().into_iter();
        let slots = slots.chain(accs.iter().map(Accumulators::finalize));
        project_groups(self.plan, slots.collect(), groups)
    }
}

impl AggSink<'_> {
    /// Cut the first `n` rows of a batch into runs of one group, from
    /// its key columns, into `self.runs` as `(group, end row)`: the key
    /// columns are hashed once, and a group is looked up in (or added
    /// to) the group table once per *run* of equal keys, not once per
    /// row. Without GROUP BY every row is in group 0, which this adds if
    /// it is not there.
    fn find_runs(&mut self, keys: &[Column], n: usize) -> Result<()> {
        // Without GROUP BY: one look for the empty key (which hashes to
        // 0, as `hash_rows` of no columns has it).
        let (rows, hashes) = match keys {
            [] => (1, vec![0]),
            _ => (n, hash_rows(keys, 0..n)),
        };
        self.groups.keys.reserve(rows);
        let runs = &mut self.runs;
        runs.clear();
        // A run begins where the key is not the row before's.
        let view = KeyView::new(keys);
        let starts = (0..rows).filter(|&row| {
            row == 0 || hashes[row] != hashes[row - 1] || !view.eq(row - 1, &view, row)
        });
        let starts = starts.map(|row| (row, hashes[row]));
        self.groups
            .intern_rows(keys, starts, |accs, row, gid, new| {
                if let Some(run) = runs.last_mut() {
                    run.1 = row;
                }
                if new {
                    accs.iter_mut().for_each(Accumulators::grow);
                }
                runs.push((gid, n));
            })
    }
}

/// What `SUM`/`AVG` would refuse among the first `n` rows of
/// an argument column: the position of the first non-numeric value and
/// the error for it.
fn first_non_numeric(kind: AggKind, col: &Column, n: usize) -> Option<(usize, Error)> {
    let Column::Val(values) = col else {
        return None;
    };
    if matches!(kind, AggKind::Count | AggKind::Min | AggKind::Max) {
        return None;
    }
    let pos = values[..n]
        .iter()
        .position(|v| matches!(v, Value::Str(_)))?;
    let what = if kind == AggKind::Sum { "SUM" } else { "AVG" };
    let context = format!("{what} over non-numeric value {}", values[pos]);
    Some((pos, Error::TypeMismatch { context }))
}

/// A batch's group keys and aggregate arguments, evaluated in the order
/// one row at a time takes them — keys, then each aggregate's argument
/// and its update. `eval_cut` and [`first_non_numeric`] cut the batch
/// before the first row that fails; its error comes back to be raised
/// once the rows before it are accumulated.
fn eval_inputs(
    plan: &AggPlan,
    batch: &mut Batch,
) -> (Vec<Column>, Vec<Option<Column>>, Option<Error>) {
    let mut pending = None;
    let keys: Vec<Column> = plan
        .keys
        .iter()
        .map(|k| batch.eval_cut(k, &mut pending))
        .collect();
    let mut args: Vec<Option<Column>> = Vec::with_capacity(plan.aggs.len());
    for spec in &plan.aggs {
        args.push(spec.arg.as_ref().map(|e| {
            let col = batch.eval_cut(e, &mut pending);
            if let Some((pos, error)) = first_non_numeric(spec.kind, &col, batch.len()) {
                batch.truncate(pos);
                pending = Some(error);
            }
            col
        }));
    }
    (keys, args, pending)
}

/// Expressions evaluated for `rows` input rows: each key and each
/// aggregate argument, once a row.
fn input_evals(plan: &AggPlan, rows: u64) -> u64 {
    let args = plan.aggs.iter().filter(|a| a.arg.is_some()).count();
    rows * (plan.keys.len() + args) as u64
}

/// The finalize tail over `groups` finished groups given as columns —
/// keys, then each aggregate's results — as one batch: HAVING is a
/// `Batch::filter` and an item a `Batch::eval_cut`, which keep the error
/// the one of the first failing group, that group's HAVING before its
/// items. One column per item, a row per surviving group.
fn project_groups(plan: &AggPlan, slots: Vec<Column>, groups: usize) -> Result<Vec<Column>> {
    let mut batch = Batch::new(slots.len(), groups);
    for (slot, col) in slots.into_iter().enumerate() {
        batch.set(slot, col);
    }
    let mut pending = None;
    if let Some(h) = &plan.having {
        batch.filter(h, &mut pending);
    }
    let items = plan.items.iter().map(|e| batch.eval_cut(e, &mut pending));
    let items = items.collect();
    pending.map_or(Ok(items), Err)
}

/// Working-memory footprint of `groups` groups of a group table under
/// the logical size model of [`crate::resource`]: one hash entry per
/// group (key row + entry overhead) plus one accumulator state per
/// aggregate of `aggs`.
fn table_bytes(keys: &[Column], groups: usize, aggs: usize) -> u64 {
    use crate::resource::{rows_bytes, AGG_STATE_BYTES, ENTRY_OVERHEAD_BYTES};
    let per_group = ENTRY_OVERHEAD_BYTES + aggs as u64 * AGG_STATE_BYTES;
    rows_bytes(keys, 0..groups) + groups as u64 * per_group
}

/// A GROUP BY sink as its statement accounts for it once the pipeline
/// drains: the groups it met, and the group table it held.
pub trait GroupSink: BatchSink {
    /// Number of distinct groups accumulated so far.
    fn group_count(&self) -> usize;

    /// The most group-table bytes (`table_bytes`) held at once,
    /// charged against the statement's memory budget once the
    /// pipeline drains.
    fn footprint_bytes(&self) -> u64;
}

impl BatchSink for AggSink<'_> {
    fn push(&mut self, mut batch: Batch) -> Result<()> {
        let (keys, args, pending) = eval_inputs(self.plan, &mut batch);
        let n = batch.len();
        self.rows_seen += n as u64;
        if n > 0 {
            // Aggregate by aggregate over the batch's runs: one
            // argument column and one accumulator column at a time.
            self.find_runs(&keys, n)?;
            for (accs, arg) in self.groups.accs.iter_mut().zip(&args) {
                accs.update(arg.as_ref(), &self.runs);
            }
        }
        pending.map_or(Ok(()), Err)
    }

    fn expr_evals(&self) -> u64 {
        input_evals(self.plan, self.rows_seen)
    }
}

impl GroupSink for AggSink<'_> {
    fn group_count(&self) -> usize {
        self.groups.keys.len()
    }

    /// The whole table: it is held until it is finalized.
    fn footprint_bytes(&self) -> u64 {
        let keys = self.groups.keys.columns();
        table_bytes(keys, self.group_count(), self.plan.aggs.len())
    }
}

/// Streaming aggregation: the sink of a GROUP BY over input already in
/// key order, where each group's rows arrive as one run and a group is
/// complete once the key changes (`exec::select` picks it when the one
/// key is a driver column stored as BIGINTs without NULLs in
/// non-decreasing order, a variant every batch of it keeps). It holds
/// one open group — its key and, per aggregate, an `Accumulators` of one
/// row. A batch that moves past it finishes it and every group that
/// begins and ends inside the batch; those go through the finalize tail
/// (`project_groups`) as one chunk of output columns, in key order,
/// which is the hash sink's first-seen order. A group inside one batch
/// gets no accumulator where it can do without: a `SUM` or `AVG` of a
/// DOUBLE column without NULLs is rounded from its slice
/// ([`ExactSum::sum_slice`]), any other aggregate fills a batch-local
/// `Accumulators` row. Each group's values reach the same code in row
/// order, so every result has the hash sink's bits.
///
/// Errors are the hash sink's too: an accumulation error — the first
/// failing row — fails the push, and with it the statement. The tail's
/// error, the first failing group's, is parked until the pipeline has
/// drained ([`StreamSink::finish`]), because a later row may still fail
/// to accumulate, and that error wins. The groups before it have gone to
/// `out` by then; a failed statement drops what they went into.
pub struct StreamSink<'p, E> {
    plan: &'p AggPlan,
    /// The open group: its key and its accumulators (one row per
    /// aggregate).
    open: Option<(i64, Vec<Accumulators>)>,
    /// Takes the finished groups' output as it is made: a non-empty
    /// chunk per batch that finished any.
    out: E,
    /// The tail's first error; the tail runs no more once it is set.
    parked: Option<Error>,
    /// Groups opened so far.
    groups: usize,
    /// Input rows consumed (telemetry: expr-eval accounting).
    rows_seen: u64,
    /// The most group-table bytes held at once: the open group and the
    /// groups one batch finished.
    peak_bytes: u64,
}

impl<'p, E: FnMut(Vec<Column>)> StreamSink<'p, E> {
    /// Fresh sink for `plan`, whose input must arrive in key order,
    /// handing its output to `out`.
    pub fn new(plan: &'p AggPlan, out: E) -> Self {
        StreamSink {
            plan,
            open: None,
            out,
            parked: None,
            groups: 0,
            rows_seen: 0,
            peak_bytes: 0,
        }
    }

    /// Fold in the first `n` rows of a batch's key and arguments.
    fn advance(&mut self, keys: &[Column], args: &[Option<Column>], n: usize) {
        let [Column::I64(key, None)] = keys else {
            unreachable!("a streamed GROUP BY key is one BIGINT column without NULLs");
        };
        // Where the runs of equal keys begin.
        let mut starts: Vec<usize> = (0..n).filter(|&p| p == 0 || key[p] != key[p - 1]).collect();
        // A first run with the open group's key is more of it.
        if let Some((open, accs)) = &mut self.open {
            if *open == key[0] {
                let end = starts.get(1).copied().unwrap_or(n);
                for (acc, arg) in accs.iter_mut().zip(args) {
                    acc.update(arg.as_ref(), &[(0, end)]);
                }
                starts.remove(0);
            }
        }
        // Otherwise the open group is finished, and so is every run but
        // the last, which opens the next group.
        let Some(&last) = starts.last() else {
            return;
        };
        let finished = self.open.take();
        let done = starts.len() - 1 + finished.is_some() as usize;
        let arity = self.plan.aggs.len();
        // The keys of the finished groups, then the one the last run
        // opens: every group held at once.
        let held = finished.iter().map(|(k, _)| *k);
        let held = held.chain(starts.iter().map(|&p| key[p]));
        let mut keys = Column::I64(held.collect(), None);
        let bytes = table_bytes(std::slice::from_ref(&keys), done + 1, arity);
        self.peak_bytes = self.peak_bytes.max(bytes);
        keys.truncate(done);
        let mut slots = Vec::with_capacity(1 + arity);
        slots.push(keys);
        for (j, (spec, arg)) in self.plan.aggs.iter().zip(args).enumerate() {
            let complete = finish_runs(spec.kind, arg.as_ref(), &starts);
            slots.push(match &finished {
                Some((_, accs)) => concat(accs[j].finalize(), complete),
                None => complete,
            });
        }
        let mut accs = Vec::with_capacity(arity);
        for (spec, arg) in self.plan.aggs.iter().zip(args) {
            let mut acc = Accumulators::new(spec.kind);
            acc.grow();
            let rows = arg.as_ref().map(|a| a.slice(last..n));
            acc.update(rows.as_ref(), &[(0, n - last)]);
            accs.push(acc);
        }
        self.open = Some((key[last], accs));
        self.groups += starts.len();
        self.emit(slots, done);
    }

    /// Run the tail over `groups` finished groups and hand on their
    /// output, unless an earlier group's error is parked.
    fn emit(&mut self, slots: Vec<Column>, groups: usize) {
        if self.parked.is_some() || groups == 0 {
            return;
        }
        match project_groups(self.plan, slots, groups) {
            Ok(cols) if cols.first().is_some_and(|c| !c.is_empty()) => (self.out)(cols),
            Ok(_) => {}
            Err(error) => self.parked = Some(error),
        }
    }

    /// Finish the open group and hand on its output; the first failing
    /// group's error, if any.
    pub fn finish(mut self) -> Result<()> {
        if let Some((key, accs)) = self.open.take() {
            let key = Column::I64(vec![key], None);
            let slots = std::iter::once(key).chain(accs.iter().map(Accumulators::finalize));
            self.emit(slots.collect(), 1);
        }
        self.parked.map_or(Ok(()), Err)
    }
}

impl<E: FnMut(Vec<Column>)> BatchSink for StreamSink<'_, E> {
    fn push(&mut self, mut batch: Batch) -> Result<()> {
        let (keys, args, pending) = eval_inputs(self.plan, &mut batch);
        let n = batch.len();
        self.rows_seen += n as u64;
        if n > 0 {
            self.advance(&keys, &args, n);
        }
        pending.map_or(Ok(()), Err)
    }

    fn expr_evals(&self) -> u64 {
        input_evals(self.plan, self.rows_seen)
    }
}

impl<E: FnMut(Vec<Column>)> GroupSink for StreamSink<'_, E> {
    fn group_count(&self) -> usize {
        self.groups
    }

    fn footprint_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

/// One aggregate's results for the runs `bounds[i]..bounds[i + 1]` of
/// an argument column, a group each: a `SUM` or `AVG` of a DOUBLE
/// column without NULLs rounded from each slice, anything else through
/// a batch-local `Accumulators` row per run.
fn finish_runs(kind: AggKind, arg: Option<&Column>, bounds: &[usize]) -> Column {
    let runs = bounds.windows(2).map(|w| w[0]..w[1]);
    match (kind, arg) {
        (AggKind::Sum, Some(Column::F64(v, None))) => {
            Column::F64(runs.map(|r| ExactSum::sum_slice(&v[r])).collect(), None)
        }
        (AggKind::Avg, Some(Column::F64(v, None))) => {
            let mean = |r: Range<usize>| ExactSum::sum_slice(&v[r.clone()]) / r.len() as f64;
            Column::F64(runs.map(mean).collect(), None)
        }
        _ => {
            // The runs' rows as a column of their own, whose runs end
            // where theirs do.
            let (first, rows) = (bounds[0], bounds[0]..bounds[bounds.len() - 1]);
            let mut accs = Accumulators::new(kind);
            let ends: Vec<(usize, usize)> = bounds[1..]
                .iter()
                .map(|&end| end - first)
                .enumerate()
                .collect();
            ends.iter().for_each(|_| accs.grow());
            accs.update(arg.map(|a| a.slice(rows)).as_ref(), &ends);
            accs.finalize()
        }
    }
}

/// `a`'s rows followed by `b`'s, whatever the variants.
fn concat(mut a: Column, b: Column) -> Column {
    if std::mem::discriminant(&a) == std::mem::discriminant(&b) {
        a.append(b);
    } else {
        (0..b.len()).for_each(|p| a.push_cell(&b, p));
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;
    use crate::plan::tests::test_sources;

    /// Plan over a table `t` of `columns`; every item is visible.
    fn plan_over(
        columns: &[&str],
        items: &[Expr],
        group_by: &[Expr],
        having: Option<&Expr>,
    ) -> Planned<AggPlan> {
        let sources = test_sources(&[("t", columns)]);
        let resolver = ColumnResolver::new(&sources);
        plan_aggregate(items, items.len(), group_by, having, &resolver)
    }

    fn plan_t(items: &[Expr], group_by: &[Expr], having: Option<&Expr>) -> AggPlan {
        plan_over(&["rid", "i", "x"], items, group_by, having).unwrap()
    }

    /// Push `rows` as one batch (one column per slot).
    fn push_values(sink: &mut AggSink, rows: &[Vec<Value>]) {
        let mut batch = Batch::new(rows[0].len(), rows.len());
        for slot in 0..rows[0].len() {
            let cells = rows.iter().map(|r| r[slot].clone()).collect();
            batch.set(slot, Column::from_values(cells));
        }
        sink.push(batch).unwrap();
    }

    /// The finalized output, row by row.
    fn finalized(sink: AggSink) -> Vec<Vec<Value>> {
        let cols = sink.finalize().unwrap();
        let row = |g: usize| cols.iter().map(|c| c.value(g)).collect();
        (0..cols[0].len()).map(row).collect()
    }

    fn push_rows(sink: &mut AggSink, rows: &[(i64, i64, f64)]) {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|(rid, i, x)| vec![Value::Int(*rid), Value::Int(*i), Value::Double(*x)])
            .collect();
        push_values(sink, &rows);
    }

    #[test]
    fn sum_group_by() {
        let plan = plan_t(
            &[
                Expr::col("i"),
                Expr::Func {
                    name: "sum".into(),
                    args: vec![Expr::col("x")],
                },
            ],
            &[Expr::col("i")],
            None,
        );
        let mut sink = AggSink::new(&plan);
        push_rows(&mut sink, &[(1, 1, 2.0), (2, 1, 3.0), (3, 2, 5.0)]);
        let rows = finalized(sink);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Double(5.0));
        assert_eq!(rows[1][0], Value::Int(2));
        assert_eq!(rows[1][1], Value::Double(5.0));
    }

    #[test]
    fn duplicate_aggregates_share_one_accumulator() {
        let sum_x = Expr::Func {
            name: "sum".into(),
            args: vec![Expr::col("x")],
        };
        // sum(x)/sum(x) — the M-step shape.
        let plan = plan_t(&[Expr::bin(BinOp::Div, sum_x.clone(), sum_x)], &[], None);
        assert_eq!(plan.aggs.len(), 1);
        let mut sink = AggSink::new(&plan);
        push_rows(&mut sink, &[(1, 1, 2.0), (2, 1, 4.0)]);
        let rows = finalized(sink);
        assert_eq!(rows[0][0], Value::Double(1.0));
    }

    #[test]
    fn sum_skips_nulls_and_empty_sum_is_null() {
        let plan = plan_t(
            &[Expr::Func {
                name: "sum".into(),
                args: vec![Expr::col("x")],
            }],
            &[],
            None,
        );
        let mut sink = AggSink::new(&plan);
        push_values(
            &mut sink,
            &[
                vec![Value::Int(1), Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(1), Value::Double(3.0)],
            ],
        );
        let rows = finalized(sink);
        assert_eq!(rows[0][0], Value::Double(3.0));

        // All-NULL input → SUM is NULL.
        let mut empty = AggSink::new(&plan);
        push_values(
            &mut empty,
            &[vec![Value::Int(1), Value::Int(1), Value::Null]],
        );
        let rows = finalized(empty);
        assert_eq!(rows[0][0], Value::Null);
    }

    #[test]
    fn count_star_vs_count_expr() {
        let plan = plan_t(
            &[
                Expr::Func {
                    name: "count".into(),
                    args: vec![],
                },
                Expr::Func {
                    name: "count".into(),
                    args: vec![Expr::col("x")],
                },
            ],
            &[],
            None,
        );
        let mut sink = AggSink::new(&plan);
        push_values(
            &mut sink,
            &[
                vec![Value::Int(1), Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Int(1), Value::Double(1.0)],
            ],
        );
        let rows = finalized(sink);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(rows[0][1], Value::Int(1));
    }

    #[test]
    fn empty_input_implicit_group() {
        let plan = plan_t(
            &[
                Expr::Func {
                    name: "count".into(),
                    args: vec![],
                },
                Expr::Func {
                    name: "sum".into(),
                    args: vec![Expr::col("x")],
                },
            ],
            &[],
            None,
        );
        let sink = AggSink::new(&plan);
        let rows = finalized(sink);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[0][1], Value::Null);
    }

    #[test]
    fn empty_input_with_group_by_yields_no_rows() {
        let plan = plan_t(&[Expr::col("i")], &[Expr::col("i")], None);
        let sink = AggSink::new(&plan);
        assert!(finalized(sink).is_empty());
    }

    #[test]
    fn having_filters_groups() {
        let plan = plan_t(
            &[Expr::col("i")],
            &[Expr::col("i")],
            Some(&Expr::bin(
                BinOp::Gt,
                Expr::Func {
                    name: "sum".into(),
                    args: vec![Expr::col("x")],
                },
                Expr::num(4.0),
            )),
        );
        let mut sink = AggSink::new(&plan);
        push_rows(&mut sink, &[(1, 1, 2.0), (2, 1, 1.0), (3, 2, 9.0)]);
        let rows = finalized(sink);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = plan_over(&["i", "x"], &[Expr::col("x")], &[Expr::col("i")], None).unwrap_err();
        assert!(matches!(err.kind, AnalyzeErrorKind::AggregateMisuse(_)));
        assert_eq!(err.clause, Clause::Projection);
    }

    #[test]
    fn nested_aggregate_rejected() {
        let nested = Expr::Func {
            name: "sum".into(),
            args: vec![Expr::Func {
                name: "sum".into(),
                args: vec![Expr::col("x")],
            }],
        };
        assert!(plan_over(&["x"], &[nested], &[], None).is_err());
    }

    /// Merge `b`'s groups into `a`'s as the coordinator merges shards'.
    fn merged<'p>(a: AggSink<'p>, b: AggSink<'p>) -> Result<AggSink<'p>> {
        let plan = a.plan;
        let mut partial = a.into_partial();
        partial.merge(&b.into_partial())?;
        AggSink::from_partial(plan, partial)
    }

    #[test]
    fn merge_combines_partitions() {
        let plan = plan_t(
            &[
                Expr::col("i"),
                Expr::Func {
                    name: "sum".into(),
                    args: vec![Expr::col("x")],
                },
                Expr::Func {
                    name: "min".into(),
                    args: vec![Expr::col("x")],
                },
                Expr::Func {
                    name: "max".into(),
                    args: vec![Expr::col("x")],
                },
            ],
            &[Expr::col("i")],
            None,
        );
        let mut a = AggSink::new(&plan);
        push_rows(&mut a, &[(1, 1, 2.0), (2, 2, 7.0)]);
        let mut b = AggSink::new(&plan);
        push_rows(&mut b, &[(3, 1, 4.0), (4, 3, 1.0)]);
        let rows = finalized(merged(a, b).unwrap());
        assert_eq!(rows.len(), 3);
        // Group 1 merged across partitions.
        assert_eq!(rows[0][0], Value::Int(1));
        assert_eq!(rows[0][1], Value::Double(6.0));
        assert_eq!(rows[0][2], Value::Double(2.0));
        assert_eq!(rows[0][3], Value::Double(4.0));
    }

    #[test]
    fn avg_and_min_max() {
        let plan = plan_t(
            &[
                Expr::Func {
                    name: "avg".into(),
                    args: vec![Expr::col("x")],
                },
                Expr::Func {
                    name: "min".into(),
                    args: vec![Expr::col("x")],
                },
                Expr::Func {
                    name: "max".into(),
                    args: vec![Expr::col("x")],
                },
            ],
            &[],
            None,
        );
        let mut sink = AggSink::new(&plan);
        push_rows(&mut sink, &[(1, 1, 2.0), (2, 1, 4.0), (3, 1, 9.0)]);
        let rows = finalized(sink);
        assert_eq!(rows[0][0], Value::Double(5.0));
        assert_eq!(rows[0][1], Value::Double(2.0));
        assert_eq!(rows[0][2], Value::Double(9.0));
    }

    #[test]
    fn min_max_give_nan_one_place_whatever_the_order() {
        // A NaN compares with nothing; MIN/MAX place it above every
        // number, so neither scan order nor merge order picks the winner.
        let call = |name: &str| Expr::Func {
            name: name.into(),
            args: vec![Expr::col("x")],
        };
        let plan = plan_over(&["x"], &[call("min"), call("max")], &[], None).unwrap();
        let vals = [3.0, f64::NAN, -1.0, f64::INFINITY, f64::NAN, 2.0];
        let run = |order: &[usize], cut: usize| {
            let part = |idx: &[usize]| {
                let mut sink = AggSink::new(&plan);
                if !idx.is_empty() {
                    let rows: Vec<Vec<Value>> =
                        idx.iter().map(|&i| vec![Value::Double(vals[i])]).collect();
                    push_values(&mut sink, &rows);
                }
                sink
            };
            let both = merged(part(&order[..cut]), part(&order[cut..]));
            finalized(both.unwrap()).remove(0)
        };
        for (order, cut) in [
            (&[0, 1, 2, 3, 4, 5], 0),
            (&[5, 4, 3, 2, 1, 0], 3),
            (&[1, 0, 4, 2, 5, 3], 1),
            (&[3, 2, 0, 5, 1, 4], 5),
        ] {
            let row = run(order, cut);
            assert_eq!(row[0], Value::Double(-1.0), "{order:?}");
            assert!(
                matches!(row[1], Value::Double(d) if d.is_nan()),
                "{order:?}"
            );
        }
    }

    #[test]
    fn integer_sum_stays_integer() {
        let sum_n = Expr::Func {
            name: "sum".into(),
            args: vec![Expr::col("n")],
        };
        let plan = plan_over(&["n"], &[sum_n], &[], None).unwrap();
        let mut sink = AggSink::new(&plan);
        push_values(&mut sink, &[vec![Value::Int(2)], vec![Value::Int(3)]]);
        let rows = finalized(sink);
        assert_eq!(rows[0][0], Value::Int(5));
    }

    #[test]
    fn a_group_table_refuses_to_grow_past_the_group_limit() {
        let plan = plan_t(&[Expr::col("rid")], &[Expr::col("rid")], None);
        let push = |sink: &mut AggSink, rids: Range<usize>| {
            let mut batch = Batch::new(3, rids.len());
            batch.set(0, Column::I64(rids.map(|r| r as i64).collect(), None));
            sink.push(batch)
        };
        let full = Error::GroupTableFull {
            max_groups: MAX_KEYS,
        };
        let mut sink = AggSink::new(&plan);
        for first in (0..MAX_KEYS).step_by(1024) {
            push(&mut sink, first..first + 1024).unwrap();
        }
        assert_eq!(sink.group_count(), MAX_KEYS);
        // A group it holds is still found; one more is refused, not
        // numbered modulo 2^32.
        push(&mut sink, 17..18).unwrap();
        assert_eq!(push(&mut sink, MAX_KEYS..MAX_KEYS + 1), Err(full.clone()));
        assert_eq!(sink.group_count(), MAX_KEYS);
        // Shards that fit one by one may not fit merged.
        let mut other = AggSink::new(&plan);
        push(&mut other, MAX_KEYS - 1..MAX_KEYS + 1).unwrap();
        assert_eq!(merged(sink, other).err(), Some(full));
    }

    #[test]
    fn a_partial_of_one_aggregate_is_refused_as_another() {
        // MIN and MAX keep the same value: only their kind tells them
        // apart.
        let mut db = crate::Database::new();
        db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1.0), (2.0), (6.0)")
            .unwrap();
        let refused = |r: &Result<()>| matches!(r, Err(Error::Unsupported(_)));
        let pairs = [("MIN", "MAX"), ("MAX", "MIN"), ("SUM", "AVG")];
        for (made, read) in pairs {
            let made = db.execute_partial(&format!("SELECT {made}(x) FROM t"));
            let read_sql = format!("SELECT {read}(x) FROM t");
            let (made, read) = (made.unwrap(), db.execute_partial(&read_sql).unwrap());
            let finalized = db.finalize_partials(&read_sql, &made).map(|_| ());
            assert!(refused(&finalized), "{read_sql}: {finalized:?}");
            assert!(refused(&read.clone().merge(&made)), "{read_sql}");
        }
    }

    #[test]
    fn group_key_expression_reused_in_projection() {
        // GROUP BY i+1, project i+1 — must match by compiled structure.
        let key = Expr::bin(BinOp::Add, Expr::col("i"), Expr::int(1));
        let plan = plan_t(std::slice::from_ref(&key), std::slice::from_ref(&key), None);
        let mut sink = AggSink::new(&plan);
        push_rows(&mut sink, &[(1, 1, 0.0), (2, 1, 0.0)]);
        let rows = finalized(sink);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(2));
    }
}
