//! Batch evaluation: a [`CExpr`] over a [`Batch`] of typed [`Column`]s.
//!
//! A [`Column`] is also how a table stores a declared column
//! ([`crate::table::Table`]): DOUBLE as [`Column::F64`], BIGINT as
//! [`Column::I64`], VARCHAR as [`Column::Val`]. The SELECT pipeline cuts
//! its input into batches of at most [`BATCH_ROWS`] rows — slices of the
//! stored columns some expression references — and
//! [`CExpr::eval_batch`] then walks the expression
//! tree once per batch — one dispatch per node, the per-row work in tight
//! loops over `&[f64]` / `&[i64]` — instead of once per row.
//!
//! Laziness is kept with *selection vectors*: `CASE`, `AND`, `OR` and
//! `COALESCE` evaluate a branch only for the rows that reach it, so a
//! guard such as `CASE WHEN sump > 0 THEN ln(sump) END` never sees the
//! rows it guards against. A failing row does not stop its batch at once:
//! the evaluator remembers the failure of the *lowest* row (and, within a
//! row, the first in evaluation order) and reports that, so a statement
//! raises the error row-at-a-time evaluation would have raised.
//!
//! Every operator has a generic per-row path through the functions
//! [`CExpr::eval`] uses; the typed loops are shortcuts for numeric
//! columns and call the same per-value helpers, so the two evaluators
//! agree bit for bit (`tests/batch_eval.rs`).

use std::borrow::Cow;
use std::ops::Range;

use super::{
    and_values, binary_values, double_func, eval_unary, float_arith, func_values, int_arith,
    or_values, ordering_holds, power, CExpr, ScalarFunc,
};
use crate::ast::{BinOp, UnaryOp};
use crate::error::Error;
use crate::value::{DataType, Value};

/// Rows per batch. Three dozen `f64` columns of this length fit in a
/// 256 KiB L2 cache, and per-batch set-up (one allocation per evaluated
/// node) is amortized a thousandfold.
pub const BATCH_ROWS: usize = 1024;

/// Which rows hold a value: `None` means every row does.
type Validity = Option<Vec<bool>>;

/// A numeric column read as doubles, and which rows hold a value.
type Doubles<'a> = (Cow<'a, [f64]>, Option<&'a [bool]>);

/// One column of a batch. A row's value is what [`Column::value`]
/// returns; which variant carries it is a matter of speed only.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// DOUBLE values; slots without a value (NULL) hold an arbitrary number.
    F64(Vec<f64>, Validity),
    /// BIGINT values; slots without a value (NULL) hold an arbitrary number.
    I64(Vec<i64>, Validity),
    /// Anything else (VARCHAR, or rows of differing type).
    Val(Vec<Value>),
}

fn is_valid(valid: &Validity, pos: usize) -> bool {
    valid.as_ref().is_none_or(|v| v[pos])
}

/// Both operands hold a value.
fn both_valid(a: Option<&[bool]>, b: Option<&[bool]>) -> Validity {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| *x && *y).collect()),
    }
}

/// Drop a validity vector that marks nothing.
fn normalize(valid: Vec<bool>) -> Validity {
    if valid.iter().all(|v| *v) {
        None
    } else {
        Some(valid)
    }
}

fn take_valid(valid: &Validity, positions: &[u32]) -> Validity {
    valid
        .as_ref()
        .map(|v| positions.iter().map(|&p| v[p as usize]).collect())
}

/// Append one cell (`None`: NULL, stored as `zero`) to a typed column.
fn cell<T>(vals: &mut Vec<T>, valid: &mut Validity, x: Option<T>, zero: T) {
    if x.is_none() || valid.is_some() {
        let n = vals.len();
        valid.get_or_insert_with(|| vec![true; n]).push(x.is_some());
    }
    vals.push(x.unwrap_or(zero));
}

/// The validity of a column of `n` rows followed by one of `m` rows.
/// Of an empty column it is `more`'s: a vector an emptied column still
/// holds marks nothing, and would keep a key column off the streamed
/// aggregate, which wants it `None`.
fn append_valid(valid: &mut Validity, n: usize, more: Validity, m: usize) {
    if n == 0 {
        *valid = more;
        return;
    }
    if valid.is_none() && more.is_none() {
        return;
    }
    let all = valid.get_or_insert_with(|| vec![true; n]);
    match more {
        Some(more) => all.extend(more),
        None => all.resize(n + m, true),
    }
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v, _) => v.len(),
            Column::I64(v, _) => v.len(),
            Column::Val(v) => v.len(),
        }
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of row `pos`.
    pub fn value(&self, pos: usize) -> Value {
        match self {
            Column::F64(v, valid) if is_valid(valid, pos) => Value::Double(v[pos]),
            Column::I64(v, valid) if is_valid(valid, pos) => Value::Int(v[pos]),
            Column::F64(..) | Column::I64(..) => Value::Null,
            Column::Val(v) => v[pos].clone(),
        }
    }

    /// Is row `pos` NULL?
    pub(crate) fn is_null(&self, pos: usize) -> bool {
        match self {
            Column::F64(_, valid) | Column::I64(_, valid) => !is_valid(valid, pos),
            Column::Val(v) => v[pos].is_null(),
        }
    }

    /// Build a column from values, typed when every non-NULL value has
    /// the same numeric type.
    pub fn from_values(values: Vec<Value>) -> Column {
        let all = |pred: fn(&Value) -> bool| values.iter().all(pred);
        if all(|v| matches!(v, Value::Double(_) | Value::Null)) {
            let valid = normalize(values.iter().map(|v| !v.is_null()).collect());
            let vals = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
            Column::F64(vals, valid)
        } else if all(|v| matches!(v, Value::Int(_) | Value::Null)) {
            let valid = normalize(values.iter().map(|v| !v.is_null()).collect());
            let vals = values
                .iter()
                .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                .collect();
            Column::I64(vals, valid)
        } else {
            Column::Val(values)
        }
    }

    /// `n` copies of one value.
    fn splat(v: &Value, n: usize) -> Column {
        match v {
            Value::Double(d) => Column::F64(vec![*d; n], None),
            Value::Int(i) => Column::I64(vec![*i; n], None),
            Value::Null => Column::F64(vec![0.0; n], Some(vec![false; n])),
            Value::Str(_) => Column::Val(vec![v.clone(); n]),
        }
    }

    /// An empty storage column of declared type `ty`.
    pub fn empty(ty: DataType) -> Column {
        Column::nulls(ty, 0)
    }

    /// `n` NULLs as a storage column of declared type `ty`.
    pub fn nulls(ty: DataType, n: usize) -> Column {
        let valid = (n > 0).then(|| vec![false; n]);
        match ty {
            DataType::Double => Column::F64(vec![0.0; n], valid),
            DataType::BigInt => Column::I64(vec![0; n], valid),
            DataType::Varchar => Column::Val(vec![Value::Null; n]),
        }
    }

    /// Is this the variant a table stores a column of declared type `ty`
    /// in? (What [`Column::coerce`] returns.)
    pub fn stores(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Column::F64(..), DataType::Double)
                | (Column::I64(..), DataType::BigInt)
                | (Column::Val(_), DataType::Varchar)
        )
    }

    /// A copy of the rows `range`.
    pub fn slice(&self, range: Range<usize>) -> Column {
        let cut = |valid: &Validity| valid.as_ref().map(|m| m[range.clone()].to_vec());
        match self {
            Column::F64(v, valid) => Column::F64(v[range.clone()].to_vec(), cut(valid)),
            Column::I64(v, valid) => Column::I64(v[range.clone()].to_vec(), cut(valid)),
            Column::Val(v) => Column::Val(v[range].to_vec()),
        }
    }

    /// Rows the column's value vector holds room for.
    pub(crate) fn capacity(&self) -> usize {
        match self {
            Column::F64(v, _) => v.capacity(),
            Column::I64(v, _) => v.capacity(),
            Column::Val(v) => v.capacity(),
        }
    }

    /// Drop every row and the validity vector; the value vector keeps
    /// its allocation for the rows appended next.
    pub(crate) fn clear(&mut self) {
        self.truncate(0);
        if let Column::F64(_, valid) | Column::I64(_, valid) = self {
            *valid = None;
        }
    }

    /// Append the rows of `other`, a column of the same variant. An
    /// empty column without room for them takes `other`'s vectors as
    /// they are; one with room (a cleared column) copies them in.
    ///
    /// # Panics
    /// If the variants differ: both sides are storage columns of one
    /// declared type.
    pub fn append(&mut self, other: Column) {
        match (self, other) {
            (me, other)
                if me.is_empty()
                    && me.capacity() < other.len()
                    && std::mem::discriminant(me) == std::mem::discriminant(&other) =>
            {
                *me = other
            }
            (Column::F64(v, valid), Column::F64(w, more)) => {
                append_valid(valid, v.len(), more, w.len());
                v.extend(w);
            }
            (Column::I64(v, valid), Column::I64(w, more)) => {
                append_valid(valid, v.len(), more, w.len());
                v.extend(w);
            }
            (Column::Val(v), Column::Val(w)) => v.extend(w),
            _ => panic!("appended column is of another storage type"),
        }
    }

    /// Append `v`, coerced to the type this column stores as
    /// [`Value::coerce_to`] coerces it.
    pub fn push(&mut self, v: &Value) -> crate::error::Result<()> {
        match self {
            Column::F64(vals, valid) => match v.coerce_to(DataType::Double)? {
                Value::Double(d) => cell(vals, valid, Some(d), 0.0),
                _ => cell(vals, valid, None, 0.0),
            },
            Column::I64(vals, valid) => match v.coerce_to(DataType::BigInt)? {
                Value::Int(i) => cell(vals, valid, Some(i), 0),
                _ => cell(vals, valid, None, 0),
            },
            Column::Val(vals) => vals.push(v.coerce_to(DataType::Varchar)?),
        }
        Ok(())
    }

    /// Append row `pos` of `from` exactly as it is — its variant, its
    /// sign of zero, its NaN. A cell of another variant than this column
    /// holds turns the column into a [`Column::Val`] of the values it
    /// held (an empty column takes `from`'s variant): nothing is coerced.
    pub(crate) fn push_cell(&mut self, from: &Column, pos: usize) {
        match (&mut *self, from) {
            (Column::F64(v, valid), Column::F64(w, w_valid)) => {
                cell(v, valid, is_valid(w_valid, pos).then_some(w[pos]), 0.0)
            }
            (Column::I64(v, valid), Column::I64(w, w_valid)) => {
                cell(v, valid, is_valid(w_valid, pos).then_some(w[pos]), 0)
            }
            (Column::Val(v), _) if !v.is_empty() => v.push(from.value(pos)),
            (col, _) if col.is_empty() => {
                *col = from.slice(pos..pos + 1);
                // A mask that marks nothing keeps no column off a typed loop.
                if let Column::F64(_, valid) | Column::I64(_, valid) = col {
                    valid.take_if(|m| m[0]);
                }
            }
            (col, _) => {
                let mut values: Vec<Value> = (0..col.len()).map(|i| col.value(i)).collect();
                values.push(from.value(pos));
                *col = Column::Val(values);
            }
        }
    }

    /// This column as a table stores declared type `ty`: every value
    /// coerced as [`Value::coerce_to`] coerces it — through it, but for a
    /// column that is stored as it is or widens in a loop. If a row
    /// fails, the column is cut to the rows before it and the failure
    /// handed back (`Batch::eval_cut`'s treatment of a failing row).
    pub fn coerce(self, ty: DataType) -> (Column, Option<RowError>) {
        match (self, ty) {
            (col @ Column::F64(..), DataType::Double)
            | (col @ Column::I64(..), DataType::BigInt) => (col, None),
            (Column::I64(v, valid), DataType::Double) => (
                Column::F64(v.iter().map(|i| *i as f64).collect(), valid),
                None,
            ),
            (col, ty) => {
                let mut out = Column::empty(ty);
                for row in 0..col.len() {
                    if let Err(error) = out.push(&col.value(row)) {
                        return (out, Some(RowError { row, error }));
                    }
                }
                (out, None)
            }
        }
    }

    /// The rows at `positions`, in that order (positions may repeat).
    pub(crate) fn take(&self, positions: &[u32]) -> Column {
        match self {
            Column::F64(v, valid) => Column::F64(
                positions.iter().map(|&p| v[p as usize]).collect(),
                take_valid(valid, positions),
            ),
            Column::I64(v, valid) => Column::I64(
                positions.iter().map(|&p| v[p as usize]).collect(),
                take_valid(valid, positions),
            ),
            Column::Val(v) => {
                Column::Val(positions.iter().map(|&p| v[p as usize].clone()).collect())
            }
        }
    }

    /// Append row `i`'s value to `rows[i]`, for every row of `rows`.
    pub(crate) fn append_to(&self, rows: &mut [Vec<Value>]) {
        match self {
            Column::F64(v, None) => {
                for (row, x) in rows.iter_mut().zip(v) {
                    row.push(Value::Double(*x));
                }
            }
            Column::I64(v, None) => {
                for (row, x) in rows.iter_mut().zip(v) {
                    row.push(Value::Int(*x));
                }
            }
            _ => {
                for (pos, row) in rows.iter_mut().enumerate() {
                    row.push(self.value(pos));
                }
            }
        }
    }

    /// Keep the first `n` rows.
    pub(crate) fn truncate(&mut self, n: usize) {
        match self {
            Column::F64(v, valid) => {
                v.truncate(n);
                if let Some(m) = valid {
                    m.truncate(n);
                }
            }
            Column::I64(v, valid) => {
                v.truncate(n);
                if let Some(m) = valid {
                    m.truncate(n);
                }
            }
            Column::Val(v) => v.truncate(n),
        }
    }

    /// SQL truthiness of every row ([`Value::truthiness`]).
    pub(crate) fn truth(&self) -> Vec<Option<bool>> {
        match self {
            Column::F64(v, valid) => (0..v.len())
                .map(|i| is_valid(valid, i).then(|| v[i] != 0.0))
                .collect(),
            Column::I64(v, valid) => (0..v.len())
                .map(|i| is_valid(valid, i).then(|| v[i] != 0))
                .collect(),
            Column::Val(v) => v.iter().map(Value::truthiness).collect(),
        }
    }

    /// Positions of the rows that pass as a predicate: true, not NULL.
    pub(crate) fn true_positions(&self) -> Vec<u32> {
        let truth = self.truth();
        (0..truth.len() as u32)
            .filter(|&p| truth[p as usize] == Some(true))
            .collect()
    }

    /// A numeric column as doubles ([`Value::as_f64`] of every row) plus
    /// its validity; `None` for a [`Column::Val`].
    fn as_doubles(&self) -> Option<Doubles<'_>> {
        match self {
            Column::F64(v, valid) => Some((Cow::Borrowed(v), valid.as_deref())),
            Column::I64(v, valid) => Some((
                Cow::Owned(v.iter().map(|i| *i as f64).collect()),
                valid.as_deref(),
            )),
            Column::Val(_) => None,
        }
    }
}

/// A batch: `len` rows, one optional [`Column`] per slot of the
/// operator's input row. Only the slots some expression references are
/// ever filled.
#[derive(Debug, Clone)]
pub struct Batch {
    len: usize,
    cols: Vec<Option<Column>>,
}

impl Batch {
    /// A batch of `len` rows and `width` slots, none filled yet.
    pub fn new(width: usize, len: usize) -> Batch {
        Batch {
            len,
            cols: vec![None; width],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fill `slot`, widening the batch if the slot lies beyond it (the
    /// projection sink appends its lateral-alias slots this way).
    ///
    /// # Panics
    /// If the column is shorter than the batch.
    pub fn set(&mut self, slot: usize, mut col: Column) {
        assert!(col.len() >= self.len, "column shorter than the batch");
        col.truncate(self.len);
        if slot >= self.cols.len() {
            self.cols.resize(slot + 1, None);
        }
        self.cols[slot] = Some(col);
    }

    /// The column of `slot`, if filled.
    pub fn column(&self, slot: usize) -> Option<&Column> {
        self.cols.get(slot).and_then(Option::as_ref)
    }

    /// Move the column of `slot` out of the batch, if filled.
    pub(crate) fn take_slot(&mut self, slot: usize) -> Option<Column> {
        self.cols.get_mut(slot).and_then(Option::take)
    }

    /// Keep the first `len` rows.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            for col in self.cols.iter_mut().flatten() {
                col.truncate(len);
            }
        }
    }

    /// A batch of the rows at `positions`, in that order (a join repeats
    /// positions when a row matches more than once).
    pub(crate) fn take(&self, positions: &[u32]) -> Batch {
        Batch {
            len: positions.len(),
            cols: self
                .cols
                .iter()
                .map(|c| c.as_ref().map(|c| c.take(positions)))
                .collect(),
        }
    }

    /// Evaluate `expr` over the batch. If a row fails, the batch is cut
    /// to the rows before it, the error is parked in `pending` and those
    /// rows are evaluated: a pipeline step hands the shortened batch on
    /// and raises `pending` only once everything downstream of it has
    /// run without raising — which is when row-at-a-time execution
    /// would have reached the failing row. The column may be longer
    /// than the batch after a later cut; rows beyond [`Batch::len`] are
    /// to be ignored.
    pub(crate) fn eval_cut(&mut self, expr: &CExpr, pending: &mut Option<Error>) -> Column {
        loop {
            match expr.eval_batch(self) {
                Ok(col) => return col,
                Err(RowError { row, error }) => {
                    self.truncate(row);
                    *pending = Some(error);
                }
            }
        }
    }

    /// Keep the rows `predicate` holds for (true, not NULL), with
    /// [`Batch::eval_cut`]'s treatment of a failing row. Returns the
    /// positions the kept rows had before the call.
    pub(crate) fn filter(&mut self, predicate: &CExpr, pending: &mut Option<Error>) -> Vec<u32> {
        let mut keep = self.eval_cut(predicate, pending).true_positions();
        keep.retain(|&p| (p as usize) < self.len);
        if keep.len() < self.len {
            *self = self.take(&keep);
        }
        keep
    }
}

/// An evaluation failure and the batch row it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct RowError {
    /// Row of the batch that failed; every row before it evaluates.
    pub row: usize,
    /// What row-at-a-time evaluation of that row returns.
    pub error: Error,
}

/// The rows a node is evaluated for: `None` is every row of the batch,
/// `Some` lists batch rows in ascending order. Results are dense — row
/// `i` of a result belongs to the `i`-th selected row.
type Sel<'s> = Option<&'s [u32]>;

fn row_of(sel: Sel<'_>, pos: usize) -> usize {
    sel.map_or(pos, |s| s[pos] as usize)
}

/// The batch rows behind the dense positions `pos` of selection `sel`.
fn sub_sel(sel: Sel<'_>, pos: &[u32]) -> Vec<u32> {
    pos.iter()
        .map(|&p| row_of(sel, p as usize) as u32)
        .collect()
}

impl CExpr {
    /// Evaluate against every row of `batch`: row `i` of the result is
    /// what [`CExpr::eval`] returns for row `i`. If any row fails, the
    /// error is that of the first failing row.
    ///
    /// # Panics
    /// If the expression references a slot the batch has not filled.
    pub fn eval_batch(&self, batch: &Batch) -> std::result::Result<Column, RowError> {
        let mut eval = Eval { batch, first: None };
        let col = eval.expr(self, None).into_owned();
        match eval.first {
            None => Ok(col),
            Some(e) => Err(e),
        }
    }
}

struct Eval<'a> {
    batch: &'a Batch,
    /// The failure to report, if any row failed so far.
    first: Option<RowError>,
}

impl<'a> Eval<'a> {
    /// Record that the row at dense position `pos` of `sel` failed. The
    /// lowest row wins; for one row the first failure recorded wins,
    /// which is the first in evaluation order, as in [`CExpr::eval`].
    fn fail(&mut self, sel: Sel<'_>, pos: usize, error: Error) {
        let row = row_of(sel, pos);
        if self.first.as_ref().is_none_or(|f| row < f.row) {
            self.first = Some(RowError { row, error });
        }
    }

    fn rows(&self, sel: Sel<'_>) -> usize {
        sel.map_or(self.batch.len, <[u32]>::len)
    }

    /// Evaluate `e` for the rows `pos` (dense positions of `sel`),
    /// passing `sel` itself along when that is all of them.
    fn expr_at(&mut self, e: &CExpr, sel: Sel<'_>, pos: &[u32]) -> Cow<'a, Column> {
        if pos.len() == self.rows(sel) {
            self.expr(e, sel)
        } else {
            self.expr(e, Some(&sub_sel(sel, pos)))
        }
    }

    fn expr(&mut self, e: &CExpr, sel: Sel<'_>) -> Cow<'a, Column> {
        let n = self.rows(sel);
        match e {
            CExpr::Const(v) => Cow::Owned(Column::splat(v, n)),
            CExpr::Col(slot) => {
                let col = self.batch.cols[*slot]
                    .as_ref()
                    .expect("referenced slot is filled");
                match sel {
                    None => Cow::Borrowed(col),
                    Some(rows) => Cow::Owned(col.take(rows)),
                }
            }
            CExpr::Unary(op, inner) => {
                let col = self.expr(inner, sel);
                Cow::Owned(self.unary(*op, &col, sel))
            }
            CExpr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                Cow::Owned(self.and_or(*op == BinOp::And, l, r, sel))
            }
            CExpr::Binary(op, l, r) => {
                let lc = self.expr(l, sel);
                let rc = self.expr(r, sel);
                Cow::Owned(self.binary(*op, &lc, &rc, sel))
            }
            CExpr::Func(ScalarFunc::Coalesce, args) => Cow::Owned(self.coalesce(args, sel)),
            CExpr::Func(f, args) => {
                let cols: Vec<Cow<'a, Column>> = args.iter().map(|a| self.expr(a, sel)).collect();
                Cow::Owned(self.func(*f, &cols, sel))
            }
            CExpr::Case { whens, else_expr } => {
                Cow::Owned(self.case(whens, else_expr.as_deref(), sel))
            }
            CExpr::IsNull(inner, negated) => {
                let col = self.expr(inner, sel);
                let vals = (0..n)
                    .map(|p| (col.is_null(p) != *negated) as i64)
                    .collect();
                Cow::Owned(Column::I64(vals, None))
            }
        }
    }

    /// Row by row through a per-value function of [`CExpr::eval`]: the
    /// path every operator has, whatever its operands' types.
    fn per_row(
        &mut self,
        cols: &[&Column],
        sel: Sel<'_>,
        f: impl Fn(Vec<Value>) -> crate::error::Result<Value>,
    ) -> Column {
        let n = self.rows(sel);
        let mut out = Vec::with_capacity(n);
        for pos in 0..n {
            match f(cols.iter().map(|c| c.value(pos)).collect()) {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.fail(sel, pos, e);
                    out.push(Value::Null);
                }
            }
        }
        Column::from_values(out)
    }

    fn unary(&mut self, op: UnaryOp, col: &Column, sel: Sel<'_>) -> Column {
        match (op, col) {
            (UnaryOp::Neg, Column::F64(v, valid)) => {
                Column::F64(v.iter().map(|x| -x).collect(), valid.clone())
            }
            (UnaryOp::Not, _) => {
                let truth = col.truth();
                Column::I64(
                    truth.iter().map(|t| (*t == Some(false)) as i64).collect(),
                    normalize(truth.iter().map(Option::is_some).collect()),
                )
            }
            _ => self.per_row(&[col], sel, |mut v| {
                eval_unary(op, v.pop().expect("one operand"))
            }),
        }
    }

    /// `AND` (`is_and`) or `OR`: the right side runs only for the rows
    /// the left side has not decided.
    fn and_or(&mut self, is_and: bool, l: &CExpr, r: &CExpr, sel: Sel<'_>) -> Column {
        let lt = self.expr(l, sel).truth();
        // The left value that settles the result on its own.
        let decided = Some(!is_and);
        let open: Vec<u32> = (0..lt.len() as u32)
            .filter(|&p| lt[p as usize] != decided)
            .collect();
        let rt = if open.is_empty() {
            Vec::new()
        } else {
            self.expr_at(r, sel, &open).truth()
        };
        let mut out = vec![Value::Int(!is_and as i64); lt.len()];
        for (k, &p) in open.iter().enumerate() {
            out[p as usize] = if is_and {
                and_values(lt[p as usize], rt[k])
            } else {
                or_values(lt[p as usize], rt[k])
            };
        }
        Column::from_values(out)
    }

    fn binary(&mut self, op: BinOp, l: &Column, r: &Column, sel: Sel<'_>) -> Column {
        // Two BIGINT columns stay integral: `+ - *` check for overflow,
        // comparisons are exact past 2^53 (`/` and `**` go on as doubles).
        if let (Column::I64(a, av), Column::I64(b, bv), false) =
            (l, r, matches!(op, BinOp::Div | BinOp::Pow))
        {
            let valid = both_valid(av.as_deref(), bv.as_deref());
            let pairs = a.iter().zip(b.iter());
            let vals = match op {
                BinOp::Eq => pairs.map(|(x, y)| (x == y) as i64).collect(),
                BinOp::Neq => pairs.map(|(x, y)| (x != y) as i64).collect(),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => pairs
                    .map(|(x, y)| ordering_holds(op, x.cmp(y)) as i64)
                    .collect(),
                _ => pairs
                    .enumerate()
                    .map(|(p, (x, y))| {
                        if !is_valid(&valid, p) {
                            return 0;
                        }
                        int_arith(op, *x, *y).unwrap_or_else(|e| {
                            self.fail(sel, p, e);
                            0
                        })
                    })
                    .collect(),
            };
            return Column::I64(vals, valid);
        }
        let (Some((a, av)), Some((b, bv))) = (l.as_doubles(), r.as_doubles()) else {
            return self.per_row(&[l, r], sel, |mut v| {
                let rv = v.pop().expect("two operands");
                binary_values(op, v.pop().expect("two operands"), rv)
            });
        };
        let valid = both_valid(av, bv);
        let pairs = a.iter().zip(b.iter());
        match op {
            BinOp::Add => Column::F64(pairs.map(|(x, y)| x + y).collect(), valid),
            BinOp::Sub => Column::F64(pairs.map(|(x, y)| x - y).collect(), valid),
            BinOp::Mul => Column::F64(pairs.map(|(x, y)| x * y).collect(), valid),
            BinOp::Pow => self.pow(&a, &b, valid, sel, |x, y| float_arith(BinOp::Pow, x, y)),
            BinOp::Div => {
                let vals = pairs
                    .enumerate()
                    .map(|(p, (x, y))| {
                        if !is_valid(&valid, p) {
                            return 0.0;
                        }
                        float_arith(op, *x, *y).unwrap_or_else(|e| {
                            self.fail(sel, p, e);
                            0.0
                        })
                    })
                    .collect();
                Column::F64(vals, valid)
            }
            // `=`/`<>` are decided for every pair of numbers; an ordering
            // comparison with a NaN is unknown, i.e. NULL.
            BinOp::Eq => Column::I64(pairs.map(|(x, y)| (x == y) as i64).collect(), valid),
            BinOp::Neq => Column::I64(pairs.map(|(x, y)| (x != y) as i64).collect(), valid),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let mut known = valid.unwrap_or_else(|| vec![true; a.len()]);
                let vals = pairs
                    .enumerate()
                    .map(|(p, (x, y))| match x.partial_cmp(y) {
                        Some(o) => ordering_holds(op, o) as i64,
                        None => {
                            known[p] = false;
                            0
                        }
                    })
                    .collect();
                Column::I64(vals, normalize(known))
            }
            BinOp::And | BinOp::Or => unreachable!("lazy operators are evaluated by and_or"),
        }
    }

    /// `x ** y` for every row: `x * x` where [`square_is_powf`] proves
    /// it, `power` — the scalar evaluator's helper, whose error names
    /// `**` or `power()` — in every other row that holds a value.
    fn pow(
        &mut self,
        a: &[f64],
        b: &[f64],
        valid: Validity,
        sel: Sel<'_>,
        power: fn(f64, f64) -> crate::error::Result<f64>,
    ) -> Column {
        let vals = pow_rows(a, b, valid.as_deref(), |p, x, y| {
            power(x, y).unwrap_or_else(|e| {
                self.fail(sel, p, e);
                0.0
            })
        });
        Column::F64(vals, valid)
    }

    fn func(&mut self, f: ScalarFunc, cols: &[Cow<'a, Column>], sel: Sel<'_>) -> Column {
        if let (ScalarFunc::Power, [x, y]) = (f, cols) {
            if let (Some((a, av)), Some((b, bv))) = (x.as_doubles(), y.as_doubles()) {
                return self.pow(&a, &b, both_valid(av, bv), sel, power);
            }
        }
        if let ([col], Some(g)) = (cols, double_func(f)) {
            if let Some((x, valid)) = col.as_doubles() {
                let vals = x
                    .iter()
                    .enumerate()
                    .map(|(p, x)| {
                        if !valid.is_none_or(|v| v[p]) {
                            return 0.0;
                        }
                        g(*x).unwrap_or_else(|e| {
                            self.fail(sel, p, e);
                            0.0
                        })
                    })
                    .collect();
                return Column::F64(vals, valid.map(<[bool]>::to_vec));
            }
        }
        let cols: Vec<&Column> = cols.iter().map(Cow::as_ref).collect();
        self.per_row(&cols, sel, |v| func_values(f, v))
    }

    /// `COALESCE`: each argument runs only for the rows still NULL.
    fn coalesce(&mut self, args: &[CExpr], sel: Sel<'_>) -> Column {
        let n = self.rows(sel);
        let mut out = vec![Value::Null; n];
        let mut open: Vec<u32> = (0..n as u32).collect();
        for arg in args {
            if open.is_empty() {
                break;
            }
            let col = self.expr_at(arg, sel, &open);
            let mut still = Vec::new();
            for (k, &p) in open.iter().enumerate() {
                if col.is_null(k) {
                    still.push(p);
                } else {
                    out[p as usize] = col.value(k);
                }
            }
            open = still;
        }
        Column::from_values(out)
    }

    /// Searched `CASE`: each condition runs for the rows no earlier arm
    /// took, each result for the rows its condition holds for.
    fn case(
        &mut self,
        whens: &[(CExpr, CExpr)],
        else_expr: Option<&CExpr>,
        sel: Sel<'_>,
    ) -> Column {
        let n = self.rows(sel);
        let mut pieces: Vec<(Vec<u32>, Cow<'a, Column>)> = Vec::new();
        let mut open: Vec<u32> = (0..n as u32).collect();
        for (cond, result) in whens {
            if open.is_empty() {
                break;
            }
            let truth = self.expr_at(cond, sel, &open).truth();
            let (mut hit, mut miss) = (Vec::new(), Vec::new());
            for (k, &p) in open.iter().enumerate() {
                if truth[k] == Some(true) {
                    hit.push(p);
                } else {
                    miss.push(p);
                }
            }
            if !hit.is_empty() {
                let col = self.expr_at(result, sel, &hit);
                pieces.push((hit, col));
            }
            open = miss;
        }
        if let (Some(e), false) = (else_expr, open.is_empty()) {
            let col = self.expr_at(e, sel, &open);
            pieces.push((open, col));
        }
        scatter(n, pieces)
    }
}

/// Assemble an `n`-row column from pieces, each a column and the rows
/// its values belong to; rows no piece covers are NULL.
fn scatter(n: usize, mut pieces: Vec<(Vec<u32>, Cow<'_, Column>)>) -> Column {
    if pieces.len() == 1 && pieces[0].0.len() == n {
        return pieces.pop().expect("one piece").1.into_owned();
    }
    macro_rules! typed {
        ($variant:ident, $zero:expr) => {
            if pieces
                .iter()
                .all(|(_, c)| matches!(c.as_ref(), Column::$variant(..)))
            {
                let mut vals = vec![$zero; n];
                let mut valid = vec![false; n];
                for (rows, col) in &pieces {
                    let Column::$variant(v, m) = col.as_ref() else {
                        unreachable!("checked above")
                    };
                    for (k, &p) in rows.iter().enumerate() {
                        vals[p as usize] = v[k];
                        valid[p as usize] = is_valid(m, k);
                    }
                }
                return Column::$variant(vals, normalize(valid));
            }
        };
    }
    typed!(F64, 0.0);
    typed!(I64, 0);
    let mut out = vec![Value::Null; n];
    for (rows, col) in &pieces {
        for (k, &p) in rows.iter().enumerate() {
            out[p as usize] = col.value(k);
        }
    }
    Column::from_values(out)
}

/// `f64::powf`'s bits for every pair of `a` and `b`, in two passes. The
/// first, branch-free, keeps `x * x` in the rows whose exponent is 2 and
/// whose square [`square_is_powf`] proves; the second calls
/// `fallback(row, x, y)` for every other row that holds a value (NULL
/// rows hold 0). `fallback` must take the exponent as data: an optimised
/// build folds `pow` of a literal 2 into `x * x`.
fn pow_rows(
    a: &[f64],
    b: &[f64],
    valid: Option<&[bool]>,
    mut fallback: impl FnMut(usize, f64, f64) -> f64,
) -> Vec<f64> {
    // A row left unproven holds NaN, which no proven square is.
    let mut vals: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| match square_is_powf(x) {
            (h, true) if y == 2.0 => h,
            _ => f64::NAN,
        })
        .collect();
    for (p, v) in vals.iter_mut().enumerate() {
        if !valid.is_none_or(|m| m[p]) {
            *v = 0.0;
        } else if v.is_nan() {
            *v = fallback(p, a[p], b[p]);
        }
    }
    vals
}

/// `h = x * x`, and whether `h` is provably the bits `pow(x, 2)` returns.
///
/// Dekker's product (Veltkamp's split by 2^27 + 1: no FMA, no libm, and
/// it vectorizes) gives the exact error `e = x² − h`. `h` is proven when
/// |h| ∈ [2^-500, 2^501) (biased exponent 523..=1523), `h` is not a power
/// of two, and |e| < 0.45 ulp(h); about 90 % of uniformly drawn `x` are.
/// Then `h` is x² rounded to nearest and every other double is at least
/// 0.55 ulp(h) away from x² (below a power of two the spacing halves,
/// hence the exclusion). glibc ≥ 2.28 and musl share one `pow`, ARM's
/// optimized-routines code, whose header bounds its error by
/// `ulperr_exp + |ln result| · relerr_log · 2^53`: 0.509 ULP (0.511
/// without FMA) from the final `exp`, plus |ln result| ≤ 501 · ln 2 ≈ 347
/// times 1.3 · 2^-68 (1.5 · 2^-68 without FMA) · 2^53, ≤ 0.016 ULP — so
/// ≤ 0.53 ULP inside the window, and `pow` can only return `h`. Older
/// glibc's `pow` is correctly rounded, which returns `h` outright. The
/// window keeps the split and the error terms clear of overflow and
/// underflow. Zeros, subnormals, infinities and NaN fall outside it.
#[inline]
fn square_is_powf(x: f64) -> (f64, bool) {
    const SPLIT: f64 = 134_217_729.0; // 2^27 + 1
    const EXP: u64 = 0x7ff << 52;
    const MANTISSA: u64 = (1 << 52) - 1;
    let h = x * x;
    let c = SPLIT * x;
    let hi = c - (c - x);
    let lo = x - hi;
    let e = ((hi * hi - h) + 2.0 * hi * lo) + lo * lo;
    let bits = h.to_bits();
    // ulp(h) = 2^-52 · the power of two at or below |h|.
    let ulp = f64::EPSILON * f64::from_bits(bits & EXP);
    let exact = (523..=1523).contains(&((bits & EXP) >> 52))
        & (bits & MANTISSA != 0)
        & (e.abs() < 0.45 * ulp);
    (h, exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(cols: Vec<Column>) -> Batch {
        let mut b = Batch::new(cols.len(), cols[0].len());
        for (i, c) in cols.into_iter().enumerate() {
            b.set(i, c);
        }
        b
    }

    fn col(i: usize) -> Box<CExpr> {
        Box::new(CExpr::Col(i))
    }

    fn num(v: f64) -> Box<CExpr> {
        Box::new(CExpr::Const(Value::Double(v)))
    }

    #[test]
    fn guard_keeps_ln_away_from_the_rows_it_guards() {
        // CASE WHEN c0 > 0 THEN ln(c0) END — Fig. 9's llh cell.
        let e = CExpr::Case {
            whens: vec![(
                CExpr::Binary(BinOp::Gt, col(0), num(0.0)),
                CExpr::Func(ScalarFunc::Ln, vec![CExpr::Col(0)]),
            )],
            else_expr: None,
        };
        let b = batch_of(vec![Column::F64(vec![1.0, 0.0, -3.0, 1.0], None)]);
        let out = e.eval_batch(&b).unwrap();
        assert_eq!(out.value(0), Value::Double(0.0));
        assert!(out.is_null(1) && out.is_null(2));
    }

    #[test]
    fn first_failing_row_wins_over_first_failing_node() {
        // c0 / c1 + ln(c2): row 1 fails in ln, row 2 in the division,
        // which a node-at-a-time walk meets first.
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Binary(BinOp::Div, col(0), col(1))),
            Box::new(CExpr::Func(ScalarFunc::Ln, vec![CExpr::Col(2)])),
        );
        let b = batch_of(vec![
            Column::F64(vec![1.0, 1.0, 1.0], None),
            Column::F64(vec![1.0, 1.0, 0.0], None),
            Column::F64(vec![1.0, -1.0, 1.0], None),
        ]);
        let err = e.eval_batch(&b).unwrap_err();
        assert_eq!(err.row, 1);
        let row: Vec<Value> = (0..3).map(|s| b.column(s).unwrap().value(1)).collect();
        assert_eq!(err.error, e.eval(&row).unwrap_err());
    }

    #[test]
    fn integer_arithmetic_stays_integral_and_nulls_pass_through() {
        let e = CExpr::Binary(BinOp::Mul, col(0), col(1));
        let b = batch_of(vec![
            Column::I64(vec![2, 3, i64::MAX], Some(vec![true, false, true])),
            Column::I64(vec![5, 7, 1], None),
        ]);
        let out = e.eval_batch(&b).unwrap();
        assert_eq!(
            out,
            Column::I64(vec![10, 0, i64::MAX], Some(vec![true, false, true]))
        );
        assert!(matches!(out.value(0), Value::Int(10)));
    }

    #[test]
    fn storage_columns_slice_append_and_push_by_declared_type() {
        let mut c = Column::empty(DataType::Double);
        for v in [
            Value::Double(1.5),
            Value::Int(2),
            Value::Null,
            Value::Double(-0.0),
        ] {
            c.push(&v).unwrap();
        }
        assert!(c.stores(DataType::Double) && !c.stores(DataType::BigInt));
        assert_eq!(
            c,
            Column::F64(
                vec![1.5, 2.0, 0.0, -0.0],
                Some(vec![true, true, false, true])
            )
        );
        assert!(c.push(&Value::str("x")).is_err());
        assert_eq!(
            c.slice(1..3),
            Column::F64(vec![2.0, 0.0], Some(vec![true, false]))
        );
        let mut d = Column::F64(vec![7.0], None);
        d.append(c.slice(2..4));
        assert_eq!(
            d,
            Column::F64(vec![7.0, 0.0, -0.0], Some(vec![true, false, true]))
        );
        d.append(Column::F64(vec![8.0], None));
        assert!(!d.is_null(3) && d.is_null(1));
        assert_eq!(Column::nulls(DataType::BigInt, 2).value(1), Value::Null);
    }

    #[test]
    fn coerce_is_value_coercion_and_cuts_at_the_first_failing_row() {
        let (c, e) = Column::I64(vec![1, 2], Some(vec![true, false])).coerce(DataType::Double);
        assert_eq!(
            (c, e),
            (Column::F64(vec![1.0, 2.0], Some(vec![true, false])), None)
        );
        let (c, e) = Column::F64(
            vec![3.0, 0.5, 2.5, 4.0],
            Some(vec![true, false, true, true]),
        )
        .coerce(DataType::BigInt);
        assert_eq!(c, Column::I64(vec![3, 0], Some(vec![true, false])));
        let e = e.unwrap();
        assert_eq!(e.row, 2);
        assert_eq!(
            e.error,
            Value::Double(2.5).coerce_to(DataType::BigInt).unwrap_err()
        );
        // The per-value path: a mixed column, a string into a number.
        let mixed = Column::Val(vec![Value::Int(1), Value::Double(2.0), Value::str("x")]);
        let (c, e) = mixed.coerce(DataType::BigInt);
        assert_eq!((c, e.unwrap().row), (Column::I64(vec![1, 2], None), 2));
        let (c, e) = Column::nulls(DataType::Double, 2).coerce(DataType::Varchar);
        assert_eq!((c, e), (Column::Val(vec![Value::Null, Value::Null]), None));
    }

    #[test]
    fn most_squares_skip_the_pow_call() {
        // Uniform[-100, 100]: about 10 % of rows lie too near a rounding
        // midpoint to prove; an edit sending every row to `pow` fails here.
        use prng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x5100_A2E5);
        let xs: Vec<f64> = (0..100_000)
            .map(|_| rng.random::<f64>() * 200.0 - 100.0)
            .collect();
        let twos = vec![2.0; xs.len()];
        let mut calls = 0;
        let out = pow_rows(&xs, &twos, None, |_, x, y| {
            calls += 1;
            float_arith(BinOp::Pow, x, y).unwrap()
        });
        assert!(
            calls * 100 <= 15 * xs.len(),
            "{calls} of {} rows call pow",
            xs.len()
        );
        assert!(calls > 0);
        for (x, v) in xs.iter().zip(&out) {
            let want = x.powf(std::hint::black_box(2.0));
            assert_eq!(v.to_bits(), want.to_bits(), "{x} ** 2");
        }
        // Another exponent, or a NULL row, never takes the square.
        let mut called = Vec::new();
        let out = pow_rows(
            &[3.0, 3.0, 3.0],
            &[2.0, 3.0, 2.0],
            Some(&[true, true, false]),
            |p, x, y| {
                called.push(p);
                float_arith(BinOp::Pow, x, y).unwrap()
            },
        );
        assert_eq!((out, called), (vec![9.0, 27.0, 0.0], vec![1]));
    }

    #[test]
    fn mixed_case_arms_keep_each_rows_own_type() {
        // CASE WHEN c0 > 1 THEN c0 ELSE 0.5 END over integers.
        let e = CExpr::Case {
            whens: vec![(
                CExpr::Binary(BinOp::Gt, col(0), Box::new(CExpr::Const(Value::Int(1)))),
                CExpr::Col(0),
            )],
            else_expr: Some(num(0.5)),
        };
        let b = batch_of(vec![Column::I64(vec![1, 2], None)]);
        let out = e.eval_batch(&b).unwrap();
        assert!(matches!(out.value(0), Value::Double(d) if d == 0.5));
        assert!(matches!(out.value(1), Value::Int(2)));
    }
}
