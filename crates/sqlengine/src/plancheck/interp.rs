//! The abstract interpreter: symbolic row counts threaded through DML.
//!
//! [`SymState`] holds, for every live table, a symbolic row count
//! ([`Card`]) and per-column distinct-value counts. Applying a
//! statement produces a [`StmtEffect`]: the driver scans the engine
//! will perform (the quantity SQLEM's §3 cost model counts) and the
//! statement's output cardinality, while the state is updated exactly
//! the way the executor would update the stored tables:
//!
//! * `CREATE TABLE` → an empty table; `DROP TABLE` → gone;
//! * `INSERT … VALUES` → rows grow by the literal row count;
//! * `INSERT … SELECT` → one driver scan of the first FROM table
//!   (the engine's left-deep hash-join pipeline streams `from[0]` and
//!   builds hash tables over the rest — see `exec::select`), rows grow
//!   by the derived SELECT cardinality;
//! * `UPDATE` → one driver scan of the target, row count unchanged,
//!   distinct info for assigned columns discarded;
//! * `DELETE` (no WHERE) → one driver scan, row count drops to zero.
//!
//! Join cardinalities use the textbook equi-join estimate
//! `|A ⋈ B| = |A|·|B| / max(d_A(c), d_B(c))`, which is *exact* for the
//! foreign-key-style joins the SQLEM generators emit (every `RID`
//! matches, every dimension index matches). Divisions that do not come
//! out even fall back to the undivided upper bound rather than
//! fabricating fractional rows.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, Expr, InsertSource, Statement};
use crate::expr::CExpr;
use crate::plan::{Chain, InsertRows, Output, SelectPlan, Sink, StatementPlan};

use super::card::Card;

/// Symbolic per-table facts: row count and per-column distinct counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCard {
    /// Symbolic row count.
    pub rows: Card,
    /// Distinct-value count per column; columns without an entry
    /// default to the row count (exact for primary keys, an upper
    /// bound otherwise).
    pub distinct: BTreeMap<String, Card>,
    /// For columns fed exclusively by literal values so far: the exact
    /// value set, so repeated literals across statements (chunked
    /// `VALUES` inserts, per-cluster `SELECT {j}, …` appends) are not
    /// double-counted. Dropped the moment a non-literal append touches
    /// the column.
    lit_values: BTreeMap<String, BTreeSet<String>>,
}

impl TableCard {
    fn empty() -> TableCard {
        TableCard {
            rows: Card::zero(),
            distinct: BTreeMap::new(),
            lit_values: BTreeMap::new(),
        }
    }

    /// Distinct count of `column`, defaulting to the row count.
    pub fn distinct_of(&self, column: &str) -> Card {
        self.distinct
            .get(column)
            .cloned()
            .unwrap_or_else(|| self.rows.clone())
    }
}

/// What applying one statement does, besides updating the state.
#[derive(Debug, Clone, Default)]
pub struct StmtEffect {
    /// Driver scans `(table, symbolic rows)` — the non-build scans the
    /// engine's telemetry records for this statement.
    pub scans: Vec<(String, Card)>,
    /// Rows the statement produces (SELECT output / INSERT row count).
    pub output_rows: Option<Card>,
}

/// How a projected column's distinct count combines when the same
/// INSERT target receives several appends.
#[derive(Debug, Clone)]
enum ItemDistinct {
    /// A constant expression: one distinct value per statement. While
    /// every append to the column is literal, the exact value set is
    /// tracked in [`TableCard::lit_values`] (the
    /// `INSERT INTO c SELECT {j}, …` pattern, and chunked `VALUES`
    /// inserts whose values repeat across chunks); when the set is
    /// unavailable the merge falls back to sum.
    Literal,
    /// A plain column reference: the same source produces the same
    /// value set on every append (the score step's `X` pivots) — merge
    /// by max.
    Column(Card),
    /// Anything else: bounded only by the output row count.
    Other,
}

/// Symbolic table state for one script interpretation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymState {
    tables: BTreeMap<String, TableCard>,
}

impl SymState {
    /// Empty state.
    pub fn new() -> SymState {
        SymState::default()
    }

    /// Declare externally loaded contents for `table` (the bulk load
    /// the driver performs outside the generated script).
    pub fn load(&mut self, table: &str, rows: Card, distinct: &[(String, Card)]) {
        let entry = self
            .tables
            .entry(table.to_ascii_lowercase())
            .or_insert_with(TableCard::empty);
        entry.rows = rows;
        entry.distinct = distinct
            .iter()
            .map(|(c, d)| (c.to_ascii_lowercase(), d.clone()))
            .collect();
        entry.lit_values.clear();
    }

    /// Current facts about `table`, if it exists.
    pub fn table(&self, table: &str) -> Option<&TableCard> {
        self.tables.get(&table.to_ascii_lowercase())
    }

    /// Apply `stmt` to the state. `plan` is the plan the statement was
    /// analyzed on ([`crate::analyze::Report::plan`]) against the
    /// symbolic schemas (`None` when analysis rejected it — the analyzer
    /// has reported why — and a SELECT or INSERT then leaves the state
    /// alone).
    pub fn apply(&mut self, stmt: &Statement, plan: Option<&StatementPlan>) -> StmtEffect {
        let mut effect = StmtEffect::default();
        match (stmt, plan) {
            (
                Statement::CreateTable {
                    name,
                    if_not_exists,
                    ..
                },
                _,
            ) => {
                let lname = name.to_ascii_lowercase();
                if !(*if_not_exists && self.tables.contains_key(&lname)) {
                    self.tables.insert(lname, TableCard::empty());
                }
            }
            (Statement::DropTable { name, .. }, _) => {
                self.tables.remove(&name.to_ascii_lowercase());
            }
            (Statement::Insert { source, .. }, Some(StatementPlan::Insert(insert))) => {
                let target = &insert.target;
                let dest: Vec<String> = (0..insert.incoming_arity())
                    .map(|j| target.columns()[insert.target_slot(j)].name.clone())
                    .collect();
                match (source, &insert.rows) {
                    (InsertSource::Values(rows), _) => {
                        let added = Card::constant(rows.len());
                        let mut items = Vec::with_capacity(dest.len());
                        for (i, _) in dest.iter().enumerate() {
                            let mut uniq: Vec<&Expr> = Vec::new();
                            let mut lits: Option<BTreeSet<String>> = Some(BTreeSet::new());
                            for row in rows {
                                if let Some(e) = row.get(i) {
                                    if !uniq.contains(&e) {
                                        uniq.push(e);
                                    }
                                    match e {
                                        Expr::Literal(v) => {
                                            if let Some(set) = lits.as_mut() {
                                                set.insert(format!("{v:?}"));
                                            }
                                        }
                                        _ => lits = None,
                                    }
                                }
                            }
                            items.push((ItemDistinct::Literal, Card::constant(uniq.len()), lits));
                        }
                        self.append(&target.table, &dest, added, &items);
                        effect.output_rows = Some(Card::constant(rows.len()));
                    }
                    (_, InsertRows::Select(select)) => {
                        let d = self.derive_select(select);
                        effect.scans = d.scans;
                        let items: Vec<(ItemDistinct, Card, Option<BTreeSet<String>>)> = d
                            .items
                            .into_iter()
                            .map(|(i, lit)| {
                                let card = match &i {
                                    ItemDistinct::Literal => Card::constant(1).min(&d.out_rows),
                                    ItemDistinct::Column(c) => c.min(&d.out_rows),
                                    ItemDistinct::Other => d.out_rows.clone(),
                                };
                                (i, card, lit.map(|s| BTreeSet::from([s])))
                            })
                            .collect();
                        self.append(&target.table, &dest, d.out_rows.clone(), &items);
                        effect.output_rows = Some(d.out_rows);
                    }
                    (InsertSource::Select(_), InsertRows::Values(_)) => {}
                }
            }
            (
                Statement::Update {
                    table, assignments, ..
                },
                _,
            ) => {
                let lname = table.to_ascii_lowercase();
                effect.scans.push((lname.clone(), self.rows_of(&lname)));
                if let Some(t) = self.tables.get_mut(&lname) {
                    for (col, _) in assignments {
                        t.distinct.remove(&col.to_ascii_lowercase());
                        t.lit_values.remove(&col.to_ascii_lowercase());
                    }
                }
            }
            (
                Statement::Delete {
                    table,
                    where_clause,
                },
                _,
            ) => {
                let lname = table.to_ascii_lowercase();
                effect.scans.push((lname.clone(), self.rows_of(&lname)));
                if where_clause.is_none() {
                    if let Some(t) = self.tables.get_mut(&lname) {
                        t.rows = Card::zero();
                        t.distinct.clear();
                        t.lit_values.clear();
                    }
                }
            }
            (Statement::Select(_), Some(StatementPlan::Select(select))) => {
                let d = self.derive_select(select);
                effect.scans = d.scans;
                effect.output_rows = Some(d.out_rows);
            }
            (Statement::ExplainAnalyze(inner), _) => return self.apply(inner, plan),
            _ => {}
        }
        effect
    }

    /// Symbolic row count of `table` (zero when unknown).
    fn rows_of(&self, table: &str) -> Card {
        self.table(table)
            .map(|t| t.rows.clone())
            .unwrap_or_else(Card::zero)
    }

    /// Append `added` rows to `table`, merging per-column distincts.
    fn append(
        &mut self,
        table: &str,
        dest: &[String],
        added: Card,
        items: &[(ItemDistinct, Card, Option<BTreeSet<String>>)],
    ) {
        let entry = self
            .tables
            .entry(table.to_string())
            .or_insert_with(TableCard::empty);
        let old_rows = entry.rows.clone();
        entry.rows = entry.rows.add(&added);
        for (col, (kind, d, lits)) in dest.iter().zip(items) {
            let old = entry
                .distinct
                .get(col)
                .cloned()
                .unwrap_or_else(|| old_rows.clone());
            let merged = match kind {
                ItemDistinct::Literal => {
                    // The exact value-set union applies only while the
                    // column's entire history is literal: either we
                    // already track a set for it, or it had no rows.
                    let trusted = entry.lit_values.contains_key(col) || old_rows.is_zero();
                    match (lits, trusted) {
                        (Some(set), true) => {
                            let stored = entry.lit_values.entry(col.clone()).or_default();
                            stored.extend(set.iter().cloned());
                            Card::constant(stored.len())
                        }
                        _ => {
                            entry.lit_values.remove(col);
                            old.add(d)
                        }
                    }
                }
                ItemDistinct::Column(_) | ItemDistinct::Other => {
                    entry.lit_values.remove(col);
                    old.max(d)
                }
            };
            entry.distinct.insert(col.clone(), merged.min(&entry.rows));
        }
    }

    /// Distinct count of column `column` of `sources[source]`; `None`
    /// when the state does not know the table.
    fn distinct_at(&self, chain: &Chain, (source, column): (usize, usize)) -> Option<Card> {
        let source = &chain.sources[source];
        Some(
            self.table(&source.table)?
                .distinct_of(&source.columns()[column].name),
        )
    }

    /// Derive driver scans, output cardinality and per-item distinct
    /// counts for a SELECT by folding over its plan.
    fn derive_select(&self, plan: &SelectPlan) -> SelectDerivation {
        let chain = &plan.chain;
        // The engine streams the first FROM table and builds over the rest.
        let scans = chain
            .sources
            .first()
            .map(|driver| (driver.table.clone(), self.rows_of(&driver.table)))
            .into_iter()
            .collect();
        // Cross-product cardinality, then the selectivity of every
        // `column = column` join key between different tables and of
        // every `column = literal` filter.
        let mut join = chain
            .sources
            .iter()
            .fold(Card::constant(1), |acc, s| acc.mul(&self.rows_of(&s.table)));
        let literal_filters = (0..chain.sources.len()).flat_map(|i| {
            chain.filters(i).iter().filter_map(move |f| match f {
                CExpr::Binary(BinOp::Eq, l, r) => match (&**l, &**r) {
                    (CExpr::Col(c), CExpr::Const(_)) | (CExpr::Const(_), CExpr::Col(c)) => {
                        Some((i, *c))
                    }
                    _ => None,
                },
                _ => None,
            })
        });
        let key_pairs = chain
            .equi_pairs()
            .into_iter()
            .filter(|(probe, build)| chain.sources[probe.0].table != chain.sources[build.0].table);
        let divisors = literal_filters
            .map(|column| self.distinct_at(chain, column))
            .chain(key_pairs.map(|(probe, build)| {
                Some(
                    self.distinct_at(chain, probe)?
                        .max(&self.distinct_at(chain, build)?),
                )
            }));
        for d in divisors.flatten() {
            if let Some(q) = join.div_exact(&d) {
                join = q;
            }
        }
        // Output cardinality: GROUP BY → Π distinct(key); a bare
        // aggregate → exactly one row; otherwise the join cardinality.
        let mut out_rows = match &plan.sink {
            Sink::Aggregate(agg) if agg.keys.is_empty() => Card::constant(1),
            Sink::Aggregate(agg) => agg
                .keys
                .iter()
                .try_fold(Card::constant(1), |prod, key| match key {
                    CExpr::Col(slot) => {
                        Some(prod.mul(&self.distinct_at(chain, chain.column(*slot)?)?))
                    }
                    _ => None,
                })
                .map_or_else(|| join.clone(), |prod| prod.min(&join)),
            Sink::Project(_) => join,
        };
        if let Some(limit) = plan.limit {
            out_rows = out_rows.min(&Card::constant(limit));
        }
        // Per-item distinct facts for INSERT propagation, plus the
        // rendered literal value for constant items.
        let items = (0..plan.output_names.len())
            .map(|j| match plan.output(j) {
                Output::Literal(v) => (ItemDistinct::Literal, Some(format!("{v:?}"))),
                Output::Column(source, column) => match self.distinct_at(chain, (source, column)) {
                    Some(d) => (ItemDistinct::Column(d), None),
                    None => (ItemDistinct::Other, None),
                },
                Output::Computed => (ItemDistinct::Other, None),
            })
            .collect();
        SelectDerivation {
            scans,
            out_rows,
            items,
        }
    }
}

/// One SELECT's derived facts.
struct SelectDerivation {
    scans: Vec<(String, Card)>,
    out_rows: Card,
    /// Per visible output: its distinct facts and, for a plain literal,
    /// its rendered value.
    items: Vec<(ItemDistinct, Option<String>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{Limits, SymbolicCatalog};
    use crate::parser::parse_one;

    fn apply_sql(state: &mut SymState, catalog: &mut SymbolicCatalog, sql: &str) -> StmtEffect {
        let stmt = parse_one(sql).unwrap();
        let plan = catalog.apply(&stmt, &Limits::default()).unwrap().plan;
        state.apply(&stmt, Some(&plan))
    }

    #[test]
    fn equi_join_with_group_by_derives_exact_cards() {
        let mut cat = SymbolicCatalog::new();
        let mut st = SymState::new();
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE y (rid BIGINT, v BIGINT, val DOUBLE, PRIMARY KEY (rid, v))",
        );
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE cr (v BIGINT PRIMARY KEY, c1 DOUBLE, r DOUBLE)",
        );
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE yd (rid BIGINT PRIMARY KEY, d1 DOUBLE)",
        );
        // The driver loads y with pn rows (n points, p dims per point).
        let pn = Card::p().mul(&Card::n());
        st.load(
            "y",
            pn.clone(),
            &[("rid".into(), Card::n()), ("v".into(), Card::p())],
        );
        st.load("cr", Card::p(), &[("v".into(), Card::p())]);
        let effect = apply_sql(
            &mut st,
            &mut cat,
            "INSERT INTO yd SELECT rid, sum(val) FROM y, cr WHERE y.v = cr.v GROUP BY rid",
        );
        // One driver scan of the pn-row table, n output rows.
        assert_eq!(effect.scans, vec![("y".to_string(), pn)]);
        assert_eq!(effect.output_rows, Some(Card::n()));
        assert_eq!(st.table("yd").unwrap().rows, Card::n());
        assert_eq!(st.table("yd").unwrap().distinct_of("rid"), Card::n());
    }

    #[test]
    fn bare_aggregate_produces_one_row_and_literal_appends_sum() {
        let mut cat = SymbolicCatalog::new();
        let mut st = SymState::new();
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE z (rid BIGINT PRIMARY KEY, y1 DOUBLE)",
        );
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE c (i BIGINT PRIMARY KEY, y1 DOUBLE)",
        );
        st.load("z", Card::n(), &[("rid".into(), Card::n())]);
        for j in 1..=3 {
            let effect = apply_sql(
                &mut st,
                &mut cat,
                &format!("INSERT INTO c SELECT {j}, sum(y1) FROM z"),
            );
            assert_eq!(effect.scans, vec![("z".to_string(), Card::n())]);
            assert_eq!(effect.output_rows, Some(Card::constant(1)));
        }
        let c = st.table("c").unwrap();
        assert_eq!(c.rows, Card::constant(3));
        // Three distinct literal cluster indexes, tracked exactly.
        assert_eq!(c.distinct_of("i"), Card::constant(3));
    }

    #[test]
    fn delete_resets_and_update_scans_target() {
        let mut cat = SymbolicCatalog::new();
        let mut st = SymState::new();
        apply_sql(&mut st, &mut cat, "CREATE TABLE w (w1 DOUBLE, llh DOUBLE)");
        apply_sql(&mut st, &mut cat, "INSERT INTO w VALUES (0.5, 0.0)");
        assert_eq!(st.table("w").unwrap().rows, Card::constant(1));
        let eff = apply_sql(&mut st, &mut cat, "UPDATE w SET w1 = w1 * 2.0");
        assert_eq!(eff.scans, vec![("w".to_string(), Card::constant(1))]);
        let eff = apply_sql(&mut st, &mut cat, "DELETE FROM w");
        assert_eq!(eff.scans, vec![("w".to_string(), Card::constant(1))]);
        assert!(st.table("w").unwrap().rows.is_zero());
    }

    #[test]
    fn column_appends_merge_by_max_not_sum() {
        let mut cat = SymbolicCatalog::new();
        let mut st = SymState::new();
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE yx (rid BIGINT PRIMARY KEY, x1 DOUBLE, x2 DOUBLE)",
        );
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE x (rid BIGINT, i BIGINT, x DOUBLE, PRIMARY KEY (rid, i))",
        );
        st.load("yx", Card::n(), &[("rid".into(), Card::n())]);
        apply_sql(&mut st, &mut cat, "INSERT INTO x SELECT rid, 1, x1 FROM yx");
        apply_sql(&mut st, &mut cat, "INSERT INTO x SELECT rid, 2, x2 FROM yx");
        let x = st.table("x").unwrap();
        // 2n rows, but still only n distinct RIDs and 2 distinct i.
        assert_eq!(x.rows, Card::constant(2).mul(&Card::n()));
        assert_eq!(x.distinct_of("rid"), Card::n());
        assert_eq!(x.distinct_of("i"), Card::constant(2));
    }

    #[test]
    fn chunked_literal_inserts_do_not_double_count_distincts() {
        let mut cat = SymbolicCatalog::new();
        let mut st = SymState::new();
        apply_sql(
            &mut st,
            &mut cat,
            "CREATE TABLE c (i BIGINT, j BIGINT, v DOUBLE)",
        );
        // The driver chunks large VALUES loads; the same cluster index
        // reappears in later chunks and must not inflate the distinct
        // count.
        apply_sql(
            &mut st,
            &mut cat,
            "INSERT INTO c VALUES (1, 1, 0.5), (1, 2, 0.25), (2, 1, 0.75)",
        );
        apply_sql(
            &mut st,
            &mut cat,
            "INSERT INTO c VALUES (2, 2, 0.5), (3, 1, 0.25), (3, 2, 0.125)",
        );
        let c = st.table("c").unwrap();
        assert_eq!(c.rows, Card::constant(6));
        // i values {1,2,3}, j values {1,2} — exact across both chunks.
        assert_eq!(c.distinct_of("i"), Card::constant(3));
        assert_eq!(c.distinct_of("j"), Card::constant(2));
    }
}
