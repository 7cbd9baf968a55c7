//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect is the subset the SQLEM generators need (paper §2.6, Figs.
//! 5/7/9/10) plus enough general SQL to be useful standalone:
//!
//! * `CREATE TABLE t (c TYPE, …, PRIMARY KEY (…))`, `DROP TABLE [IF EXISTS]`
//! * `INSERT INTO t [(cols)] VALUES (…), (…)` and `INSERT INTO t SELECT …`
//! * `SELECT … FROM t1, t2 … WHERE … GROUP BY … HAVING … ORDER BY … LIMIT n`
//! * `UPDATE t [FROM u, v] SET a=e1, b=e2 [WHERE …]` with *sequential*
//!   assignment visibility (Fig. 9 sets `sqrtdetR = detR**0.5` right after
//!   assigning `detR`)
//! * `DELETE FROM t [WHERE …]`
//! * expressions: arithmetic `+ - * / **`, comparisons, `AND/OR/NOT`,
//!   `CASE WHEN … THEN … [ELSE …] END`, `IS [NOT] NULL`, function calls
//!   (scalar `exp/ln/sqrt/abs/power/…` and aggregates `SUM/COUNT/AVG/MIN/MAX`)
//!
//! One deliberate Teradata-ism: a SELECT item may reference the *alias* of an
//! earlier item in the same list — Fig. 5 computes `p1+p2+…+pk AS sump` in
//! the same projection that defines `p1…pk`. The planner implements this
//! "lateral alias" rule.

use crate::value::{DataType, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl std::fmt::Display for BinOp {
    /// The SQL token for this operator (`+`, `<>`, `AND`, …).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sym = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "**",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(sym)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference, optionally qualified: `Y.y1` or `sump`.
    Column {
        /// Qualifier (table name or alias), lowercase.
        table: Option<String>,
        /// Column name, lowercase.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call: scalar (`exp`, `ln`, …) or aggregate (`sum`, …).
    Func {
        /// Function name, lowercase.
        name: String,
        /// Arguments. `COUNT(*)` is encoded as `count` with zero args.
        args: Vec<Expr>,
    },
    /// Searched CASE.
    Case {
        /// `(condition, result)` arms in order.
        whens: Vec<(Expr, Expr)>,
        /// Optional ELSE; absent ⇒ NULL (relied on by Fig. 9's llh column).
        else_expr: Option<Box<Expr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Unqualified column reference helper.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            table: None,
            name: name.to_ascii_lowercase(),
        }
    }

    /// Qualified column reference helper.
    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column {
            table: Some(table.to_ascii_lowercase()),
            name: name.to_ascii_lowercase(),
        }
    }

    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Float literal helper.
    pub fn num(v: f64) -> Expr {
        Expr::Literal(Value::Double(v))
    }

    /// Binary-op builder.
    pub fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// True iff the expression tree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Literal(_) | Expr::Column { .. } => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Func { name, args } => {
                is_aggregate_name(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Case { whens, else_expr } => {
                whens
                    .iter()
                    .any(|(c, r)| c.contains_aggregate() || r.contains_aggregate())
                    || else_expr.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
        }
    }
}

impl std::fmt::Display for Expr {
    /// Render as parseable SQL. Sub-expressions are parenthesized
    /// defensively, so `parse(render(e))` reproduces `e` exactly (up to
    /// literal folding); the property test in `tests/parser_roundtrip.rs`
    /// holds the parser to that.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(v) => match v {
                crate::value::Value::Null => write!(f, "NULL"),
                crate::value::Value::Int(i) if *i < 0 => write!(f, "({i})"),
                crate::value::Value::Int(i) => write!(f, "{i}"),
                crate::value::Value::Double(d) => {
                    if *d < 0.0 {
                        write!(f, "({d:?})")
                    } else {
                        write!(f, "{d:?}")
                    }
                }
                crate::value::Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            },
            Expr::Column {
                table: Some(t),
                name,
            } => write!(f, "{t}.{name}"),
            Expr::Column { table: None, name } => write!(f, "{name}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => write!(f, "(-({expr}))"),
                UnaryOp::Not => write!(f, "(NOT ({expr}))"),
            },
            Expr::Binary { op, left, right } => write!(f, "(({left}) {op} ({right}))"),
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                if args.is_empty() && name == "count" {
                    write!(f, "*")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Case { whens, else_expr } => {
                write!(f, "CASE")?;
                for (c, r) in whens {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::IsNull { expr, negated } => {
                if *negated {
                    write!(f, "(({expr}) IS NOT NULL)")
                } else {
                    write!(f, "(({expr}) IS NULL)")
                }
            }
        }
    }
}

impl std::fmt::Display for SelectItem {
    /// Render as it would appear in a projection list.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => write!(f, "{expr} AS {a}"),
        }
    }
}

impl std::fmt::Display for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.table),
            None => f.write_str(&self.table),
        }
    }
}

impl std::fmt::Display for OrderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

/// Join a list of displayable items with `, `.
fn comma_join<T: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    items: &[T],
) -> std::fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl std::fmt::Display for Select {
    /// Render as parseable SQL, clause by clause.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SELECT ")?;
        comma_join(f, &self.items)?;
        if !self.from.is_empty() {
            f.write_str(" FROM ")?;
            comma_join(f, &self.from)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            comma_join(f, &self.group_by)?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            comma_join(f, &self.order_by)?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Statement {
    /// Render the statement as SQL the parser accepts, so
    /// `parse(stmt.to_string())` reproduces `stmt`. The write-ahead log
    /// ([`crate::wal`]) persists mutating statements in exactly this
    /// form and replays them through the parser on recovery; double
    /// literals use the shortest exact representation (`{:?}`), which
    /// round-trips bit-identically (see [`Expr`]'s `Display`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
                if_not_exists,
            } => {
                write!(
                    f,
                    "CREATE TABLE {}{name} (",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} {}", c.name, c.ty)?;
                }
                if !primary_key.is_empty() {
                    write!(f, ", PRIMARY KEY ({})", primary_key.join(", "))?;
                }
                f.write_str(")")
            }
            Statement::DropTable { name, if_exists } => {
                write!(
                    f,
                    "DROP TABLE {}{name}",
                    if *if_exists { "IF EXISTS " } else { "" }
                )
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if let Some(cols) = columns {
                    write!(f, " ({})", cols.join(", "))?;
                }
                match source {
                    InsertSource::Values(rows) => {
                        f.write_str(" VALUES ")?;
                        for (i, row) in rows.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            f.write_str("(")?;
                            comma_join(f, row)?;
                            f.write_str(")")?;
                        }
                        Ok(())
                    }
                    InsertSource::Select(sel) => write!(f, " {sel}"),
                }
            }
            Statement::Update {
                table,
                from,
                assignments,
                where_clause,
            } => {
                write!(f, "UPDATE {table}")?;
                if !from.is_empty() {
                    f.write_str(" FROM ")?;
                    comma_join(f, from)?;
                }
                f.write_str(" SET ")?;
                for (i, (col, expr)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{col} = {expr}")?;
                }
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::Select(sel) => write!(f, "{sel}"),
            Statement::Explain(inner) => write!(f, "EXPLAIN {inner}"),
            Statement::ExplainAnalyze(inner) => write!(f, "EXPLAIN ANALYZE {inner}"),
        }
    }
}

/// Is `name` one of the supported aggregate functions?
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(name, "sum" | "count" | "avg" | "min" | "max")
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every column of every FROM table, in order.
    Wildcard,
    /// `t.*` — every column of one table.
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The expression.
        expr: Expr,
        /// Output name override.
        alias: Option<String>,
    },
}

/// A table in a FROM clause: `name [AS] alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Base table name, lowercase.
    pub table: String,
    /// Optional alias, lowercase.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is visible as (alias if present).
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM tables (comma joins; empty ⇒ one synthetic row).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// Source of rows for an INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)` — one expression list per row.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …`.
    Select(Box<Select>),
}

/// A column declaration in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name, lowercase.
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

/// Any SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns in order.
        columns: Vec<ColumnDef>,
        /// PRIMARY KEY column names (may be empty).
        primary_key: Vec<String>,
        /// IF NOT EXISTS given?
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS given?
        if_exists: bool,
    },
    /// INSERT.
    Insert {
        /// Destination table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// VALUES or SELECT source.
        source: InsertSource,
    },
    /// UPDATE with optional auxiliary FROM tables.
    Update {
        /// Target table.
        table: String,
        /// Extra tables whose columns the SET expressions may read
        /// (the engine forms the cross product; see DESIGN.md §5).
        from: Vec<TableRef>,
        /// `col = expr` in order; later items see earlier assignments.
        assignments: Vec<(String, Expr)>,
        /// Row filter.
        where_clause: Option<Expr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// Row filter; absent ⇒ delete all.
        where_clause: Option<Expr>,
    },
    /// SELECT.
    Select(Select),
    /// EXPLAIN SELECT — describe the join pipeline instead of running it.
    Explain(Box<Statement>),
    /// EXPLAIN ANALYZE — execute the inner statement with telemetry
    /// enabled and return the plan plus measured metrics.
    ExplainAnalyze(Box<Statement>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_walks_the_tree() {
        let e = Expr::bin(
            BinOp::Div,
            Expr::Func {
                name: "sum".into(),
                args: vec![Expr::col("x1")],
            },
            Expr::Func {
                name: "sum".into(),
                args: vec![Expr::col("x1")],
            },
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x1").contains_aggregate());
        let scalar = Expr::Func {
            name: "exp".into(),
            args: vec![Expr::col("d1")],
        };
        assert!(!scalar.contains_aggregate());
        let nested = Expr::Func {
            name: "exp".into(),
            args: vec![Expr::Func {
                name: "sum".into(),
                args: vec![Expr::col("d1")],
            }],
        };
        assert!(nested.contains_aggregate());
    }

    #[test]
    fn case_aggregate_detection() {
        let e = Expr::Case {
            whens: vec![(
                Expr::bin(BinOp::Gt, Expr::col("sump"), Expr::num(0.0)),
                Expr::Func {
                    name: "sum".into(),
                    args: vec![Expr::col("p1")],
                },
            )],
            else_expr: None,
        };
        assert!(e.contains_aggregate());
    }

    #[test]
    fn statement_display_roundtrips_through_parser() {
        let sqls = [
            "CREATE TABLE yd (rid BIGINT, d1 DOUBLE, name VARCHAR, PRIMARY KEY (rid))",
            "CREATE TABLE IF NOT EXISTS c (i BIGINT PRIMARY KEY, y1 DOUBLE)",
            "DROP TABLE yd",
            "DROP TABLE IF EXISTS yd",
            "INSERT INTO w VALUES (1, 0.25), (2, (-0.75))",
            "INSERT INTO w (i, val) VALUES (1, 'it''s')",
            "INSERT INTO yx SELECT rid, exp((-(0.5)) * d1) AS p1 FROM yd WHERE d1 > 0.0",
            "UPDATE gmm SET detr = r1 * r2, sqrtdetr = detr ** 0.5",
            "UPDATE c FROM w AS t SET y1 = y1 / t.w1 WHERE i = 1",
            "DELETE FROM yx WHERE p1 IS NULL",
            "DELETE FROM yx",
            "SELECT sum(val) AS s, count(*) FROM y, c AS m WHERE y.v = m.i \
             GROUP BY y.v HAVING sum(val) > 0.0 ORDER BY y.v DESC LIMIT 3",
            "SELECT CASE WHEN sump > 1.0E-100 THEN p1 / sump ELSE 0.0 END FROM yp",
        ];
        for sql in sqls {
            let stmt = crate::parser::parse_one(sql).unwrap();
            let rendered = stmt.to_string();
            let reparsed = crate::parser::parse_one(&rendered)
                .unwrap_or_else(|e| panic!("render of {sql:?} unparseable: {rendered:?}: {e}"));
            assert_eq!(reparsed, stmt, "roundtrip of {sql:?} via {rendered:?}");
        }
    }

    #[test]
    fn statement_display_is_bit_exact_for_doubles() {
        let awkward = [1.0 / 3.0, f64::MIN_POSITIVE, -1.234_567_890_123_456_7e300];
        for v in awkward {
            let stmt = Statement::Insert {
                table: "t".into(),
                columns: None,
                source: InsertSource::Values(vec![vec![Expr::num(v)]]),
            };
            let back = crate::parser::parse_one(&stmt.to_string()).unwrap();
            assert_eq!(back, stmt, "double {v:?} must round-trip bit-exactly");
        }
    }

    #[test]
    fn visible_name_prefers_alias() {
        let t = TableRef {
            table: "yx".into(),
            alias: Some("r".into()),
        };
        assert_eq!(t.visible_name(), "r");
        let t2 = TableRef {
            table: "yx".into(),
            alias: None,
        };
        assert_eq!(t2.visible_name(), "yx");
    }
}
