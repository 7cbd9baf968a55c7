//! Seeded statement-shape parity: embedded engine vs shard coordinator.
//!
//! The coordinator's contract is "bit-identical to a single node, or
//! `Error::Unsupported` — never silently different". Both sides read
//! one [`sqlengine::plan`], so the contract should hold for every
//! statement shape the dialect can express, not only the ones the EM
//! generators emit. This suite draws statements from a small grammar
//! over docs/SQL_DIALECT.md — FROM of 1–3 tables out of three
//! partitioned and two broadcast ones, rid-equalities present / absent /
//! reversed / nested in ANDs, optional aliases and column lists, scalar
//! vs aggregate vs GROUP BY items, HAVING, ORDER BY on an alias / an
//! output name / an expression, LIMIT; SELECT, `INSERT … SELECT` into a
//! partitioned and a broadcast target, UPDATE [… FROM], DELETE — and
//! runs each against an embedded [`Database`] (the reference) and
//! `Coordinator<Database>` at 1, 2 and 4 shards.
//!
//! Every statement must either match the reference — the result rows
//! bit for bit (in order when its ORDER BY is total, as a multiset
//! otherwise: SQL promises no more), then the full contents of every
//! table — or be rejected `Unsupported` with every table untouched.
//! Seeds are fixed; a failure prints seed, case number and SQL.
//!
//! About one statement in ten is generated with a [`Flaw`] — an unknown
//! or ambiguous column, a wrong function arity, a naked column beside
//! an aggregate, string arithmetic — wherever the grammar next produces
//! a column or an expression (SELECT list, WHERE, an aggregate's
//! argument, HAVING, SET …). An invalid statement must fail the same
//! way everywhere: the same `Error::Analyze` — kind, clause and byte
//! position — embedded and through a coordinator, and never as
//! `Unsupported`, which says "no distributed plan", not "your mistake".
//!
//! Not in the grammar: expressions that can fail on some rows only (a
//! multi-shard statement is atomic per shard), and ORDER BY … LIMIT with
//! ties at the cut.

use std::collections::BTreeMap;

use prng::{Rng, StdRng};
use sqlengine::{AnalyzeErrorKind, Database, Error, QueryResult, Result, Row, SqlExecutor, Value};
use sqlwire::Coordinator;

// ---------------------------------------------------------------------
// Schema and data
// ---------------------------------------------------------------------

struct TableDef {
    name: &'static str,
    /// A column whose values are unique: the ORDER BY tie-breaker.
    key: &'static str,
    /// Every column, BIGINT ones flagged.
    cols: &'static [(&'static str, bool)],
}

/// `y`, `z`, `w` have a `rid` column and are hash-partitioned; `c` and
/// `m` are broadcast. `w` and `m` are keyless and serve as INSERT
/// targets.
const TABLES: [TableDef; 5] = [
    TableDef {
        name: "y",
        key: "rid",
        cols: &[("rid", true), ("y1", false), ("y2", false)],
    },
    TableDef {
        name: "z",
        key: "rid",
        cols: &[("rid", true), ("z1", false), ("g", true)],
    },
    TableDef {
        name: "w",
        key: "rid",
        cols: &[("rid", true), ("v", false)],
    },
    TableDef {
        name: "c",
        key: "j",
        cols: &[("j", true), ("c1", false)],
    },
    TableDef {
        name: "m",
        key: "k",
        cols: &[("k", true), ("m1", false)],
    },
];

fn is_partitioned(t: &TableDef) -> bool {
    t.cols[0].0 == "rid"
}

/// The statements that build the fixture; `n` rows in `y`, most of them
/// matched in `z`. Every column holds distinct values except `z.g`.
fn setup(n: i64) -> Vec<String> {
    let mut sql = vec![
        "CREATE TABLE y (rid BIGINT PRIMARY KEY, y1 DOUBLE, y2 DOUBLE)".to_string(),
        "CREATE TABLE z (rid BIGINT PRIMARY KEY, z1 DOUBLE, g BIGINT)".to_string(),
        "CREATE TABLE w (rid BIGINT, v DOUBLE)".to_string(),
        "CREATE TABLE c (j BIGINT PRIMARY KEY, c1 DOUBLE)".to_string(),
        "CREATE TABLE m (k BIGINT, m1 DOUBLE)".to_string(),
        "INSERT INTO w VALUES (2, 0.5), (3, -2.25), (5, 7.0), (7, 1.125), (12, -0.75)".to_string(),
        "INSERT INTO c VALUES (1, 10.5), (2, -20.25), (3, 30.125)".to_string(),
        "INSERT INTO m VALUES (1, 0.25), (2, -4.5)".to_string(),
    ];
    let rids: Vec<i64> = (1..=n).collect();
    for chunk in rids.chunks(500) {
        let y: Vec<String> = chunk
            .iter()
            .map(|r| {
                format!(
                    "({r}, {:?}, {:?})",
                    *r as f64 * 1.5 - 4.0,
                    20.0 - *r as f64 * 0.25
                )
            })
            .collect();
        sql.push(format!("INSERT INTO y VALUES {}", y.join(", ")));
        let z: Vec<String> = chunk
            .iter()
            .filter(|r| *r % 4 != 0)
            .map(|r| format!("({r}, {:?}, {})", (*r * *r) as f64 * 0.125 - 3.0, r % 3))
            .collect();
        sql.push(format!("INSERT INTO z VALUES {}", z.join(", ")));
    }
    sql
}

// ---------------------------------------------------------------------
// The grammar
// ---------------------------------------------------------------------

/// One FROM entry: a table and the name it is visible under.
#[derive(Clone)]
struct Src {
    table: &'static TableDef,
    vis: String,
}

struct Case {
    sql: String,
    mutating: bool,
    /// The statement is a SELECT whose ORDER BY decides every position.
    ordered: bool,
    /// `INSERT … SELECT … LIMIT` into a partitioned target over
    /// partitioned data (the silent-divergence shape).
    limited_local_insert: bool,
    /// ORDER BY names the bare output name of an unaliased qualified
    /// `rid` item while two sources have a `rid`.
    bare_name_order: bool,
    /// The mistake the statement was generated with.
    flaw: Option<Flaw>,
}

/// A generated SELECT and what the comparison needs to know about it.
struct Select {
    sql: String,
    /// Its ORDER BY decides every position.
    total: bool,
    limited: bool,
    /// ORDER BY names the bare output name of an unaliased qualified
    /// `rid` item while two sources have a `rid`.
    bare_name_order: bool,
}

/// One mistake a statement can be drawn with.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flaw {
    UnknownColumn,
    AmbiguousColumn,
    WrongArity,
    NakedColumn,
    StringArithmetic,
}

/// What a flawed statement's flaw is drawn from: the ones few statements
/// have a place for (two sources sharing a column name, an aggregate)
/// are in it more often.
const FLAWS: [Flaw; 11] = [
    Flaw::UnknownColumn,
    Flaw::AmbiguousColumn,
    Flaw::AmbiguousColumn,
    Flaw::AmbiguousColumn,
    Flaw::AmbiguousColumn,
    Flaw::WrongArity,
    Flaw::NakedColumn,
    Flaw::NakedColumn,
    Flaw::NakedColumn,
    Flaw::StringArithmetic,
    Flaw::StringArithmetic,
];

struct Gen {
    rng: StdRng,
    /// SELECTs only, every join between partitioned tables co-located
    /// (large data: no cross products of the big tables).
    tame: bool,
    /// Decides which statements are flawed and how — its own stream, so
    /// the valid statements of a seed are the ones they always were.
    flaw_rng: StdRng,
    /// The flaw the statement being generated still has to receive: the
    /// next production it fits spoils its output and takes it.
    flaw: Option<Flaw>,
}

impl Gen {
    fn chance(&mut self, percent: usize) -> bool {
        self.rng.random_range(0..100usize) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.random_range(0..items.len())]
    }

    fn sources(&mut self, max: usize) -> Vec<Src> {
        let n = self.rng.random_range(1..=max);
        let mut order: Vec<usize> = (0..TABLES.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.random_range(0..=i));
        }
        let mut srcs: Vec<Src> = Vec::new();
        for (i, &t) in order.iter().enumerate() {
            if srcs.len() == n {
                break;
            }
            let table = &TABLES[t];
            let vis = if self.chance(40) {
                format!("t{i}")
            } else {
                table.name.to_string()
            };
            srcs.push(Src { table, vis });
        }
        srcs
    }

    /// A reference to `col` of `src`: qualified, or bare when no other
    /// source has the name (and now and then even if one does — the
    /// error must then be the same on both sides).
    fn col(&mut self, srcs: &[Src], src: &Src, col: &str) -> String {
        let unique = srcs
            .iter()
            .filter(|s| s.table.cols.iter().any(|(c, _)| *c == col))
            .count()
            == 1;
        let bare = (unique && self.chance(40)) || self.chance(3);
        let col = match self.flaw {
            Some(Flaw::UnknownColumn) => {
                self.flaw = None;
                "nope"
            }
            Some(Flaw::AmbiguousColumn) if !unique => {
                self.flaw = None;
                return col.to_string();
            }
            _ => col,
        };
        if bare {
            col.to_string()
        } else {
            format!("{}.{col}", src.vis)
        }
    }

    /// Spoil the numeric expression `e` if that is the pending flaw.
    fn flawed(&mut self, e: String) -> String {
        let spoilt = match self.flaw {
            Some(Flaw::WrongArity) => format!("exp({e}, {e})"),
            Some(Flaw::StringArithmetic) => format!("{e} * 'abc'"),
            _ => return e,
        };
        self.flaw = None;
        spoilt
    }

    fn any_col(&mut self, srcs: &[Src], ints: bool) -> String {
        let candidates: Vec<(usize, &str)> = srcs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.table.cols.iter().map(move |(c, int)| (i, *c, *int)))
            .filter(|(_, _, int)| *int == ints)
            .map(|(i, c, _)| (i, c))
            .collect();
        let (i, c) = *self.pick(&candidates);
        self.col(srcs, &srcs[i], c)
    }

    /// A DOUBLE-valued expression that evaluates on every row.
    fn num_expr(&mut self, srcs: &[Src]) -> String {
        let a = self.any_col(srcs, false);
        let e = match self.rng.random_range(0..7usize) {
            0 | 1 => a,
            2 => format!("{a} + 1.5"),
            3 => format!("{a} * 2.0"),
            4 => format!("-{a}"),
            5 => format!("{a} * {}", self.any_col(srcs, false)),
            _ => format!("CASE WHEN {a} > 0.0 THEN {a} ELSE 0.0 END"),
        };
        self.flawed(e)
    }

    fn aggregate(&mut self, srcs: &[Src]) -> String {
        match self.rng.random_range(0..6usize) {
            0 => "count(*)".to_string(),
            1 => format!("sum({})", self.num_expr(srcs)),
            2 => format!("min({})", self.any_col(srcs, false)),
            3 => {
                let ints = self.chance(30);
                format!("max({})", self.any_col(srcs, ints))
            }
            4 => format!("avg({})", self.any_col(srcs, false)),
            _ => format!("sum({}) / count(*)", self.num_expr(srcs)),
        }
    }

    /// WHERE: rid-equalities between consecutive partitioned sources
    /// (present, absent or reversed), a join to a broadcast key now and
    /// then, single-table filters and a residual, nested in ANDs.
    fn where_clause(&mut self, srcs: &[Src]) -> Option<String> {
        let mut conjuncts: Vec<String> = Vec::new();
        let parts: Vec<&Src> = srcs.iter().filter(|s| is_partitioned(s.table)).collect();
        for pair in parts.windows(2) {
            if self.tame || self.chance(80) {
                let (a, b) = if self.chance(50) {
                    (pair[0], pair[1])
                } else {
                    (pair[1], pair[0])
                };
                conjuncts.push(format!("{}.rid = {}.rid", a.vis, b.vis));
            }
        }
        if let (Some(p), Some(b)) = (
            parts.first(),
            srcs.iter().find(|s| !is_partitioned(s.table)),
        ) {
            if self.chance(20) {
                conjuncts.push(format!("{}.rid = {}.{}", p.vis, b.vis, b.table.key));
            }
        }
        for _ in 0..self.rng.random_range(0..=2usize) {
            let filter = match self.rng.random_range(0..4usize) {
                0 => format!("{} > 0.0", self.any_col(srcs, false)),
                1 => format!("{} <= 6", self.any_col(srcs, true)),
                2 => format!("{} = 2", self.any_col(srcs, true)),
                _ => format!(
                    "{} < {}",
                    self.any_col(srcs, false),
                    self.any_col(srcs, false)
                ),
            };
            conjuncts.push(filter);
        }
        for i in (1..conjuncts.len()).rev() {
            conjuncts.swap(i, self.rng.random_range(0..=i));
        }
        let mut clause = conjuncts.pop()?;
        for c in conjuncts {
            clause = if self.chance(50) {
                format!("({clause} AND {c})")
            } else {
                format!("{c} AND ({clause})")
            };
        }
        Some(clause)
    }

    /// A SELECT over `srcs`. `pair`: produce exactly a BIGINT-valued and
    /// a DOUBLE-valued item (an INSERT source).
    fn select(&mut self, srcs: &[Src], pair: bool) -> Select {
        let from: Vec<String> = srcs
            .iter()
            .map(|s| {
                if s.vis == s.table.name {
                    s.vis.clone()
                } else if self.chance(50) {
                    format!("{} AS {}", s.table.name, s.vis)
                } else {
                    format!("{} {}", s.table.name, s.vis)
                }
            })
            .collect();
        let where_clause = self.where_clause(srcs);
        let mut items: Vec<String> = Vec::new();
        let mut group_by: Vec<String> = Vec::new();
        let mut having = None;
        let mut bare_rid_item = false;
        // Keys an ORDER BY may use, and the ones that make it total.
        let mut order_pool: Vec<String> = Vec::new();
        let tie_breakers: Vec<String>;
        let aggregate = self.chance(if pair { 35 } else { 45 });
        if aggregate {
            for _ in 0..self.rng.random_range(0..=2usize) {
                let ints = self.chance(80);
                let key = self.any_col(srcs, ints);
                if !group_by.contains(&key) {
                    group_by.push(key);
                }
            }
            if pair {
                items.push(match group_by.first() {
                    Some(key) => key.clone(),
                    None => "count(*)".to_string(),
                });
                items.push(format!("sum({})", self.num_expr(srcs)));
            } else {
                for key in group_by.clone() {
                    if self.chance(85) {
                        items.push(key);
                    }
                }
                for i in 0..self.rng.random_range(1..=2usize) {
                    let agg = self.aggregate(srcs);
                    order_pool.push(agg.clone());
                    if self.chance(50) {
                        order_pool.push(format!("a{i}"));
                        items.push(format!("{agg} AS a{i}"));
                    } else {
                        items.push(agg);
                    }
                }
            }
            let naked = format!("{}.{}", srcs[0].vis, srcs[0].table.key);
            if self.flaw == Some(Flaw::NakedColumn) && !group_by.contains(&naked) {
                self.flaw = None;
                items.push(naked);
            }
            if self.chance(25) {
                having = Some(if self.chance(50) {
                    "count(*) >= 2".to_string()
                } else {
                    format!("sum({}) > 0.0", self.num_expr(srcs))
                });
            }
            order_pool.extend(group_by.iter().cloned());
            tie_breakers = group_by.clone();
        } else {
            if pair {
                items.push(self.any_col(srcs, true));
                items.push(self.num_expr(srcs));
            } else {
                for i in 0..self.rng.random_range(1..=3usize) {
                    match self.rng.random_range(0..10usize) {
                        0 => items.push("*".to_string()),
                        1 => items.push(format!("{}.*", self.pick(srcs).vis.clone())),
                        2 => items.push("7".to_string()),
                        3..=5 => {
                            order_pool.push(format!("s{i}"));
                            items.push(format!("{} AS s{i}", self.num_expr(srcs)));
                        }
                        _ => {
                            let src = self.pick(srcs).clone();
                            let (name, _) = *self.pick(src.table.cols);
                            let item = self.col(srcs, &src, name);
                            if item.contains('.') {
                                // The item's output name, bare — thrice
                                // as likely a key as any other.
                                order_pool.extend(std::iter::repeat_n(name.to_string(), 3));
                                bare_rid_item |= name == "rid"
                                    && srcs.iter().filter(|s| is_partitioned(s.table)).count() > 1;
                            }
                            items.push(item);
                        }
                    }
                }
            }
            // A type error in a sort key is out of the grammar: the key
            // reaches the shards of a gather read as one more SELECT
            // item, which is then the clause they report.
            let held = self.flaw.take_if(|f| *f == Flaw::StringArithmetic);
            order_pool.push(self.num_expr(srcs));
            self.flaw = self.flaw.or(held);
            order_pool.push(format!("{}.{}", srcs[0].vis, srcs[0].table.key));
            tie_breakers = srcs
                .iter()
                .map(|s| format!("{}.{}", s.vis, s.table.key))
                .collect();
        }
        let limit = self.chance(25).then(|| self.rng.random_range(1..=5usize));
        let mut order_by: Vec<String> = Vec::new();
        let mut total = false;
        if self.chance(60) && !(order_pool.is_empty() && tie_breakers.is_empty()) {
            for _ in 0..self.rng.random_range(0..=2usize) {
                if !order_pool.is_empty() {
                    let key = self.pick(&order_pool).clone();
                    let dir = if self.chance(40) { " DESC" } else { "" };
                    order_by.push(format!("{key}{dir}"));
                }
            }
            // Ties at a LIMIT cut would leave the kept rows to chance.
            if limit.is_some() || self.chance(85) {
                order_by.extend(tie_breakers.iter().cloned());
                total = true;
            }
        }
        if aggregate && group_by.is_empty() {
            total = !order_by.is_empty(); // one row
        }
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), from.join(", "));
        if let Some(w) = where_clause {
            sql.push_str(&format!(" WHERE {w}"));
        }
        if !group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", group_by.join(", ")));
        }
        if let Some(h) = having {
            sql.push_str(&format!(" HAVING {h}"));
        }
        if !order_by.is_empty() {
            sql.push_str(&format!(" ORDER BY {}", order_by.join(", ")));
        } else {
            total = false;
        }
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        Select {
            bare_name_order: bare_rid_item
                && order_by.iter().any(|k| k == "rid" || k == "rid DESC"),
            sql,
            total,
            limited: limit.is_some(),
        }
    }

    fn case(&mut self) -> Case {
        let kind = if self.tame {
            0
        } else {
            self.rng.random_range(0..100usize)
        };
        let drawn = (!self.tame && self.flaw_rng.random_range(0..7usize) == 0)
            .then(|| FLAWS[self.flaw_rng.random_range(0..FLAWS.len())]);
        self.flaw = drawn;
        let mut case = Case {
            sql: String::new(),
            mutating: kind >= 55,
            ordered: false,
            limited_local_insert: false,
            bare_name_order: false,
            flaw: None,
        };
        match kind {
            0..=54 => {
                let srcs = self.sources(3);
                let select = self.select(&srcs, false);
                case.sql = select.sql;
                case.ordered = select.total;
                case.bare_name_order = select.bare_name_order;
            }
            55..=79 => {
                let srcs = self.sources(2);
                let select = self.select(&srcs, true);
                let (target, cols) = if self.chance(55) {
                    ("w", ["rid", "v"])
                } else {
                    ("m", ["k", "m1"])
                };
                let columns = match self.rng.random_range(0..3usize) {
                    0 => format!(" ({}, {})", cols[0], cols[1]),
                    _ => String::new(),
                };
                case.limited_local_insert =
                    select.limited && target == "w" && srcs.iter().any(|s| is_partitioned(s.table));
                case.sql = format!("INSERT INTO {target}{columns} {}", select.sql);
            }
            80..=91 => {
                let target = self.pick(&["y", "y", "z", "c", "w"]);
                let def = TABLES.iter().find(|t| t.name == *target).unwrap();
                let mut srcs = vec![Src {
                    table: def,
                    vis: def.name.to_string(),
                }];
                if self.chance(60) {
                    let other = self.sources(1).pop().unwrap();
                    if other.vis != def.name && other.table.name != def.name {
                        srcs.push(other);
                    }
                }
                let set_col = if self.chance(6) {
                    def.key
                } else {
                    def.cols.iter().find(|(_, int)| !int).unwrap().0
                };
                let value = if set_col == def.key {
                    format!("{}.{} + 100", def.name, def.key)
                } else {
                    self.num_expr(&srcs)
                };
                let from = match srcs.get(1) {
                    Some(s) if s.vis == s.table.name => format!(" FROM {}", s.vis),
                    Some(s) => format!(" FROM {} {}", s.table.name, s.vis),
                    None => String::new(),
                };
                let mut conjuncts = Vec::new();
                if let Some(s) = srcs.get(1) {
                    // Pin one FROM row per target row, so "the first
                    // matching combination" is the only one.
                    if is_partitioned(s.table) && is_partitioned(def) {
                        if self.chance(85) {
                            conjuncts.push(if self.chance(50) {
                                format!("{}.rid = {}.rid", def.name, s.vis)
                            } else {
                                format!("{}.rid = {}.rid", s.vis, def.name)
                            });
                        }
                    } else {
                        conjuncts.push(format!("{}.{} = 2", s.vis, s.table.key));
                    }
                }
                if self.chance(40) {
                    conjuncts.push(format!("{} > 0.0", self.any_col(&srcs[..1], false)));
                }
                let where_clause = match conjuncts.len() {
                    0 => String::new(),
                    _ => format!(" WHERE {}", conjuncts.join(" AND ")),
                };
                case.sql = format!("UPDATE {target}{from} SET {set_col} = {value}{where_clause}");
            }
            _ => {
                let def = self.pick(&TABLES);
                let srcs = [Src {
                    table: def,
                    vis: def.name.to_string(),
                }];
                let where_clause = match self.rng.random_range(0..3usize) {
                    0 => String::new(),
                    1 => format!(" WHERE {} > 0.0", self.any_col(&srcs, false)),
                    _ => format!(" WHERE {} <= 3", self.any_col(&srcs, true)),
                };
                case.sql = format!("DELETE FROM {}{where_clause}", def.name);
            }
        }
        // A flaw no production took — or one that spoilt a sort key no
        // ORDER BY went on to use — leaves the statement valid.
        case.flaw = drawn.filter(|_| self.flaw.is_none());
        case
    }
}

// ---------------------------------------------------------------------
// Executors and comparison
// ---------------------------------------------------------------------

fn embedded(setup: &[String]) -> Box<dyn SqlExecutor> {
    let mut db = Database::new();
    for sql in setup {
        db.execute(sql).unwrap();
    }
    Box::new(db)
}

fn cluster(setup: &[String], shards: usize) -> Box<dyn SqlExecutor> {
    let dbs = (0..shards).map(|_| Database::new()).collect();
    let mut coord = Coordinator::new(dbs).unwrap();
    for sql in setup {
        coord.execute(sql).unwrap();
    }
    Box::new(coord)
}

/// The executors held against the reference, each with a label.
fn contenders(setup: &[String]) -> Vec<(String, Box<dyn SqlExecutor>)> {
    let shards = [1, 2, 4].into_iter();
    shards
        .map(|n| (format!("{n} shard(s)"), cluster(setup, n)))
        .collect()
}

/// A cell as its type and bit pattern: `0.0` and `-0.0` differ, as do
/// `1` and `1.0`.
fn cell_bits(v: &Value) -> (u8, u64, String) {
    match v {
        Value::Null => (0, 0, String::new()),
        Value::Int(i) => (1, *i as u64, String::new()),
        Value::Double(d) => (2, d.to_bits(), String::new()),
        Value::Str(s) => (3, 0, s.to_string()),
    }
}

fn row_bits(rows: &[Row], sorted: bool) -> Vec<Vec<(u8, u64, String)>> {
    let mut out: Vec<Vec<_>> = rows
        .iter()
        .map(|r| r.iter().map(cell_bits).collect())
        .collect();
    if sorted {
        out.sort();
    }
    out
}

/// The full contents of every table, as sorted multisets.
fn dump(exec: &mut dyn SqlExecutor) -> Vec<Vec<Vec<(u8, u64, String)>>> {
    TABLES
        .iter()
        .map(|t| {
            let all = exec.execute(&format!("SELECT * FROM {}", t.name)).unwrap();
            row_bits(&all.rows, true)
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    matched: usize,
    rejected: usize,
    both_failed: usize,
    /// Of those, the ones generated with each [`Flaw`].
    flawed: BTreeMap<String, usize>,
    limited_local_inserts: usize,
    bare_name_orders: usize,
    classes: BTreeMap<String, usize>,
}

/// Hold `got` to `want`: `true` if they agree, `false` if `got` is an
/// `Unsupported` rejection; anything else is a failure.
fn agree(case: &Case, want: &Result<QueryResult>, got: &Result<QueryResult>, at: &str) -> bool {
    // What planning finds wrong with a statement it finds before it can
    // tell whether the statement distributes.
    let misplanned = |e: &Error| {
        let kind = e.as_analyze().map(|e| &e.kind);
        kind.is_some_and(|k| !matches!(k, AnalyzeErrorKind::TypeMismatch { .. }))
    };
    match (want, got) {
        (Err(w), Err(Error::Unsupported(_))) if misplanned(w) => {
            panic!("{at}: a user error ({w}) reported as {got:?}")
        }
        (_, Err(Error::Unsupported(_))) => false,
        (Ok(w), Ok(g)) => {
            assert_eq!(w.columns, g.columns, "{at}: columns");
            assert_eq!(w.rows_affected, g.rows_affected, "{at}: rows_affected");
            assert!(
                row_bits(&w.rows, !case.ordered) == row_bits(&g.rows, !case.ordered),
                "{at}: rows differ\n  reference: {:?}\n  got:       {:?}",
                w.rows,
                g.rows
            );
            true
        }
        // An invalid statement is invalid the same way everywhere.
        (Err(w), Err(g)) => {
            assert_eq!(w, g, "{at}");
            true
        }
        (w, g) => panic!("{at}: reference {w:?}, got {g:?}"),
    }
}

fn run_seed(seed: u64, cases: usize, rows: i64, tame: bool) -> Tally {
    let mut gen = Gen {
        rng: StdRng::seed_from_u64(seed),
        tame,
        flaw_rng: StdRng::seed_from_u64(seed ^ 0xF1A3),
        flaw: None,
    };
    run_cases(seed, &setup(rows), (0..cases).map(|_| gen.case()))
}

/// Hold every contender to the reference on `cases`, each against a
/// fresh `fixture` once a statement has mutated it.
fn run_cases(seed: u64, fixture: &[String], cases: impl Iterator<Item = Case>) -> Tally {
    let mut tally = Tally::default();
    let mut reference = embedded(fixture);
    let mut others = contenders(fixture);
    let untouched = dump(reference.as_mut());
    for (number, case) in cases.enumerate() {
        let at = |who: &str| format!("seed {seed} case {number} [{who}]: {}", case.sql);
        let want = reference.execute(&case.sql);
        let after = if case.mutating {
            dump(reference.as_mut())
        } else {
            Vec::new()
        };
        tally.limited_local_inserts += case.limited_local_insert as usize;
        tally.bare_name_orders += case.bare_name_order as usize;
        let mut rejections = 0;
        for (label, exec) in others.iter_mut() {
            let got = exec.execute(&case.sql);
            let agreed = agree(&case, &want, &got, &at(label));
            rejections += !agreed as usize;
            if case.mutating {
                let expect = if agreed { &after } else { &untouched };
                assert!(
                    dump(exec.as_mut()) == *expect,
                    "{}: table contents",
                    at(label)
                );
            }
            if label == "2 shard(s)" && want.is_ok() {
                let explained = exec.execute(&format!("EXPLAIN {}", case.sql)).unwrap();
                let line = explained.rows.last().unwrap()[0].to_string();
                let class = line
                    .strip_prefix("distribution: ")
                    .expect("distribution line");
                let class = class.split(' ').next().unwrap().to_string();
                assert_eq!(
                    class == "none",
                    !agreed,
                    "{}: EXPLAIN says {line}",
                    at(label)
                );
                *tally.classes.entry(class).or_default() += 1;
            }
        }
        // A coordinator's verdict reads schemas and the partition map,
        // not the shard count: all reject or none does.
        let all = others.len();
        assert!(
            rejections == 0 || rejections == all,
            "{}",
            at("rejected by some")
        );
        if case.limited_local_insert && want.is_ok() {
            assert_eq!(rejections, all, "{}", at("LIMIT must be rejected"));
        }
        match (rejections, &want) {
            (0, Ok(_)) => tally.matched += 1,
            (0, Err(_)) => {
                tally.both_failed += 1;
                if let Some(flaw) = case.flaw {
                    *tally.flawed.entry(format!("{flaw:?}")).or_default() += 1;
                }
            }
            _ => tally.rejected += 1,
        }
        if case.mutating {
            reference = embedded(fixture);
            others = contenders(fixture);
        }
    }
    tally
}

/// 520 small cases per seed; what the grammar must have reached.
fn small(seed: u64) {
    let t = run_seed(seed, 520, 12, false);
    println!(
        "seed {seed}: {} matched, {} rejected, {} failed alike ({:?}), {} LIMIT inserts, \
         {} bare-name orders; classes {:?}",
        t.matched,
        t.rejected,
        t.both_failed,
        t.flawed,
        t.limited_local_inserts,
        t.bare_name_orders,
        t.classes
    );
    assert!(t.matched >= 250, "too few statements ran: {}", t.matched);
    assert!(t.rejected >= 40, "too few rejections: {}", t.rejected);
    assert!(
        (24..=60).contains(&t.both_failed),
        "too few or too many invalid statements: {}",
        t.both_failed
    );
    for flaw in FLAWS {
        let seen = t.flawed.get(&format!("{flaw:?}")).copied().unwrap_or(0);
        assert!(seen >= 1, "{flaw:?} never failed alike");
    }
    assert!(
        t.limited_local_inserts >= 1,
        "LIMIT insert shape not reached"
    );
    assert!(
        t.bare_name_orders >= 1,
        "bare output-name ORDER BY not reached"
    );
    for class in [
        "all-shards",
        "read-one",
        "local",
        "scatter",
        "scatter-insert",
        "gather",
        "gather-insert",
        "none",
    ] {
        assert!(t.classes.contains_key(class), "class {class} never seen");
    }
}

#[test]
fn seed_1() {
    small(1);
}

#[test]
fn seed_2() {
    small(2);
}

#[test]
fn seed_3() {
    small(3);
}

#[test]
fn seed_4() {
    small(4);
}

/// SELECTs over a driver of several batches on every shard.
#[test]
fn large_driver_selects_match_over_shards() {
    let t = run_seed(5, 40, 6000, true);
    assert!(t.matched >= 30, "too few statements ran: {}", t.matched);
}

/// UPDATE … FROM and DELETE … WHERE over a driver of several batches
/// on every shard: the same rows change embedded and over one, two and
/// four shards — the first matching FROM row included (`m` has two, and
/// the WHERE lets both through).
#[test]
fn large_driver_dml_matches_over_shards() {
    let dml = [
        "UPDATE y FROM z SET y1 = y1 + z.z1 WHERE y.rid = z.rid",
        "UPDATE y FROM c SET y2 = y2 * c.c1 WHERE c.j = 2",
        "UPDATE y FROM m SET y1 = m.m1 + y.rid, y2 = y1 * 2.0 WHERE y.y2 > 0.0",
        "UPDATE z FROM y SET z1 = y.y1 WHERE z.rid = y.rid AND y.y2 < 0.0",
        "DELETE FROM y WHERE y1 > 100.0",
        "DELETE FROM z WHERE g <= 1",
    ];
    let cases = dml.iter().map(|sql| Case {
        sql: sql.to_string(),
        mutating: true,
        ordered: false,
        limited_local_insert: false,
        bare_name_order: false,
        flaw: None,
    });
    let t = run_cases(6, &setup(6000), cases);
    assert_eq!(t.matched, dml.len(), "every statement ran everywhere");
}
