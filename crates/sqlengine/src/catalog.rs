//! The catalog: a name → table map with create/drop semantics.
//!
//! The SQLEM driver refreshes a work table by dropping and re-creating
//! it (§3.6: "for a big table it is faster to drop and create than
//! deleting all the records"). So a dropped table is kept for exactly
//! one statement: when that statement creates a table of the same name
//! and schema, the new table is the dropped one, cleared
//! (`Table::clear`) — its column vectors and index slots already
//! sized for the rows the refresh brings back. Every other statement
//! frees it ([`Catalog::release_dropped`]), so at most one dropped
//! table is held, and only until the next statement.

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::table::Table;

/// All tables known to one [`crate::engine::Database`].
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    /// The table the last statement dropped, if that was a DROP.
    dropped: Option<Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a table. Errors if the name is taken and `if_not_exists` is
    /// false; silently succeeds otherwise (keeping the existing table).
    /// The table the previous statement dropped is the new table, cleared,
    /// when its name and schema are the same; it is freed otherwise.
    pub fn create_table(&mut self, name: &str, schema: Schema, if_not_exists: bool) -> Result<()> {
        let lname = name.to_ascii_lowercase();
        let dropped = self.dropped.take();
        if self.tables.contains_key(&lname) {
            if if_not_exists {
                return Ok(());
            }
            return Err(Error::DuplicateTable(lname));
        }
        let table = match dropped {
            Some(mut kept) if kept.name() == lname && *kept.schema() == schema => {
                kept.clear();
                kept
            }
            _ => Table::new(lname.clone(), schema),
        };
        self.tables.insert(lname, table);
        Ok(())
    }

    /// Drop a table, keeping it for the next statement (see the module
    /// docs). Errors if missing and `if_exists` is false.
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        let lname = name.to_ascii_lowercase();
        self.dropped = self.tables.remove(&lname);
        if self.dropped.is_none() && !if_exists {
            return Err(Error::UnknownTable(lname));
        }
        Ok(())
    }

    /// Free the table the previous statement dropped: a statement that
    /// is not a CREATE is about to run.
    pub fn release_dropped(&mut self) {
        self.dropped = None;
    }

    /// Shared access to a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        let lname = name.to_ascii_lowercase();
        self.tables.get(&lname).ok_or(Error::UnknownTable(lname))
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let lname = name.to_ascii_lowercase();
        self.tables
            .get_mut(&lname)
            .ok_or(Error::UnknownTable(lname))
    }

    /// Does a table with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Sorted table names (for introspection / tests).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// All tables in name order (deterministic iteration for the
    /// snapshot writer).
    pub fn tables_sorted(&self) -> Vec<&Table> {
        let mut tables: Vec<&Table> = self.tables.values().collect();
        tables.sort_unstable_by(|a, b| a.name().cmp(b.name()));
        tables
    }

    /// Install a fully-built table (snapshot load). Replaces any
    /// existing table with the same name.
    pub fn install_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Column as ExprColumn;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn schema() -> Schema {
        Schema::keyless(vec![Column::double("x")]).unwrap()
    }

    #[test]
    fn create_and_drop() {
        let mut c = Catalog::new();
        c.create_table("Y", schema(), false).unwrap();
        assert!(c.contains("y"));
        assert!(c.contains("Y"));
        c.drop_table("y", false).unwrap();
        assert!(!c.contains("Y"));
    }

    #[test]
    fn duplicate_create_rejected_unless_if_not_exists() {
        let mut c = Catalog::new();
        c.create_table("Y", schema(), false).unwrap();
        assert!(c.create_table("y", schema(), false).is_err());
        c.create_table("y", schema(), true).unwrap();
    }

    #[test]
    fn drop_missing_rejected_unless_if_exists() {
        let mut c = Catalog::new();
        assert!(c.drop_table("nope", false).is_err());
        c.drop_table("nope", true).unwrap();
    }

    fn keyed(pk: &str, ty: DataType) -> Schema {
        let cols = vec![
            Column::bigint("rid"),
            Column::new("i", ty),
            Column::double("x"),
        ];
        Schema::new(cols, &[pk]).unwrap()
    }

    /// Create `name` and fill it with `rows` rows; the capacity of its
    /// columns.
    fn filled(c: &mut Catalog, name: &str, schema: Schema, rows: usize) -> Vec<usize> {
        c.create_table(name, schema, false).unwrap();
        let t = c.table_mut(name).unwrap();
        let batch = t.schema().columns().iter().map(|d| {
            let col = ExprColumn::from_values((0..rows as i64).map(Value::Int).collect());
            col.coerce(d.ty).0
        });
        t.append(batch.collect()).unwrap();
        storage(c, name)
    }

    fn storage(c: &Catalog, name: &str) -> Vec<usize> {
        let cols = c.table(name).unwrap().columns();
        cols.iter().map(ExprColumn::capacity).collect()
    }

    #[test]
    fn a_same_schema_drop_and_create_keeps_the_storage() {
        let mut c = Catalog::new();
        let kept = filled(&mut c, "x", keyed("rid", DataType::BigInt), 3000);
        assert!(kept.iter().all(|&c| c >= 3000), "{kept:?}");
        c.drop_table("X", false).unwrap();
        c.create_table("x", keyed("rid", DataType::BigInt), false)
            .unwrap();
        assert!(c.table("x").unwrap().is_empty());
        assert_eq!(storage(&c, "x"), kept);
    }

    #[test]
    fn another_schema_name_or_statement_gets_a_fresh_table() {
        let fresh = vec![0; 3];
        let schema = || keyed("rid", DataType::BigInt);
        let others = [
            ("x", keyed("i", DataType::BigInt)),
            ("x", keyed("rid", DataType::Double)),
            ("y", schema()),
        ];
        for (name, other) in others {
            let mut c = Catalog::new();
            filled(&mut c, "x", schema(), 3000);
            c.drop_table("x", false).unwrap();
            c.create_table(name, other, false).unwrap();
            assert_eq!(storage(&c, name), fresh, "{name}");
        }
        // A statement in between frees the dropped table.
        let mut c = Catalog::new();
        filled(&mut c, "x", schema(), 3000);
        c.drop_table("x", false).unwrap();
        c.release_dropped();
        c.create_table("x", schema(), false).unwrap();
        assert_eq!(storage(&c, "x"), fresh);
        // So does a DROP of another table, or a CREATE that fails.
        filled(&mut c, "y", schema(), 10);
        for between in ["drop y", "create y"] {
            let mut c2 = c.clone();
            c2.drop_table("x", false).unwrap();
            match between {
                "drop y" => c2.drop_table("y", false).unwrap(),
                _ => assert!(c2.create_table("y", schema(), false).is_err()),
            }
            c2.create_table("x", schema(), false).unwrap();
            assert_eq!(storage(&c2, "x"), fresh, "{between}");
        }
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.create_table("b", schema(), false).unwrap();
        c.create_table("A", schema(), false).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
