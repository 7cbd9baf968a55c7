//! Snapshot codec: a whole-catalog image used by WAL compaction.
//!
//! A snapshot captures every table (schema, primary key, rows) plus a
//! WAL sequence-number `watermark`: the sequence number the log resumes
//! at, i.e. one past the last statement the snapshot includes. On
//! recovery the snapshot is loaded first and WAL frames with
//! `seq < watermark` are skipped, so a crash *between* writing the
//! snapshot and truncating the log replays nothing twice.
//!
//! ## File format (`snapshot.bin`)
//!
//! ```text
//! magic   b"SQLEMSNAP1\n"
//! body    u64 watermark
//!         u32 table_count
//!         table*   str  name
//!                  u32  column_count
//!                  col* str name, u8 dtype (0=BIGINT 1=DOUBLE 2=VARCHAR)
//!                  u32  pk_count, u32* pk column positions
//!                  u64  row_count
//!                  row* value* (codec tags, see storage::codec)
//! crc     u32 crc32(body)
//! ```
//!
//! The schema layout and the row values are [`codec`]'s
//! ([`codec::put_schema`], [`codec::put_columns`]: row-major, written
//! from and read into the stored columns) — the same ones the WAL and
//! the wire use. Writes go through [`atomic_replace`] — readers see
//! either the old complete snapshot or the new one, never a partial one
//! — and a leftover staging file (crash mid-write) is deleted on open.

use std::fs;
use std::path::{Path, PathBuf};

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::storage::codec::{self, put_str, put_u32, put_u64, Reader};
use crate::storage::logfile::{atomic_replace, remove_stale_staging};
use crate::table::Table;

/// Magic prefix identifying a snapshot file (versioned).
pub const SNAPSHOT_MAGIC: &[u8] = b"SQLEMSNAP1\n";
/// Final snapshot file name within the database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Scratch name the snapshot is staged under before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.bin.tmp";

/// Serialize the catalog to snapshot bytes (magic + body + crc).
pub fn encode_snapshot(catalog: &Catalog, watermark: u64) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, watermark);
    codec::put_seq(
        &mut body,
        catalog.tables_sorted().into_iter(),
        |body, table| {
            put_str(body, table.name());
            codec::put_schema(body, table.schema());
            put_u64(body, table.len() as u64);
            codec::put_columns(body, table.columns(), table.len());
        },
    );
    let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + body.len() + 4);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&body);
    put_u32(&mut out, codec::crc32(&body));
    out
}

/// Decode snapshot bytes back into a catalog plus the sequence
/// watermark. Any structural defect — bad magic, short file, checksum
/// mismatch, unknown tags, duplicate keys — is [`Error::Corruption`]:
/// a snapshot is only ever written complete, so unlike a WAL tail there
/// is no "torn" case to forgive.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Catalog, u64)> {
    let Some(rest) = bytes.strip_prefix(SNAPSHOT_MAGIC) else {
        return Err(Error::corruption("snapshot: bad magic"));
    };
    let Some((body, trailer)) = rest.split_last_chunk::<4>() else {
        return Err(Error::corruption("snapshot: missing checksum"));
    };
    let stored = Reader::new(trailer, "snapshot").u32()?;
    let actual = codec::crc32(body);
    if stored != actual {
        return Err(Error::corruption(format!(
            "snapshot: checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let mut r = Reader::new(body, "snapshot");
    let watermark = r.u64()?;
    let mut catalog = Catalog::new();
    let tables = r.seq(|r| {
        let name = r.str()?;
        let schema = codec::read_schema(r)?;
        let nrows = r.u64()?;
        let rows = codec::read_columns(r, nrows, schema.columns())?;
        // Appending re-validates primary-key uniqueness, so a corrupted
        // snapshot cannot install an inconsistent index.
        let mut table = Table::new(&name, schema);
        match table.append(rows) {
            Ok(_) => Ok(table),
            Err(e) => Err(Error::corruption(format!(
                "snapshot: table {name}: bad rows: {e}"
            ))),
        }
    })?;
    r.end()?;
    for table in tables {
        catalog.install_table(table);
    }
    Ok((catalog, watermark))
}

/// Path of the live snapshot inside a database directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Write the catalog as a snapshot, atomically replacing the previous
/// one.
pub fn write_snapshot(dir: &Path, catalog: &Catalog, watermark: u64) -> Result<()> {
    atomic_replace(dir, SNAPSHOT_FILE, &encode_snapshot(catalog, watermark))
}

/// Load the snapshot if one exists. Removes the leftover staging file
/// of an interrupted write (it was never acknowledged).
pub fn read_snapshot(dir: &Path) -> Result<Option<(Catalog, u64)>> {
    remove_stale_staging(dir, SNAPSHOT_FILE)?;
    let bytes = match fs::read(snapshot_path(dir)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(Error::io("read snapshot", e)),
    };
    decode_snapshot(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;
    use crate::schema::{Column, Schema};
    use crate::value::Value;

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(
            vec![
                Column::bigint("rid"),
                Column::double("v"),
                Column::varchar("tag"),
            ],
            &["rid"],
        )
        .unwrap();
        let mut y = Table::new("y", schema);
        y.append(vec![
            expr::Column::I64(vec![1, 2], None),
            expr::Column::F64(vec![1.0 / 3.0, -0.0], None),
            expr::Column::Val(vec![Value::Str("a".into()), Value::Null]),
        ])
        .unwrap();
        c.install_table(y);
        let keyless = Schema::keyless(vec![Column::double("w")]).unwrap();
        c.install_table(Table::new("w", keyless));
        c
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = sample_catalog();
        let bytes = encode_snapshot(&c, 42);
        let (c2, seq) = decode_snapshot(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(c2.table_names(), c.table_names());
        let y = c2.table("y").unwrap();
        assert_eq!(y.len(), 2);
        assert_eq!(y.schema().primary_key(), &[0]);
        match &y.columns()[1].value(0) {
            Value::Double(d) => assert_eq!(d.to_bits(), (1.0f64 / 3.0).to_bits()),
            other => panic!("expected double, got {other:?}"),
        }
        match &y.columns()[1].value(1) {
            Value::Double(d) => assert!(d.is_sign_negative() && *d == 0.0),
            other => panic!("expected -0.0, got {other:?}"),
        }
        assert_eq!(y.columns()[2].value(1), Value::Null);
        assert!(c2.table("w").unwrap().is_empty());
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let bytes = encode_snapshot(&sample_catalog(), 7);
        // Flip one byte at a sample of positions (every byte is slow in
        // debug builds for big images; this image is small, do them all).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_corruption() {
        let bytes = encode_snapshot(&sample_catalog(), 7);
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_snapshot(&bytes[..cut]),
                    Err(Error::Corruption { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_column_count_under_a_valid_checksum_is_corruption() {
        let mut body = Vec::new();
        put_u64(&mut body, 0); // watermark
        put_u32(&mut body, 1); // one table
        put_str(&mut body, "y");
        put_u32(&mut body, u32::MAX); // column count
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&body);
        put_u32(&mut bytes, codec::crc32(&body));
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(Error::Corruption { .. })
        ));
    }

    #[test]
    fn file_round_trip_and_stale_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("sqlem_snap_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let c = sample_catalog();
        write_snapshot(&dir, &c, 9).unwrap();
        // Simulate a crash mid-rewrite: a garbage tmp file is left over.
        fs::write(dir.join(SNAPSHOT_TMP), b"partial garbage").unwrap();
        let (c2, seq) = read_snapshot(&dir).unwrap().expect("snapshot present");
        assert_eq!(seq, 9);
        assert_eq!(c2.table_names(), c.table_names());
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "stale tmp removed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = std::env::temp_dir().join(format!("sqlem_snap_none_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert!(read_snapshot(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
