//! Checksummed, length-prefixed write-ahead log.
//!
//! Every mutating statement on a durable [`crate::Database`] is framed
//! into the log before its effects are acknowledged:
//!
//! ```text
//! file    magic b"SQLEMWAL1\n", then records back to back
//! record  u32 len, u32 crc32(payload), payload[len]
//! payload 0x01 Begin  { u64 seq }
//!         0x02 Commit { u64 seq }
//!         0x03 Sql    { u64 seq, str sql }
//!         0x04 Bulk   { u64 seq, str table, u32 arity, u64 rows, values }
//! frame   Begin(seq), op(seq)   — appended in one write, pre-execution
//!         Commit(seq)           — appended after the statement applied
//! ```
//!
//! The commit marker is the acknowledgement boundary: a frame without
//! its `Commit` is a statement that failed (or a crash mid-statement)
//! and is skipped on replay. The record frame, and the walk that tells
//! a **torn tail** (the file ends mid-record: silently discarded, the
//! file truncated to the last complete record) from **corruption** (a
//! complete record whose checksum does not match), are the storage
//! layer's ([`crate::storage::codec::walk_records`]; docs/ROBUSTNESS.md
//! "On-disk formats"). What this module adds is the grammar: an
//! undecodable payload or a frame-grammar violation (a `Commit` with no
//! open frame, sequence-number mismatch) is acknowledged state gone bad
//! too, and recovery refuses with [`Error::Corruption`] rather than
//! silently diverging.
//!
//! The recovery invariant (held over seeded random logs by the tier-1
//! `tests/format_props.rs`) is that [`scan`] returns either an error or
//! a strict prefix of the committed statements, never altered content.

use std::path::{Path, PathBuf};

use crate::error::{Error, Result};
use crate::expr::Column;
use crate::storage::codec::{
    put_columns, put_record, put_rows, put_str, put_u32, put_u64, read_rows, walk_records, Reader,
};
use crate::table::Row;

/// Magic prefix identifying a WAL file (versioned).
pub const WAL_MAGIC: &[u8] = b"SQLEMWAL1\n";
/// Log file name within the database directory.
pub const WAL_FILE: &str = "wal.log";

const TAG_BEGIN: u8 = 0x01;
const TAG_COMMIT: u8 = 0x02;
const TAG_SQL: u8 = 0x03;
const TAG_BULK: u8 = 0x04;

/// A logged operation — the replayable body of one mutating statement.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A statement logged as its rendered SQL text (the common case;
    /// replay re-parses and re-executes it).
    Sql(String),
    /// A bulk load, which has no SQL text: the staged rows are logged
    /// in the binary value codec.
    BulkInsert {
        /// Destination table (lowercase).
        table: String,
        /// The staged rows, already coerced to the table schema.
        rows: Vec<Row>,
    },
}

/// One decoded WAL record.
#[derive(Debug)]
enum Record {
    Begin { seq: u64 },
    Commit { seq: u64 },
    Op { seq: u64, op: WalOp },
}

/// Append a `Begin` / `Commit` marker record for `seq`.
fn put_marker(out: &mut Vec<u8>, tag: u8, seq: u64) {
    let mut payload = vec![tag];
    put_u64(&mut payload, seq);
    put_record(out, &payload);
}

fn decode_payload(payload: &[u8]) -> Result<Record> {
    let mut r = Reader::new(payload, "wal record");
    let rec = match r.u8()? {
        TAG_BEGIN => Record::Begin { seq: r.u64()? },
        TAG_COMMIT => Record::Commit { seq: r.u64()? },
        TAG_SQL => Record::Op {
            seq: r.u64()?,
            op: WalOp::Sql(r.str()?),
        },
        TAG_BULK => {
            let seq = r.u64()?;
            let table = r.str()?;
            let arity = r.u32()? as usize;
            let nrows = r.u64()?;
            let rows = read_rows(&mut r, nrows, arity)?;
            Record::Op {
                seq,
                op: WalOp::BulkInsert { table, rows },
            }
        }
        tag => {
            return Err(Error::corruption(format!(
                "wal record: unknown tag {tag:#04x}"
            )))
        }
    };
    r.end()?;
    Ok(rec)
}

/// The pre-execution half of a statement frame: `Begin` plus the
/// operation payload — `tag`, `seq`, then what `body` writes — as one
/// byte run (appended with a single write).
fn frame(seq: u64, tag: u8, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut payload = vec![tag];
    put_u64(&mut payload, seq);
    body(&mut payload);
    let mut bytes = Vec::with_capacity(payload.len() + 32);
    put_marker(&mut bytes, TAG_BEGIN, seq);
    put_record(&mut bytes, &payload);
    bytes
}

/// Encode the pre-execution half of the frame of a statement logged as
/// its rendered text.
pub fn encode_sql_frame(seq: u64, sql: &str) -> Vec<u8> {
    frame(seq, TAG_SQL, |payload| put_str(payload, sql))
}

/// Encode the pre-execution half of a statement frame.
pub fn encode_frame(seq: u64, op: &WalOp) -> Vec<u8> {
    match op {
        WalOp::Sql(sql) => encode_sql_frame(seq, sql),
        WalOp::BulkInsert { table, rows } => frame(seq, TAG_BULK, |payload| {
            put_str(payload, table);
            put_u32(payload, rows.first().map_or(0, |r| r.len()) as u32);
            put_u64(payload, rows.len() as u64);
            put_rows(payload, rows);
        }),
    }
}

/// Encode the pre-execution half of a bulk load's frame from its staged
/// columns: the bytes [`encode_frame`] makes of a [`WalOp::BulkInsert`]
/// of the same rows, which is what a scan decodes them as.
pub fn encode_bulk_frame(seq: u64, table: &str, columns: &[Column]) -> Vec<u8> {
    let nrows = columns.first().map_or(0, Column::len);
    frame(seq, TAG_BULK, |payload| {
        put_str(payload, table);
        put_u32(payload, if nrows == 0 { 0 } else { columns.len() as u32 });
        put_u64(payload, nrows as u64);
        put_columns(payload, columns, nrows);
    })
}

/// Encode the post-execution commit marker for `seq`.
pub fn encode_commit(seq: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_marker(&mut bytes, TAG_COMMIT, seq);
    bytes
}

/// Result of validating a WAL byte image.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// Committed operations in log order (the replay list).
    pub committed: Vec<(u64, WalOp)>,
    /// One past the highest sequence number seen in any complete record
    /// (committed or not) — the counter the log resumes at. `0` for an
    /// empty log.
    pub next_seq: u64,
    /// Byte length of the valid prefix (magic + complete records).
    /// Anything past this is a torn tail the caller should truncate.
    pub valid_len: usize,
    /// Sequence numbers whose frame was begun but never committed — a
    /// statement that failed (or was interrupted by a crash) after its
    /// frame hit the log. Exactly-once session recovery uses this to
    /// prove a retried statement was *not* applied.
    pub uncommitted: Vec<u64>,
}

/// Validate a WAL image: check the magic, walk the records, enforce the
/// begin/op/commit frame grammar and collect committed operations.
/// Returns [`Error::Corruption`] for damaged acknowledged state; a torn
/// tail (short record at end-of-file) is reported via a `valid_len`
/// shorter than the input, not an error.
pub fn scan(bytes: &[u8]) -> Result<ScanResult> {
    let mut committed = Vec::new();
    let mut uncommitted = Vec::new();
    let mut next_seq = 0u64;
    // Open frame state: Begin seen (and optionally the op), no Commit yet.
    let mut open: Option<(u64, Option<WalOp>)> = None;
    let valid_len = walk_records(bytes, WAL_MAGIC, "wal", |payload, pos| {
        match decode_payload(payload)? {
            Record::Begin { seq } => {
                // A Begin while a frame is open: the previous statement
                // failed before committing — normal, drop it (but record
                // the seq so recovery can prove it never applied).
                if let Some((failed_seq, _)) = open.take() {
                    uncommitted.push(failed_seq);
                }
                open = Some((seq, None));
                next_seq = next_seq.max(seq.saturating_add(1));
            }
            Record::Op { seq, op } => match &mut open {
                Some((frame_seq, slot @ None)) if *frame_seq == seq => {
                    *slot = Some(op);
                }
                _ => {
                    return Err(Error::corruption(format!(
                        "wal: operation record (seq {seq}) outside an open frame at byte {pos}"
                    )));
                }
            },
            Record::Commit { seq } => match open.take() {
                Some((frame_seq, Some(op))) if frame_seq == seq => {
                    committed.push((seq, op));
                }
                _ => {
                    return Err(Error::corruption(format!(
                        "wal: commit marker (seq {seq}) without a matching frame at byte {pos}"
                    )));
                }
            },
        }
        Ok(())
    })?;
    uncommitted.extend(open.map(|(open_seq, _)| open_seq));
    Ok(ScanResult {
        committed,
        next_seq,
        valid_len,
        uncommitted,
    })
}

/// Path of the log inside a database directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sql(s: &str) -> WalOp {
        WalOp::Sql(s.to_string())
    }

    fn committed_image(frames: &[(u64, WalOp, bool)]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for (seq, op, commit) in frames {
            bytes.extend_from_slice(&encode_frame(*seq, op));
            if *commit {
                bytes.extend_from_slice(&encode_commit(*seq));
            }
        }
        bytes
    }

    #[test]
    fn frame_round_trip() {
        let ops = vec![
            (0, sql("CREATE TABLE y (rid BIGINT)"), true),
            (
                1,
                WalOp::BulkInsert {
                    table: "y".into(),
                    rows: vec![
                        vec![Value::Int(1), Value::Double(0.5)].into_boxed_slice(),
                        vec![Value::Int(2), Value::Null].into_boxed_slice(),
                    ],
                },
                true,
            ),
            (2, sql("UPDATE y SET rid = 3"), true),
        ];
        let bytes = committed_image(&ops);
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.next_seq, 3);
        assert_eq!(scan.committed.len(), 3);
        for ((seq, op, _), (got_seq, got_op)) in ops.iter().zip(&scan.committed) {
            assert_eq!(seq, got_seq);
            assert_eq!(op, got_op);
        }
    }

    #[test]
    fn a_bulk_frame_from_columns_is_the_frame_of_its_rows() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Double(-0.0), Value::str("a")].into(),
            vec![Value::Int(2), Value::Null, Value::Null].into(),
        ];
        let columns = [
            Column::I64(vec![1, 2], None),
            Column::F64(vec![-0.0, 7.0], Some(vec![true, false])),
            Column::Val(vec![Value::str("a"), Value::Null]),
        ];
        let table = "y".to_string();
        assert_eq!(
            encode_bulk_frame(5, &table, &columns),
            encode_frame(5, &WalOp::BulkInsert { table, rows })
        );
        let empty = [Column::I64(vec![], None), Column::F64(vec![], None)];
        let table = "y".to_string();
        assert_eq!(
            encode_bulk_frame(6, &table, &empty),
            encode_frame(
                6,
                &WalOp::BulkInsert {
                    table,
                    rows: vec![]
                }
            )
        );
    }

    #[test]
    fn uncommitted_frame_is_skipped() {
        // Frame 1 failed in memory (no commit marker); 0 and 2 applied.
        let bytes = committed_image(&[
            (0, sql("s0"), true),
            (1, sql("s1-failed"), false),
            (2, sql("s2"), true),
        ]);
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(
            scan.committed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(scan.next_seq, 3, "uncommitted seq still bumps the counter");
        assert_eq!(scan.uncommitted, vec![1], "failed frame's seq is reported");
    }

    #[test]
    fn every_truncation_yields_a_prefix() {
        let full = committed_image(&[
            (0, sql("s0"), true),
            (1, sql("statement one with a longer body"), true),
            (2, sql("s2"), true),
        ]);
        let all = scan(&full).unwrap().committed;
        for cut in 0..full.len() {
            let r = scan(&full[..cut]).expect("truncation is never Corruption");
            assert!(
                r.committed.len() <= all.len() && r.committed == all[..r.committed.len()],
                "cut {cut}: not a prefix"
            );
            assert!(r.valid_len <= cut, "cut {cut}: valid_len past the cut");
        }
    }

    #[test]
    fn payload_bit_flip_is_corruption() {
        let bytes = committed_image(&[(0, sql("CREATE TABLE t (a BIGINT)"), true)]);
        // Flip a byte inside the SQL text (well past both headers).
        let mut bad = bytes.clone();
        let pos = bytes.len() - 12;
        bad[pos] ^= 0x01;
        assert!(
            matches!(scan(&bad), Err(Error::Corruption { .. })),
            "flip at {pos}"
        );
    }

    #[test]
    fn flips_detect_or_truncate_never_alter() {
        let full = committed_image(&[(0, sql("s0"), true), (1, sql("s1"), true)]);
        let all = scan(&full).unwrap().committed;
        for i in 0..full.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut bad = full.clone();
                bad[i] ^= bit;
                match scan(&bad) {
                    Err(Error::Corruption { .. }) => {}
                    Err(e) => panic!("flip at {i}: unexpected error {e}"),
                    Ok(r) => assert!(
                        r.committed == all[..r.committed.len().min(all.len())],
                        "flip at byte {i} bit {bit:#04x} silently altered content"
                    ),
                }
            }
        }
    }

    #[test]
    fn commit_without_frame_is_corruption() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_commit(0));
        assert!(matches!(scan(&bytes), Err(Error::Corruption { .. })));
    }

    #[test]
    fn seq_mismatch_is_corruption() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(3, &sql("s3")));
        bytes.extend_from_slice(&encode_commit(4));
        assert!(matches!(scan(&bytes), Err(Error::Corruption { .. })));
    }

    #[test]
    fn short_or_missing_magic() {
        assert_eq!(scan(b"").unwrap().valid_len, 0);
        assert_eq!(
            scan(b"SQLE").unwrap().valid_len,
            0,
            "torn magic = fresh log"
        );
        assert!(matches!(
            scan(b"NOTAWALFILE"),
            Err(Error::Corruption { .. })
        ));
    }

    #[test]
    fn oversized_bulk_count_in_a_valid_record_is_corruption() {
        // A CRC-valid bulk record claiming u32::MAX values per row: the
        // count must be refused against the bytes that remain, not
        // handed to the allocator.
        let mut payload = vec![TAG_BULK];
        put_u64(&mut payload, 0);
        put_str(&mut payload, "y");
        put_u32(&mut payload, u32::MAX);
        put_u64(&mut payload, 1);
        let mut bytes = WAL_MAGIC.to_vec();
        put_marker(&mut bytes, TAG_BEGIN, 0);
        put_record(&mut bytes, &payload);
        bytes.extend_from_slice(&encode_commit(0));
        assert!(matches!(scan(&bytes), Err(Error::Corruption { .. })));
    }
}
