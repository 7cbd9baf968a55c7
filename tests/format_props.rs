//! Seeded properties of the byte layer: the WAL, the wire and the
//! session journal under round trips, truncation, bit flips and garbage.
//!
//! The generators draw from the in-repo `prng`, so every case
//! reproduces from its seed (the `tests/batch_eval.rs` style). By name:
//!
//! **WAL** (`sqlengine::wal`)
//! - `wal_round_trip_preserves_committed_ops` — a random frame sequence
//!   scans back to exactly its committed operations, in order.
//! - `wal_truncation_yields_a_prefix` — cutting an image at *every* byte
//!   yields a prefix of the committed operations, never an error.
//! - `wal_single_byte_flip_is_detected_or_truncated` — flipping a bit of
//!   *every* byte is `Error::Corruption` or a prefix, never altered
//!   content.
//!
//! **Wire** (`sqlwire::{proto, frame}`)
//! - `requests_and_responses_reencode_identically` — every variant, with
//!   arbitrary double bit patterns (NaN payloads, `-0.0`, subnormals).
//! - `ragged_partial_payloads_decode_to_a_typed_error` — a partial result
//!   whose groups disagree on key arity or an aggregate is refused.
//! - `a_key_repeated_in_a_partial_payload_merges_into_its_first_group` —
//!   a key met twice in one payload decodes as the merge of its groups.
//! - `frame_round_trip_truncation_and_flips` — any payload survives
//!   framing; every strict prefix is a *transient* error; every
//!   single-bit flip is rejected.
//!
//! **Decoders never panic** — `mutated_and_random_payloads_never_panic_a_decoder`:
//! valid messages, WAL records, snapshots and journal records with
//! bytes overwritten (counts blown up to `u32::MAX` among them) under a
//! *recomputed* checksum, and pure noise, all come back `Ok` or `Err`.
//!
//! **Reply cache** (`sqlwire::session::ReplyCache`)
//! - `duplicated_and_stale_sequences_are_acked_from_the_cache`
//! - `recovered_cache_never_reexecutes_proven_mutations`
//!
//! **Session journal** (`sqlwire::session::SessionLog`), held to a model
//! of its fold:
//! - `journal_truncation_recovers_a_prefix` — every cut point.
//! - `journal_single_byte_flip_is_detected_or_a_prefix`
//! - `journal_appends_after_a_tear_stay_readable` — a torn tail is cut
//!   at open, so what is acknowledged next survives the restart after.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use prng::{Rng, StdRng};
use sqlengine::expr::Column as Cells;
use sqlengine::storage::codec::{crc32, put_record, record_header, RECORD_HEADER_LEN};
use sqlengine::storage::snapshot::{decode_snapshot, encode_snapshot, SNAPSHOT_MAGIC};
use sqlengine::wal::{encode_commit, encode_frame, scan, WalOp, WAL_MAGIC};
use sqlengine::{
    AggCell, Column, DataType, Database, Error, ExactSum, ExecMetrics, Limits, PartialAggResult,
    PartialBuilder, QueryResult, ScanMetric, Schema, StatementKind, SymbolicCatalog, Value,
    WalRecovery,
};
use sqlwire::frame::{encode_frame as wire_frame, read_frame};
use sqlwire::proto::same_encoding;
use sqlwire::session::{session_log_path, SESSION_LOG_MAGIC};
use sqlwire::{Admit, ReplyCache, Request, Response, SessionLog, StmtMeta};

// ---------------------------------------------------------------------
// generators

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.random_range(0..n)
}

/// Printable ASCII (quotes, semicolons, spaces) with the odd multi-byte
/// character: text is opaque to every codec and must survive verbatim.
fn gen_string(rng: &mut StdRng, max_len: usize) -> String {
    (0..below(rng, max_len + 1))
        .map(|_| match below(rng, 24) {
            0 => 'π',
            1 => '\'',
            _ => (b' ' + below(rng, 95) as u8) as char,
        })
        .collect()
}

fn gen_ident(rng: &mut StdRng) -> String {
    (0..1 + below(rng, 8))
        .map(|_| (b'a' + below(rng, 26) as u8) as char)
        .collect()
}

/// Any bit pattern is a legal double: NaNs with payloads, infinities,
/// subnormals and `-0.0` must all cross bit-exact.
fn gen_f64(rng: &mut StdRng) -> f64 {
    match below(rng, 6) {
        0 => -0.0,
        1 => f64::from_bits(0x7FF8_0000_0000_0000 | rng.next_u64() >> 13),
        2 => f64::from_bits(rng.next_u64() >> 12), // subnormal
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn gen_value(rng: &mut StdRng) -> Value {
    match below(rng, 5) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Int([i64::MIN, i64::MAX, 0, -1][below(rng, 4)]),
        3 => Value::str(gen_string(rng, 24)),
        _ => Value::Double(gen_f64(rng)),
    }
}

fn gen_row(rng: &mut StdRng, arity: usize) -> Vec<Value> {
    (0..arity).map(|_| gen_value(rng)).collect()
}

/// Rows of one arity (what a bulk load stages).
fn gen_table_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let arity = 1 + below(rng, 4);
    (0..below(rng, 5)).map(|_| gen_row(rng, arity)).collect()
}

fn gen_wal_op(rng: &mut StdRng) -> WalOp {
    if rng.random() {
        WalOp::Sql(gen_string(rng, 80))
    } else {
        WalOp::BulkInsert {
            table: gen_ident(rng),
            rows: gen_table_rows(rng)
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect(),
        }
    }
}

/// A log image of `frames` (operation, committed?) plus what a scan of
/// it must return.
fn wal_image(frames: &[(WalOp, bool)]) -> (Vec<u8>, Vec<(u64, WalOp)>) {
    let mut bytes = WAL_MAGIC.to_vec();
    let mut committed = Vec::new();
    for (seq, (op, commit)) in frames.iter().enumerate() {
        let seq = seq as u64;
        bytes.extend_from_slice(&encode_frame(seq, op));
        if *commit {
            bytes.extend_from_slice(&encode_commit(seq));
            committed.push((seq, op.clone()));
        }
    }
    (bytes, committed)
}

fn gen_wal_frames(rng: &mut StdRng, max: usize, all_committed: bool) -> Vec<(WalOp, bool)> {
    (0..below(rng, max + 1))
        .map(|_| (gen_wal_op(rng), all_committed || rng.random()))
        .collect()
}

/// Bit-exact equality of recovered operations (`PartialEq` on doubles
/// treats NaN != NaN; the encoding does not).
fn same_ops(a: &[(u64, WalOp)], b: &[(u64, WalOp)]) -> bool {
    let image = |ops: &[(u64, WalOp)]| -> Vec<Vec<u8>> {
        ops.iter().map(|(seq, op)| encode_frame(*seq, op)).collect()
    };
    image(a) == image(b)
}

fn gen_meta(rng: &mut StdRng) -> StmtMeta {
    // The codec must not care about semantic plausibility.
    StmtMeta {
        seq: rng.next_u64(),
        deadline_ms: rng.next_u64(),
    }
}

fn gen_request(rng: &mut StdRng) -> Request {
    match below(rng, 16) {
        0 => Request::Hello {
            version: rng.next_u64() as u32,
            auth_token: gen_string(rng, 16),
            namespace: gen_ident(rng),
            resume_token: gen_string(rng, 24),
        },
        1 => Request::Query {
            meta: gen_meta(rng),
            sql: gen_string(rng, 120),
        },
        2 => Request::ExecutePartial {
            meta: gen_meta(rng),
            sql: gen_string(rng, 120),
        },
        3 => Request::Prepare {
            statements: (0..below(rng, 6)).map(|_| gen_string(rng, 60)).collect(),
        },
        4 => Request::ExecutePrepared {
            meta: gen_meta(rng),
            id: rng.next_u64(),
        },
        5 => Request::ClearPrepared,
        6 => Request::BulkInsert {
            meta: gen_meta(rng),
            table: gen_ident(rng),
            // The wire carries each row's own width (empty rows too).
            rows: (0..below(rng, 6))
                .map(|_| {
                    let width = below(rng, 5);
                    gen_row(rng, width)
                })
                .collect(),
        },
        7 => Request::TableRows {
            table: gen_ident(rng),
        },
        8 => Request::HasTable {
            table: gen_ident(rng),
        },
        9 => Request::CatalogSnapshot,
        10 => Request::SetMetrics { on: rng.random() },
        11 => Request::MetricsLen,
        12 => Request::MetricsSince {
            from: rng.next_u64(),
        },
        13 => Request::NoteRetry,
        14 => Request::Cancel {
            session: rng.next_u64(),
        },
        _ => Request::Goodbye,
    }
}

/// Every relayed error kind, plus one that flattens to `Remote`.
fn gen_error(rng: &mut StdRng) -> Error {
    match below(rng, 8) {
        0 => Error::StatementTooLong {
            len: below(rng, 1 << 20),
            max: below(rng, 1 << 20),
        },
        1 => Error::Arithmetic(gen_string(rng, 40)),
        2 => Error::Injected {
            transient: rng.random(),
            applied: rng.random(),
            statement: below(rng, 1000),
        },
        3 => Error::net_transient(gen_string(rng, 16), gen_string(rng, 40)),
        4 => Error::net_permanent(gen_string(rng, 16), gen_string(rng, 40)),
        5 => Error::deadline(gen_string(rng, 16), rng.next_u64()),
        6 => Error::resource_exhausted(gen_string(rng, 16), rng.next_u64(), rng.next_u64()),
        _ => [
            Error::Remote(gen_string(rng, 40)),
            Error::UnknownTable(gen_ident(rng)),
        ][below(rng, 2)]
        .clone(),
    }
}

fn gen_exact_sum(rng: &mut StdRng) -> ExactSum {
    let comps: Vec<f64> = (0..below(rng, 4)).map(|_| gen_f64(rng)).collect();
    ExactSum::from_parts(&comps, rng.random(), rng.random(), rng.random())
}

/// Append an accumulator of aggregate `kind` — `COUNT`, `SUM`, `AVG`,
/// `MIN`, `MAX` by number — to the open group of `partial`.
fn gen_agg_cell(rng: &mut StdRng, kind: usize, partial: &mut PartialBuilder) {
    // A MIN or MAX value (or none) as the one-row column it is read from.
    let best = |rng: &mut StdRng| {
        let v = rng.random::<bool>().then(|| gen_value(rng));
        Cells::from_values(vec![v.unwrap_or(Value::Null)])
    };
    let pushed = match kind {
        0 => partial.cell(AggCell::Count(rng.next_u64())),
        1 => {
            let acc = gen_exact_sum(rng);
            partial.cell(AggCell::Sum(&acc, rng.next_u64(), rng.random()))
        }
        2 => {
            let acc = gen_exact_sum(rng);
            partial.cell(AggCell::Avg(&acc, rng.next_u64()))
        }
        3 => partial.cell(AggCell::Min(&best(rng), 0)),
        _ => partial.cell(AggCell::Max(&best(rng), 0)),
    };
    pushed.unwrap();
}

/// A partial result of the one shape a statement produces: one key
/// arity, one aggregate per accumulator position, and keys distinct
/// under `Value` equality.
fn gen_partial(rng: &mut StdRng) -> PartialAggResult {
    let arity = below(rng, 3);
    let kinds: Vec<usize> = (0..below(rng, 5)).map(|_| below(rng, 5)).collect();
    let mut keys: Vec<Vec<Value>> = Vec::new();
    let mut partial = PartialBuilder::default();
    for _ in 0..below(rng, 5) {
        let key = gen_row(rng, arity);
        if keys.contains(&key) {
            continue;
        }
        partial.key(key.clone()).unwrap();
        for &k in &kinds {
            gen_agg_cell(rng, k, &mut partial);
        }
        keys.push(key);
    }
    partial.finish().unwrap()
}

fn gen_catalog(rng: &mut StdRng) -> SymbolicCatalog {
    let mut cat = SymbolicCatalog::new();
    for t in 0..below(rng, 4) {
        let columns: Vec<Column> = (0..below(rng, 5))
            .map(|c| {
                let ty = [DataType::BigInt, DataType::Double, DataType::Varchar][below(rng, 3)];
                Column::new(format!("c{c}"), ty)
            })
            .collect();
        let key: Vec<String> = columns
            .iter()
            .filter(|_| rng.random())
            .map(|c| c.name.clone())
            .collect();
        let key: Vec<&str> = key.iter().map(String::as_str).collect();
        cat.insert(&format!("t{t}"), Schema::new(columns, &key).unwrap());
    }
    cat
}

fn gen_metrics_entry(rng: &mut StdRng) -> ExecMetrics {
    let kinds = [
        None,
        Some(StatementKind::CreateTable),
        Some(StatementKind::DropTable),
        Some(StatementKind::Insert),
        Some(StatementKind::Update),
        Some(StatementKind::Delete),
        Some(StatementKind::Select),
        Some(StatementKind::Explain),
    ];
    ExecMetrics {
        kind: kinds[below(rng, kinds.len())],
        scans: (0..below(rng, 4))
            .map(|_| ScanMetric {
                table: gen_ident(rng),
                rows: below(rng, 1 << 30),
                build: rng.random(),
            })
            .collect(),
        rows_produced: below(rng, 1 << 30),
        rows_inserted: below(rng, 1 << 30),
        rows_updated: below(rng, 1 << 30),
        rows_deleted: below(rng, 1 << 30),
        join_build_rows: rng.next_u64(),
        join_probe_rows: rng.next_u64(),
        groups: below(rng, 1 << 30),
        expr_evals: rng.next_u64(),
        peak_mem_bytes: rng.next_u64(),
        plan_time: Duration::from_nanos(rng.next_u64() >> 8),
        elapsed: Duration::from_nanos(rng.next_u64() >> 8),
    }
}

fn gen_response(rng: &mut StdRng) -> Response {
    match below(rng, 12) {
        0 => Response::HelloAck {
            version: rng.next_u64() as u32,
            session: rng.next_u64(),
            max_statement_len: rng.next_u64(),
            limits: Limits {
                max_terms: below(rng, 1 << 30),
                max_depth: below(rng, 1 << 30),
                max_columns: below(rng, 1 << 30),
                max_tables: below(rng, 1 << 30),
            },
            description: gen_string(rng, 30),
            resume_token: gen_string(rng, 12),
        },
        1 => Response::Ok,
        2 => Response::Bool(rng.random()),
        3 => Response::Count(rng.next_u64()),
        4 => Response::Rows(QueryResult {
            columns: (0..below(rng, 5)).map(|_| gen_ident(rng)).collect(),
            rows: (0..below(rng, 6))
                .map(|_| {
                    let width = below(rng, 5);
                    gen_row(rng, width).into_boxed_slice()
                })
                .collect(),
            rows_affected: below(rng, 1 << 30),
        }),
        5 => Response::Err(gen_error(rng)),
        6 => Response::PreparedIds((0..below(rng, 8)).map(|_| rng.next_u64()).collect()),
        7 => Response::PrepareErr {
            index: rng.next_u64(),
            error: gen_error(rng),
        },
        8 => Response::Catalog(gen_catalog(rng)),
        9 => Response::Metrics((0..below(rng, 4)).map(|_| gen_metrics_entry(rng)).collect()),
        10 => Response::Partial(gen_partial(rng)),
        _ => Response::ReplayApplied,
    }
}

// ---------------------------------------------------------------------
// WAL

#[test]
fn wal_round_trip_preserves_committed_ops() {
    let mut rng = rng(0xA1);
    for case in 0..300 {
        let frames = gen_wal_frames(&mut rng, 12, false);
        let (bytes, committed) = wal_image(&frames);
        let r = scan(&bytes).unwrap();
        assert_eq!(r.valid_len, bytes.len(), "case {case}");
        assert!(same_ops(&r.committed, &committed), "case {case}");
        assert_eq!(r.next_seq, frames.len() as u64, "case {case}");
        assert_eq!(
            r.uncommitted.len() + r.committed.len(),
            frames.len(),
            "case {case}"
        );
    }
}

#[test]
fn wal_truncation_yields_a_prefix() {
    let mut rng = rng(0xA2);
    for case in 0..40 {
        let frames = gen_wal_frames(&mut rng, 8, false);
        let (bytes, committed) = wal_image(&frames);
        for cut in 0..bytes.len() {
            let r = scan(&bytes[..cut])
                .unwrap_or_else(|e| panic!("case {case} cut {cut}: truncation is never {e}"));
            assert!(r.committed.len() <= committed.len());
            assert!(
                same_ops(&r.committed, &committed[..r.committed.len()]),
                "case {case} cut {cut}: not a prefix"
            );
            assert!(r.valid_len <= cut, "case {case} cut {cut}");
        }
    }
}

#[test]
fn wal_single_byte_flip_is_detected_or_truncated() {
    let mut rng = rng(0xA3);
    for case in 0..40 {
        let frames = gen_wal_frames(&mut rng, 6, true);
        let (bytes, committed) = wal_image(&frames);
        for pos in 0..bytes.len() {
            let bit = 1u8 << below(&mut rng, 8);
            let mut bad = bytes.clone();
            bad[pos] ^= bit;
            match scan(&bad) {
                Err(Error::Corruption { .. }) => {}
                Err(e) => panic!("case {case} byte {pos}: unexpected error class: {e}"),
                // Not detected: the damage must have been confined to a
                // torn tail — a prefix, never altered content.
                Ok(r) => assert!(
                    r.committed.len() <= committed.len()
                        && same_ops(&r.committed, &committed[..r.committed.len()]),
                    "case {case}: flip at byte {pos} bit {bit:#04x} altered recovered content"
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// wire

#[test]
fn requests_and_responses_reencode_identically() {
    let mut rng = rng(0xB1);
    for case in 0..2000 {
        let req = gen_request(&mut rng);
        let bytes = req.encode();
        let back = Request::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {req:?}: {e}"));
        // Encoding equality is the bit-exactness oracle: PartialEq on
        // doubles would treat NaN != NaN, the byte image does not.
        assert_eq!(back.encode(), bytes, "case {case}: {req:?}");

        let resp = gen_response(&mut rng);
        let bytes = resp.encode();
        let back =
            Response::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {resp:?}: {e}"));
        assert!(same_encoding(&back, &resp), "case {case}: {resp:?}");
    }
}

#[test]
fn ragged_partial_payloads_decode_to_a_typed_error() {
    // One-group partials a statement could each produce, spliced into one
    // payload whose second group has another key arity or aggregate.
    let frame = |key: Vec<Value>, cell: AggCell<'_>| {
        let mut partial = PartialBuilder::default();
        partial.key(key).unwrap();
        partial.cell(cell).unwrap();
        Response::Partial(partial.finish().unwrap()).encode()
    };
    let three = Cells::from_values(vec![Value::Double(3.0)]);
    let min = AggCell::Min(&three, 0);
    let max = AggCell::Max(&three, 0);
    let first = frame(vec![Value::Int(1)], min);
    for second in [
        frame(vec![Value::Int(2), Value::Null], min),
        frame(vec![Value::Int(2)], max),
        frame(vec![Value::Int(2)], AggCell::Count(3)),
    ] {
        // Opcode, group count, then the groups.
        let mut payload = first.clone();
        payload[1..5].copy_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&second[5..]);
        let decoded = Response::decode(&payload);
        assert!(matches!(decoded, Err(Error::Unsupported(_))), "{decoded:?}");
    }
}

#[test]
fn a_key_repeated_in_a_partial_payload_merges_into_its_first_group() {
    // Two one-group partials whose keys are one key, `Int(1)` then
    // `Double(1.0)`, each with a SUM and a MIN, spliced into one payload.
    let one = |key: Value, sum: &[f64], all_int: bool, min: Value| {
        let mut partial = PartialBuilder::default();
        partial.key(vec![key]).unwrap();
        let acc = ExactSum::from_parts(sum, false, false, false);
        partial
            .cell(AggCell::Sum(&acc, sum.len() as u64, all_int))
            .unwrap();
        partial
            .cell(AggCell::Min(&Cells::from_values(vec![min]), 0))
            .unwrap();
        partial.finish().unwrap()
    };
    let first = one(Value::Int(1), &[3.0, 4.0], true, Value::Int(7));
    let second = one(Value::Double(1.0), &[0.1], false, Value::Double(2.5));
    let mut payload = Response::Partial(first.clone()).encode();
    payload[1..5].copy_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&Response::Partial(second.clone()).encode()[5..]);

    let Ok(Response::Partial(decoded)) = Response::decode(&payload) else {
        panic!("a repeated key is not an error");
    };
    assert_eq!(decoded.group_count(), 1);
    let (key, _) = decoded.group(0);
    assert!(matches!(key[..], [Value::Int(1)]), "{key:?}");
    let mut merged = first;
    merged.merge(&second).unwrap();
    let (same, merged) = (Response::Partial(decoded), Response::Partial(merged));
    assert!(same_encoding(&same, &merged), "{same:?} vs {merged:?}");
}

#[test]
fn frame_round_trip_truncation_and_flips() {
    let mut rng = rng(0xB2);
    for case in 0..60 {
        let payload: Vec<u8> = (0..below(&mut rng, 400))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let framed = wire_frame(&payload);
        assert_eq!(
            read_frame(&mut &framed[..]).unwrap(),
            payload,
            "case {case}"
        );
        // A torn stream must invite a reconnect, never deliver a short
        // or altered payload.
        for cut in 0..framed.len() {
            match read_frame(&mut &framed[..cut]) {
                Err(e) => assert!(e.is_transient(), "case {case} cut {cut}: {e}"),
                Ok(_) => panic!("case {case}: truncated frame decoded at cut {cut}"),
            }
        }
        // Every byte is load-bearing: length prefix, CRC or payload.
        for pos in 0..framed.len() {
            let mut bad = framed.clone();
            bad[pos] ^= 1 << below(&mut rng, 8);
            assert!(
                read_frame(&mut &bad[..]).is_err(),
                "case {case}: flip at byte {pos} went undetected"
            );
        }
    }
}

// ---------------------------------------------------------------------
// decoders never panic

/// Overwrite a few bytes of `bytes`, favouring what a decoder trusts
/// most: a run of `0xFF` (a count or length blown up to `u32::MAX`).
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..1 + below(rng, 3) {
        if bytes.is_empty() {
            return;
        }
        let pos = below(rng, bytes.len());
        match below(rng, 4) {
            0 => bytes.truncate(pos),
            1 => {
                let end = (pos + 4).min(bytes.len());
                bytes[pos..end].fill(0xFF);
            }
            2 => bytes[pos] = rng.next_u64() as u8,
            _ => bytes.insert(pos, rng.next_u64() as u8),
        }
    }
}

/// A fresh directory per call (tests run on parallel threads).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "sqlem_format_props_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mutated_and_random_payloads_never_panic_a_decoder() {
    let mut rng = rng(0xC1);
    // Err or (coincidentally) Ok are both fine; panicking — or asking
    // the allocator for what a blown-up count claims — is not.
    for _ in 0..3000 {
        let mut bytes = gen_request(&mut rng).encode();
        mutate(&mut rng, &mut bytes);
        let _ = Request::decode(&bytes);
        let mut bytes = gen_response(&mut rng).encode();
        mutate(&mut rng, &mut bytes);
        let _ = Response::decode(&bytes);
        let noise: Vec<u8> = (0..below(&mut rng, 256))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let _ = Request::decode(&noise);
        let _ = Response::decode(&noise);
        let _ = scan(&[WAL_MAGIC, &noise[..]].concat());
        let _ = decode_snapshot(&[SNAPSHOT_MAGIC, &noise[..]].concat());
    }

    // WAL: damage *under a valid checksum*, so the record decoder — not
    // the CRC — is what has to hold.
    for _ in 0..1500 {
        let frame = encode_frame(3, &gen_wal_op(&mut rng));
        // Skip the Begin record (8-byte header + tag + seq) and the
        // operation record's own header.
        let mut payload = frame[17 + 8..].to_vec();
        mutate(&mut rng, &mut payload);
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&frame[..17]);
        put_record(&mut image, &payload);
        image.extend_from_slice(&encode_commit(3));
        match scan(&image) {
            Ok(_) | Err(Error::Corruption { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    // Snapshot: same, under a recomputed trailer.
    let mut db = Database::new();
    db.execute("CREATE TABLE y (rid BIGINT PRIMARY KEY, v DOUBLE, s VARCHAR)")
        .unwrap();
    let rows = (0..6).map(|i| vec![Value::Int(i), Value::Double(gen_f64(&mut rng)), Value::Null]);
    db.bulk_insert("y", rows.collect::<Vec<_>>()).unwrap();
    db.execute("CREATE TABLE w (i BIGINT, w DOUBLE)").unwrap();
    let snapshot = encode_snapshot(db.catalog(), 9);
    assert!(decode_snapshot(&snapshot).is_ok());
    for _ in 0..1500 {
        let mut body = snapshot[SNAPSHOT_MAGIC.len()..snapshot.len() - 4].to_vec();
        mutate(&mut rng, &mut body);
        let mut image = SNAPSHOT_MAGIC.to_vec();
        image.extend_from_slice(&body);
        image.extend_from_slice(&crc32(&body).to_le_bytes());
        match decode_snapshot(&image) {
            Ok(_) | Err(Error::Corruption { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    // Session journal: a damaged record under a valid checksum.
    let dir = scratch_dir("garbage");
    let (image, _) = journal_image(&gen_journal_ops(&mut rng, 0));
    let (header, first) = image[SESSION_LOG_MAGIC.len()..]
        .split_first_chunk::<RECORD_HEADER_LEN>()
        .unwrap();
    for _ in 0..150 {
        let mut payload = first[..record_header(header).0].to_vec();
        mutate(&mut rng, &mut payload);
        let mut bad = SESSION_LOG_MAGIC.to_vec();
        put_record(&mut bad, &payload);
        std::fs::write(session_log_path(&dir), &bad).unwrap();
        match SessionLog::open(&dir, &WalRecovery::default()) {
            Ok(_) | Err(Error::Corruption { .. }) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// reply cache

/// Exactly-once, cache side: record an arbitrary conversation of
/// replies (any mix of results, errors, applied bits) into a cache of
/// arbitrary window size, then replay *every* sequence number seen so
/// far, in arbitrary order. Each must be answered without re-execution:
///
/// * still cached → the bit-identical original reply;
/// * evicted but at/below the applied watermark → `ProvenApplied`;
/// * evicted above the watermark → `NotApplied` (re-executing a
///   statement proven effect-free is sound).
///
/// A sequence number beyond everything recorded is `Fresh`.
#[test]
fn duplicated_and_stale_sequences_are_acked_from_the_cache() {
    let mut rng = rng(0xD1);
    for case in 0..200 {
        let replies: Vec<(Response, bool)> = (0..1 + below(&mut rng, 40))
            .map(|_| (gen_response(&mut rng), rng.random()))
            .collect();
        let window = 1 + below(&mut rng, 12);
        let mut cache = ReplyCache::new(window);
        for (seq, (reply, applied)) in replies.iter().enumerate() {
            // The server only records what admit() classified Fresh.
            assert!(matches!(cache.admit(seq as u64), Admit::Fresh));
            cache.record(seq as u64, reply.clone(), *applied);
            // Duplicate delivery of the statement just executed — the
            // most common chaos outcome (ack lost, client resends) —
            // must echo the identical reply bytes.
            match cache.admit(seq as u64) {
                Admit::Replay(r) => assert!(same_encoding(&r, reply), "case {case}"),
                other => panic!("case {case}: just-recorded seq not replayed: {other:?}"),
            }
        }
        let n = replies.len() as u64;
        let applied_mark = (0..n).filter(|&s| replies[s as usize].1).max();
        assert_eq!(cache.applied_watermark(), applied_mark, "case {case}");
        for _ in 0..1 + below(&mut rng, 40) {
            let seq = rng.next_u64() % (n + 2); // every recorded seq + two fresh ones
            match cache.admit(seq) {
                Admit::Fresh => {
                    assert!(seq >= n, "case {case}: recorded seq {seq} came back Fresh")
                }
                Admit::Replay(r) => {
                    // A replay is always the original reply, bit for bit.
                    assert!(seq < n && same_encoding(&r, &replies[seq as usize].0));
                }
                Admit::ProvenApplied => assert!(
                    applied_mark.is_some_and(|a| seq <= a),
                    "case {case}: ProvenApplied for seq {seq} above watermark {applied_mark:?}"
                ),
                Admit::NotApplied => {
                    // Only for evicted entries above the applied
                    // watermark — never for one still in the window.
                    assert!(
                        seq < n.saturating_sub(window as u64),
                        "case {case}: NotApplied for seq {seq} still inside the window"
                    );
                    assert!(applied_mark.is_none_or(|a| seq > a), "case {case}");
                }
            }
        }
    }
}

/// Exactly-once across a server restart: the rebuilt cache has no reply
/// bytes, only the recovered applied watermark and highest intent.
/// Every replay at/below the watermark must reconcile as `ProvenApplied`
/// (never re-execute a committed mutation); every replay between
/// watermark and the highest intent is proven effect-free and may
/// re-execute; everything beyond is fresh.
#[test]
fn recovered_cache_never_reexecutes_proven_mutations() {
    let mut rng = rng(0xD2);
    for case in 0..500 {
        let applied = rng.random::<bool>().then(|| below(&mut rng, 64) as u64);
        let gap = below(&mut rng, 16) as u64;
        let max_intent = applied.map(|a| a + gap).or(gap.checked_sub(1));
        let mut cache = ReplyCache::recovered(1 + below(&mut rng, 12), applied, max_intent);
        let expected = cache.expected();
        for _ in 0..1 + below(&mut rng, 32) {
            let seq = below(&mut rng, 96) as u64;
            match cache.admit(seq) {
                Admit::Fresh => assert!(seq >= expected, "case {case}"),
                Admit::Replay(_) => panic!("case {case}: recovery cannot resurrect reply bytes"),
                Admit::ProvenApplied => assert!(applied.is_some_and(|a| seq <= a), "case {case}"),
                Admit::NotApplied => {
                    assert!(seq < expected && applied.is_none_or(|a| seq > a));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// session journal

#[derive(Debug, Clone)]
enum JournalOp {
    Open(String, String),
    Intent(String, u64),
    Outcome(String, u64, bool),
    Close(String),
}

/// What recovery must know about one token: namespace, applied
/// watermark, highest intent. Against an empty `WalRecovery` an
/// unresolved intent is judged not applied, so the fold needs no WAL.
type JournalModel = BTreeMap<String, (String, Option<u64>, Option<u64>)>;

fn fold(model: &mut JournalModel, op: &JournalOp) {
    let bump = |slot: &mut Option<u64>, seq: u64| *slot = Some(slot.map_or(seq, |m| m.max(seq)));
    match op {
        JournalOp::Open(token, namespace) => {
            model.entry(token.clone()).or_default().0 = namespace.clone();
        }
        JournalOp::Intent(token, seq) => bump(&mut model.entry(token.clone()).or_default().2, *seq),
        JournalOp::Outcome(token, seq, applied) => {
            let entry = model.entry(token.clone()).or_default();
            if *applied {
                bump(&mut entry.1, *seq);
            }
        }
        JournalOp::Close(token) => {
            model.remove(token);
        }
    }
}

fn gen_journal_ops(rng: &mut StdRng, n: usize) -> Vec<JournalOp> {
    let mut next_seq = [0u64; 3];
    let mut ops = vec![JournalOp::Open("t1".into(), "a_".into())];
    for _ in 0..n {
        let t = below(rng, 3);
        let token = format!("t{}", t + 1);
        ops.push(match below(rng, 8) {
            0 => JournalOp::Open(token, gen_ident(rng)),
            1 => JournalOp::Close(token),
            2..=4 => {
                next_seq[t] += 1;
                JournalOp::Intent(token, next_seq[t])
            }
            _ => JournalOp::Outcome(token, next_seq[t], rng.random()),
        });
    }
    ops
}

fn apply_journal_op(log: &mut SessionLog, op: &JournalOp) {
    match op {
        JournalOp::Open(token, namespace) => log.open_token(token, namespace),
        JournalOp::Intent(token, seq) => log.intent(token, *seq, 1000 + seq),
        JournalOp::Outcome(token, seq, applied) => log.outcome(token, *seq, *applied, false),
        JournalOp::Close(token) => log.close_token(token),
    }
    .unwrap();
}

/// Write `ops` through a real `SessionLog`; returns the file image and,
/// per record boundary, `(byte length, model after that record)`.
fn journal_image(ops: &[JournalOp]) -> (Vec<u8>, Vec<(usize, JournalModel)>) {
    let dir = scratch_dir("image");
    let (mut log, _, _) = SessionLog::open(&dir, &WalRecovery::default()).unwrap();
    let mut model = JournalModel::new();
    let mut boundaries = vec![(log.len() as usize, model.clone())];
    for op in ops {
        apply_journal_op(&mut log, op);
        fold(&mut model, op);
        boundaries.push((log.len() as usize, model.clone()));
    }
    drop(log);
    let image = std::fs::read(session_log_path(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (image, boundaries)
}

/// Recover `image` from `dir` and render what came back as a model.
fn recover(dir: &Path, image: &[u8]) -> Result<JournalModel, Error> {
    std::fs::write(session_log_path(dir), image).unwrap();
    let (_log, recovered, _) = SessionLog::open(dir, &WalRecovery::default())?;
    Ok(recovered
        .into_iter()
        .map(|(token, s)| (token, (s.namespace, s.applied, s.max_intent)))
        .collect())
}

/// The model at the last record boundary at or before `len` bytes.
fn model_at(boundaries: &[(usize, JournalModel)], len: usize) -> JournalModel {
    boundaries
        .iter()
        .rev()
        .find(|(end, _)| *end <= len)
        .map(|(_, m)| m.clone())
        .unwrap_or_default()
}

#[test]
fn journal_truncation_recovers_a_prefix() {
    let mut rng = rng(0xE1);
    let dir = scratch_dir("truncate");
    for case in 0..4 {
        let (image, boundaries) = journal_image(&gen_journal_ops(&mut rng, 10));
        assert_eq!(
            recover(&dir, &image).unwrap(),
            boundaries.last().unwrap().1,
            "case {case}: clean image"
        );
        for cut in 0..image.len() {
            let got = recover(&dir, &image[..cut])
                .unwrap_or_else(|e| panic!("case {case} cut {cut}: truncation is never {e}"));
            assert_eq!(got, model_at(&boundaries, cut), "case {case} cut {cut}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_single_byte_flip_is_detected_or_a_prefix() {
    let mut rng = rng(0xE2);
    let dir = scratch_dir("flip");
    for case in 0..4 {
        let (image, boundaries) = journal_image(&gen_journal_ops(&mut rng, 10));
        let prefixes: Vec<&JournalModel> = boundaries.iter().map(|(_, m)| m).collect();
        for pos in 0..image.len() {
            let mut bad = image.clone();
            bad[pos] ^= 1 << below(&mut rng, 8);
            match recover(&dir, &bad) {
                Err(Error::Corruption { .. }) => {}
                Err(e) => panic!("case {case} byte {pos}: unexpected error class: {e}"),
                // Undetected damage was confined to a torn tail.
                Ok(got) => assert!(
                    prefixes.contains(&&got),
                    "case {case}: flip at byte {pos} altered recovered state: {got:?}"
                ),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_appends_after_a_tear_stay_readable() {
    let mut rng = rng(0xE3);
    let dir = scratch_dir("tear");
    for case in 0..25 {
        let ops = gen_journal_ops(&mut rng, 8);
        let (image, boundaries) = journal_image(&ops);
        // Tear strictly inside the log (past the magic).
        let cut = SESSION_LOG_MAGIC.len() + below(&mut rng, image.len() - SESSION_LOG_MAGIC.len());
        std::fs::write(session_log_path(&dir), &image[..cut]).unwrap();
        let mut model = model_at(&boundaries, cut);
        // First restart appends acknowledged records behind the tear...
        let more = gen_journal_ops(&mut rng, 4);
        {
            let (mut log, _, _) = SessionLog::open(&dir, &WalRecovery::default()).unwrap();
            for op in &more {
                apply_journal_op(&mut log, op);
                fold(&mut model, op);
            }
        }
        // ...and the second restart must still read every one of them.
        let image = std::fs::read(session_log_path(&dir)).unwrap();
        let got = recover(&dir, &image).unwrap_or_else(|e| panic!("case {case} cut {cut}: {e}"));
        assert_eq!(got, model, "case {case} cut {cut}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
