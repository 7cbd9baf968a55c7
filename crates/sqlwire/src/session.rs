//! Exactly-once session state: the per-session reply cache and the
//! durable session log that lets dedup survive a server `kill -9`.
//!
//! ## The reply cache
//!
//! Every statement-bearing request carries a session-scoped,
//! monotonically increasing sequence number ([`crate::proto::StmtMeta`]).
//! The client is synchronous: it sends `seq` only after resolving every
//! smaller sequence number, and it *replays* (re-sends under the same
//! `seq`) only the statement whose reply was lost to a wire failure.
//! [`ReplyCache::admit`] classifies an incoming `seq` against that
//! contract:
//!
//! - a fresh `seq` executes and its reply (success *or* engine error)
//!   is recorded; the cache keeps a bounded window of recent replies,
//!   evicting the oldest as the sequence advances past them;
//! - a replayed or stale `seq` whose reply is still cached is answered
//!   from the cache, byte-identical, without re-execution;
//! - a replayed `seq` whose reply is gone but which is *proven applied*
//!   (it committed effects before the reply was lost) is answered with
//!   [`Response::ReplayApplied`] — applied exactly once, result bytes
//!   lost;
//! - everything else provably did **not** apply effects (reads, failed
//!   statements, statements the crash pre-empted) and is safe to
//!   re-execute.
//!
//! ## The durable session log
//!
//! On a durable server the cache's *applied* knowledge must survive
//! `kill -9`. Statement effects live in the engine WAL; the mapping
//! from client sequence numbers to WAL fates lives in a sidecar log
//! (`sessions.log`) so the dedup layer adds **no statements** to the
//! SQL path (remote and embedded runs stay statement-for-statement
//! identical). The protocol per keyed request:
//!
//! 1. `Intent { token, seq, engine_seq }` is appended and fsynced
//!    *before* execution, with `engine_seq` read under the database
//!    lock — the WAL sequence number the statement will consume if it
//!    mutates.
//! 2. The statement executes (the engine WAL fsyncs commits itself).
//! 3. `Outcome { token, seq, applied }` is appended — fsynced only
//!    when execution failed (success outcomes are made durable for
//!    free by the *next* request's intent fsync; see below).
//!
//! Recovery correlates unresolved intents with what
//! [`sqlengine::WalRecovery`] found: `engine_seq` recovered committed
//! means applied; recovered-but-uncommitted or never-reached means not
//! applied; erased by compaction means applied (only a *committed*
//! statement's own commit path can compact the log before its outcome
//! is appended — every other compaction runs inside a later request,
//! whose intent fsync made this outcome durable first).
//!
//! The log is size-bounded: once it outgrows its budget it is
//! rewritten ([`atomic_replace`], the snapshot protocol) as one `Open`
//! + `Watermark` baseline per live session.
//!
//! The file itself is the storage layer's (docs/ROBUSTNESS.md "On-disk
//! formats"): a torn tail is tolerated by the scan *and* physically cut
//! at open, before the first new append. This module owns only the five
//! records and the fold over them.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use sqlengine::storage::codec::{put_bool, put_record, put_str, put_u64, walk_records, Reader};
use sqlengine::storage::logfile::{atomic_replace, read_or_empty, remove_stale_staging, LogFile};
use sqlengine::{Error, Result, WalRecovery};

use crate::proto::Response;

/// Magic prefix identifying a session log (versioned).
pub const SESSION_LOG_MAGIC: &[u8] = b"SQLEMSES1\n";
/// Session log file name within the database directory.
pub const SESSION_LOG_FILE: &str = "sessions.log";
/// Rewrite the log once it exceeds this many bytes.
const SESSION_LOG_MAX_BYTES: u64 = 1024 * 1024;
/// Default bound on cached replies per session.
pub const DEFAULT_REPLY_WINDOW: usize = 64;

// ---------------------------------------------------------------------
// reply cache

/// How [`ReplyCache::admit`] classified an incoming sequence number.
#[derive(Debug, Clone)]
pub enum Admit {
    /// Never seen: execute and [`ReplyCache::record`] the reply.
    Fresh,
    /// Replay with the reply still cached: resend it verbatim.
    Replay(Response),
    /// Replay of a statement proven to have applied its effects, but
    /// the reply bytes are gone (server restart): answer
    /// [`Response::ReplayApplied`]. Never re-execute.
    ProvenApplied,
    /// Replay of a statement proven **not** to have applied effects
    /// (a read, a failed statement, or one the crash pre-empted):
    /// re-executing is safe and is the only way to produce a reply.
    NotApplied,
}

/// Bounded, ack-advancing reply cache for one session.
#[derive(Debug)]
pub struct ReplyCache {
    /// Next fresh sequence number ( = max seen + 1; 0 for a new session).
    expected: u64,
    /// Maximum cached replies (hard cap; ack-advance usually keeps the
    /// map much smaller).
    window: usize,
    /// Cached replies by sequence number, including error replies — a
    /// replayed failed statement must observe the *same* failure.
    replies: BTreeMap<u64, Response>,
    /// Highest sequence number whose statement applied effects
    /// (executed successfully *and* was mutating). Everything at or
    /// below it that is no longer cached is answered `ProvenApplied`.
    applied: Option<u64>,
}

impl Default for ReplyCache {
    fn default() -> Self {
        ReplyCache::new(DEFAULT_REPLY_WINDOW)
    }
}

impl ReplyCache {
    /// Empty cache for a brand-new session.
    pub fn new(window: usize) -> Self {
        ReplyCache {
            expected: 0,
            window: window.max(1),
            replies: BTreeMap::new(),
            applied: None,
        }
    }

    /// Rebuild a cache from durable recovery: the replies themselves
    /// are gone, but the applied watermark and the highest intent seen
    /// survive, which is exactly what replay judgement needs.
    pub fn recovered(window: usize, applied: Option<u64>, max_intent: Option<u64>) -> Self {
        ReplyCache {
            expected: max_intent
                .map_or(0, |m| m + 1)
                .max(applied.map_or(0, |a| a + 1)),
            window: window.max(1),
            replies: BTreeMap::new(),
            applied,
        }
    }

    /// Classify an incoming sequence number.
    pub fn admit(&mut self, seq: u64) -> Admit {
        if seq >= self.expected {
            // Fresh — possibly with a gap (a statement the client
            // abandoned, or recovery that could not observe reads).
            // Accepting the gap is safe: nothing is re-executed.
            return Admit::Fresh;
        }
        if let Some(r) = self.replies.get(&seq) {
            return Admit::Replay(r.clone());
        }
        match self.applied {
            Some(a) if seq <= a => Admit::ProvenApplied,
            _ => Admit::NotApplied,
        }
    }

    /// Record the reply for an executed statement. `applied` is true
    /// when the statement executed successfully **and** was mutating —
    /// the only case a later evicted replay must not re-execute.
    pub fn record(&mut self, seq: u64, reply: Response, applied: bool) {
        self.replies.insert(seq, reply);
        self.expected = self.expected.max(seq + 1);
        if applied {
            self.applied = Some(self.applied.map_or(seq, |a| a.max(seq)));
        }
        while self.replies.len() > self.window {
            let oldest = *self.replies.keys().next().expect("non-empty");
            self.replies.remove(&oldest);
        }
    }

    /// Next fresh sequence number (diagnostics / persistence baseline).
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// The applied watermark (persistence baseline).
    pub fn applied_watermark(&self) -> Option<u64> {
        self.applied
    }

    /// Number of cached replies (tests).
    pub fn cached_len(&self) -> usize {
        self.replies.len()
    }
}

// ---------------------------------------------------------------------
// durable session log

const TAG_OPEN: u8 = 0x01;
const TAG_INTENT: u8 = 0x02;
const TAG_OUTCOME: u8 = 0x03;
const TAG_CLOSE: u8 = 0x04;
const TAG_WATERMARK: u8 = 0x05;

/// What one session-log record says about its token. On disk every
/// record is `tag, str token`, then the variant's fields.
#[derive(Debug)]
enum SessionRecord {
    /// The token came into existence, bound to a namespace.
    Open { namespace: String },
    /// About to execute the token's statement `seq`; if it mutates, it
    /// will consume WAL sequence number `engine_seq`.
    Intent { seq: u64, engine_seq: u64 },
    /// Statement `seq` finished; `applied` = successfully executed and
    /// mutating.
    Outcome { seq: u64, applied: bool },
    /// Orderly goodbye: the token's dedup state can be dropped.
    Close,
    /// Rewrite baseline: everything at or below `applied` applied
    /// effects; everything at or below `max_intent` has been seen.
    Watermark {
        applied: u64,
        has_applied: bool,
        max_intent: u64,
    },
}

/// Append `rec` about `token` to `out` as one checksummed record.
fn put_session_record(out: &mut Vec<u8>, token: &str, rec: &SessionRecord) {
    let mut payload = vec![0];
    put_str(&mut payload, token);
    payload[0] = match rec {
        SessionRecord::Open { namespace } => {
            put_str(&mut payload, namespace);
            TAG_OPEN
        }
        SessionRecord::Intent { seq, engine_seq } => {
            put_u64(&mut payload, *seq);
            put_u64(&mut payload, *engine_seq);
            TAG_INTENT
        }
        SessionRecord::Outcome { seq, applied } => {
            put_u64(&mut payload, *seq);
            put_bool(&mut payload, *applied);
            TAG_OUTCOME
        }
        SessionRecord::Close => TAG_CLOSE,
        SessionRecord::Watermark {
            applied,
            has_applied,
            max_intent,
        } => {
            put_u64(&mut payload, *applied);
            put_bool(&mut payload, *has_applied);
            put_u64(&mut payload, *max_intent);
            TAG_WATERMARK
        }
    };
    put_record(out, &payload);
}

fn decode_session_payload(payload: &[u8]) -> Result<(String, SessionRecord)> {
    let mut r = Reader::new(payload, "session record");
    let tag = r.u8()?;
    let token = r.str()?;
    let rec = match tag {
        TAG_OPEN => SessionRecord::Open {
            namespace: r.str()?,
        },
        TAG_INTENT => SessionRecord::Intent {
            seq: r.u64()?,
            engine_seq: r.u64()?,
        },
        TAG_OUTCOME => SessionRecord::Outcome {
            seq: r.u64()?,
            applied: r.bool()?,
        },
        TAG_CLOSE => SessionRecord::Close,
        TAG_WATERMARK => SessionRecord::Watermark {
            applied: r.u64()?,
            has_applied: r.bool()?,
            max_intent: r.u64()?,
        },
        tag => {
            return Err(Error::corruption(format!(
                "session record: unknown tag {tag:#04x}"
            )))
        }
    };
    r.end()?;
    Ok((token, rec))
}

/// What one recovered session knew before the crash, prior to WAL
/// correlation.
#[derive(Debug, Clone, Default)]
struct RawSession {
    namespace: String,
    /// Latest intent per client seq, with its recorded engine seq, or
    /// `None` once an outcome resolved it.
    unresolved: BTreeMap<u64, u64>,
    applied: Option<u64>,
    max_intent: Option<u64>,
}

/// A recovered session after correlating unresolved intents with the
/// engine WAL: everything the server needs to rebuild its dedup state.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredSession {
    /// Work-table namespace the token was bound to.
    pub namespace: String,
    /// Highest client seq proven to have applied effects.
    pub applied: Option<u64>,
    /// Highest client seq ever seen (intents included).
    pub max_intent: Option<u64>,
}

/// Durable sidecar log mapping client sequence numbers to engine WAL
/// fates. See the module docs for the append/fsync protocol.
#[derive(Debug)]
pub struct SessionLog {
    log: LogFile,
    dir: PathBuf,
}

/// Path of the session log inside a database directory.
pub fn session_log_path(dir: &Path) -> PathBuf {
    dir.join(SESSION_LOG_FILE)
}

/// Fold a session-log byte image into per-token raw state, the highest
/// server-issued token ordinal and the length of the valid prefix. Torn
/// tails are tolerated (only unacknowledged suffixes can be torn — every
/// judgement-relevant record was fsynced or flushed by a later fsync);
/// checksum mismatches before the tail are corruption.
fn scan_session_log(bytes: &[u8]) -> Result<(HashMap<String, RawSession>, u64, usize)> {
    let mut sessions: HashMap<String, RawSession> = HashMap::new();
    let mut max_token_id = 0u64;
    let valid_len = walk_records(bytes, SESSION_LOG_MAGIC, "session log", |payload, _| {
        let (token, rec) = decode_session_payload(payload)?;
        match rec {
            SessionRecord::Open { namespace } => {
                if let Some(id) = token_ordinal(&token) {
                    max_token_id = max_token_id.max(id);
                }
                sessions.entry(token).or_default().namespace = namespace;
            }
            SessionRecord::Intent { seq, engine_seq } => {
                let s = sessions.entry(token).or_default();
                // A fresh intent supersedes any stale outcome a prior
                // incarnation of this seq left behind.
                s.unresolved.insert(seq, engine_seq);
                s.max_intent = s.max_intent.max(Some(seq));
            }
            SessionRecord::Outcome { seq, applied } => {
                let s = sessions.entry(token).or_default();
                s.unresolved.remove(&seq);
                if applied {
                    s.applied = s.applied.max(Some(seq));
                }
            }
            SessionRecord::Close => {
                sessions.remove(&token);
            }
            SessionRecord::Watermark {
                applied,
                has_applied,
                max_intent,
            } => {
                let s = sessions.entry(token).or_default();
                if has_applied {
                    s.applied = s.applied.max(Some(applied));
                }
                s.max_intent = s.max_intent.max(Some(max_intent));
            }
        }
        Ok(())
    })?;
    Ok((sessions, max_token_id, valid_len))
}

/// Parse the numeric ordinal out of a server-issued `t<N>` token.
pub(crate) fn token_ordinal(token: &str) -> Option<u64> {
    token.strip_prefix('t').and_then(|s| s.parse().ok())
}

/// Render the server-issued token with ordinal `n`.
pub fn format_token(n: u64) -> String {
    format!("t{n}")
}

/// Correlate one unresolved intent with the recovered engine WAL: did
/// the statement that recorded `engine_seq` apply its effects?
fn intent_applied(engine_seq: u64, wal: &WalRecovery) -> bool {
    if wal.committed.contains(&engine_seq) {
        return true; // its frame committed
    }
    if wal.uncommitted.contains(&engine_seq) {
        return false; // its frame never committed (failed / crashed)
    }
    if engine_seq >= wal.next_seq {
        return false; // never reached the log (read, or pre-empted)
    }
    // Below the recovered counter yet absent from the log: erased by
    // compaction, which only a committed statement's own commit path
    // can reach before the outcome record lands (module docs).
    true
}

impl SessionLog {
    /// Open (or create) the session log in `dir`, recovering per-token
    /// state by correlating unresolved intents against `wal`. Returns
    /// the log plus the recovered sessions and the highest server-issued
    /// token ordinal (so reissued tokens never collide).
    pub fn open(
        dir: &Path,
        wal: &WalRecovery,
    ) -> Result<(SessionLog, HashMap<String, RecoveredSession>, u64)> {
        remove_stale_staging(dir, SESSION_LOG_FILE)?;
        let path = session_log_path(dir);
        let (raw, max_token_id, valid_len) = scan_session_log(&read_or_empty(&path)?)?;
        let mut recovered = HashMap::with_capacity(raw.len());
        for (token, s) in raw {
            let mut applied = s.applied;
            for (&seq, &engine_seq) in &s.unresolved {
                if intent_applied(engine_seq, wal) {
                    applied = applied.max(Some(seq));
                }
            }
            recovered.insert(
                token,
                RecoveredSession {
                    namespace: s.namespace,
                    applied,
                    max_intent: s.max_intent,
                },
            );
        }
        let log = LogFile::open(&path, SESSION_LOG_MAGIC, valid_len as u64)?;
        let dir = dir.to_path_buf();
        Ok((SessionLog { log, dir }, recovered, max_token_id))
    }

    fn append(&mut self, token: &str, rec: &SessionRecord, fsync: bool) -> Result<()> {
        let mut bytes = Vec::new();
        put_session_record(&mut bytes, token, rec);
        self.log.append(&bytes)?;
        if fsync {
            self.log.sync()?;
        }
        Ok(())
    }

    /// Record (durably) that `token` exists and owns `namespace`.
    pub fn open_token(&mut self, token: &str, namespace: &str) -> Result<()> {
        let namespace = namespace.into();
        self.append(token, &SessionRecord::Open { namespace }, true)
    }

    /// Record (durably, *before* execution) that statement `seq` of
    /// `token` is about to run and would consume WAL seq `engine_seq`.
    /// This fsync also flushes every outcome appended before it — the
    /// property the recovery judgement leans on.
    pub fn intent(&mut self, token: &str, seq: u64, engine_seq: u64) -> Result<()> {
        self.append(token, &SessionRecord::Intent { seq, engine_seq }, true)
    }

    /// Record that statement `seq` finished. Fsynced only when the
    /// statement failed (`fsync_now`) — a failed mutation's WAL frame
    /// can later be erased by compaction, so its failure must outlive
    /// the evidence; success is provable from the WAL itself.
    pub fn outcome(&mut self, token: &str, seq: u64, applied: bool, fsync_now: bool) -> Result<()> {
        self.append(token, &SessionRecord::Outcome { seq, applied }, fsync_now)
    }

    /// Record an orderly goodbye: the token's state is gone.
    pub fn close_token(&mut self, token: &str) -> Result<()> {
        self.append(token, &SessionRecord::Close, true)
    }

    /// Current log length in bytes (tests / rewrite trigger).
    pub fn len(&self) -> u64 {
        self.log.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Does the log want a rewrite? Checked by the server between
    /// statements; the rewrite itself needs the live session baselines.
    pub fn wants_rewrite(&self) -> bool {
        self.len() > SESSION_LOG_MAX_BYTES
    }

    /// Rewrite the log as one `Open` + `Watermark` baseline per live
    /// session (crash-safe: [`atomic_replace`]). Callers pass the
    /// authoritative in-memory state; every prior intent has its outcome
    /// by the time this runs (rewrites happen between statements, under
    /// the same lock the append path holds).
    pub fn rewrite(&mut self, live: &[(String, String, Option<u64>, u64)]) -> Result<()> {
        let mut buf = SESSION_LOG_MAGIC.to_vec();
        for (token, namespace, applied, expected) in live {
            let namespace = namespace.clone();
            put_session_record(&mut buf, token, &SessionRecord::Open { namespace });
            let baseline = SessionRecord::Watermark {
                applied: applied.unwrap_or(0),
                has_applied: applied.is_some(),
                max_intent: expected.saturating_sub(1),
            };
            put_session_record(&mut buf, token, &baseline);
        }
        atomic_replace(&self.dir, SESSION_LOG_FILE, &buf)?;
        let path = session_log_path(&self.dir);
        self.log = LogFile::open(&path, SESSION_LOG_MAGIC, buf.len() as u64)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlengine::QueryResult;
    use std::fs;

    fn ok_reply() -> Response {
        Response::Rows(QueryResult::affected(1))
    }

    #[test]
    fn fresh_then_replay_is_served_from_cache() {
        let mut c = ReplyCache::new(8);
        assert!(matches!(c.admit(0), Admit::Fresh));
        c.record(0, ok_reply(), true);
        // Replay of 0: cached, never re-executed.
        match c.admit(0) {
            Admit::Replay(r) => assert!(crate::proto::same_encoding(&r, &ok_reply())),
            other => panic!("expected Replay, got {other:?}"),
        }
        assert!(matches!(c.admit(1), Admit::Fresh));
    }

    #[test]
    fn error_replies_are_cached_too() {
        let mut c = ReplyCache::new(8);
        assert!(matches!(c.admit(0), Admit::Fresh));
        c.record(
            0,
            Response::Err(Error::Remote("duplicate key".into())),
            false,
        );
        match c.admit(0) {
            Admit::Replay(Response::Err(Error::Remote(m))) => assert!(m.contains("duplicate")),
            other => panic!("expected cached Err, got {other:?}"),
        }
    }

    #[test]
    fn stale_sequences_are_served_from_the_window() {
        let mut c = ReplyCache::new(64);
        for s in 0..5 {
            assert!(matches!(c.admit(s), Admit::Fresh));
            c.record(s, ok_reply(), true);
        }
        // A stale sequence number inside the window is acked from the
        // cache, never re-executed.
        assert!(matches!(c.admit(2), Admit::Replay(_)));
        // A gap is fresh; the stale reply stays cached behind it.
        assert!(matches!(c.admit(10), Admit::Fresh));
        c.record(10, ok_reply(), true);
        assert!(matches!(c.admit(3), Admit::Replay(_)));
    }

    #[test]
    fn evicted_applied_seqs_answer_proven_applied() {
        let mut c = ReplyCache::new(4);
        for s in 0..10 {
            assert!(matches!(c.admit(s), Admit::Fresh));
            c.record(s, ok_reply(), true);
        }
        assert_eq!(c.cached_len(), 4, "window cap evicts the oldest");
        // Evicted applied seqs answer ProvenApplied, never re-execute.
        assert!(matches!(c.admit(3), Admit::ProvenApplied));
        // Recent ones still replay from the cache.
        assert!(matches!(c.admit(9), Admit::Replay(_)));
    }

    #[test]
    fn window_cap_bounds_memory() {
        let mut c = ReplyCache::new(4);
        for s in 0..10 {
            // No admit() between records (simulates recording without
            // ack-advance); the hard cap must hold alone.
            c.record(s, ok_reply(), false);
        }
        assert!(c.cached_len() <= 4);
    }

    #[test]
    fn recovered_cache_judges_replays() {
        // Recovery: seqs through 7 seen, applied through 5.
        let mut c = ReplyCache::recovered(8, Some(5), Some(7));
        assert_eq!(c.expected(), 8);
        // Applied, reply lost: proven applied.
        assert!(matches!(c.admit(4), Admit::ProvenApplied));
        assert!(matches!(c.admit(5), Admit::ProvenApplied));
        // Seen but not applied (read or failed): safe to re-execute.
        assert!(matches!(c.admit(6), Admit::NotApplied));
        assert!(matches!(c.admit(7), Admit::NotApplied));
        // Next statement is fresh.
        assert!(matches!(c.admit(8), Admit::Fresh));
    }

    fn wal(committed: &[u64], uncommitted: &[u64], next_seq: u64) -> WalRecovery {
        WalRecovery {
            committed: committed.to_vec(),
            uncommitted: uncommitted.to_vec(),
            watermark: 0,
            next_seq,
        }
    }

    #[test]
    fn intent_judgement_covers_every_wal_fate() {
        let w = wal(&[3], &[4], 6);
        assert!(intent_applied(3, &w), "committed frame = applied");
        assert!(!intent_applied(4, &w), "uncommitted frame = not applied");
        assert!(!intent_applied(6, &w), "never logged = not applied");
        assert!(!intent_applied(7, &w), "future seq = not applied");
        assert!(intent_applied(5, &w), "compacted away = applied");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sqlem_sessionlog_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn session_log_round_trips_across_reopen() {
        let dir = tempdir("roundtrip");
        let none = WalRecovery::default();
        {
            let (mut log, recovered, max_id) = SessionLog::open(&dir, &none).unwrap();
            assert!(recovered.is_empty());
            assert_eq!(max_id, 0);
            log.open_token("t1", "ns_").unwrap();
            log.intent("t1", 0, 10).unwrap();
            log.outcome("t1", 0, true, false).unwrap();
            log.intent("t1", 1, 11).unwrap();
            // seq 1 has no outcome: the crash window.
        }
        // Engine WAL says seq 11 committed: statement 1 applied.
        let w = wal(&[10, 11], &[], 12);
        let (_log, recovered, max_id) = SessionLog::open(&dir, &w).unwrap();
        assert_eq!(max_id, 1);
        let s = &recovered["t1"];
        assert_eq!(s.namespace, "ns_");
        assert_eq!(s.applied, Some(1));
        assert_eq!(s.max_intent, Some(1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unresolved_read_intent_is_not_applied() {
        let dir = tempdir("read");
        let none = WalRecovery::default();
        {
            let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
            log.open_token("t1", "ns_").unwrap();
            // A read records the *next* WAL seq but never consumes it.
            log.intent("t1", 0, 10).unwrap();
        }
        // Nothing committed seq 10: the read is judged not applied and
        // will simply be re-executed on replay.
        let w = wal(&[], &[], 10);
        let (_log, recovered, _) = SessionLog::open(&dir, &w).unwrap();
        assert_eq!(recovered["t1"].applied, None);
        assert_eq!(recovered["t1"].max_intent, Some(0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn close_token_drops_state_and_torn_tail_is_tolerated() {
        let dir = tempdir("close");
        let none = WalRecovery::default();
        {
            let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
            log.open_token("t1", "a_").unwrap();
            log.open_token("t2", "b_").unwrap();
            log.close_token("t1").unwrap();
        }
        // Tear the file mid-record: recovery must still see t2.
        let path = session_log_path(&dir);
        let bytes = fs::read(&path).unwrap();
        let mut torn = bytes.clone();
        torn.extend_from_slice(&[5, 0, 0, 0, 1, 2]); // header + partial garbage
        fs::write(&path, &torn).unwrap();
        let (_log, recovered, max_id) = SessionLog::open(&dir, &none).unwrap();
        assert!(!recovered.contains_key("t1"));
        assert!(recovered.contains_key("t2"));
        assert_eq!(max_id, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_cut_before_the_next_append() {
        use std::io::Write as _;
        let dir = tempdir("torncut");
        let none = WalRecovery::default();
        {
            let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
            log.open_token("t1", "a_").unwrap();
        }
        // A crash mid-append: a header and part of a payload.
        let path = session_log_path(&dir);
        let intact = fs::read(&path).unwrap().len();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&[5, 0, 0, 0, 1, 2])
            .unwrap();
        // A stale rewrite staging file goes the way of snapshot staging.
        fs::write(dir.join("sessions.log.tmp"), b"torn rewrite").unwrap();
        {
            // First restart: the tail is tolerated *and* removed, so these
            // acknowledged records do not land behind garbage.
            let (mut log, recovered, _) = SessionLog::open(&dir, &none).unwrap();
            assert!(recovered.contains_key("t1"));
            assert_eq!(log.len() as usize, intact);
            assert!(!dir.join("sessions.log.tmp").exists());
            log.open_token("t2", "b_").unwrap();
            log.intent("t2", 0, 7).unwrap();
            log.outcome("t2", 0, true, true).unwrap();
        }
        // Second restart: everything acknowledged is still readable.
        let (_log, recovered, max_id) = SessionLog::open(&dir, &none).unwrap();
        assert_eq!(recovered["t1"].namespace, "a_");
        assert_eq!(recovered["t2"].namespace, "b_");
        assert_eq!(recovered["t2"].applied, Some(0));
        assert_eq!(max_id, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_preserves_judgement_baselines() {
        let dir = tempdir("rewrite");
        let none = WalRecovery::default();
        {
            let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
            log.open_token("t3", "ns_").unwrap();
            for seq in 0..20 {
                log.intent("t3", seq, 100 + seq).unwrap();
                log.outcome("t3", seq, seq % 2 == 0, false).unwrap();
            }
            let before = log.len();
            log.rewrite(&[("t3".into(), "ns_".into(), Some(18), 20)])
                .unwrap();
            assert!(log.len() < before);
            // Post-rewrite appends still work.
            log.intent("t3", 20, 120).unwrap();
            log.outcome("t3", 20, false, true).unwrap();
        }
        let (_log, recovered, max_id) = SessionLog::open(&dir, &none).unwrap();
        let s = &recovered["t3"];
        assert_eq!(s.namespace, "ns_");
        assert_eq!(s.applied, Some(18));
        assert_eq!(s.max_intent, Some(20));
        assert_eq!(max_id, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_is_reported() {
        let dir = tempdir("corrupt");
        let none = WalRecovery::default();
        {
            let (mut log, _, _) = SessionLog::open(&dir, &none).unwrap();
            log.open_token("t1", "ns_").unwrap();
            log.open_token("t2", "ns2_").unwrap();
        }
        let path = session_log_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the FIRST record's payload (not the tail).
        let pos = SESSION_LOG_MAGIC.len() + 9;
        bytes[pos] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SessionLog::open(&dir, &none),
            Err(Error::Corruption { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }
}
