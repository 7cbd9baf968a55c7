//! Deterministic fault injection for chaos testing the SQLEM loop.
//!
//! The paper's architecture (§1.4, §3) is a thin client driving a remote
//! DBMS over a network: in any real deployment individual statements fail
//! — transiently (deadlock victim, connection reset, resource pressure)
//! or permanently (disk full, privilege revoked). A [`FaultPlan`] scripts
//! such failures against a [`crate::Database`] so the driver's retry,
//! checkpoint and recovery machinery can be exercised deterministically:
//! fail the Nth statement, fail every INSERT, or fail anything touching
//! a table whose name matches a pattern. The command-line grammar for a
//! rule is [`FaultRule`]'s `FromStr`.
//!
//! Injected failures surface as [`crate::Error::Injected`] carrying a
//! transient/permanent classification, which the `sqlem` retry policy
//! uses to decide whether a retry is worthwhile.
//!
//! Faults fire **before** the statement executes by default
//! ([`FaultSite::BeforeExec`]), so the database is untouched and a retry
//! re-executes from clean state — modelling a statement rejected at
//! submission. [`FaultSite::AfterExec`] fires *after* the statement's
//! effects are applied, modelling a lost acknowledgement / client crash
//! mid-iteration; recovering from that requires the checkpoint/resume
//! protocol, not a bare statement retry.

use crate::metrics::StatementKind;

/// Transient faults are worth retrying; permanent ones are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// Goes away on retry (deadlock victim, timeout, connection blip).
    #[default]
    Transient,
    /// Deterministic; retrying reproduces it (disk full, missing grant).
    Permanent,
    /// The resource governor rejected the statement: surfaces as the
    /// typed [`crate::Error::ResourceExhausted`] (transient — see
    /// [`crate::Error::is_transient`]) instead of
    /// [`crate::Error::Injected`], so chaos plans drive the exact error
    /// path a real over-budget charge takes. Meaningful at the
    /// execution sites; pair with the default `BeforeExec` so the
    /// target is untouched and a retry is safe.
    ResourceExhaustion,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
            FaultKind::ResourceExhaustion => "resource-exhaustion",
        })
    }
}

/// When, relative to statement execution, a fault fires.
///
/// The three `Wal*` sites exist only on a durable database
/// ([`crate::Database::open_durable`]) and bracket the write-ahead-log
/// protocol for one mutating statement: append the begin+payload frame,
/// execute, append the commit marker, sync. They are the crash points
/// the recovery protocol must survive (docs/ROBUSTNESS.md): combined
/// with [`FaultRule::crashing`] they kill the process at exact WAL
/// byte/record boundaries — including a deterministic partial append
/// (torn tail) for [`FaultSite::AfterWalAppend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSite {
    /// Before any effect is applied — the statement never ran. The
    /// default: retries are safe without any recovery protocol.
    #[default]
    BeforeExec,
    /// After the statement's effects committed but before the client saw
    /// the result (lost ack / crash between statements).
    AfterExec,
    /// Durable only: before the statement's begin+payload frame is
    /// appended to the WAL. Nothing was written or applied; recovery
    /// sees no trace of the statement.
    BeforeWalAppend,
    /// Durable only: after the begin+payload frame was appended (a
    /// crashing rule tears it to a deterministic partial prefix) but
    /// before the statement executed or committed. Recovery discards
    /// the uncommitted frame.
    AfterWalAppend,
    /// Durable only: after the commit marker was appended but before
    /// `fsync`. The statement's effects are in the log but the client
    /// never saw the acknowledgment — the lost-ack model at the
    /// durability layer; recovery *includes* the statement.
    BeforeWalSync,
}

impl FaultSite {
    /// Is this one of the durable-only WAL protocol sites?
    pub fn is_wal(self) -> bool {
        matches!(
            self,
            FaultSite::BeforeWalAppend | FaultSite::AfterWalAppend | FaultSite::BeforeWalSync
        )
    }
}

/// One scripted failure rule. All populated matchers must agree for the
/// rule to fire (conjunction); a rule with no matchers matches every
/// statement.
#[derive(Debug, Clone, Default)]
pub struct FaultRule {
    /// Fire on the Nth statement executed since the plan was installed
    /// (0-based).
    pub nth: Option<usize>,
    /// Fire on statements of this kind.
    pub kind: Option<StatementKind>,
    /// Fire on statements whose target or source table names contain
    /// this substring (case-insensitive).
    pub table_pattern: Option<String>,
    /// Transient or permanent.
    pub fault: FaultKind,
    /// Where the fault fires relative to execution.
    pub site: FaultSite,
    /// Fire at most this many times (`None` ⇒ unlimited). A transient
    /// blip is `Some(1)`: the retry then succeeds. The budget is shared
    /// across retry re-executions of the same statement: a retried
    /// statement keeps its sequence number (see
    /// [`FaultInjector::note_retry`]), so an exhausted `once()` rule
    /// does not re-arm when the driver re-submits.
    pub budget: Option<usize>,
    /// Kill the process (`std::process::abort`) instead of returning an
    /// injected error — the crash-simulation mode used by the
    /// `crash_recovery` suite at the WAL sites. The abort is performed
    /// by the engine, which first reproduces the exact on-disk state of
    /// a kill at that site (e.g. a partial frame for
    /// [`FaultSite::AfterWalAppend`]).
    pub crash: bool,
}

impl FaultRule {
    /// Rule firing on the Nth statement executed after plan installation.
    pub fn nth(n: usize) -> Self {
        FaultRule {
            nth: Some(n),
            ..FaultRule::default()
        }
    }

    /// Rule firing on every statement of `kind`.
    pub fn kind(kind: StatementKind) -> Self {
        FaultRule {
            kind: Some(kind),
            ..FaultRule::default()
        }
    }

    /// Rule firing on statements touching tables matching `pattern`.
    pub fn table(pattern: impl Into<String>) -> Self {
        FaultRule {
            table_pattern: Some(pattern.into().to_ascii_lowercase()),
            ..FaultRule::default()
        }
    }

    /// Builder: additionally require the statement kind (conjunction
    /// with whatever matchers are already set).
    pub fn kind_is(mut self, kind: StatementKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Builder: mark transient (the default).
    pub fn transient(mut self) -> Self {
        self.fault = FaultKind::Transient;
        self
    }

    /// Builder: mark permanent.
    pub fn permanent(mut self) -> Self {
        self.fault = FaultKind::Permanent;
        self
    }

    /// Builder: surface as the typed resource-governor rejection
    /// ([`FaultKind::ResourceExhaustion`]).
    pub fn exhausting(mut self) -> Self {
        self.fault = FaultKind::ResourceExhaustion;
        self
    }

    /// Builder: fire at most once.
    pub fn once(mut self) -> Self {
        self.budget = Some(1);
        self
    }

    /// Builder: fire at most `n` times.
    pub fn times(mut self, n: usize) -> Self {
        self.budget = Some(n);
        self
    }

    /// Builder: fire after the statement executed (lost-ack model).
    pub fn after_exec(mut self) -> Self {
        self.site = FaultSite::AfterExec;
        self
    }

    /// Builder: fire at an arbitrary site (the WAL crash points).
    pub fn at_site(mut self, site: FaultSite) -> Self {
        self.site = site;
        self
    }

    /// Builder: abort the process at the fault site instead of
    /// returning an error (crash simulation; see [`FaultRule::crash`]).
    pub fn crashing(mut self) -> Self {
        self.crash = true;
        self
    }

    fn matches(&self, seq: usize, kind: StatementKind, tables: &[String]) -> bool {
        if let Some(n) = self.nth {
            if n != seq {
                return false;
            }
        }
        if let Some(k) = self.kind {
            if k != kind {
                return false;
            }
        }
        if let Some(pat) = &self.table_pattern {
            if !tables.iter().any(|t| t.contains(pat.as_str())) {
                return false;
            }
        }
        true
    }
}

/// The `--inject-fault` grammar of `sqlem-cli` and `sqlem-server`:
/// `SELECTOR[:MOD]...`, where SELECTOR is a statement number,
/// `kind=NAME` (`create`, `drop`, `insert`, `update`, `delete`,
/// `select`) or `table=SUBSTRING`, and the MODs are `transient`
/// (default), `permanent`, `exhaustion`, `once` (default) and `always`.
impl std::str::FromStr for FaultRule {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(':');
        let selector = parts.next().unwrap_or_default();
        let mut rule = if let Some(kind) = selector.strip_prefix("kind=") {
            let kind = match kind {
                "create" => StatementKind::CreateTable,
                "drop" => StatementKind::DropTable,
                "insert" => StatementKind::Insert,
                "update" => StatementKind::Update,
                "delete" => StatementKind::Delete,
                "select" => StatementKind::Select,
                other => return Err(format!("unknown statement kind {other:?} in {spec:?}")),
            };
            FaultRule::kind(kind)
        } else if let Some(pattern) = selector.strip_prefix("table=") {
            FaultRule::table(pattern)
        } else {
            let n: usize = selector.parse().map_err(|_| {
                format!(
                    "fault selector must be a statement number, kind=…, or table=…, \
                     got {selector:?}"
                )
            })?;
            FaultRule::nth(n)
        };
        let mut always = false;
        for modifier in parts {
            match modifier {
                "transient" => rule = rule.transient(),
                "permanent" => rule = rule.permanent(),
                "exhaustion" => rule = rule.exhausting(),
                "once" => always = false,
                "always" => always = true,
                other => return Err(format!("unknown fault modifier {other:?} in {spec:?}")),
            }
        }
        if !always {
            rule = rule.once();
        }
        Ok(rule)
    }
}

/// A scripted set of [`FaultRule`]s. Install with
/// [`crate::Database::set_fault_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Rules, checked in order; the first match fires.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Plan with one rule.
    pub fn single(rule: FaultRule) -> Self {
        FaultPlan { rules: vec![rule] }
    }

    /// Plan with a rule list.
    pub fn new(rules: Vec<FaultRule>) -> Self {
        FaultPlan { rules }
    }
}

/// A fired (or pending) injection decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Transient or permanent.
    pub fault: FaultKind,
    /// Before or after execution.
    pub site: FaultSite,
    /// 0-based statement sequence number (since plan installation).
    pub statement: usize,
    /// Index of the rule that fired.
    pub rule: usize,
    /// The rule asks for a process abort at the site (crash simulation).
    pub crash: bool,
}

/// Runtime state for a [`FaultPlan`]: statement counter and per-rule
/// fire budgets.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    executed: usize,
    fired: Vec<usize>,
    /// The next `BeforeExec` decision is a retry of the previous
    /// statement: reuse its sequence number instead of advancing.
    retry_pending: bool,
}

impl FaultInjector {
    /// Arm a plan. The statement counter starts at zero here, so `nth`
    /// rules are relative to installation — install right before the
    /// region you want to test.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![0; plan.rules.len()];
        FaultInjector {
            plan,
            executed: 0,
            fired,
            retry_pending: false,
        }
    }

    /// Statements observed since installation.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Declare that the next statement is a **retry** of the one that
    /// just failed: it keeps the failed statement's sequence number
    /// instead of consuming a new one. Without this, every retry would
    /// shift the `nth` index space — a later `nth` rule would fire on
    /// the retry of an *earlier* statement, and a budgeted "transient"
    /// rule would re-arm against fresh sequence numbers, making
    /// transient faults effectively permanent in long sweeps. Budgets
    /// are therefore shared across re-executions: an exhausted `once()`
    /// rule stays exhausted for the retry of the statement it hit.
    pub fn note_retry(&mut self) {
        if self.executed > 0 {
            self.retry_pending = true;
        }
    }

    /// Total faults fired so far.
    pub fn total_fired(&self) -> usize {
        self.fired.iter().sum()
    }

    /// Decide whether the statement about to run (or just run, for
    /// non-`BeforeExec` checks) trips a rule at `site`. Advances the
    /// statement counter only when `site` is `BeforeExec` — call that
    /// site first for each statement; every other site (the WAL crash
    /// points and `AfterExec`) then addresses the *same* sequence
    /// number, so `nth(n)` refers to statement `n` at every site.
    pub fn decide(
        &mut self,
        site: FaultSite,
        kind: StatementKind,
        tables: &[String],
    ) -> Option<Injection> {
        let seq = if site == FaultSite::BeforeExec {
            if self.retry_pending {
                // A retry re-executes the previous statement under its
                // original sequence number; budgets stay consumed.
                self.retry_pending = false;
                self.executed.saturating_sub(1)
            } else {
                let s = self.executed;
                self.executed += 1;
                s
            }
        } else {
            self.executed.saturating_sub(1)
        };
        let (i, rule) = self.plan.rules.iter().enumerate().find(|(i, rule)| {
            rule.site == site
                && rule.matches(seq, kind, tables)
                && rule.budget.is_none_or(|budget| self.fired[*i] < budget)
        })?;
        self.fired[i] += 1;
        Some(Injection {
            fault: rule.fault,
            site,
            statement: seq,
            rule: i,
            crash: rule.crash,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_tables() -> Vec<String> {
        Vec::new()
    }

    #[test]
    fn nth_rule_fires_exactly_once_at_position() {
        let mut inj = FaultInjector::new(FaultPlan::single(FaultRule::nth(2).permanent()));
        for seq in 0..5 {
            let hit = inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables());
            assert_eq!(hit.is_some(), seq == 2, "seq {seq}");
            if let Some(h) = hit {
                assert_eq!(h.fault, FaultKind::Permanent);
                assert_eq!(h.statement, 2);
            }
        }
    }

    #[test]
    fn budget_limits_fires() {
        let mut inj = FaultInjector::new(FaultPlan::single(
            FaultRule::kind(StatementKind::Insert).once(),
        ));
        let a = inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables());
        let b = inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables());
        assert!(a.is_some());
        assert!(b.is_none(), "budget of 1 exhausted");
    }

    #[test]
    fn table_pattern_is_substring_match() {
        let mut inj = FaultInjector::new(FaultPlan::single(FaultRule::table("yx")));
        let miss = inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &["yd".into()]);
        let hit = inj.decide(
            FaultSite::BeforeExec,
            StatementKind::Insert,
            &["s1_yx".into()],
        );
        assert!(miss.is_none());
        assert!(hit.is_some());
    }

    #[test]
    fn kind_and_site_must_match() {
        let mut inj = FaultInjector::new(FaultPlan::single(
            FaultRule::kind(StatementKind::Update).after_exec(),
        ));
        assert!(inj
            .decide(FaultSite::BeforeExec, StatementKind::Update, &no_tables())
            .is_none());
        assert!(inj
            .decide(FaultSite::AfterExec, StatementKind::Update, &no_tables())
            .is_some());
        assert!(inj
            .decide(FaultSite::AfterExec, StatementKind::Insert, &no_tables())
            .is_none());
    }

    #[test]
    fn retry_reuses_sequence_number_and_shares_budget() {
        // Statement 2 trips a once-budgeted transient rule; its retry
        // must NOT fire the nth(3) rule (the index space must not
        // shift) and must NOT re-trip the exhausted transient rule.
        let mut inj = FaultInjector::new(FaultPlan::new(vec![
            FaultRule::nth(2).transient().once(),
            FaultRule::nth(3).permanent(),
        ]));
        for seq in 0..2 {
            assert!(
                inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables())
                    .is_none(),
                "seq {seq}"
            );
        }
        let hit = inj
            .decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables())
            .expect("statement 2 trips the transient rule");
        assert_eq!(hit.statement, 2);
        assert_eq!(hit.fault, FaultKind::Transient);

        // Driver retries statement 2.
        inj.note_retry();
        let retry = inj.decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables());
        assert!(
            retry.is_none(),
            "retry of statement 2 must not hit the exhausted once() rule \
             nor the nth(3) rule: {retry:?}"
        );

        // The *next* statement is still number 3 and trips the
        // permanent rule.
        let hit = inj
            .decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables())
            .expect("statement 3 trips the permanent rule");
        assert_eq!(hit.statement, 3);
        assert_eq!(hit.fault, FaultKind::Permanent);
    }

    #[test]
    fn transient_blip_is_transient_under_retry() {
        // The satellite-1 regression: an unbudgeted nth rule used to
        // re-fire on every retry because the retry consumed a fresh
        // sequence number while the rule re-armed. With shared
        // sequence numbers the rule *does* re-fire (same seq matches),
        // so "transient blip" rules must pair nth with a budget — and
        // with the budget the retry now succeeds.
        let mut inj = FaultInjector::new(FaultPlan::single(FaultRule::nth(0).transient().times(2)));
        assert!(inj
            .decide(FaultSite::BeforeExec, StatementKind::Update, &no_tables())
            .is_some());
        inj.note_retry();
        assert!(
            inj.decide(FaultSite::BeforeExec, StatementKind::Update, &no_tables())
                .is_some(),
            "budget of 2: first retry still faults"
        );
        inj.note_retry();
        assert!(
            inj.decide(FaultSite::BeforeExec, StatementKind::Update, &no_tables())
                .is_none(),
            "budget exhausted: second retry succeeds"
        );
    }

    #[test]
    fn wal_site_nth_addresses_current_statement() {
        // nth(1) at a WAL site fires during statement 1's WAL window,
        // i.e. after its BeforeExec check advanced the counter.
        let mut inj = FaultInjector::new(FaultPlan::single(
            FaultRule::nth(1)
                .at_site(FaultSite::BeforeWalAppend)
                .crashing(),
        ));
        // Statement 0: BeforeExec then its WAL append point.
        assert!(inj
            .decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables())
            .is_none());
        assert!(inj
            .decide(
                FaultSite::BeforeWalAppend,
                StatementKind::Insert,
                &no_tables()
            )
            .is_none());
        // Statement 1: the WAL-site rule fires at its append point.
        assert!(inj
            .decide(FaultSite::BeforeExec, StatementKind::Insert, &no_tables())
            .is_none());
        let hit = inj
            .decide(
                FaultSite::BeforeWalAppend,
                StatementKind::Insert,
                &no_tables(),
            )
            .expect("nth(1) fires at statement 1's WAL append");
        assert_eq!(hit.statement, 1);
        assert!(hit.crash, "crashing() carried through to the injection");
        assert!(hit.site.is_wal());
    }

    #[test]
    fn the_command_line_grammar_parses_selectors_and_modifiers() {
        let rule: FaultRule = "table=YX:permanent:always".parse().unwrap();
        assert_eq!(rule.table_pattern.as_deref(), Some("yx"));
        assert_eq!((rule.fault, rule.budget), (FaultKind::Permanent, None));
        let rule: FaultRule = "kind=insert:exhaustion".parse().unwrap();
        assert_eq!(rule.kind, Some(StatementKind::Insert));
        assert_eq!(rule.fault, FaultKind::ResourceExhaustion);
        assert_eq!(rule.budget, Some(1), "once by default");
        let rule: FaultRule = "12".parse().unwrap();
        assert_eq!((rule.nth, rule.fault), (Some(12), FaultKind::Transient));
        for bad in ["kind=merge", "x", "3:sometimes"] {
            assert!(bad.parse::<FaultRule>().is_err(), "{bad}");
        }
    }

    #[test]
    fn empty_rule_matches_everything() {
        let mut inj = FaultInjector::new(FaultPlan::single(FaultRule::default()));
        assert!(inj
            .decide(
                FaultSite::BeforeExec,
                StatementKind::DropTable,
                &no_tables()
            )
            .is_some());
    }
}
