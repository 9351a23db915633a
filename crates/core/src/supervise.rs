//! Supervision for the serving loop: bounded retries, deterministic
//! backoff, degraded mode, and incident accounting.
//!
//! The [`Supervisor`] is the self-healing shell around
//! [`crate::serve::serve`]. It owns the chaos injector (when a
//! [`FaultPlan`] is armed), the retry/backoff budget for transient
//! checkpoint faults, the fallback policy that keeps decisions flowing
//! when the primary policy's step fails past the retry budget, and the
//! [`IncidentLog`] every recovery action is recorded in.
//!
//! Time here is **virtual**: the backoff clock is a plain `u64`
//! millisecond counter advanced by the deterministic backoff schedule
//! (`base · 2^attempt`, capped), never by the wall clock. Two runs of the
//! same plan therefore produce bit-identical incident logs — the property
//! `tests/chaos_serve.rs` pins (DESIGN.md §11).
//!
//! Recoverability is an arithmetic fact, not a hope: a [`FaultPlan`] with
//! `max_faults` below [`SuperviseConfig::max_retries`] can never exhaust a
//! retry loop, because every retry consults the injector again and each
//! injected failure spends budget. The default allowance (8) exceeds the
//! standard chaos plan's budget (6) for exactly this reason.

use crate::policy::{ColdPolicy, DecisionContext, GreedyPolicy, HotPolicy, Policy};
use crate::serve::{ServeConfig, ServeError, ServeReport};
use pricing::{CostModel, Tier};
use std::fmt;
use stream::{backoff_ms, FaultPlan, FaultSite, SharedInjector, SnapshotError};
use tracegen::Trace;

/// The fallback policy the supervisor pins decisions to when the primary
/// policy's step fails past the retry budget (degraded mode). Restricted
/// to the trivially-available baselines so degraded mode never depends on
/// trained state that may itself be unavailable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Pin every file to the hot tier (the paper's availability-first
    /// baseline — never increases read latency).
    Hot,
    /// Pin every file to the cold tier.
    Cold,
    /// Decide with the greedy day-cost heuristic.
    Greedy,
}

impl DegradedPolicy {
    /// Parses a CLI spelling (`hot` / `cold` / `greedy`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid spellings otherwise.
    pub fn parse(s: &str) -> Result<DegradedPolicy, String> {
        match s {
            "hot" => Ok(DegradedPolicy::Hot),
            "cold" => Ok(DegradedPolicy::Cold),
            "greedy" => Ok(DegradedPolicy::Greedy),
            other => Err(format!("unknown degraded policy {other:?} (expected hot|cold|greedy)")),
        }
    }

    /// The canonical spelling (also the constructed policy's name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegradedPolicy::Hot => "hot",
            DegradedPolicy::Cold => "cold",
            DegradedPolicy::Greedy => "greedy",
        }
    }

    /// Instantiates the fallback policy.
    fn build(self) -> Box<dyn Policy> {
        match self {
            DegradedPolicy::Hot => Box::new(HotPolicy),
            DegradedPolicy::Cold => Box::new(ColdPolicy),
            DegradedPolicy::Greedy => Box::new(GreedyPolicy),
        }
    }
}

/// Configuration of the supervision shell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// The chaos schedule to replay; `None` (the default) serves cleanly.
    pub fault_plan: Option<FaultPlan>,
    /// Retries allowed per failing operation before it is declared
    /// exhausted. Keep this above the armed plan's `max_faults` to make
    /// the plan provably recoverable.
    pub max_retries: u32,
    /// First backoff delay, in virtual milliseconds.
    pub backoff_base_ms: u64,
    /// Ceiling on one backoff delay, in virtual milliseconds.
    pub backoff_cap_ms: u64,
    /// Fallback policy for degraded mode; `None` means a policy step that
    /// fails past the retry budget aborts the run instead.
    pub degraded: Option<DegradedPolicy>,
}

impl Default for SuperviseConfig {
    fn default() -> SuperviseConfig {
        SuperviseConfig {
            fault_plan: None,
            max_retries: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 5_000,
            degraded: None,
        }
    }
}

/// What kind of recovery action an [`Incident`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum IncidentKind {
    /// A checkpoint write failed transiently and was retried.
    SaveRetried,
    /// A checkpoint read failed transiently and was retried.
    LoadRetried,
    /// A restore candidate failed checksum/parse validation.
    CheckpointCorrupt,
    /// A restore candidate disagreed with this run's configuration.
    CheckpointMismatch,
    /// Restore fell back to an older rotation slot.
    RolledBack,
    /// A stale day was redelivered and skipped.
    DuplicateDay,
    /// A day was missing from delivery and read-repaired.
    DroppedDay,
    /// A day arrived out of order and was re-sorted locally.
    OutOfOrder,
    /// A day failed its digest and was read-repaired.
    CorruptBatch,
    /// A policy decision step failed and was retried.
    PolicyRetried,
    /// A decision epoch was pinned to the degraded fallback policy.
    Degraded,
    /// A migration attempt failed and was retried after backoff.
    MigrationRetried,
    /// A migration exhausted its retry budget; the file is pinned to its
    /// source tier and billed there.
    MigrationPinned,
    /// Store recovery rolled a torn (uncommitted) migration back.
    MigrationRolledBack,
    /// Store recovery rolled a committed-but-uncleaned migration forward.
    MigrationReplayed,
    /// The injected crash fired between a migration's copy and commit.
    MigrationCrashed,
}

/// Every incident kind, in the fixed order summaries report them in.
pub const INCIDENT_KINDS: [IncidentKind; 16] = [
    IncidentKind::SaveRetried,
    IncidentKind::LoadRetried,
    IncidentKind::CheckpointCorrupt,
    IncidentKind::CheckpointMismatch,
    IncidentKind::RolledBack,
    IncidentKind::DuplicateDay,
    IncidentKind::DroppedDay,
    IncidentKind::OutOfOrder,
    IncidentKind::CorruptBatch,
    IncidentKind::PolicyRetried,
    IncidentKind::Degraded,
    IncidentKind::MigrationRetried,
    IncidentKind::MigrationPinned,
    IncidentKind::MigrationRolledBack,
    IncidentKind::MigrationReplayed,
    IncidentKind::MigrationCrashed,
];

impl IncidentKind {
    /// Stable kebab-case label (used in summaries and CI greps).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::SaveRetried => "save-retried",
            IncidentKind::LoadRetried => "load-retried",
            IncidentKind::CheckpointCorrupt => "checkpoint-corrupt",
            IncidentKind::CheckpointMismatch => "checkpoint-mismatch",
            IncidentKind::RolledBack => "rolled-back",
            IncidentKind::DuplicateDay => "duplicate-day",
            IncidentKind::DroppedDay => "dropped-day",
            IncidentKind::OutOfOrder => "out-of-order",
            IncidentKind::CorruptBatch => "corrupt-batch",
            IncidentKind::PolicyRetried => "policy-retried",
            IncidentKind::Degraded => "degraded",
            IncidentKind::MigrationRetried => "migration-retried",
            IncidentKind::MigrationPinned => "migration-pinned",
            IncidentKind::MigrationRolledBack => "migration-rolled-back",
            IncidentKind::MigrationReplayed => "migration-replayed",
            IncidentKind::MigrationCrashed => "migration-crashed",
        }
    }
}

/// One recovery action, stamped with the virtual clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incident {
    /// Virtual milliseconds since the run started.
    pub at_ms: u64,
    /// The serving day the incident concerns (0 for restore-time
    /// incidents, which precede day replay).
    pub day: usize,
    /// What happened.
    pub kind: IncidentKind,
    /// Free-form detail (site, slot, attempt number).
    pub detail: String,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}ms day {}] {}: {}", self.at_ms, self.day, self.kind.name(), self.detail)
    }
}

/// The ordered record of every recovery action in one run. Deterministic
/// for a fixed [`FaultPlan`]: same plan, same log, bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
}

impl IncidentLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> IncidentLog {
        IncidentLog::default()
    }

    /// Appends one incident.
    pub fn record(&mut self, incident: Incident) {
        self.incidents.push(incident);
    }

    /// Number of incidents recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// Whether the run was incident-free.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Iterates incidents in record order.
    pub fn iter(&self) -> std::slice::Iter<'_, Incident> {
        self.incidents.iter()
    }

    /// How many incidents of `kind` were recorded.
    #[must_use]
    pub fn count(&self, kind: IncidentKind) -> usize {
        self.incidents.iter().filter(|i| i.kind == kind).count()
    }

    /// A one-line roll-up like `dropped-day×2, policy-retried×8,
    /// degraded×1` (empty string for an incident-free run).
    #[must_use]
    pub fn summary(&self) -> String {
        let parts: Vec<String> = INCIDENT_KINDS
            .iter()
            .filter_map(|&kind| {
                let n = self.count(kind);
                (n > 0).then(|| format!("{}×{n}", kind.name()))
            })
            .collect();
        parts.join(", ")
    }
}

impl fmt::Display for IncidentLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// The self-healing shell around the serve loop: owns the injector, the
/// retry/backoff budget, the degraded-mode fallback, and the incident log.
pub struct Supervisor {
    cfg: SuperviseConfig,
    injector: Option<SharedInjector>,
    fallback: Option<Box<dyn Policy>>,
    now_ms: u64,
    incidents: IncidentLog,
    degraded_epochs: u64,
}

impl Supervisor {
    /// Builds a supervisor, arming the chaos injector and the fallback
    /// policy `cfg` asks for.
    #[must_use]
    pub fn new(cfg: SuperviseConfig) -> Supervisor {
        let injector = cfg.fault_plan.as_ref().map(FaultPlan::injector);
        let fallback = cfg.degraded.map(DegradedPolicy::build);
        Supervisor {
            cfg,
            injector,
            fallback,
            now_ms: 0,
            incidents: IncidentLog::new(),
            degraded_epochs: 0,
        }
    }

    /// Serves `trace` through `policy` under supervision. Equivalent to
    /// [`crate::serve::serve`] when the config is quiet (no plan, no
    /// degraded fallback); with a plan armed, injected faults are recovered
    /// per DESIGN.md §11 and recorded in [`ServeReport::incidents`].
    ///
    /// # Errors
    ///
    /// Everything [`crate::serve::serve`] returns, plus
    /// [`ServeError::RetriesExhausted`] when a fault outlives the retry
    /// budget, [`ServeError::Unrecoverable`] when no rotation candidate
    /// restores, and [`ServeError::Stream`] when read-repair itself fails.
    pub fn run(
        &mut self,
        trace: &Trace,
        model: &CostModel,
        policy: &mut dyn Policy,
        cfg: &ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        // Reset per-run state so one supervisor can drive several runs
        // (e.g. kill + restore in the soak test) with a fresh clock/log
        // each time, while the injector keeps its consultation counters —
        // a restarted process resumes the *same* fault schedule.
        self.now_ms = 0;
        self.incidents = IncidentLog::new();
        self.degraded_epochs = 0;
        crate::serve::run_supervised(self, trace, model, policy, cfg)
    }

    /// The shared injector, when a plan is armed.
    pub(crate) fn injector(&self) -> Option<SharedInjector> {
        self.injector.clone()
    }

    /// Advances the virtual clock by one tick (called once per served day
    /// so incident timestamps are monotone across days).
    pub(crate) fn tick(&mut self) {
        self.now_ms += 1;
    }

    /// Records one incident at the current virtual time.
    pub(crate) fn record(&mut self, day: usize, kind: IncidentKind, detail: String) {
        self.incidents.record(Incident { at_ms: self.now_ms, day, kind, detail });
    }

    /// Records one incident at an explicit offset past the current virtual
    /// time (migration batches report event times relative to their start).
    pub(crate) fn record_at(
        &mut self,
        offset_ms: u64,
        day: usize,
        kind: IncidentKind,
        detail: String,
    ) {
        self.incidents.record(Incident {
            at_ms: self.now_ms.saturating_add(offset_ms),
            day,
            kind,
            detail,
        });
    }

    /// Advances the virtual clock by a migration batch's elapsed time, so
    /// later incidents sort after the batch's own events.
    pub(crate) fn advance_ms(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
    }

    /// Runs a snapshot operation under the transient-retry policy: each
    /// transient failure ([`SnapshotError::is_transient`]) is recorded and
    /// retried after a deterministic backoff, up to `max_retries` times;
    /// non-transient failures surface immediately as
    /// [`ServeError::Snapshot`].
    pub(crate) fn retry_snapshot<T>(
        &mut self,
        day: usize,
        kind: IncidentKind,
        what: &str,
        mut op: impl FnMut() -> Result<T, SnapshotError>,
    ) -> Result<T, ServeError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(value) => return Ok(value),
                Err(e) if e.is_transient() && attempt < self.cfg.max_retries => {
                    let delay =
                        backoff_ms(self.cfg.backoff_base_ms, self.cfg.backoff_cap_ms, attempt);
                    self.record(day, kind, format!("{what}: {e}; retry {attempt} after {delay}ms"));
                    self.now_ms = self.now_ms.saturating_add(delay);
                    attempt += 1;
                }
                Err(e) if e.is_transient() => {
                    return Err(ServeError::RetriesExhausted {
                        what: what.to_owned(),
                        attempts: attempt,
                        last: e.to_string(),
                    });
                }
                Err(e) => return Err(ServeError::Snapshot(e)),
            }
        }
    }

    /// One supervised policy decision into `out`: consults the injector's
    /// `PolicyStep` site before each attempt, retries with backoff on
    /// injected failures, and past the retry budget either pins the epoch
    /// to the degraded fallback policy or aborts.
    pub(crate) fn decide(
        &mut self,
        policy: &mut dyn Policy,
        ctx: &DecisionContext<'_>,
        out: &mut Vec<Tier>,
    ) -> Result<(), ServeError> {
        let mut attempt = 0u32;
        loop {
            let fired = match &self.injector {
                Some(inj) => inj.borrow_mut().fires(FaultSite::PolicyStep),
                None => false,
            };
            if !fired {
                policy.decide_batch_into(ctx, out);
                return Ok(());
            }
            if attempt < self.cfg.max_retries {
                let delay = backoff_ms(self.cfg.backoff_base_ms, self.cfg.backoff_cap_ms, attempt);
                self.record(
                    ctx.day,
                    IncidentKind::PolicyRetried,
                    format!("injected policy failure; retry {attempt} after {delay}ms"),
                );
                self.now_ms = self.now_ms.saturating_add(delay);
                attempt += 1;
                continue;
            }
            // Retry budget exhausted: degrade if a fallback is configured,
            // abort otherwise. Take/restore the box to keep the borrow
            // checker out of the incident recording.
            return match self.fallback.take() {
                Some(mut fb) => {
                    self.degraded_epochs += 1;
                    self.record(
                        ctx.day,
                        IncidentKind::Degraded,
                        format!("epoch pinned to fallback policy {:?}", fb.name()),
                    );
                    fb.decide_batch_into(ctx, out);
                    self.fallback = Some(fb);
                    Ok(())
                }
                None => Err(ServeError::RetriesExhausted {
                    what: "policy step".to_owned(),
                    attempts: attempt,
                    last: "injected policy failure".to_owned(),
                }),
            };
        }
    }

    /// Hands the accumulated incident log to the report.
    pub(crate) fn take_incidents(&mut self) -> IncidentLog {
        std::mem::take(&mut self.incidents)
    }

    /// Decision epochs served by the degraded fallback this run.
    pub(crate) fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let cfg = SuperviseConfig::default();
        let backoff = |attempt| backoff_ms(cfg.backoff_base_ms, cfg.backoff_cap_ms, attempt);
        assert_eq!(backoff(0), 10);
        assert_eq!(backoff(1), 20);
        assert_eq!(backoff(2), 40);
        assert_eq!(backoff(8), 2_560);
        assert_eq!(backoff(9), 5_000, "delay must cap");
        assert_eq!(backoff(200), 5_000, "huge attempts must not overflow");
    }

    #[test]
    fn degraded_policy_parses_canonical_spellings_only() {
        assert_eq!(DegradedPolicy::parse("hot"), Ok(DegradedPolicy::Hot));
        assert_eq!(DegradedPolicy::parse("cold"), Ok(DegradedPolicy::Cold));
        assert_eq!(DegradedPolicy::parse("greedy"), Ok(DegradedPolicy::Greedy));
        assert!(DegradedPolicy::parse("optimal").is_err(), "non-baselines are not fallbacks");
        for p in [DegradedPolicy::Hot, DegradedPolicy::Cold, DegradedPolicy::Greedy] {
            assert_eq!(p.build().name(), p.name());
        }
    }

    #[test]
    fn incident_log_summary_is_ordered_and_counted() {
        let mut log = IncidentLog::new();
        assert!(log.is_empty());
        assert_eq!(log.summary(), "");
        for _ in 0..2 {
            log.record(Incident {
                at_ms: 1,
                day: 3,
                kind: IncidentKind::PolicyRetried,
                detail: "x".to_owned(),
            });
        }
        log.record(Incident {
            at_ms: 2,
            day: 3,
            kind: IncidentKind::DroppedDay,
            detail: "y".to_owned(),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(IncidentKind::PolicyRetried), 2);
        // Summary follows INCIDENT_KINDS order, not record order.
        assert_eq!(log.summary(), "dropped-day×1, policy-retried×2");
        assert_eq!(log.to_string(), log.summary());
    }

    #[test]
    fn transient_retries_are_bounded_and_logged() {
        let mut sup =
            Supervisor::new(SuperviseConfig { max_retries: 3, ..SuperviseConfig::default() });
        let mut calls = 0u32;
        let out: Result<(), ServeError> =
            sup.retry_snapshot(5, IncidentKind::SaveRetried, "unit save", || {
                calls += 1;
                Err(SnapshotError::Io("flaky".to_owned()))
            });
        assert_eq!(calls, 4, "initial attempt plus max_retries");
        match out {
            Err(ServeError::RetriesExhausted { what, attempts, .. }) => {
                assert_eq!(what, "unit save");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(sup.incidents.count(IncidentKind::SaveRetried), 3);
        // Virtual clock advanced by 10 + 20 + 40, never by wall time.
        assert_eq!(sup.now_ms, 70);
    }

    #[test]
    fn non_transient_errors_skip_the_retry_loop() {
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let mut calls = 0u32;
        let out: Result<(), ServeError> =
            sup.retry_snapshot(0, IncidentKind::LoadRetried, "unit load", || {
                calls += 1;
                Err(SnapshotError::Corrupt("doctored".to_owned()))
            });
        assert_eq!(calls, 1, "corruption never clears on retry");
        assert!(matches!(out, Err(ServeError::Snapshot(SnapshotError::Corrupt(_)))));
        assert!(sup.incidents.is_empty(), "no retry incident for a permanent failure");
    }

    #[test]
    fn eventual_success_returns_the_value() {
        let mut sup = Supervisor::new(SuperviseConfig::default());
        let mut failures_left = 2u32;
        let out = sup.retry_snapshot(1, IncidentKind::SaveRetried, "unit save", || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(SnapshotError::Sync("lying fsync".to_owned()))
            } else {
                Ok(42u32)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(sup.incidents.count(IncidentKind::SaveRetried), 2);
    }
}
