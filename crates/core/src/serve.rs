//! Online serving: drive a [`Policy`] from streamed request events.
//!
//! The batch simulator ([`crate::sim::simulate`]) replays a fully
//! materialized file × day matrix. This module is the production-shaped
//! counterpart: it *observes* requests one hourly [`stream::Event`] at a
//! time, maintains bounded-memory online statistics, runs the policy at
//! the decision cadence on features assembled **from those statistics
//! alone**, accrues exact [`pricing::Money`] ledgers incrementally, and
//! snapshots everything atomically so a killed server resumes
//! bit-identically (DESIGN.md §10).
//!
//! # Equivalence contract (the keystone)
//!
//! In exact mode ([`ServeConfig::max_tracked`] = `None`) the serving loop
//! reproduces the batch engine bit-for-bit: for the same trace, policy,
//! cadence, and initial tier, [`serve`] returns `daily` / `per_file` /
//! `tier_changes` / `occupancy` ledgers equal to [`crate::sim::simulate`]'s
//! — including runs interrupted by a kill and resumed from a checkpoint.
//! The argument, piece by piece:
//!
//! * the event stream conserves each file's daily totals exactly
//!   (largest-remainder apportionment), so day-binned counts — and thus
//!   billing, done by the batch engine's own [`crate::engine::bill_day`]
//!   sweep — are exact;
//! * the feature encoder reads only the last `window` closed days
//!   positionally plus prefix *sums* (for its normalizing means). The loop
//!   keeps one rolling [`FleetState`] of `window + 1` columns — the last
//!   `window` closed days, refreshed in place each day from the online
//!   statistics, plus the open day, filled straight from the events — and
//!   carries each file's totals from before the window as prior sums
//!   (zero while `day <= window`, `lifetime - ring_sum` after). Prior plus
//!   columns equal the full series' prefix sums, so the features are
//!   bit-identical `f64`s;
//! * the greedy baseline reads the decided day's true counts: the window's
//!   open-day column;
//! * checkpoints cut only at day boundaries, and event expansion is seeded
//!   statelessly per `(file, day)`, so the resumed stream is the exact
//!   suffix of the uninterrupted one.
//!
//! In bounded mode (`max_tracked = Some(k)`) only *decision features*
//! degrade to sketch estimates for untracked files — billing stays exact
//! because the open-day column is filled from the events themselves either
//! way.

use crate::engine::bill_day;
use crate::fleet::FleetState;
use crate::policy::{DecisionContext, Policy};
use crate::sim::SimResult;
use crate::supervise::{IncidentKind, IncidentLog, SuperviseConfig, Supervisor};
use pricing::{CostLedger, CostModel, Money, Tier, TIER_COUNT};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use store::{
    logical_bytes, recover, JobId, JobPhase, Journal, MigrateConfig, MigrationEventKind,
    MigrationJob, Migrator, PoolBuild, StoragePool, TierIo,
};
use stream::{
    rotate, rotation_candidates, BoundedConfig, BoundedStats, DayBatch, Event, EventSource,
    ExactStats, FaultyBackend, FaultySource, FsBackend, Snapshot, SnapshotError, StorageBackend,
    TraceSource, SNAPSHOT_VERSION,
};
use tracegen::{DiurnalProfile, Trace};

/// Configuration for one serving run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Tier every file occupies before day 0.
    pub initial_tier: Tier,
    /// Run the policy every `decide_every` days (must be positive).
    pub decide_every: usize,
    /// Feature window in days; must match the policy's
    /// [`crate::features::FeatureConfig::window`] for RL policies.
    pub window: usize,
    /// Seed for the hourly event expansion (and sketch hashing).
    pub seed: u64,
    /// `None` runs exact per-file statistics (the batch-equivalent mode);
    /// `Some(k)` caps exact tracking at the `k` heaviest files and serves
    /// the long tail from sketch estimates.
    pub max_tracked: Option<usize>,
    /// Write a snapshot every this many decision epochs (0 = never).
    pub checkpoint_every: u64,
    /// Where snapshots are written; also consulted at startup — an existing
    /// readable snapshot there resumes the run.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop after serving this many days (used to emulate a mid-run kill);
    /// `None` serves the full trace horizon.
    pub max_days: Option<usize>,
    /// Rotation depth: how many predecessor snapshots to keep next to the
    /// checkpoint (`checkpoint.json.1`, `.2`, ...). Restore falls back
    /// through them newest-first when the newest snapshot is corrupt. `0`
    /// disables rotation (saves overwrite in place).
    pub checkpoint_keep: usize,
    /// Attach a tiered object store: every decided tier change then runs
    /// through the migration pipeline (copy → verify → commit → delete)
    /// before it is billed. `None` serves ledgers only, as before.
    pub store: Option<StoreConfig>,
}

/// Configuration for the tiered object store attached to a serving run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Where the pool's vdevs (and, for directory pools, the migration
    /// journal) live. Memory pools cannot resume from a checkpoint.
    pub build: PoolBuild,
    /// Migration pipeline tuning (`--migrate-bw`, `--migrate-inflight`).
    pub migrate: MigrateConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            initial_tier: Tier::Hot,
            decide_every: 1,
            window: crate::features::FeatureConfig::default().window,
            seed: 0,
            max_tracked: None,
            checkpoint_every: 0,
            checkpoint_path: None,
            max_days: None,
            checkpoint_keep: 2,
            store: None,
        }
    }
}

/// Why a serving run could not start or finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid configuration (message explains the field).
    Config(String),
    /// A checkpoint failed to save or load.
    Snapshot(SnapshotError),
    /// An existing snapshot is incompatible with this run's configuration.
    SnapshotMismatch(String),
    /// Checkpoints exist but every rotation candidate is corrupt or
    /// unusable — resuming would require manual intervention.
    Unrecoverable(String),
    /// A fault persisted past the supervisor's bounded retry budget.
    RetriesExhausted {
        /// The operation that kept failing.
        what: String,
        /// Retries spent before giving up.
        attempts: u32,
        /// The last observed failure.
        last: String,
    },
    /// The event source could not deliver (or read-repair) an in-horizon
    /// day.
    Stream(String),
    /// The object store is in a state recovery cannot explain, or its
    /// journal disagrees with the billed tier changes — manual
    /// intervention required (CLI exit code 5).
    Pool(String),
    /// The injected crash fired between a migration's copy and commit.
    /// The run aborted *before* billing the day; a restart from the last
    /// checkpoint replays it deterministically (CLI exit code 6).
    InjectedCrash(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
            ServeError::Snapshot(e) => write!(f, "serve snapshot error: {e}"),
            ServeError::SnapshotMismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
            ServeError::Unrecoverable(msg) => write!(f, "unrecoverable checkpoints: {msg}"),
            ServeError::RetriesExhausted { what, attempts, last } => {
                write!(f, "{what} still failing after {attempts} retries: {last}")
            }
            ServeError::Stream(msg) => write!(f, "event stream error: {msg}"),
            ServeError::Pool(msg) => write!(f, "unrecoverable pool error: {msg}"),
            ServeError::InjectedCrash(msg) => write!(f, "injected crash: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> ServeError {
        ServeError::Snapshot(e)
    }
}

/// The outcome of a serving run: the batch-comparable ledgers plus
/// serving-specific bookkeeping.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Ledgers in the batch result shape; in exact mode `daily`,
    /// `per_file`, `tier_changes`, and `occupancy` are bit-identical to
    /// [`crate::sim::simulate`] (wall-clock `decision_millis` legitimately
    /// differ).
    pub result: SimResult,
    /// Decision epochs completed over the life of the run.
    pub epochs: u64,
    /// Day the run resumed from, when a snapshot was restored.
    pub resumed_from_day: Option<usize>,
    /// Snapshots written during this invocation.
    pub checkpoints_written: u64,
    /// Whether the full horizon was served (false when `max_days` cut the
    /// run short — the checkpoint then carries the rest).
    pub days_served_through: usize,
    /// Every recovery action the supervisor took; empty for a clean run,
    /// bit-identical across reruns of the same fault plan.
    pub incidents: IncidentLog,
    /// Decision epochs served by the degraded fallback policy.
    pub degraded_epochs: u64,
    /// Object-store accounting, when [`ServeConfig::store`] was set.
    pub store: Option<StoreReport>,
}

/// What the attached object store did over the run. The headline
/// invariant has already been enforced when this exists:
/// `committed_bytes == billed_change_bytes`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreReport {
    /// Objects resident in the pool at shutdown.
    pub objects: usize,
    /// Migration jobs committed during this invocation.
    pub jobs_committed: u64,
    /// Jobs skipped because the journal already recorded them durable
    /// (day replay after a restart).
    pub jobs_skipped: u64,
    /// Jobs pinned to their source tier after retry exhaustion.
    pub jobs_pinned: u64,
    /// Torn migrations rolled back by startup recovery.
    pub jobs_rolled_back: u64,
    /// Committed migrations rolled forward by startup recovery.
    pub jobs_replayed: u64,
    /// Logical bytes the journal holds commit records for (all time).
    pub committed_bytes: u64,
    /// Logical bytes billed as tier changes (all time, snapshot-carried).
    pub billed_change_bytes: u64,
    /// Virtual ms spent draining migration batches this invocation.
    pub migration_ms: u64,
    /// Per-tier vdev I/O counters for this invocation.
    pub io: [TierIo; TIER_COUNT],
}

/// Mutable serving state; mirrors [`Snapshot`], with the statistics as one
/// enum.
struct ServeState {
    next_day: usize,
    epoch: u64,
    tiers: Vec<Tier>,
    ledger: CostLedger,
    per_file: Vec<Money>,
    occupancy: Vec<[usize; TIER_COUNT]>,
    tier_changes: u64,
    billed_change_bytes: u64,
    decision_millis: Vec<f64>,
    stats: Stats,
}

/// The online statistics serve decides from, in the mode the run asked
/// for.
enum Stats {
    /// Exact per-file windows and sums (`max_tracked = None`).
    Exact(ExactStats),
    /// Exact windows for the heavy hitters, sketches for the tail.
    Bounded(Box<BoundedStats>),
}

impl Stats {
    /// Serve's ingest phase for `day`: rolls `fleet` to the day
    /// ([`FleetState::roll`]) over the `window` closed days the statistics
    /// keep (at least one), drains `events` into the statistics and the
    /// fleet's open-day column, then writes every file's recent days and
    /// lifetime totals from the statistics ([`FleetState::set_history`]).
    /// Bounded statistics stage each file's window in `scratch`, which the
    /// caller keeps across days.
    fn ingest_day(
        &mut self,
        fleet: &mut FleetState,
        catalog: &Trace,
        window: usize,
        day: usize,
        events: &[Event],
        scratch: &mut (Vec<u64>, Vec<u64>),
    ) {
        fleet.roll(catalog, window.max(1), day);
        for event in events {
            match self {
                Stats::Exact(s) => s.ingest(event),
                Stats::Bounded(s) => s.ingest(event),
            }
            fleet.add_day_counts(event.file.index(), day, event.reads, event.writes);
        }
        match self {
            Stats::Exact(exact) => {
                for ix in 0..catalog.files.len() {
                    let Some(s) = exact.file(ix) else { continue };
                    let lifetime = (s.sum_reads(), s.sum_writes());
                    fleet.set_history(ix, day, s.recent_reads(), s.recent_writes(), lifetime);
                }
            }
            Stats::Bounded(bounded) => {
                let (reads, writes) = scratch;
                for (ix, file) in catalog.files.iter().enumerate() {
                    let lifetime = bounded.history_into(file.id.0, reads, writes);
                    fleet.set_history(ix, day, reads, writes, lifetime);
                }
            }
        }
    }
}

impl ServeState {
    fn fresh(cfg: &ServeConfig, fleet: usize) -> ServeState {
        let stats = match cfg.max_tracked {
            None => Stats::Exact(ExactStats::new(cfg.window, fleet)),
            Some(k) => Stats::Bounded(Box::new(BoundedStats::new(BoundedConfig {
                max_tracked: k,
                cms_width: 2048,
                cms_depth: 4,
                window: cfg.window,
                seed: cfg.seed,
            }))),
        };
        ServeState {
            next_day: 0,
            epoch: 0,
            tiers: vec![cfg.initial_tier; fleet],
            ledger: CostLedger::new(),
            per_file: vec![Money::ZERO; fleet],
            occupancy: Vec::new(),
            tier_changes: 0,
            billed_change_bytes: 0,
            decision_millis: Vec::new(),
            stats,
        }
    }

    fn to_snapshot(&self, cfg: &ServeConfig, policy_name: &str) -> Snapshot {
        let (exact, bounded) = match &self.stats {
            Stats::Exact(s) => (Some(s.clone()), None),
            Stats::Bounded(s) => (None, Some(BoundedStats::clone(s))),
        };
        Snapshot {
            version: SNAPSHOT_VERSION,
            policy_name: policy_name.to_owned(),
            seed: cfg.seed,
            next_day: self.next_day,
            epoch: self.epoch,
            decide_every: cfg.decide_every,
            window: cfg.window,
            initial_tier: cfg.initial_tier,
            tiers: self.tiers.clone(),
            ledger: self.ledger.clone(),
            per_file: self.per_file.clone(),
            occupancy: self.occupancy.clone(),
            tier_changes: self.tier_changes,
            billed_change_bytes: self.billed_change_bytes,
            decision_millis: self.decision_millis.clone(),
            exact,
            bounded,
        }
    }
}

/// Validates a restored snapshot against this run's configuration and
/// takes it over as serving state.
fn check_snapshot(
    snap: Snapshot,
    cfg: &ServeConfig,
    policy_name: &str,
    fleet: usize,
) -> Result<ServeState, ServeError> {
    let mismatch = |what: &str| Err(ServeError::SnapshotMismatch(what.to_owned()));
    if snap.policy_name != policy_name {
        return mismatch(&format!("policy {} vs {}", snap.policy_name, policy_name));
    }
    if snap.seed != cfg.seed {
        return mismatch("stream seed differs");
    }
    if snap.decide_every != cfg.decide_every {
        return mismatch("decision cadence differs");
    }
    if snap.window != cfg.window {
        return mismatch("feature window differs");
    }
    if snap.initial_tier != cfg.initial_tier {
        return mismatch("initial tier differs");
    }
    if snap.tiers.len() != fleet {
        return mismatch(&format!("fleet size {} vs {}", snap.tiers.len(), fleet));
    }
    let stats = match (cfg.max_tracked, snap.exact, snap.bounded) {
        (None, Some(exact), _) => Stats::Exact(exact),
        (Some(_), _, Some(bounded)) => Stats::Bounded(Box::new(bounded)),
        (None, None, _) => return mismatch("snapshot lacks exact statistics"),
        (Some(_), _, None) => return mismatch("snapshot lacks bounded statistics"),
    };
    Ok(ServeState {
        next_day: snap.next_day,
        epoch: snap.epoch,
        tiers: snap.tiers,
        ledger: snap.ledger,
        per_file: snap.per_file,
        occupancy: snap.occupancy,
        tier_changes: snap.tier_changes,
        billed_change_bytes: snap.billed_change_bytes,
        decision_millis: snap.decision_millis,
        stats,
    })
}

/// Restores serving state from the newest usable rotation candidate.
///
/// Candidates are tried newest-first (`path`, `path.1`, ...). A candidate
/// is usable when it loads (transient read failures are retried), passes
/// the v2 checksum, and agrees with this run's configuration. Falling back
/// to an older slot is recorded as [`IncidentKind::RolledBack`].
///
/// Returns `Ok(None)` when no candidate file exists (fresh start). When
/// candidates exist but none is usable: the newest candidate's failure is
/// surfaced — as [`ServeError::SnapshotMismatch`] if it was a
/// configuration disagreement (operator error, not data loss), otherwise
/// wrapped in [`ServeError::Unrecoverable`].
fn restore(
    sup: &mut Supervisor,
    backend: &mut dyn StorageBackend,
    path: &Path,
    cfg: &ServeConfig,
    policy_name: &str,
    fleet: usize,
) -> Result<Option<ServeState>, ServeError> {
    let candidates = rotation_candidates(path, cfg.checkpoint_keep);
    let mut newest_failure: Option<ServeError> = None;
    let mut tried = 0usize;
    for (slot, cand) in candidates.iter().enumerate() {
        if !backend.exists(cand) {
            continue;
        }
        tried += 1;
        let loaded = sup.retry_snapshot(0, IncidentKind::LoadRetried, "checkpoint load", || {
            Snapshot::load_with(backend, cand)
        });
        match loaded {
            Ok(snap) => match check_snapshot(snap, cfg, policy_name, fleet) {
                Ok(state) => {
                    if slot > 0 {
                        sup.record(
                            state.next_day,
                            IncidentKind::RolledBack,
                            format!("restored rotation slot {slot} ({})", cand.display()),
                        );
                    }
                    return Ok(Some(state));
                }
                Err(e) => {
                    sup.record(0, IncidentKind::CheckpointMismatch, format!("slot {slot}: {e}"));
                    newest_failure.get_or_insert(e);
                }
            },
            Err(e @ ServeError::RetriesExhausted { .. }) => return Err(e),
            Err(e) => {
                sup.record(0, IncidentKind::CheckpointCorrupt, format!("slot {slot}: {e}"));
                newest_failure.get_or_insert(e);
            }
        }
    }
    match newest_failure {
        None => Ok(None),
        Some(ServeError::SnapshotMismatch(m)) => Err(ServeError::SnapshotMismatch(m)),
        Some(e) => Err(ServeError::Unrecoverable(format!(
            "no usable checkpoint among {tried} candidate(s); newest failure: {e}"
        ))),
    }
}

/// Rotates predecessors down one slot, then writes the snapshot — both
/// under the supervisor's transient-retry policy.
fn write_checkpoint(
    sup: &mut Supervisor,
    backend: &mut dyn StorageBackend,
    snap: &Snapshot,
    keep: usize,
    path: &Path,
    day: usize,
) -> Result<(), ServeError> {
    sup.retry_snapshot(day, IncidentKind::SaveRetried, "checkpoint rotation", || {
        rotate(backend, path, keep)
    })?;
    sup.retry_snapshot(day, IncidentKind::SaveRetried, "checkpoint write", || {
        snap.save_with(backend, path)
    })
}

/// Re-reads one day's canonical batch from the durable log (exempt from
/// delivery faults by construction) after a delivery anomaly.
fn refetch_day(source: &mut dyn EventSource, day: usize) -> Result<Vec<Event>, ServeError> {
    match source.refetch(day) {
        Some(batch) if batch.verifies() => Ok(batch.events),
        Some(_) => Err(ServeError::Stream(format!("read-repair of day {day} failed its digest"))),
        None => Err(ServeError::Stream(format!("day {day} is unavailable from the durable log"))),
    }
}

/// Acquires exactly `day`'s canonical events from a possibly-anomalous
/// delivery stream, recording and recovering every detectable anomaly:
///
/// * stale redelivery (`batch.day < day`) — skipped;
/// * gap (`batch.day > day` or stream ended early) — the future batch is
///   stashed in `lookahead` and the missing day is read-repaired;
/// * digest mismatch — first re-sorted to canonical order (repairs pure
///   reordering locally), else read-repaired from the durable log.
fn acquire_day(
    sup: &mut Supervisor,
    source: &mut dyn EventSource,
    lookahead: &mut Option<DayBatch>,
    day: usize,
) -> Result<Vec<Event>, ServeError> {
    loop {
        let Some(batch) = lookahead.take().or_else(|| source.next_batch()) else {
            sup.record(
                day,
                IncidentKind::DroppedDay,
                "delivery ended before the day; read-repair".to_owned(),
            );
            return refetch_day(source, day);
        };
        if batch.day < day {
            sup.record(
                batch.day,
                IncidentKind::DuplicateDay,
                "stale redelivery skipped".to_owned(),
            );
            continue;
        }
        if batch.day > day {
            sup.record(
                day,
                IncidentKind::DroppedDay,
                format!("delivery jumped to day {}; read-repair", batch.day),
            );
            *lookahead = Some(batch);
            return refetch_day(source, day);
        }
        if batch.verifies() {
            return Ok(batch.events);
        }
        // Pure reordering is repairable locally: restore canonical order
        // (ascending hour, ties by file id) and recheck before paying for
        // a durable-log read.
        let mut sorted = batch;
        sorted.events.sort_by_key(|e| (e.hour, e.file.0));
        if sorted.verifies() {
            sup.record(day, IncidentKind::OutOfOrder, "re-sorted to canonical order".to_owned());
            return Ok(sorted.events);
        }
        sup.record(day, IncidentKind::CorruptBatch, "digest mismatch; read-repair".to_owned());
        return refetch_day(source, day);
    }
}

/// Serves `trace` through `policy` under `cfg`, streaming events and
/// deciding online. Resumes from `cfg.checkpoint_path` when a compatible
/// snapshot exists there (falling back through rotation slots if the
/// newest is corrupt).
///
/// The trace is read only as (a) the event source behind
/// [`stream::TraceSource`] and (b) the size/id catalog — per-day request
/// counts reach the policy exclusively through the online statistics.
///
/// This is the unsupervised spelling: it runs under a quiet
/// [`Supervisor`] (no fault plan, no degraded fallback). To arm the chaos
/// harness or degraded mode, build a [`Supervisor`] with a
/// [`SuperviseConfig`] and call [`Supervisor::run`].
///
/// # Errors
///
/// [`ServeError::Config`] for invalid cadence, [`ServeError::Snapshot`] /
/// [`ServeError::SnapshotMismatch`] / [`ServeError::Unrecoverable`] for
/// checkpoint problems.
pub fn serve(
    trace: &Trace,
    model: &CostModel,
    policy: &mut dyn Policy,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    Supervisor::new(SuperviseConfig::default()).run(trace, model, policy, cfg)
}

/// Live object-store state for one serving run: the pool, its journal,
/// the migrator, and this invocation's counters.
struct StoreRuntime {
    pool: StoragePool,
    journal: Journal,
    migrator: Migrator,
    /// Object key → fleet index, for pinned-job decision overrides.
    file_ix: BTreeMap<u64, usize>,
    jobs_committed: u64,
    jobs_skipped: u64,
    jobs_pinned: u64,
    jobs_rolled_back: u64,
    jobs_replayed: u64,
    migration_ms: u64,
}

/// Opens (or builds) the pool and journal, runs crash recovery, then
/// reconciles the recovered pool against the restored serving state:
/// missing objects are placed at their snapshot tier; an object resident
/// *ahead* of the snapshot is legitimate only when a durable journal
/// record from a to-be-replayed day explains it.
///
/// Recovery and initial placement run before the fault injector is
/// attached — chaos targets the migration pipeline, not the repair path.
fn setup_store(
    sup: &mut Supervisor,
    trace: &Trace,
    sc: &StoreConfig,
    state: &ServeState,
    resumed: bool,
) -> Result<StoreRuntime, ServeError> {
    if resumed && sc.build == PoolBuild::Memory {
        return Err(ServeError::Config(
            "a memory store cannot resume from a checkpoint; use a directory store".to_owned(),
        ));
    }
    let mut pool = StoragePool::build(&sc.build).map_err(|e| ServeError::Pool(e.to_string()))?;
    let mut journal = match sc.build.journal_path() {
        Some(path) => {
            Journal::open_file(&path).map_err(|e| ServeError::Pool(format!("journal: {e}")))?
        }
        None => Journal::in_memory(),
    };
    let recovery = recover(&mut pool, &mut journal).map_err(|e| ServeError::Pool(e.to_string()))?;
    for id in &recovery.rolled_back {
        sup.record(
            id.day,
            IncidentKind::MigrationRolledBack,
            format!("{id}: torn copy rolled back to {}", id.from),
        );
    }
    for id in &recovery.replayed {
        sup.record(
            id.day,
            IncidentKind::MigrationReplayed,
            format!("{id}: durable commit rolled forward to {}", id.to),
        );
    }
    let mut file_ix = BTreeMap::new();
    for (ix, file) in trace.files.iter().enumerate() {
        let key = u64::from(file.id.0);
        file_ix.insert(key, ix);
        let Some(&expected) = state.tiers.get(ix) else { continue };
        match pool.location(key) {
            None => pool
                .put(key, expected, logical_bytes(file.size_gb))
                .map_err(|e| ServeError::Pool(e.to_string()))?,
            Some(t) if t == expected => {}
            Some(t) => {
                let explained = journal.records().iter().any(|r| {
                    r.job.file == key
                        && r.job.to == t
                        && r.job.day >= state.next_day
                        && matches!(r.phase, JobPhase::Committed | JobPhase::Done)
                });
                if !explained {
                    return Err(ServeError::Pool(format!(
                        "object {key:016x} resident on {t} but the snapshot says {expected}, \
                         with no journal record explaining it"
                    )));
                }
            }
        }
    }
    if let Some(inj) = sup.injector() {
        pool.attach_injector(inj);
    }
    Ok(StoreRuntime {
        pool,
        journal,
        migrator: Migrator::new(sc.migrate),
        file_ix,
        jobs_committed: 0,
        jobs_skipped: 0,
        jobs_pinned: 0,
        jobs_rolled_back: recovery.rolled_back.len() as u64,
        jobs_replayed: recovery.replayed.len() as u64,
        migration_ms: 0,
    })
}

/// Drains one decision epoch's tier changes through the migration
/// pipeline *before* billing. Pinned jobs (retry budget exhausted)
/// overwrite the decision back to the source tier, so the billing sweep
/// that follows charges the file where it actually stayed. An injected
/// crash aborts the run before the day is billed — the restart replays
/// the day and the journal dedups whatever had already committed.
fn run_migrations(
    sup: &mut Supervisor,
    rt: &mut StoreRuntime,
    trace: &Trace,
    day: usize,
    decision: &mut [Tier],
    current: &[Tier],
) -> Result<(), ServeError> {
    let mut jobs = Vec::new();
    for ((file, &from), &to) in trace.files.iter().zip(current.iter()).zip(decision.iter()) {
        if from != to {
            jobs.push(MigrationJob {
                id: JobId { day, file: u64::from(file.id.0), from, to },
                logical_bytes: logical_bytes(file.size_gb),
            });
        }
    }
    if jobs.is_empty() {
        return Ok(());
    }
    let out = rt
        .migrator
        .run_batch(&mut rt.pool, &mut rt.journal, &jobs)
        .map_err(|e| ServeError::Pool(e.to_string()))?;
    for ev in &out.events {
        let kind = match ev.kind {
            MigrationEventKind::Retried => IncidentKind::MigrationRetried,
            MigrationEventKind::Pinned => IncidentKind::MigrationPinned,
            MigrationEventKind::RolledBack => IncidentKind::MigrationRolledBack,
            MigrationEventKind::Replayed => IncidentKind::MigrationReplayed,
            MigrationEventKind::Crashed => IncidentKind::MigrationCrashed,
        };
        sup.record_at(ev.at_ms, day, kind, format!("{}: {}", ev.job, ev.detail));
    }
    sup.advance_ms(out.elapsed_ms);
    rt.migration_ms = rt.migration_ms.saturating_add(out.elapsed_ms);
    rt.jobs_committed += out.committed_jobs;
    rt.jobs_skipped += out.skipped_jobs;
    rt.jobs_pinned += out.pinned.len() as u64;
    for id in &out.pinned {
        if let Some(slot) = rt.file_ix.get(&id.file).and_then(|&ix| decision.get_mut(ix)) {
            *slot = id.from;
        }
    }
    if out.crashed {
        return Err(ServeError::InjectedCrash(format!(
            "migration batch on day {day} stopped between copy and commit; \
             restart from the last checkpoint to recover"
        )));
    }
    Ok(())
}

/// The supervised serve loop behind both [`serve`] and
/// [`Supervisor::run`].
pub(crate) fn run_supervised(
    sup: &mut Supervisor,
    trace: &Trace,
    model: &CostModel,
    policy: &mut dyn Policy,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    if cfg.decide_every == 0 {
        return Err(ServeError::Config("decide_every must be positive".to_owned()));
    }
    let fleet = trace.files.len();

    // The storage backend and event source, wrapped in their faulty
    // counterparts when a chaos plan is armed.
    let mut backend: Box<dyn StorageBackend> = match sup.injector() {
        Some(inj) => Box::new(FaultyBackend::new(FsBackend, inj)),
        None => Box::new(FsBackend),
    };

    // Restore from the newest usable rotation candidate, or start fresh.
    let mut resumed_from_day = None;
    let mut state = match &cfg.checkpoint_path {
        Some(path) => match restore(sup, backend.as_mut(), path, cfg, policy.name(), fleet)? {
            Some(state) => {
                resumed_from_day = Some(state.next_day);
                state
            }
            None => ServeState::fresh(cfg, fleet),
        },
        None => ServeState::fresh(cfg, fleet),
    };

    // The object store, when attached: recover torn migrations, reconcile
    // with the restored state, place any missing objects.
    let mut store_rt = match &cfg.store {
        Some(sc) => Some(setup_store(sup, trace, sc, &state, resumed_from_day.is_some())?),
        None => None,
    };

    let end = cfg.max_days.map_or(trace.days, |m| m.min(trace.days));
    let clean = TraceSource::new(trace, DiurnalProfile::web_default(), cfg.seed, state.next_day);
    let mut source: Box<dyn EventSource + '_> = match sup.injector() {
        Some(inj) => Box::new(FaultySource::new(clean, inj)),
        None => Box::new(clean),
    };
    let mut lookahead: Option<DayBatch> = None;
    let mut checkpoints_written = 0u64;
    // Decision-loop buffers, hoisted: the whole fleet as one batch, the
    // decision, the rolling window the policy decides and billing runs
    // on, and one file's window as bounded statistics answer it.
    let batch: Vec<usize> = (0..fleet).collect();
    let mut decision = Vec::with_capacity(fleet);
    let mut rolling = FleetState::default();
    let mut window_scratch = (Vec::with_capacity(cfg.window), Vec::with_capacity(cfg.window));

    for day in state.next_day..end {
        sup.tick();
        // Ingest phase: acquire this day's canonical events (recovering
        // any delivery anomaly) and drain them into the online statistics
        // and the window's exact open-day column billing runs on; then
        // refresh the window's closed days from the statistics.
        let events = acquire_day(sup, source.as_mut(), &mut lookahead, day)?;
        state.stats.ingest_day(&mut rolling, trace, cfg.window, day, &events, &mut window_scratch);

        // Decision phase, at the batch engine's cadence, on features
        // assembled purely from online statistics. The supervisor retries
        // injected policy-step failures and degrades past the budget.
        let decides = day % cfg.decide_every == 0;
        if decides {
            let ctx = DecisionContext {
                day,
                fleet: &rolling,
                model,
                batch: &batch,
                current: &state.tiers,
            };
            let start = Instant::now();
            sup.decide(policy, &ctx, &mut decision)?;
            state.decision_millis.push(start.elapsed().as_secs_f64() * 1e3);

            // Migration phase: physically apply the decision's tier changes
            // through the pipeline before billing, so exhausted jobs can pin
            // their file (and its bill) to the source tier, and an injected
            // crash aborts before the day is billed.
            if let Some(rt) = store_rt.as_mut() {
                run_migrations(sup, rt, trace, day, &mut decision, &state.tiers)?;
            }
            for ((file, from), to) in trace.files.iter().zip(&state.tiers).zip(&decision) {
                if from != to {
                    state.billed_change_bytes =
                        state.billed_change_bytes.saturating_add(logical_bytes(file.size_gb));
                }
            }
        }

        // Billing phase: the batch engine's own sweep, on the exact
        // open-day counts.
        let decided = decides.then_some(decision.as_slice());
        let bill =
            bill_day(&rolling, model, day, &batch, decided, &mut state.tiers, &mut state.per_file);
        state.tier_changes += bill.tier_changes;
        state.ledger.accrue(bill.breakdown);
        state.occupancy.push(bill.occupancy);

        // Close the day; the next event belongs to `day + 1`.
        match &mut state.stats {
            Stats::Exact(s) => s.close_day(),
            Stats::Bounded(s) => s.close_day(),
        }
        state.next_day = day + 1;

        if decides {
            state.epoch += 1;
            if cfg.checkpoint_every > 0 && state.epoch % cfg.checkpoint_every == 0 {
                if let Some(path) = &cfg.checkpoint_path {
                    let snap = state.to_snapshot(cfg, policy.name());
                    write_checkpoint(sup, backend.as_mut(), &snap, cfg.checkpoint_keep, path, day)?;
                    checkpoints_written += 1;
                }
            }
        }
    }

    // The headline invariant, checked before the final checkpoint so a
    // disagreeing ledger is never persisted as clean: every logical byte
    // billed as a tier change must have a durable commit record, and vice
    // versa (DESIGN.md §15).
    let store_report = match &store_rt {
        Some(rt) => {
            let committed = rt.journal.committed_bytes();
            if committed != state.billed_change_bytes {
                return Err(ServeError::Pool(format!(
                    "store/ledger invariant violated: billed {} tier-change byte(s) but the \
                     journal committed {committed}",
                    state.billed_change_bytes
                )));
            }
            Some(StoreReport {
                objects: rt.pool.len(),
                jobs_committed: rt.jobs_committed,
                jobs_skipped: rt.jobs_skipped,
                jobs_pinned: rt.jobs_pinned,
                jobs_rolled_back: rt.jobs_rolled_back,
                jobs_replayed: rt.jobs_replayed,
                committed_bytes: committed,
                billed_change_bytes: state.billed_change_bytes,
                migration_ms: rt.migration_ms,
                io: rt.pool.io_all(),
            })
        }
        None => None,
    };

    // A final snapshot at shutdown so `max_days`-interrupted runs resume
    // from exactly where they stopped, not the last periodic checkpoint.
    if let Some(path) = &cfg.checkpoint_path {
        if cfg.checkpoint_every > 0 {
            let snap = state.to_snapshot(cfg, policy.name());
            write_checkpoint(
                sup,
                backend.as_mut(),
                &snap,
                cfg.checkpoint_keep,
                path,
                state.next_day,
            )?;
            checkpoints_written += 1;
        }
    }

    let decision_millis = state.decision_millis.clone();
    Ok(ServeReport {
        result: SimResult {
            policy_name: policy.name().to_owned(),
            daily: state.ledger.daily().to_vec(),
            per_file: state.per_file,
            decision_millis: decision_millis.clone(),
            shard_decision_millis: vec![decision_millis],
            tier_changes: state.tier_changes,
            occupancy: state.occupancy,
        },
        epochs: state.epoch,
        resumed_from_day,
        checkpoints_written,
        days_served_through: state.next_day,
        incidents: sup.take_incidents(),
        degraded_epochs: sup.degraded_epochs(),
        store: store_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{GreedyPolicy, HotPolicy};
    use crate::sim::{simulate, SimConfig};
    use pricing::PricingPolicy;
    use tracegen::TraceConfig;

    fn setup() -> (Trace, CostModel) {
        (
            Trace::generate(&TraceConfig::small(24, 12, 17)),
            CostModel::new(PricingPolicy::azure_blob_2020()),
        )
    }

    fn batch_cfg() -> SimConfig {
        SimConfig { workers: 1, ..SimConfig::default() }
    }

    #[test]
    fn exact_serve_matches_batch_greedy_bit_for_bit() {
        let (trace, model) = setup();
        let batch = simulate(&trace, &model, &mut GreedyPolicy, &batch_cfg());
        let report = serve(&trace, &model, &mut GreedyPolicy, &ServeConfig::default()).unwrap();
        assert_eq!(report.result.daily, batch.daily);
        assert_eq!(report.result.per_file, batch.per_file);
        assert_eq!(report.result.tier_changes, batch.tier_changes);
        assert_eq!(report.result.occupancy, batch.occupancy);
        assert_eq!(report.epochs, trace.days as u64);
        assert_eq!(report.days_served_through, trace.days);
    }

    #[test]
    fn exact_serve_matches_batch_at_weekly_cadence() {
        let (trace, model) = setup();
        let batch = simulate(
            &trace,
            &model,
            &mut GreedyPolicy,
            &SimConfig { decide_every: 7, ..batch_cfg() },
        );
        let cfg = ServeConfig { decide_every: 7, ..ServeConfig::default() };
        let report = serve(&trace, &model, &mut GreedyPolicy, &cfg).unwrap();
        assert_eq!(report.result.daily, batch.daily);
        assert_eq!(report.result.per_file, batch.per_file);
        assert_eq!(report.result.occupancy, batch.occupancy);
        assert_eq!(report.epochs, 2, "12 days at weekly cadence decide on days 0 and 7");
    }

    #[test]
    fn bounded_serve_bills_exactly_even_with_sketched_features() {
        let (trace, model) = setup();
        let cfg = ServeConfig { max_tracked: Some(4), ..ServeConfig::default() };
        let report = serve(&trace, &model, &mut GreedyPolicy, &cfg).unwrap();
        // Hot baseline ignores features entirely, so bounded mode must be
        // bit-identical there; greedy may legitimately diverge in decisions
        // but its ledgers must still be self-consistent.
        let per_file_total: Money = report.result.per_file.iter().sum();
        assert_eq!(per_file_total, report.result.total_cost());
        let hot_cfg = ServeConfig { max_tracked: Some(4), ..ServeConfig::default() };
        let hot = serve(&trace, &model, &mut HotPolicy, &hot_cfg).unwrap();
        let batch_hot = simulate(&trace, &model, &mut HotPolicy, &batch_cfg());
        assert_eq!(hot.result.daily, batch_hot.daily);
        assert_eq!(hot.result.per_file, batch_hot.per_file);
    }

    #[test]
    fn zero_cadence_is_rejected() {
        let (trace, model) = setup();
        let cfg = ServeConfig { decide_every: 0, ..ServeConfig::default() };
        assert!(matches!(
            serve(&trace, &model, &mut GreedyPolicy, &cfg),
            Err(ServeError::Config(_))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(40))]

        /// Serve's rolling window — rolled, fed the stream's events and
        /// refreshed from exact statistics exactly as the serve loop does —
        /// encodes every file on every morning bit-for-bit like the full
        /// series, for windows shorter than, equal to and longer than the
        /// horizon.
        #[test]
        fn rolling_window_encodes_like_the_full_series(
            counts in proptest::collection::vec(0u64..5_000, 3..60),
            files in 1usize..4,
            seed in 0u64..1_000,
        ) {
            use crate::features::FeatureConfig;
            use crate::fleet::FeatureBlock;
            use tracegen::{FileId, FileSeries};

            let days = counts.len() / files;
            let catalog = Trace {
                days,
                files: (0..files)
                    .map(|k| {
                        let reads = counts[k * days..(k + 1) * days].to_vec();
                        let writes = reads.iter().rev().map(|r| r / 3).collect();
                        FileSeries { id: FileId(k as u32), size_gb: 0.1 * (k + 1) as f64, reads, writes }
                    })
                    .collect(),
            };
            let batch: Vec<usize> = (0..files).collect();
            for window in [1usize, 3, 7] {
                let features = FeatureConfig { window };
                let mut stats = Stats::Exact(ExactStats::new(window, files));
                let mut source = TraceSource::new(&catalog, DiurnalProfile::web_default(), seed, 0);
                let mut fleet = FleetState::default();
                let mut block = FeatureBlock::new();
                let mut scratch = (Vec::new(), Vec::new());
                for day in 0..=days {
                    let events = if day < days {
                        source.next_batch().expect("one batch per day").events
                    } else {
                        Vec::new()
                    };
                    stats.ingest_day(&mut fleet, &catalog, window, day, &events, &mut scratch);
                    for tier in Tier::all() {
                        let current = vec![tier; files];
                        features.encode_block(&fleet.view(&batch, day), &current, &mut block);
                        for (ix, file) in catalog.files.iter().enumerate() {
                            let expect: Vec<u64> =
                                features.encode(file, day, tier).iter().map(|v| v.to_bits()).collect();
                            let got: Vec<u64> =
                                block.matrix().row(ix).iter().map(|v| v.to_bits()).collect();
                            proptest::prop_assert_eq!(got, expect, "window {} day {} file {}", window, day, ix);
                        }
                    }
                    if day < days {
                        let (reads, writes) = catalog.files[0].day(day);
                        proptest::prop_assert_eq!(fleet.day_counts(0, day), (reads, writes));
                    }
                    if let Stats::Exact(s) = &mut stats {
                        s.close_day();
                    }
                }
            }
        }
    }
}
