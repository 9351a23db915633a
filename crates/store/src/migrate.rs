//! The batched, bounded migration pipeline and journal-driven recovery.
//!
//! Each tier change the decision loop produces becomes a job:
//! **copy → verify → commit → delete**, journaled as a two-phase commit
//! (see [`crate::journal`]). The pipeline runs under the supervisor idiom:
//! deterministic exponential backoff on a virtual clock, a per-job retry
//! budget, a per-attempt timeout, and graceful degradation — a job that
//! exhausts its budget is *pinned*: the destination copy is rolled back,
//! an `aborted` record lands, and the caller keeps the file billed on its
//! source tier, so the ledger stays truthful instead of the loop wedging.
//!
//! Throttling is virtual-time shaping, not work deferral: every job of a
//! decision batch completes within its day (billing equivalence with the
//! batch simulator is preserved), but `--migrate-bw` caps the modeled
//! bandwidth and `--migrate-inflight` fixes how many virtual lanes drain
//! the queue, which is what the batch's elapsed virtual time — and every
//! incident timestamp downstream — is computed from.
//!
//! The `CrashCopy` fault site fires *between* a job's verified copy and
//! its commit record: the batch stops with `crashed = true`, leaving a
//! destination copy with only an `intent` record — exactly the torn state
//! [`recover`] rolls back deterministically on restart.

use crate::journal::{JobId, JobPhase, Journal};
use crate::pool::StoragePool;
use crate::StoreError;
use stream::{backoff_ms, FaultSite};

/// Tuning for the migration pipeline (CLI: `--migrate-bw`,
/// `--migrate-inflight`; the retry/backoff family mirrors the
/// supervisor's defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrateConfig {
    /// Bandwidth cap in MiB/s of virtual time; 0 = device speed.
    pub bw_cap_mib_s: u64,
    /// Virtual lanes draining the queue (min 1).
    pub inflight: usize,
    /// Failed attempts tolerated per job before pinning.
    pub retry_budget: u32,
    /// Virtual ms an attempt may take before it counts as failed.
    pub timeout_ms: u64,
    /// Backoff base: attempt `n` waits `base * 2^n` virtual ms...
    pub backoff_base_ms: u64,
    /// ...capped here.
    pub backoff_cap_ms: u64,
}

impl Default for MigrateConfig {
    fn default() -> MigrateConfig {
        MigrateConfig {
            bw_cap_mib_s: 0,
            inflight: 4,
            retry_budget: 8,
            timeout_ms: 120_000,
            backoff_base_ms: 10,
            backoff_cap_ms: 5_000,
        }
    }
}

/// One queued migration: the job id plus the logical bytes it moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationJob {
    /// Identity (day, file, from, to).
    pub id: JobId,
    /// Logical bytes to move (billing/bandwidth unit).
    pub logical_bytes: u64,
}

/// What happened to a migration, for the incident log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrationEventKind {
    /// An attempt failed and the job backed off for another try.
    Retried,
    /// The retry budget ran out; the file stays pinned to its source.
    Pinned,
    /// Recovery rolled a torn copy back to the source tier.
    RolledBack,
    /// Recovery rolled a committed-but-uncleaned job forward.
    Replayed,
    /// The injected crash fired between copy and commit.
    Crashed,
}

impl MigrationEventKind {
    /// Stable name for logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MigrationEventKind::Retried => "migration-retried",
            MigrationEventKind::Pinned => "migration-pinned",
            MigrationEventKind::RolledBack => "migration-rolled-back",
            MigrationEventKind::Replayed => "migration-replayed",
            MigrationEventKind::Crashed => "migration-crashed",
        }
    }
}

/// One pipeline anomaly, timed on the batch's virtual clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationEvent {
    /// Virtual ms since the batch started.
    pub at_ms: u64,
    /// What happened.
    pub kind: MigrationEventKind,
    /// The job involved.
    pub job: JobId,
    /// Human-readable cause.
    pub detail: String,
}

/// The result of draining one decision batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Anomalies, in deterministic order.
    pub events: Vec<MigrationEvent>,
    /// Jobs committed in this batch.
    pub committed_jobs: u64,
    /// Logical bytes committed in this batch.
    pub committed_bytes: u64,
    /// Jobs skipped because the journal already recorded them durable
    /// (day replay after a restart).
    pub skipped_jobs: u64,
    /// Jobs pinned to their source tier after retry exhaustion. The
    /// caller must bill these files on the *source* tier.
    pub pinned: Vec<JobId>,
    /// Virtual ms the batch took (max over lanes).
    pub elapsed_ms: u64,
    /// The injected crash fired: the batch stopped mid-pipeline and the
    /// process must abort without billing this day.
    pub crashed: bool,
}

/// Executes migration batches against a pool + journal.
#[derive(Clone, Copy, Debug)]
pub struct Migrator {
    cfg: MigrateConfig,
}

impl Migrator {
    /// A migrator with the given tuning.
    #[must_use]
    pub fn new(cfg: MigrateConfig) -> Migrator {
        Migrator { cfg: MigrateConfig { inflight: cfg.inflight.max(1), ..cfg } }
    }

    /// The configured tuning (inflight normalized to ≥ 1).
    #[must_use]
    pub fn config(&self) -> &MigrateConfig {
        &self.cfg
    }

    /// Drains one decision batch. Jobs run in the given order; lanes are
    /// filled greedily (least-loaded lane, ties to the lowest index), so
    /// the whole schedule is a pure function of the job list, the pool
    /// state, and the fault plan.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on journal append failures or non-injected vdev
    /// errors outside the retry envelope — the unrecoverable-pool path.
    pub fn run_batch(
        &self,
        pool: &mut StoragePool,
        journal: &mut Journal,
        jobs: &[MigrationJob],
    ) -> Result<BatchOutcome, StoreError> {
        let mut out = BatchOutcome::default();
        let mut lanes = vec![0u64; self.cfg.inflight.max(1)];
        for job in jobs {
            let id = job.id;
            match journal.phase_of(&id) {
                Some(JobPhase::Done) => {
                    // Fully applied before the restart; just assert truth.
                    pool.set_location(id.file, id.to);
                    out.skipped_jobs += 1;
                    continue;
                }
                Some(JobPhase::Committed) => {
                    // Commit is durable; finish the cleanup half.
                    pool.delete_frame(id.from, id.file).map_err(StoreError::Vdev)?;
                    journal
                        .append(id, JobPhase::Done, job.logical_bytes)
                        .map_err(StoreError::Journal)?;
                    pool.set_location(id.file, id.to);
                    out.skipped_jobs += 1;
                    continue;
                }
                _ => {}
            }

            // Least-loaded lane, ties to the lowest index.
            let (lane_ix, lane_start) = lanes
                .iter()
                .copied()
                .enumerate()
                .fold((0usize, u64::MAX), |best, (ix, t)| if t < best.1 { (ix, t) } else { best });
            let mut clock = lane_start;

            journal.append(id, JobPhase::Intent, job.logical_bytes).map_err(StoreError::Journal)?;
            let mut attempt = 0u32;
            let copied = loop {
                match self.attempt(pool, job) {
                    Ok(ms) => {
                        clock = clock.saturating_add(ms);
                        break true;
                    }
                    Err((ms, why)) => {
                        clock = clock.saturating_add(ms);
                        if attempt >= self.cfg.retry_budget {
                            break false;
                        }
                        let pause =
                            backoff_ms(self.cfg.backoff_base_ms, self.cfg.backoff_cap_ms, attempt);
                        clock = clock.saturating_add(pause);
                        out.events.push(MigrationEvent {
                            at_ms: clock,
                            kind: MigrationEventKind::Retried,
                            job: id,
                            detail: format!("attempt {attempt}: {why}; backoff {pause}ms"),
                        });
                        attempt += 1;
                    }
                }
            };

            if copied {
                if pool.fires(FaultSite::CrashCopy) {
                    // Simulated kill between copy and commit: destination
                    // copy resident, journal still at `intent`. The
                    // process aborts; restart recovery rolls this back.
                    out.events.push(MigrationEvent {
                        at_ms: clock,
                        kind: MigrationEventKind::Crashed,
                        job: id,
                        detail: "injected crash between copy and commit".to_owned(),
                    });
                    out.crashed = true;
                    if let Some(slot) = lanes.get_mut(lane_ix) {
                        *slot = clock;
                    }
                    out.elapsed_ms = lanes.iter().copied().max().unwrap_or(0);
                    return Ok(out);
                }
                journal
                    .append(id, JobPhase::Committed, job.logical_bytes)
                    .map_err(StoreError::Journal)?;
                pool.delete_frame(id.from, id.file).map_err(StoreError::Vdev)?;
                journal
                    .append(id, JobPhase::Done, job.logical_bytes)
                    .map_err(StoreError::Journal)?;
                pool.set_location(id.file, id.to);
                out.committed_jobs += 1;
                out.committed_bytes = out.committed_bytes.saturating_add(job.logical_bytes);
            } else {
                // Budget exhausted: roll back and pin to the source tier.
                pool.delete_frame(id.to, id.file).map_err(StoreError::Vdev)?;
                journal.append(id, JobPhase::Aborted, 0).map_err(StoreError::Journal)?;
                pool.set_location(id.file, id.from);
                out.events.push(MigrationEvent {
                    at_ms: clock,
                    kind: MigrationEventKind::Pinned,
                    job: id,
                    detail: format!(
                        "retry budget ({}) exhausted; pinned to {}",
                        self.cfg.retry_budget,
                        id.from.name()
                    ),
                });
                out.pinned.push(id);
            }
            if let Some(slot) = lanes.get_mut(lane_ix) {
                *slot = clock;
            }
        }
        out.elapsed_ms = lanes.iter().copied().max().unwrap_or(0);
        Ok(out)
    }

    /// One copy+verify attempt. Returns the attempt's virtual ms on
    /// success, or `(ms consumed, reason)` on failure with the
    /// destination cleaned up.
    fn attempt(&self, pool: &mut StoragePool, job: &MigrationJob) -> Result<u64, (u64, String)> {
        let id = job.id;
        let cap = self.cfg.bw_cap_mib_s;
        let mut ms = 0u64;
        let src = match pool.read_frame(id.from, id.file, job.logical_bytes, cap) {
            Ok((bytes, t)) => {
                ms = ms.saturating_add(t);
                bytes
            }
            Err(e) => return Err((ms, format!("copy read: {e}"))),
        };
        match pool.write_frame(id.to, id.file, &src, job.logical_bytes, cap) {
            Ok(t) => ms = ms.saturating_add(t),
            Err(e) => return Err((ms, format!("copy write: {e}"))),
        }
        // Verify: re-read the destination and require bit-identity with
        // the source frame (the frame embeds the payload digest, so this
        // subsumes a checksum pass).
        match pool.read_frame(id.to, id.file, job.logical_bytes, cap) {
            Ok((back, t)) => {
                ms = ms.saturating_add(t);
                if back != src {
                    let _ = pool.delete_frame(id.to, id.file);
                    return Err((ms, "verify: destination differs from source".to_owned()));
                }
            }
            Err(e) => {
                let _ = pool.delete_frame(id.to, id.file);
                return Err((ms, format!("verify read: {e}")));
            }
        }
        if ms > self.cfg.timeout_ms {
            let _ = pool.delete_frame(id.to, id.file);
            return Err((ms, format!("timeout: attempt took {ms}ms > {}ms", self.cfg.timeout_ms)));
        }
        Ok(ms)
    }
}

/// What recovery did at startup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Jobs rolled back (dangling `intent`: torn or unverified copies).
    pub rolled_back: Vec<JobId>,
    /// Jobs rolled forward (`committed` without `done`).
    pub replayed: Vec<JobId>,
    /// Whether the journal dropped a torn tail line on open.
    pub dropped_tail: bool,
}

/// Replays the journal against the pool: torn migrations roll back,
/// committed-but-uncleaned migrations roll forward, and every surviving
/// cross-tier duplicate must be explained or the pool is declared
/// inconsistent. Deterministic: jobs are processed in `JobId` order.
///
/// # Errors
///
/// [`StoreError`] on journal/vdev failures or unexplained duplicates —
/// the unrecoverable-pool path (CLI exit code 5).
pub fn recover(
    pool: &mut StoragePool,
    journal: &mut Journal,
) -> Result<RecoveryReport, StoreError> {
    let mut report =
        RecoveryReport { dropped_tail: journal.dropped_tail(), ..RecoveryReport::default() };
    for (id, phase) in journal.latest_phases() {
        match phase {
            JobPhase::Intent => {
                // The copy may be absent, torn, or even complete — without
                // a commit record it never happened. Delete the
                // destination copy and keep the source authoritative.
                pool.delete_frame(id.to, id.file).map_err(StoreError::Vdev)?;
                journal.append(id, JobPhase::Aborted, 0).map_err(StoreError::Journal)?;
                if pool.contains_at(id.from, id.file) {
                    pool.set_location(id.file, id.from);
                } else {
                    return Err(StoreError::Inconsistent(format!(
                        "rollback of {id}: source object missing"
                    )));
                }
                report.rolled_back.push(id);
            }
            JobPhase::Committed => {
                // The commit record is durable: the destination copy
                // verified. Finish the cleanup half idempotently.
                if !pool.contains_at(id.to, id.file) {
                    return Err(StoreError::Inconsistent(format!(
                        "replay of {id}: committed destination object missing"
                    )));
                }
                pool.delete_frame(id.from, id.file).map_err(StoreError::Vdev)?;
                journal.append(id, JobPhase::Done, 0).map_err(StoreError::Journal)?;
                pool.set_location(id.file, id.to);
                report.replayed.push(id);
            }
            JobPhase::Done => {
                if pool.contains_at(id.to, id.file) {
                    pool.set_location(id.file, id.to);
                }
            }
            JobPhase::Aborted => {}
        }
    }
    let leftover = pool.duplicate_keys();
    if !leftover.is_empty() {
        return Err(StoreError::Inconsistent(format!(
            "{} object(s) resident on multiple tiers with no explaining journal record \
             (first: {:016x})",
            leftover.len(),
            leftover.first().copied().unwrap_or(0)
        )));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{frame_object, synth_payload};
    use pricing::Tier;
    use stream::FaultPlan;

    fn job(day: usize, file: u64, from: Tier, to: Tier, bytes: u64) -> MigrationJob {
        MigrationJob { id: JobId { day, file, from, to }, logical_bytes: bytes }
    }

    fn seeded_pool(files: u64) -> StoragePool {
        let mut pool = StoragePool::memory();
        for f in 0..files {
            pool.put(f, Tier::Hot, 1000 + f * 37).unwrap();
        }
        pool
    }

    #[test]
    fn happy_path_commits_every_job() {
        let mut pool = seeded_pool(5);
        let mut journal = Journal::in_memory();
        let jobs: Vec<MigrationJob> =
            (0..5).map(|f| job(0, f, Tier::Hot, Tier::Cool, 1000 + f * 37)).collect();
        let out = Migrator::new(MigrateConfig::default())
            .run_batch(&mut pool, &mut journal, &jobs)
            .unwrap();
        assert_eq!(out.committed_jobs, 5);
        assert!(out.events.is_empty());
        assert!(!out.crashed);
        let expect: u64 = (0..5u64).map(|f| 1000 + f * 37).sum();
        assert_eq!(out.committed_bytes, expect);
        assert_eq!(journal.committed_bytes(), expect);
        for f in 0..5 {
            assert_eq!(pool.location(f), Some(Tier::Cool));
            assert!(!pool.contains_at(Tier::Hot, f), "source must be deleted");
        }
        assert!(out.elapsed_ms > 0);
    }

    #[test]
    fn inflight_lanes_shrink_elapsed_time() {
        let elapsed = |inflight: usize| {
            let mut pool = seeded_pool(8);
            let mut journal = Journal::in_memory();
            let jobs: Vec<MigrationJob> =
                (0..8).map(|f| job(0, f, Tier::Hot, Tier::Archive, 1 << 26)).collect();
            let cfg = MigrateConfig { inflight, ..MigrateConfig::default() };
            Migrator::new(cfg).run_batch(&mut pool, &mut journal, &jobs).unwrap().elapsed_ms
        };
        let serial = elapsed(1);
        let four = elapsed(4);
        assert!(four < serial, "4 lanes ({four}ms) must beat 1 lane ({serial}ms)");
    }

    #[test]
    fn bandwidth_cap_stretches_elapsed_time() {
        let elapsed = |cap: u64| {
            let mut pool = seeded_pool(2);
            let mut journal = Journal::in_memory();
            let jobs = vec![
                job(0, 0, Tier::Hot, Tier::Cool, 1 << 28),
                job(0, 1, Tier::Hot, Tier::Cool, 1 << 28),
            ];
            let cfg = MigrateConfig { bw_cap_mib_s: cap, inflight: 1, ..MigrateConfig::default() };
            Migrator::new(cfg).run_batch(&mut pool, &mut journal, &jobs).unwrap().elapsed_ms
        };
        assert!(elapsed(10) > elapsed(0), "a 10 MiB/s cap must stretch virtual time");
    }

    #[test]
    fn transient_faults_retry_then_commit() {
        let mut pool = seeded_pool(1);
        let plan = FaultPlan { vdev_write_permille: 600, max_faults: 3, ..FaultPlan::quiet(11) };
        pool.attach_injector(plan.injector());
        let mut journal = Journal::in_memory();
        let out = Migrator::new(MigrateConfig::default())
            .run_batch(&mut pool, &mut journal, &[job(0, 0, Tier::Hot, Tier::Cool, 1000)])
            .unwrap();
        assert_eq!(out.committed_jobs, 1, "a budgeted fault plan must not stop the job");
        assert!(
            out.events.iter().all(|e| e.kind == MigrationEventKind::Retried),
            "only retry events expected: {:?}",
            out.events
        );
        assert_eq!(pool.location(0), Some(Tier::Cool));
    }

    #[test]
    fn budget_exhaustion_pins_to_source() {
        let mut pool = seeded_pool(2);
        // Unlimited write faults: the job can never land its copy.
        let plan = FaultPlan { vdev_write_permille: 1000, ..FaultPlan::quiet(13) };
        pool.attach_injector(plan.injector());
        let mut journal = Journal::in_memory();
        let cfg = MigrateConfig { retry_budget: 3, ..MigrateConfig::default() };
        let out = Migrator::new(cfg)
            .run_batch(&mut pool, &mut journal, &[job(0, 0, Tier::Hot, Tier::Cool, 1000)])
            .unwrap();
        assert_eq!(out.committed_jobs, 0);
        assert_eq!(out.pinned, vec![JobId { day: 0, file: 0, from: Tier::Hot, to: Tier::Cool }]);
        let pins = out.events.iter().filter(|e| e.kind == MigrationEventKind::Pinned).count();
        assert_eq!(pins, 1);
        assert_eq!(pool.location(0), Some(Tier::Hot), "file stays on its source tier");
        assert!(!pool.contains_at(Tier::Cool, 0), "partial copies must be cleaned");
        assert_eq!(journal.committed_bytes(), 0);
        assert_eq!(journal.phase_of(&out.pinned[0]).unwrap(), JobPhase::Aborted);
    }

    #[test]
    fn slow_vdev_trips_the_timeout_then_pins() {
        let mut pool = seeded_pool(1);
        let plan = FaultPlan { slow_vdev_permille: 1000, ..FaultPlan::quiet(17) };
        pool.attach_injector(plan.injector());
        let mut journal = Journal::in_memory();
        // Archive write latency 100ms × 25 inflation > 1s timeout.
        let cfg = MigrateConfig { timeout_ms: 1000, retry_budget: 2, ..MigrateConfig::default() };
        let out = Migrator::new(cfg)
            .run_batch(&mut pool, &mut journal, &[job(0, 0, Tier::Hot, Tier::Archive, 1 << 20)])
            .unwrap();
        assert_eq!(out.committed_jobs, 0, "permanently slow vdev must pin");
        assert!(out.events.iter().any(|e| e.detail.contains("timeout")), "{:?}", out.events);
        assert_eq!(pool.location(0), Some(Tier::Hot));
    }

    #[test]
    fn crash_between_copy_and_commit_leaves_torn_state() {
        let mut pool = seeded_pool(3);
        pool.attach_injector(FaultPlan::store_crash(5).injector());
        let mut journal = Journal::in_memory();
        let jobs: Vec<MigrationJob> =
            (0..3).map(|f| job(0, f, Tier::Hot, Tier::Cool, 500)).collect();
        let out = Migrator::new(MigrateConfig::default())
            .run_batch(&mut pool, &mut journal, &jobs)
            .unwrap();
        assert!(out.crashed);
        assert_eq!(out.committed_jobs, 0, "the crash fires before the first commit");
        // Torn state: both copies resident, journal still at intent.
        assert!(pool.contains_at(Tier::Hot, 0) && pool.contains_at(Tier::Cool, 0));
        assert_eq!(journal.phase_of(&jobs[0].id).unwrap(), JobPhase::Intent);
        assert_eq!(journal.committed_bytes(), 0);
    }

    #[test]
    fn recover_rolls_back_torn_and_rolls_forward_committed() {
        let mut pool = seeded_pool(4);
        let mut journal = Journal::in_memory();
        // Job A: dangling intent with a (complete) destination copy.
        let a = JobId { day: 2, file: 0, from: Tier::Hot, to: Tier::Cool };
        journal.append(a, JobPhase::Intent, 700).unwrap();
        let frame = frame_object(700, &synth_payload(0, 700));
        pool.write_frame(Tier::Cool, 0, &frame, 700, 0).unwrap();
        // Job B: committed but the source was never deleted.
        let b = JobId { day: 2, file: 1, from: Tier::Hot, to: Tier::Archive };
        journal.append(b, JobPhase::Intent, 900).unwrap();
        let frame = frame_object(900, &synth_payload(1, 900));
        pool.write_frame(Tier::Archive, 1, &frame, 900, 0).unwrap();
        journal.append(b, JobPhase::Committed, 900).unwrap();

        let report = recover(&mut pool, &mut journal).unwrap();
        assert_eq!(report.rolled_back, vec![a]);
        assert_eq!(report.replayed, vec![b]);
        assert_eq!(pool.location(0), Some(Tier::Hot), "torn copy rolls back");
        assert!(!pool.contains_at(Tier::Cool, 0));
        assert_eq!(pool.location(1), Some(Tier::Archive), "committed copy rolls forward");
        assert!(!pool.contains_at(Tier::Hot, 1));
        assert_eq!(journal.phase_of(&a).unwrap(), JobPhase::Aborted);
        assert_eq!(journal.phase_of(&b).unwrap(), JobPhase::Done);
        assert_eq!(journal.committed_bytes(), 900, "commit counted exactly once");
        assert!(pool.duplicate_keys().is_empty());
        // Recovery is idempotent.
        let again = recover(&mut pool, &mut journal).unwrap();
        assert!(again.rolled_back.is_empty() && again.replayed.is_empty());
    }

    #[test]
    fn unexplained_duplicates_fail_recovery() {
        let mut pool = seeded_pool(1);
        let frame = frame_object(123, &synth_payload(0, 123));
        pool.write_frame(Tier::Archive, 0, &frame, 123, 0).unwrap();
        let mut journal = Journal::in_memory();
        match recover(&mut pool, &mut journal) {
            Err(StoreError::Inconsistent(msg)) => assert!(msg.contains("multiple tiers")),
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn replayed_batch_skips_durable_jobs() {
        // Run a batch, then re-run the same decisions (day replay after
        // restart): nothing is recopied, no bytes double-count.
        let mut pool = seeded_pool(3);
        let mut journal = Journal::in_memory();
        let jobs: Vec<MigrationJob> =
            (0..3).map(|f| job(1, f, Tier::Hot, Tier::Cool, 400)).collect();
        let m = Migrator::new(MigrateConfig::default());
        let first = m.run_batch(&mut pool, &mut journal, &jobs).unwrap();
        assert_eq!(first.committed_jobs, 3);
        let second = m.run_batch(&mut pool, &mut journal, &jobs).unwrap();
        assert_eq!(second.committed_jobs, 0);
        assert_eq!(second.skipped_jobs, 3);
        assert_eq!(second.committed_bytes, 0);
        assert_eq!(journal.committed_bytes(), 1200, "bytes counted exactly once");
    }
}
