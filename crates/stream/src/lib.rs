//! Online ingestion and serving substrate for MiniCost.
//!
//! The batch pipeline (`minicost-core`) pre-materializes the full
//! file × day request matrix and replays it in one shot. A production
//! deployment of the paper's system instead *observes* requests as a
//! stream and decides tiers online from the statistics it has accumulated
//! so far (§5.1: "Everyday, the trained agent runs one time for all data
//! files"). This crate provides the stream-side building blocks:
//!
//! * [`event`] — seeded, time-ordered `(hour, file, reads, writes, bytes)`
//!   request events derived lazily from a trace, one day resident at a
//!   time, never the whole matrix.
//! * [`stats`] — exact per-file sliding-window counters with strictly
//!   bounded memory: `O(window)` per tracked file, independent of the
//!   horizon.
//! * [`sketch`] — a count-min sketch and a space-saving heavy-hitter
//!   summary, the sublinear fallbacks for fleets larger than RAM-resident
//!   exact state.
//! * [`bounded`] — the combined degradation path: exact windows for the
//!   heavy hitters, sketch estimates for the long tail.
//! * [`checkpoint`] — a versioned, FNV-checksummed snapshot of the whole
//!   serving state (statistics, ledgers, cursors) written atomically
//!   through a [`checkpoint::StorageBackend`], with rotation helpers, so a
//!   killed server restarts bit-identically (DESIGN.md §10) and a corrupt
//!   snapshot is detected rather than resumed (DESIGN.md §11).
//! * [`fault`] — the seeded, deterministic chaos layer: a serializable
//!   [`fault::FaultPlan`] drives injectable wrappers that corrupt the
//!   checkpoint path ([`fault::FaultyBackend`]) and the event delivery
//!   path ([`fault::FaultySource`]), replayably.
//!
//! The decision loop that drives a `Policy` from these statistics lives in
//! `minicost-core` (`serve` module); this crate deliberately depends only
//! on `minicost-trace` and `minicost-pricing` so the dependency graph
//! stays acyclic.

#![warn(missing_docs)]
// Library code must surface failures as values (L2 no-panic-in-libs); tests
// may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod bounded;
pub mod checkpoint;
pub mod event;
pub mod fault;
pub mod sketch;
pub mod stats;

pub use bounded::{BoundedConfig, BoundedStats};
pub use checkpoint::{
    fnv1a64, rotate, rotated_path, rotation_candidates, FsBackend, Snapshot, SnapshotError,
    StorageBackend, SNAPSHOT_VERSION,
};
pub use event::{digest_events, DayBatch, Event, EventSource, EventStream, TraceSource};
pub use fault::{
    FaultInjector, FaultPlan, FaultSite, FaultyBackend, FaultySource, SharedInjector, FAULT_SITES,
};
pub use sketch::{CountMinSketch, SpaceSaving, SpaceSavingEntry};
pub use stats::{ExactStats, FileStats};

/// A splitmix64-style finalizer: the stable 64-bit mixer every seeded hash
/// in this crate derives from, so nothing depends on the process-seeded
/// std hasher.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The deterministic retry backoff shared by the serve supervisor and the
/// store's migrator: the delay before retry `attempt` (0-based) is
/// `base_ms · 2^attempt`, saturating, capped at `cap_ms`. Delays are
/// virtual milliseconds, so replays of one fault plan agree bit for bit.
#[must_use]
pub fn backoff_ms(base_ms: u64, cap_ms: u64, attempt: u32) -> u64 {
    let factor = 1u64.checked_shl(attempt).unwrap_or(u64::MAX);
    base_ms.saturating_mul(factor).min(cap_ms)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_is_stable_and_spreading() {
        // Fixed regression anchors: these values must never change, or every
        // sketch cell assignment (and thus every bounded-mode decision)
        // silently shifts.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let distinct: std::collections::BTreeSet<u64> = (0..1000u64).map(mix64).collect();
        assert_eq!(distinct.len(), 1000, "mixer must be injective on small inputs");
    }
}
