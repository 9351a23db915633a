//! Graceful degradation for fleets larger than exact state allows.
//!
//! [`BoundedStats`] caps memory at `O(max_tracked * window + sketch)`
//! regardless of fleet size by splitting the fleet into two tiers:
//!
//! * **Tracked tier** — the `max_tracked` heaviest files (by lifetime
//!   request mass, per a deterministic [`SpaceSaving`] summary) carry full
//!   [`FileStats`] windows, so the files that dominate cost are decided on
//!   exact features.
//! * **Sketched tier** — everything else is answered from count-min
//!   sketches: one pair per closed day in the ring (recent-window
//!   channels), one lifetime pair (normalizing means), and one open-day
//!   pair (current-day counts). Estimates never underestimate, so the long
//!   tail reads as "at least this active" rather than silently cold.
//!
//! Membership is re-evaluated at each day close; a file promoted into the
//! tracked tier has its window backfilled from the day-ring sketches. Note
//! that billing in the serve loop is always exact — this type approximates
//! *decision features* only (ISSUE 4, bounded mode contract).

use crate::event::Event;
use crate::sketch::{CountMinSketch, SpaceSaving};
use crate::stats::FileStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Geometry and seeding for a [`BoundedStats`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedConfig {
    /// Number of files tracked with exact windows.
    pub max_tracked: usize,
    /// Count-min sketch width (counters per row).
    pub cms_width: usize,
    /// Count-min sketch depth (independent rows).
    pub cms_depth: usize,
    /// Feature window in days (ring length).
    pub window: usize,
    /// Hash seed for every sketch.
    pub seed: u64,
}

impl BoundedConfig {
    /// A small default geometry: 64 tracked files, 1024×4 sketches.
    #[must_use]
    pub fn small(window: usize, seed: u64) -> BoundedConfig {
        BoundedConfig { max_tracked: 64, cms_width: 1024, cms_depth: 4, window, seed }
    }
}

/// One exactly-tracked heavy hitter.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct TrackedFile {
    id: u32,
    stats: FileStats,
}

/// Read/write count-min sketches for one closed day.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct DaySketch {
    reads: CountMinSketch,
    writes: CountMinSketch,
}

/// Bounded-memory fleet statistics: exact windows for the heavy hitters,
/// sketch estimates for the long tail. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundedStats {
    config: BoundedConfig,
    heavy: SpaceSaving,
    tracked: Vec<TrackedFile>,
    ring: VecDeque<DaySketch>,
    current: DaySketch,
    life_reads: CountMinSketch,
    life_writes: CountMinSketch,
    closed_days: u64,
}

impl BoundedStats {
    /// Fresh bounded statistics under `config` (window and `max_tracked`
    /// clamped to at least 1).
    #[must_use]
    pub fn new(config: BoundedConfig) -> BoundedStats {
        let config = BoundedConfig {
            max_tracked: config.max_tracked.max(1),
            window: config.window.max(1),
            ..config
        };
        let cms =
            |salt: u64| CountMinSketch::new(config.cms_width, config.cms_depth, config.seed ^ salt);
        BoundedStats {
            config,
            // Space-saving needs slack beyond the queried top-k: with
            // exactly k slots, every tail arrival evicts a genuine heavy
            // hitter and inherits its count. 4x is the usual ratio.
            heavy: SpaceSaving::new(config.max_tracked.saturating_mul(4)),
            tracked: Vec::new(),
            ring: VecDeque::new(),
            current: DaySketch { reads: cms(0x0D47), writes: cms(0x1D47) },
            life_reads: cms(0x2D47),
            life_writes: cms(0x3D47),
            closed_days: 0,
        }
    }

    /// The configuration this instance was built with.
    #[must_use]
    pub fn config(&self) -> &BoundedConfig {
        &self.config
    }

    /// Days closed so far.
    #[must_use]
    pub fn closed_days(&self) -> u64 {
        self.closed_days
    }

    /// Ids currently carried with exact windows, ascending.
    #[must_use]
    pub fn tracked_ids(&self) -> Vec<u32> {
        self.tracked.iter().map(|t| t.id).collect()
    }

    /// Whether `id` is in the exactly-tracked tier.
    #[must_use]
    pub fn is_tracked(&self, id: u32) -> bool {
        self.tracked.binary_search_by_key(&id, |t| t.id).is_ok()
    }

    /// Routes one event into the open day.
    pub fn ingest(&mut self, event: &Event) {
        let id = event.file.0;
        self.heavy.add(id, event.reads.saturating_add(event.writes));
        self.current.reads.add(u64::from(id), event.reads);
        self.current.writes.add(u64::from(id), event.writes);
        self.life_reads.add(u64::from(id), event.reads);
        self.life_writes.add(u64::from(id), event.writes);
        if let Some(t) = self
            .tracked
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .and_then(|p| self.tracked.get_mut(p))
        {
            t.stats.record(event.reads, event.writes);
        }
    }

    /// Closes the open day: rolls the day sketches into the ring, closes
    /// every tracked window, and re-evaluates tracked membership against
    /// the heavy-hitter summary (promotions backfill their window from the
    /// ring sketches; demoted files fall back to sketch answers).
    pub fn close_day(&mut self) {
        let mut fresh = self.current.clone();
        fresh.reads.clear();
        fresh.writes.clear();
        let day = std::mem::replace(&mut self.current, fresh);
        self.ring.push_back(day);
        while self.ring.len() > self.config.window {
            self.ring.pop_front();
        }
        for t in &mut self.tracked {
            t.stats.close_day(self.config.window);
        }
        self.closed_days += 1;
        self.retrack();
    }

    /// Aligns the tracked tier with the current heavy-hitter top set.
    fn retrack(&mut self) {
        let mut wanted: Vec<u32> =
            self.heavy.top(self.config.max_tracked).iter().map(|e| e.id).collect();
        wanted.sort_unstable();
        self.tracked.retain(|t| wanted.binary_search(&t.id).is_ok());
        for id in wanted {
            if self.tracked.binary_search_by_key(&id, |t| t.id).is_err() {
                let stats = self.backfill(id);
                let pos = match self.tracked.binary_search_by_key(&id, |t| t.id) {
                    Ok(p) | Err(p) => p,
                };
                self.tracked.insert(pos, TrackedFile { id, stats });
            }
        }
    }

    /// Reconstructs a promoted file's window from the day-ring sketches and
    /// its lifetime sums from the lifetime sketches.
    fn backfill(&self, id: u32) -> FileStats {
        let key = u64::from(id);
        let recent_reads: Vec<u64> = self.ring.iter().map(|d| d.reads.estimate(key)).collect();
        let recent_writes: Vec<u64> = self.ring.iter().map(|d| d.writes.estimate(key)).collect();
        FileStats::from_parts(
            self.config.window,
            recent_reads,
            recent_writes,
            self.closed_days,
            self.life_reads.estimate(key),
            self.life_writes.estimate(key),
        )
    }

    /// Writes `id`'s last `<= window` closed days, oldest first, into
    /// `reads` and `writes` (both cleared first) and returns its lifetime
    /// (read, write) totals: exact if tracked, otherwise ring and lifetime
    /// sketch estimates, which never fall under the truth.
    pub fn history_into(&self, id: u32, reads: &mut Vec<u64>, writes: &mut Vec<u64>) -> (u64, u64) {
        reads.clear();
        writes.clear();
        if let Some(t) = self.tracked_entry(id) {
            reads.extend_from_slice(t.stats.recent_reads());
            writes.extend_from_slice(t.stats.recent_writes());
            return (t.stats.sum_reads(), t.stats.sum_writes());
        }
        let key = u64::from(id);
        reads.extend(self.ring.iter().map(|d| d.reads.estimate(key)));
        writes.extend(self.ring.iter().map(|d| d.writes.estimate(key)));
        (self.life_reads.estimate(key), self.life_writes.estimate(key))
    }

    /// Open-day (read, write) counts for `id` — exact if tracked, otherwise
    /// current-day sketch estimates.
    #[must_use]
    pub fn pending(&self, id: u32) -> (u64, u64) {
        if let Some(t) = self.tracked_entry(id) {
            return t.stats.pending();
        }
        (self.current.reads.estimate(u64::from(id)), self.current.writes.estimate(u64::from(id)))
    }

    /// The tracked-tier entry for `id`, if it currently holds a slot.
    fn tracked_entry(&self, id: u32) -> Option<&TrackedFile> {
        self.tracked.binary_search_by_key(&id, |t| t.id).ok().and_then(|p| self.tracked.get(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::FileId;

    fn ev(ix: u32, reads: u64, writes: u64) -> Event {
        Event { hour: 0, file: FileId(ix), reads, writes, bytes: 1 }
    }

    /// `id`'s (window reads, window writes, lifetime totals).
    fn history(b: &BoundedStats, id: u32) -> (Vec<u64>, Vec<u64>, (u64, u64)) {
        // Stale contents: history_into must clear them.
        let (mut reads, mut writes) = (vec![7], vec![7]);
        let lifetime = b.history_into(id, &mut reads, &mut writes);
        (reads, writes, lifetime)
    }

    fn tiny() -> BoundedStats {
        BoundedStats::new(BoundedConfig {
            max_tracked: 2,
            cms_width: 256,
            cms_depth: 4,
            window: 3,
            seed: 99,
        })
    }

    #[test]
    fn heavy_files_get_exact_windows() {
        let mut b = tiny();
        for day in 0..4u64 {
            b.ingest(&ev(0, 100 + day, 10));
            b.ingest(&ev(1, 50, 5));
            for cold in 2..6 {
                b.ingest(&ev(cold, 1, 0));
            }
            b.close_day();
        }
        assert_eq!(b.tracked_ids(), vec![0, 1], "the two heavy ids win the tracked slots");
        assert!(b.is_tracked(0) && !b.is_tracked(5));
        // Tracked answers are exact.
        assert_eq!(history(&b, 0).0, vec![101, 102, 103]);
        assert_eq!(history(&b, 1), (vec![50; 3], vec![5; 3], (200, 20)));
        assert_eq!(b.pending(0), (0, 0));
    }

    #[test]
    fn sketched_tail_never_underestimates() {
        let mut b = tiny();
        for day in 0..3u64 {
            b.ingest(&ev(0, 1000, 0));
            b.ingest(&ev(1, 900, 0));
            b.ingest(&ev(7, 3 + day, 2));
            b.close_day();
        }
        assert!(!b.is_tracked(7));
        let (win, win_writes, (lr, lw)) = history(&b, 7);
        assert_eq!((win.len(), win_writes.len()), (3, 3));
        for (got, want) in win.iter().zip([3u64, 4, 5]) {
            assert!(*got >= want, "sketch window {got} < true {want}");
        }
        assert!(win_writes.iter().all(|&w| w >= 2));
        assert!(lr >= 12 && lw >= 6);
    }

    #[test]
    fn ring_and_tracked_memory_stay_bounded() {
        let mut b = tiny();
        for day in 0..20u32 {
            for id in 0..50 {
                b.ingest(&ev(id, u64::from(day % 7 + id), 1));
            }
            b.close_day();
            assert!(b.ring.len() <= b.config().window);
            assert!(b.tracked.len() <= b.config().max_tracked);
        }
        assert_eq!(b.closed_days(), 20);
    }

    #[test]
    fn promotion_backfills_from_ring() {
        let mut b = tiny();
        // Two incumbents dominate; id 9 is quiet, then surges.
        for _ in 0..3 {
            b.ingest(&ev(0, 500, 0));
            b.ingest(&ev(1, 400, 0));
            b.ingest(&ev(9, 2, 1));
            b.close_day();
        }
        assert!(!b.is_tracked(9));
        for _ in 0..3 {
            b.ingest(&ev(9, 10_000, 0));
            b.ingest(&ev(0, 500, 0));
            b.close_day();
        }
        assert!(b.is_tracked(9), "surging file must be promoted");
        // Backfilled window exists and respects the no-underestimate bound
        // for the days still in the ring.
        let win = history(&b, 9).0;
        assert!(!win.is_empty() && win.len() <= 3);
        assert!(win.last().copied().unwrap_or(0) >= 10_000);
    }

    #[test]
    fn open_day_pending_reads_through_sketch_and_exact() {
        let mut b = tiny();
        b.ingest(&ev(4, 7, 3));
        let (r, w) = b.pending(4);
        assert!(r >= 7 && w >= 3);
        b.close_day();
        assert!(b.is_tracked(4));
        b.ingest(&ev(4, 2, 2));
        assert_eq!(b.pending(4), (2, 2), "tracked pending is exact");
    }

    /// A `BoundedStats` written before the summary became a heap: a full
    /// heavy-hitter summary (evicted entries carry overestimates), tracked
    /// windows, a full ring and an open day.
    const PINNED: &str = include_str!("../../../tests/golden/bounded_stats.json");

    #[test]
    fn pinned_snapshot_loads_and_saves_byte_identically() {
        let b: BoundedStats = serde_json::from_str(PINNED).unwrap();
        assert_eq!(b.heavy.entries().len(), b.heavy.capacity(), "the pinned summary is full");
        assert!(b.heavy.entries().iter().any(|e| e.overestimate > 0), "and has evicted");
        assert_eq!(serde_json::to_string(&b).unwrap(), PINNED.trim_end());
    }

    #[test]
    fn bounded_stats_serialize_round_trip() {
        let mut b = tiny();
        for day in 0..4u64 {
            b.ingest(&ev(0, 10 + day, 1));
            b.ingest(&ev(3, 2, 2));
            b.close_day();
        }
        b.ingest(&ev(0, 5, 0));
        let json = serde_json::to_string(&b).unwrap();
        let back: BoundedStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }
}
