//! Columnar (struct-of-arrays) fleet state for the decision hot loop.
//!
//! At fleet scale the decision sweep is memory-bound, so simulate and serve
//! run on a [`FleetState`]: one dense, `FileId`-indexed block per column
//! (sizes, read series, write series), file-major with a fixed `days`
//! stride so one file's days are a plain contiguous slice.
//!
//! Policies observe the fleet through a borrowed [`FleetView`] — an
//! immutable window over one decision batch — and batch featurization
//! lands in a [`FeatureBlock`], a reusable `files x state_dim` matrix fed
//! straight to the network forward pass. A view borrows the fleet for one
//! decision call and cannot outlive it, so policies can never retain stale
//! fleet pointers across days (DESIGN.md §14).

use crate::features::Observed;
use nn::Matrix;
use tracegen::{FileId, Trace};

/// Dense struct-of-arrays fleet state.
///
/// Row `ix` (a file's global index) owns `sizes[ix]` and the half-open
/// slices `reads[ix*days .. (ix+1)*days]` / `writes[..]` — file-major
/// layout, so per-file history reads are contiguous and the per-day
/// billing sweep walks each column with unit stride per file.
///
/// Column `c` holds absolute day `first_day + c`: a [`Trace`]'s fleet holds
/// every full series from day 0; serve's rolling window (`roll`)
/// holds recent days plus per-file prior totals (DESIGN.md §10).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetState {
    /// Number of day columns every file holds (the column stride).
    days: usize,
    /// Absolute day of column 0.
    first_day: usize,
    /// File identities, indexed by global file index.
    ids: Vec<FileId>,
    /// File sizes, indexed by global file index.
    /// xtask-unit: GB
    sizes: Vec<f64>,
    /// Daily read counts, file-major (`ix * days + column`).
    /// xtask-unit: ops
    reads: Vec<u64>,
    /// Daily write counts, file-major (`ix * days + column`).
    /// xtask-unit: ops
    writes: Vec<u64>,
    /// Per-file (read, write) totals over the days before `first_day`;
    /// empty for a fleet built from a trace.
    /// xtask-unit: ops
    prior: Vec<(u64, u64)>,
}

impl FleetState {
    /// Builds the columnar state from a row-major [`Trace`].
    ///
    /// Panics if any series length disagrees with the trace horizon —
    /// the same shapes the day loop would reject later, caught at
    /// construction instead.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> FleetState {
        let days = trace.days;
        let n = trace.files.len();
        let mut ids = Vec::with_capacity(n);
        let mut sizes = Vec::with_capacity(n);
        let mut reads = Vec::with_capacity(n * days);
        let mut writes = Vec::with_capacity(n * days);
        for file in &trace.files {
            assert_eq!(file.days(), days, "series length must equal the trace horizon");
            ids.push(file.id);
            sizes.push(file.size_gb);
            reads.extend_from_slice(&file.reads);
            writes.extend_from_slice(&file.writes);
        }
        FleetState { days, ids, sizes, reads, writes, ..FleetState::default() }
    }

    /// Re-anchors the fleet as serve's rolling window for `day`: the files of
    /// `catalog`, `window` closed-day columns plus the open day, starting at
    /// `day - window` (0 while `day <= window`), all counts zeroed. Reuses
    /// the backing buffers, so rolling allocates nothing after the first day.
    pub(crate) fn roll(&mut self, catalog: &Trace, window: usize, day: usize) {
        let n = catalog.files.len();
        self.days = window + 1;
        self.first_day = day.saturating_sub(window);
        self.ids.clear();
        self.ids.extend(catalog.files.iter().map(|f| f.id));
        self.sizes.clear();
        self.sizes.extend(catalog.files.iter().map(|f| f.size_gb));
        for column in [&mut self.reads, &mut self.writes] {
            column.clear();
            column.resize(n * self.days, 0);
        }
        self.prior.clear();
        self.prior.resize(n, (0, 0));
    }

    /// Adds request counts to file `ix` on `day`; ignored outside the fleet.
    pub(crate) fn add_day_counts(&mut self, ix: usize, day: usize, reads: u64, writes: u64) {
        let Some(at) = self.cell(ix, day) else { return };
        if let Some(c) = self.reads.get_mut(at) {
            *c = c.saturating_add(reads);
        }
        if let Some(c) = self.writes.get_mut(at) {
            *c = c.saturating_add(writes);
        }
    }

    /// Writes file `ix`'s history as of the morning of `day`: the tail of the
    /// recent closed days (oldest first) fills the columns before `day`, and
    /// once the window has rolled past day 0 the prior totals become
    /// `lifetime` minus what the columns hold, saturating at zero.
    pub(crate) fn set_history(
        &mut self,
        ix: usize,
        day: usize,
        recent_reads: &[u64],
        recent_writes: &[u64],
        lifetime: (u64, u64),
    ) {
        let closed = day.saturating_sub(self.first_day).min(self.days);
        let row = ix.saturating_mul(self.days);
        let fill = |column: &mut Vec<u64>, ring: &[u64]| -> u64 {
            let keep = ring.len().min(closed);
            let tail = ring.get(ring.len() - keep..).unwrap_or(&[]);
            if let Some(cells) = column.get_mut(row + closed - keep..row + closed) {
                cells.copy_from_slice(tail);
            }
            tail.iter().sum()
        };
        let kept_reads = fill(&mut self.reads, recent_reads);
        let kept_writes = fill(&mut self.writes, recent_writes);
        if let Some(prior) = self.prior.get_mut(ix).filter(|_| self.first_day > 0) {
            *prior =
                (lifetime.0.saturating_sub(kept_reads), lifetime.1.saturating_sub(kept_writes));
        }
    }

    /// Index of file `ix`'s cell for absolute `day`, when the fleet holds it.
    fn cell(&self, ix: usize, day: usize) -> Option<usize> {
        let column = day.checked_sub(self.first_day).filter(|&c| c < self.days)?;
        Some(ix.saturating_mul(self.days).saturating_add(column))
    }

    /// Number of files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the fleet has no files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of day columns every file holds.
    #[must_use]
    pub fn days(&self) -> usize {
        self.days
    }

    /// Identity of file `ix`.
    #[must_use]
    pub fn id(&self, ix: usize) -> FileId {
        self.ids[ix]
    }

    /// Size of file `ix`. Total: an out-of-range index reads as `0.0`
    /// rather than panicking on the decision hot path.
    #[must_use]
    pub fn size_gb(&self, ix: usize) -> f64 {
        self.sizes.get(ix).copied().unwrap_or_default()
    }

    /// Daily read columns of file `ix`, from the fleet's first day on
    /// (contiguous, length [`FleetState::days`]). Total: out of range
    /// reads as empty.
    fn reads(&self, ix: usize) -> &[u64] {
        let start = ix.saturating_mul(self.days);
        self.reads.get(start..start.saturating_add(self.days)).unwrap_or(&[])
    }

    /// Daily write columns of file `ix`, from the fleet's first day on.
    /// Total: out of range reads as empty.
    fn writes(&self, ix: usize) -> &[u64] {
        let start = ix.saturating_mul(self.days);
        self.writes.get(start..start.saturating_add(self.days)).unwrap_or(&[])
    }

    /// File `ix`'s full read and write series — `None` on a serve window,
    /// which never holds the days ahead (even before it rolls past day 0).
    #[must_use]
    pub fn history(&self, ix: usize) -> Option<(&[u64], &[u64])> {
        self.prior.is_empty().then(|| (self.reads(ix), self.writes(ix)))
    }

    /// Read/write pair of file `ix` on absolute `day`. Total: a day or
    /// file the fleet does not hold reads as `(0, 0)`.
    #[must_use]
    pub fn day_counts(&self, ix: usize, day: usize) -> (u64, u64) {
        let Some(at) = self.cell(ix, day) else { return (0, 0) };
        (
            self.reads.get(at).copied().unwrap_or_default(),
            self.writes.get(at).copied().unwrap_or_default(),
        )
    }

    /// What the encoder observes of file `ix` on the morning of absolute
    /// `day` with a `window`-day history: the recent days the fleet holds,
    /// and the totals over every day before `day`, prior totals included.
    #[must_use]
    pub fn observed(&self, ix: usize, day: usize, window: usize) -> Observed<'_> {
        let closed = day.saturating_sub(self.first_day);
        let mut seen = Observed::from_series(self.reads(ix), self.writes(ix), closed, window);
        let (reads, writes) = self.prior.get(ix).copied().unwrap_or_default();
        seen.reads_before = seen.reads_before.saturating_add(reads);
        seen.writes_before = seen.writes_before.saturating_add(writes);
        seen
    }

    /// A borrowed decision-batch window (see [`FleetView`]).
    #[must_use]
    pub fn view<'a>(&'a self, batch: &'a [usize], day: usize) -> FleetView<'a> {
        FleetView { fleet: self, batch, day }
    }
}

/// A borrowed, immutable window over one decision batch of a
/// [`FleetState`].
///
/// Slot indices are positions inside the batch; [`FleetView::global`]
/// maps them back to global file indices. The view's lifetime ties it to
/// both the fleet and the batch, so policies consume it inside one
/// decision call and cannot store it (the borrowing contract of
/// DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub struct FleetView<'a> {
    fleet: &'a FleetState,
    batch: &'a [usize],
    day: usize,
}

impl<'a> FleetView<'a> {
    /// Number of files in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// `true` when the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The day this view decides.
    #[must_use]
    pub fn day(&self) -> usize {
        self.day
    }

    /// Global file index of batch entry `slot`. Total: an out-of-range
    /// slot maps to index `usize::MAX`, which every fleet accessor then
    /// reads as zero values.
    #[must_use]
    pub fn global(&self, slot: usize) -> usize {
        self.batch.get(slot).copied().unwrap_or(usize::MAX)
    }

    /// Size of batch entry `slot`.
    #[must_use]
    pub fn size_gb(&self, slot: usize) -> f64 {
        self.fleet.size_gb(self.global(slot))
    }

    /// Read/write pair of batch entry `slot` on the view's day.
    #[must_use]
    pub fn day_counts(&self, slot: usize) -> (u64, u64) {
        self.fleet.day_counts(self.global(slot), self.day)
    }

    /// [`FleetState::observed`] for batch entry `slot` on the view's day.
    #[must_use]
    pub fn observed(&self, slot: usize, window: usize) -> Observed<'a> {
        self.fleet.observed(self.global(slot), self.day, window)
    }
}

/// A reusable `files x state_dim` block of encoded features.
///
/// [`crate::features::FeatureConfig::encode_block`] fills one row per
/// batch entry; the backing [`Matrix`] then goes straight into the actor
/// network's buffer-reusing forward pass. Reshaping reuses the backing
/// allocation, so one block hoisted into the policy serves every decision
/// day allocation-free at steady state.
#[derive(Clone, Debug, Default)]
pub struct FeatureBlock {
    states: Matrix,
}

impl FeatureBlock {
    /// An empty block.
    #[must_use]
    pub fn new() -> FeatureBlock {
        FeatureBlock::default()
    }

    /// Reshapes to `rows x state_dim` and zero-fills, reusing the backing
    /// allocation when possible.
    pub fn reset(&mut self, rows: usize, state_dim: usize) {
        self.states.reset(rows, state_dim);
    }

    /// Number of encoded rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.states.rows()
    }

    /// Mutable feature row for batch entry `slot`.
    pub fn row_mut(&mut self, slot: usize) -> &mut [f64] {
        self.states.row_mut(slot)
    }

    /// The encoded block as a matrix (network forward input).
    #[must_use]
    pub fn matrix(&self) -> &Matrix {
        &self.states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::TraceConfig;

    #[test]
    fn from_trace_round_trips_every_column() {
        let trace = Trace::generate(&TraceConfig::small(17, 9, 5));
        let fleet = FleetState::from_trace(&trace);
        assert_eq!(fleet.len(), trace.files.len());
        assert_eq!(fleet.days(), trace.days);
        assert!(!fleet.is_empty());
        for (ix, file) in trace.files.iter().enumerate() {
            assert_eq!(fleet.id(ix), file.id);
            assert_eq!(fleet.size_gb(ix), file.size_gb);
            assert_eq!(fleet.reads(ix), &file.reads[..]);
            assert_eq!(fleet.writes(ix), &file.writes[..]);
            for day in 0..trace.days {
                assert_eq!(fleet.day_counts(ix, day), file.day(day));
            }
        }
    }

    #[test]
    fn view_maps_slots_through_the_batch() {
        let trace = Trace::generate(&TraceConfig::small(10, 6, 2));
        let fleet = FleetState::from_trace(&trace);
        let batch = [7usize, 2, 4];
        let view = fleet.view(&batch, 3);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.day(), 3);
        for (slot, &ix) in batch.iter().enumerate() {
            assert_eq!(view.global(slot), ix);
            assert_eq!(view.size_gb(slot), fleet.size_gb(ix));
            assert_eq!(view.day_counts(slot), fleet.day_counts(ix, 3));
            assert_eq!(view.observed(slot, 2), fleet.observed(ix, 3, 2));
        }
    }

    #[test]
    fn rolling_window_keeps_recent_days_and_prior_totals() {
        let trace = Trace::generate(&TraceConfig::small(2, 9, 4));
        let mut fleet = FleetState::default();

        // Before the window rolls past day 0: columns are absolute days and
        // the prior totals stay zero.
        fleet.roll(&trace, 3, 2);
        assert_eq!((fleet.days(), fleet.len()), (4, 2));
        fleet.set_history(0, 2, &[5, 6], &[1, 1], (11, 2));
        assert_eq!(fleet.reads(0), &[5, 6, 0, 0]);
        let seen = fleet.observed(0, 2, 3);
        assert_eq!((seen.recent, seen.reads_before, seen.writes_before), (&[5, 6][..], 11, 2));

        // Past it: the last `window` closed days plus the open day, and the
        // totals from before the first column carried as prior sums.
        fleet.roll(&trace, 3, 6);
        fleet.set_history(0, 6, &[7, 8, 9], &[1, 2, 3], (100, 10));
        fleet.add_day_counts(0, 6, 4, 1);
        fleet.add_day_counts(0, 6, 1, 0);
        assert_eq!(fleet.reads(0), &[7, 8, 9, 5]);
        assert_eq!(fleet.day_counts(0, 6), (5, 1));
        assert_eq!(fleet.day_counts(0, 2), (0, 0), "days before the window read as zero");
        let batch = [0usize];
        let seen = fleet.view(&batch, 6).observed(0, 3);
        assert_eq!((seen.recent, seen.reads_before, seen.writes_before), (&[7, 8, 9][..], 100, 10));

        // Sketched lifetimes may undercount the window: prior saturates.
        fleet.set_history(1, 6, &[7, 8, 9], &[0, 0, 0], (10, 0));
        assert_eq!(fleet.observed(1, 6, 3).reads_before, 24);

        assert_eq!(fleet.history(0), None, "a serve window holds no full series");
        let full = FleetState::from_trace(&trace);
        assert_eq!(full.history(1), Some((&trace.files[1].reads[..], &trace.files[1].writes[..])));
    }

    #[test]
    fn feature_block_reshapes_and_exposes_rows() {
        let mut block = FeatureBlock::new();
        block.reset(2, 4);
        assert_eq!(block.rows(), 2);
        block.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(block.matrix().row(0), &[0.0; 4]);
        assert_eq!(block.matrix().row(1), &[1.0, 2.0, 3.0, 4.0]);
        block.reset(1, 2); // dirty reuse must zero-fill
        assert_eq!(block.matrix().row(0), &[0.0; 2]);
    }
}
