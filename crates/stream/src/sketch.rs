//! Sublinear frequency summaries for fleets too large for exact state.
//!
//! Two classic streaming structures back the bounded-memory mode:
//!
//! * [`CountMinSketch`] — a `depth × width` grid of saturating counters.
//!   Point queries never *under*-estimate; the overestimate is bounded by
//!   colliding mass, shrinking as `width` grows (Cormode & Muthukrishnan).
//! * [`SpaceSaving`] — the top-`k` heavy-hitter summary (Metwally et al.):
//!   at most `capacity` tracked ids, each with an exact-or-overestimated
//!   count and the overestimation bound it inherited at admission. It is
//!   an indexed binary min-heap, so an update costs `O(log capacity)`.
//!
//! Both are deterministic: hashing derives from [`crate::mix64`] with an
//! explicit seed, never from the process-randomized std hasher, and
//! eviction ties break on ascending id. That keeps bounded-mode decisions
//! reproducible across runs and across checkpoint restores.

use crate::mix64;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A count-min sketch over `u64` keys with saturating counters.
///
/// Serializes as `{width, depth, seed, rows}`; the per-row hash salts are
/// derived from `seed` on construction and on load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    seed: u64,
    rows: Vec<u64>,
    /// `mix64(seed + row + 1)` for each row, the key salt of that row.
    salts: Vec<u64>,
}

/// The persisted form of a [`CountMinSketch`].
#[derive(Serialize, Deserialize)]
struct CountMinWire {
    width: usize,
    depth: usize,
    seed: u64,
    rows: Vec<u64>,
}

impl CountMinSketch {
    /// A sketch with `depth` rows of `width` counters (both clamped to at
    /// least 1), hashed under `seed`.
    #[must_use]
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        let width = width.max(1);
        let depth = depth.max(1);
        let salts = (0..depth as u64).map(|row| mix64(seed.wrapping_add(row + 1))).collect();
        CountMinSketch { width, depth, seed, rows: vec![0; width * depth], salts }
    }

    /// Counters per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of independent hash rows.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The column of `key` in the row salted with `salt`.
    fn column(&self, salt: u64, key: u64) -> usize {
        // xtask-allow(panic-reachability): width is at least 1 (new() clamps, load validates)
        (mix64(key ^ salt) % self.width as u64) as usize
    }

    /// Adds `count` to `key` in every row (saturating).
    pub fn add(&mut self, key: u64, count: u64) {
        for (row, &salt) in self.salts.iter().enumerate() {
            let ix = row * self.width + self.column(salt, key);
            if let Some(counter) = self.rows.get_mut(ix) {
                *counter = counter.saturating_add(count);
            }
        }
    }

    /// The point estimate for `key`: minimum over rows. Never less than the
    /// true count added for `key` (absent counter saturation).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        self.salts
            .iter()
            .enumerate()
            .map(|(row, &salt)| {
                let ix = row * self.width + self.column(salt, key);
                self.rows.get(ix).copied().unwrap_or(u64::MAX)
            })
            .fold(u64::MAX, u64::min)
    }

    /// Zeroes every counter, keeping the geometry and seed.
    pub fn clear(&mut self) {
        self.rows.fill(0);
    }
}

impl Serialize for CountMinSketch {
    fn to_value(&self) -> Value {
        CountMinWire {
            width: self.width,
            depth: self.depth,
            seed: self.seed,
            rows: self.rows.clone(),
        }
        .to_value()
    }
}

impl Deserialize for CountMinSketch {
    fn from_value(v: &Value) -> Result<CountMinSketch, DeError> {
        let CountMinWire { width, depth, seed, rows } = CountMinWire::from_value(v)?;
        if width == 0 || depth == 0 {
            return Err(DeError(format!("count-min geometry {width}x{depth} has an empty side")));
        }
        if width.checked_mul(depth) != Some(rows.len()) {
            return Err(DeError(format!(
                "count-min sketch holds {} counters, its {width}x{depth} geometry needs {}",
                rows.len(),
                width.saturating_mul(depth)
            )));
        }
        Ok(CountMinSketch { rows, ..CountMinSketch::new(width, depth, seed) })
    }
}

/// One tracked heavy hitter in a [`SpaceSaving`] summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceSavingEntry {
    /// The tracked key.
    pub id: u32,
    /// Estimated count: true count plus at most [`Self::overestimate`].
    pub count: u64,
    /// Upper bound on how much [`Self::count`] overestimates, inherited
    /// from the entry evicted at admission time (0 for keys tracked since
    /// their first occurrence).
    pub overestimate: u64,
}

impl SpaceSavingEntry {
    /// The heap order: count, then id, so the minimum is the smallest id
    /// among the minimum counts.
    fn rank(&self) -> (u64, u32) {
        (self.count, self.id)
    }
}

/// A [`Hasher`] for `u32` ids built on [`mix64`]: the same slots in every
/// process, unlike the randomized std hasher.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id);
    }
}

/// A deterministic space-saving heavy-hitter summary over `u32` keys.
///
/// The entries form a binary min-heap on `(count, id)`, so eviction
/// removes the minimum count with ties broken on the smallest id. Each
/// tracked id owns a fixed slot, found through an id → slot map; a slot
/// knows its entry's heap position. `add` and `get` thus cost
/// `O(log capacity)`, and sifting moves heap nodes without touching the
/// map.
///
/// Everything observable — equality, serialization, [`Self::entries`],
/// [`Self::top`] and every later eviction — depends only on the set of
/// entries, never on the heap layout or the slot numbering, so the
/// summary's evolution is a pure function of the update sequence and
/// survives a save/load unchanged. Serializes as `{capacity, entries}`
/// with the entries ascending by id; loading validates them and rebuilds
/// the heap.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    /// Binary min-heap on [`SpaceSavingEntry::rank`].
    heap: Vec<HeapNode>,
    /// `positions[slot]` is the heap index of the entry owning `slot`.
    positions: Vec<usize>,
    /// The slot of every tracked id. Looked up, never iterated.
    slots: HashMap<u32, usize, BuildHasherDefault<IdHasher>>,
}

/// One heap node of a [`SpaceSaving`] summary: a tracked entry and the
/// slot it owns.
#[derive(Clone, Copy, Debug)]
struct HeapNode {
    entry: SpaceSavingEntry,
    slot: usize,
}

/// The persisted form of a [`SpaceSaving`] summary.
#[derive(Serialize, Deserialize)]
struct SpaceSavingWire {
    capacity: usize,
    entries: Vec<SpaceSavingEntry>,
}

impl SpaceSaving {
    /// A summary tracking at most `capacity` keys (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> SpaceSaving {
        // Storage grows with use: `capacity` may come from a snapshot or a
        // flag and need not be reachable.
        SpaceSaving {
            capacity: capacity.max(1),
            heap: Vec::new(),
            positions: Vec::new(),
            slots: HashMap::default(),
        }
    }

    /// Maximum number of tracked keys.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently tracked keys, ascending by id.
    #[must_use]
    pub fn entries(&self) -> Vec<SpaceSavingEntry> {
        let mut entries: Vec<SpaceSavingEntry> = self.heap.iter().map(|n| n.entry).collect();
        entries.sort_unstable_by_key(|e| e.id);
        entries
    }

    /// Adds `count` occurrences of `id`, evicting the current minimum if
    /// the summary is full and `id` is untracked.
    pub fn add(&mut self, id: u32, count: u64) {
        if let Some(at) = self.position(id) {
            if let Some(node) = self.heap.get_mut(at) {
                node.entry.count = node.entry.count.saturating_add(count);
            }
            self.sift_down(at);
        } else if self.heap.len() < self.capacity {
            let slot = self.heap.len();
            self.slots.insert(id, slot);
            self.positions.push(slot);
            self.heap
                .push(HeapNode { entry: SpaceSavingEntry { id, count, overestimate: 0 }, slot });
            self.sift_up(slot);
        } else if let Some(root) = self.heap.first_mut() {
            // The root is the minimum; the admitted id takes over its slot.
            let floor = root.entry.count;
            self.slots.remove(&root.entry.id);
            self.slots.insert(id, root.slot);
            root.entry =
                SpaceSavingEntry { id, count: floor.saturating_add(count), overestimate: floor };
            self.sift_down(0);
        }
    }

    /// The tracked estimate for `id`, if currently tracked.
    #[must_use]
    pub fn get(&self, id: u32) -> Option<SpaceSavingEntry> {
        self.position(id).and_then(|at| self.heap.get(at)).map(|n| n.entry)
    }

    /// The `k` heaviest tracked entries, descending by count, ties broken
    /// by ascending id.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<SpaceSavingEntry> {
        let mut sorted: Vec<SpaceSavingEntry> = self.heap.iter().map(|n| n.entry).collect();
        sorted.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
        sorted.truncate(k);
        sorted
    }

    /// The heap index of `id`'s entry, if tracked.
    fn position(&self, id: u32) -> Option<usize> {
        self.slots.get(&id).and_then(|&slot| self.positions.get(slot)).copied()
    }

    /// Writes `node` at heap index `at` and records the move in its slot.
    fn place(&mut self, at: usize, node: HeapNode) {
        if let (Some(cell), Some(position)) =
            (self.heap.get_mut(at), self.positions.get_mut(node.slot))
        {
            *cell = node;
            *position = at;
        }
    }

    /// Moves the node at heap index `at` toward the root past every larger
    /// parent.
    fn sift_up(&mut self, mut at: usize) {
        let Some(&moving) = self.heap.get(at) else { return };
        while at > 0 {
            let parent = (at - 1) / 2;
            match self.heap.get(parent) {
                Some(&p) if moving.entry.rank() < p.entry.rank() => {
                    self.place(at, p);
                    at = parent;
                }
                _ => break,
            }
        }
        self.place(at, moving);
    }

    /// Moves the node at heap index `at` toward the leaves past every
    /// smaller child.
    fn sift_down(&mut self, mut at: usize) {
        let Some(&moving) = self.heap.get(at) else { return };
        loop {
            let left = 2 * at + 1;
            let child = match (self.heap.get(left), self.heap.get(left + 1)) {
                (Some(l), Some(r)) if r.entry.rank() < l.entry.rank() => left + 1,
                (Some(_), _) => left,
                (None, _) => break,
            };
            match self.heap.get(child) {
                Some(&c) if c.entry.rank() < moving.entry.rank() => {
                    self.place(at, c);
                    at = child;
                }
                _ => break,
            }
        }
        self.place(at, moving);
    }
}

impl PartialEq for SpaceSaving {
    /// Equal capacities and equal entry sets, whatever the heap layouts.
    fn eq(&self, other: &SpaceSaving) -> bool {
        self.capacity == other.capacity
            && self.heap.len() == other.heap.len()
            && self.heap.iter().all(|n| other.get(n.entry.id) == Some(n.entry))
    }
}

impl Eq for SpaceSaving {}

impl Serialize for SpaceSaving {
    fn to_value(&self) -> Value {
        SpaceSavingWire { capacity: self.capacity, entries: self.entries() }.to_value()
    }
}

impl Deserialize for SpaceSaving {
    fn from_value(v: &Value) -> Result<SpaceSaving, DeError> {
        let SpaceSavingWire { capacity, entries } = SpaceSavingWire::from_value(v)?;
        if capacity == 0 {
            return Err(DeError("space-saving capacity must be at least 1".to_owned()));
        }
        if entries.len() > capacity {
            return Err(DeError(format!(
                "space-saving summary holds {} entries, more than its capacity {capacity}",
                entries.len()
            )));
        }
        for pair in entries.windows(2) {
            if let [a, b] = pair {
                if a.id >= b.id {
                    let what = if a.id == b.id { "duplicate" } else { "out-of-order" };
                    return Err(DeError(format!("space-saving entries: {what} id {}", b.id)));
                }
            }
        }
        if let Some(e) = entries.iter().find(|e| e.overestimate > e.count) {
            return Err(DeError(format!(
                "space-saving entry {}: overestimate {} exceeds count {}",
                e.id, e.overestimate, e.count
            )));
        }
        let mut summary = SpaceSaving::new(capacity);
        for (slot, entry) in entries.into_iter().enumerate() {
            summary.slots.insert(entry.id, slot);
            summary.positions.push(slot);
            summary.heap.push(HeapNode { entry, slot });
        }
        for at in (0..summary.heap.len() / 2).rev() {
            summary.sift_down(at);
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn cms_never_underestimates() {
        let mut cms = CountMinSketch::new(64, 4, 11);
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        for i in 0..500u64 {
            let key = i % 37;
            let count = 1 + i % 5;
            cms.add(key, count);
            *truth.entry(key).or_insert(0) += count;
        }
        for (&key, &count) in &truth {
            assert!(cms.estimate(key) >= count, "key {key}: {} < {count}", cms.estimate(key));
        }
        assert_eq!(cms.estimate(999_999), 0, "wide sketch, untouched key should read 0");
    }

    #[test]
    fn cms_clear_resets_counts_only() {
        let mut cms = CountMinSketch::new(8, 2, 1);
        cms.add(3, 10);
        assert!(cms.estimate(3) >= 10);
        cms.clear();
        assert_eq!(cms.estimate(3), 0);
        assert_eq!((cms.width(), cms.depth()), (8, 2));
    }

    #[test]
    fn cms_is_seed_deterministic() {
        let mut a = CountMinSketch::new(32, 3, 7);
        let mut b = CountMinSketch::new(32, 3, 7);
        for i in 0..100 {
            a.add(i, i + 1);
            b.add(i, i + 1);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn space_saving_tracks_heavy_hitters_exactly_when_under_capacity() {
        let mut ss = SpaceSaving::new(4);
        ss.add(7, 10);
        ss.add(3, 5);
        ss.add(7, 1);
        let e = ss.get(7).unwrap();
        assert_eq!((e.count, e.overestimate), (11, 0));
        assert_eq!(ss.top(1)[0].id, 7);
    }

    #[test]
    fn space_saving_eviction_inherits_floor_and_bounds_error() {
        let mut ss = SpaceSaving::new(2);
        ss.add(1, 10);
        ss.add(2, 3);
        ss.add(5, 1); // evicts id 2 (min count 3): count = 3 + 1, overestimate = 3
        assert!(ss.get(2).is_none());
        let e = ss.get(5).unwrap();
        assert_eq!((e.count, e.overestimate), (4, 3));
        // True count of 5 is 1; count - overestimate <= true <= count.
        assert!(e.count - e.overestimate <= 1 && 1 <= e.count);
    }

    #[test]
    fn space_saving_eviction_tie_breaks_on_smallest_id() {
        let mut ss = SpaceSaving::new(2);
        ss.add(4, 2);
        ss.add(9, 2);
        ss.add(1, 1); // tie at count 2; id 4 (smallest) is evicted
        assert!(ss.get(4).is_none());
        assert!(ss.get(9).is_some());
        assert_eq!(ss.get(1).unwrap().overestimate, 2);
    }

    #[test]
    fn space_saving_entries_stay_id_sorted_and_top_orders_by_count() {
        let mut ss = SpaceSaving::new(8);
        for (id, n) in [(9u32, 2u64), (1, 7), (5, 7), (3, 1)] {
            ss.add(id, n);
        }
        let ids: Vec<u32> = ss.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
        let top: Vec<u32> = ss.top(3).iter().map(|e| e.id).collect();
        assert_eq!(top, vec![1, 5, 9], "count desc, id asc on ties");
    }

    #[test]
    fn sketches_serialize_round_trip() {
        let mut cms = CountMinSketch::new(16, 3, 5);
        cms.add(12, 34);
        let cms2: CountMinSketch =
            serde_json::from_str(&serde_json::to_string(&cms).unwrap()).unwrap();
        assert_eq!(cms2, cms);

        let mut ss = SpaceSaving::new(3);
        ss.add(8, 2);
        ss.add(1, 9);
        let ss2: SpaceSaving = serde_json::from_str(&serde_json::to_string(&ss).unwrap()).unwrap();
        assert_eq!(ss2, ss);
    }

    /// The sorted-`Vec` summary the heap replaced, kept as the reference
    /// model: entries ascending by id, eviction by a linear scan for the
    /// first minimum count (so ties evict the smallest id).
    struct LinearSpaceSaving {
        capacity: usize,
        entries: Vec<SpaceSavingEntry>,
    }

    impl LinearSpaceSaving {
        fn new(capacity: usize) -> LinearSpaceSaving {
            LinearSpaceSaving { capacity: capacity.max(1), entries: Vec::new() }
        }

        fn add(&mut self, id: u32, count: u64) {
            match self.entries.binary_search_by_key(&id, |e| e.id) {
                Ok(pos) => self.entries[pos].count = self.entries[pos].count.saturating_add(count),
                Err(pos) if self.entries.len() < self.capacity => {
                    self.entries.insert(pos, SpaceSavingEntry { id, count, overestimate: 0 });
                }
                Err(_) => {
                    let (min_pos, floor) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, e)| e.count)
                        .map(|(i, e)| (i, e.count))
                        .unwrap();
                    self.entries.remove(min_pos);
                    let ins = self.entries.binary_search_by_key(&id, |e| e.id).unwrap_err();
                    let admitted = SpaceSavingEntry {
                        id,
                        count: floor.saturating_add(count),
                        overestimate: floor,
                    };
                    self.entries.insert(ins, admitted);
                }
            }
        }

        fn get(&self, id: u32) -> Option<SpaceSavingEntry> {
            self.entries.iter().find(|e| e.id == id).copied()
        }

        fn top(&self, k: usize) -> Vec<SpaceSavingEntry> {
            let mut sorted = self.entries.clone();
            sorted.sort_by(|a, b| b.count.cmp(&a.count).then(a.id.cmp(&b.id)));
            sorted.truncate(k);
            sorted
        }
    }

    /// Feeds `updates` to the heap summary and the reference model and
    /// asserts the same entries, point queries and top-k after every add.
    /// Halfway through, the heap summary is replaced by its own JSON
    /// round-trip, whose heap is rebuilt from the id-sorted entries, so a
    /// layout-dependent behaviour would show up as a divergence.
    fn assert_matches_linear_reference(capacity: usize, updates: &[(u32, u64)]) {
        let mut heap = SpaceSaving::new(capacity);
        let mut linear = LinearSpaceSaving::new(capacity);
        let max_id = updates.iter().map(|&(id, _)| id).max().unwrap_or(0);
        for (step, &(id, count)) in updates.iter().enumerate() {
            if step == updates.len() / 2 {
                heap = serde_json::from_str(&serde_json::to_string(&heap).unwrap()).unwrap();
            }
            heap.add(id, count);
            linear.add(id, count);
            assert_eq!(heap.entries(), linear.entries, "step {step}: entries");
            for probe in 0..=max_id + 1 {
                assert_eq!(heap.get(probe), linear.get(probe), "step {step}: get({probe})");
            }
            for k in [0, 1, capacity / 2, capacity, capacity + 1] {
                assert_eq!(heap.top(k), linear.top(k), "step {step}: top({k})");
            }
        }
    }

    #[test]
    fn space_saving_equality_ignores_heap_layout() {
        let mut a = SpaceSaving::new(4);
        let mut b = SpaceSaving::new(4);
        for (id, n) in [(1u32, 5u64), (2, 1), (3, 3), (4, 2)] {
            a.add(id, n);
        }
        for (id, n) in [(4u32, 2u64), (3, 3), (2, 1), (1, 5)] {
            b.add(id, n);
        }
        let layout = |s: &SpaceSaving| s.heap.iter().map(|n| n.entry.id).collect::<Vec<u32>>();
        assert_ne!(
            layout(&a),
            layout(&b),
            "different insertion orders lay the heap out differently"
        );
        assert_eq!(a, b);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        b.add(2, 1);
        assert_ne!(a, b);
    }

    /// `SpaceSaving::from_value` over a hand-built wire form.
    fn load_summary(capacity: usize, entries: &[(u32, u64, u64)]) -> Result<SpaceSaving, DeError> {
        let entries = entries
            .iter()
            .map(|&(id, count, overestimate)| SpaceSavingEntry { id, count, overestimate })
            .collect();
        SpaceSaving::from_value(&SpaceSavingWire { capacity, entries }.to_value())
    }

    #[test]
    fn malformed_space_saving_summaries_fail_typed() {
        let ok = load_summary(3, &[(1, 4, 0), (5, 9, 2), (8, 2, 0)]).unwrap();
        assert_eq!(ok.top(1)[0].id, 5);
        let roomy = load_summary(usize::MAX, &[(1, 4, 0)]).unwrap();
        assert_eq!(roomy.capacity(), usize::MAX, "a huge capacity loads without reserving it");
        let cases: [(&str, usize, &[(u32, u64, u64)]); 5] = [
            ("duplicate id", 3, &[(1, 4, 0), (1, 9, 0)]),
            ("out-of-order id", 3, &[(5, 4, 0), (1, 9, 0)]),
            ("more than its capacity", 1, &[(1, 4, 0), (5, 9, 0)]),
            ("capacity must be at least 1", 0, &[]),
            ("exceeds count", 2, &[(1, 4, 5)]),
        ];
        for (what, capacity, entries) in cases {
            match load_summary(capacity, entries) {
                Err(DeError(msg)) => assert!(msg.contains(what), "{what}: got {msg:?}"),
                Ok(summary) => panic!("{what}: loaded {summary:?}"),
            }
        }
        let not_an_object = SpaceSaving::from_value(&Value::Seq(Vec::new()));
        assert!(not_an_object.is_err());
    }

    #[test]
    fn malformed_count_min_sketches_fail_typed() {
        let load = |width, depth, rows: Vec<u64>| {
            CountMinSketch::from_value(&CountMinWire { width, depth, seed: 1, rows }.to_value())
        };
        assert_eq!(load(2, 2, vec![0, 1, 2, 3]).unwrap().depth(), 2);
        for (width, depth, rows) in
            [(2, 2, vec![0; 3]), (0, 2, vec![]), (2, 0, vec![]), (usize::MAX, 2, vec![])]
        {
            assert!(load(width, depth, rows).is_err(), "{width}x{depth} must not load");
        }
    }

    /// Persisted sketches (checkpoints) hold counters at the cells this
    /// derivation picks, so it must never change: `key` lands in row `r`
    /// at column `mix64(key ^ mix64(seed + r + 1)) % width`.
    #[test]
    fn cms_cells_follow_the_persisted_hash_derivation() {
        for (width, depth, seed) in [(2048, 4, 0x0D47), (16, 2, 17), (1000, 3, u64::MAX), (1, 2, 9)]
        {
            for key in [0u64, 7, 123_456, u64::MAX] {
                let mut cms = CountMinSketch::new(width, depth, seed);
                cms.add(key, 1);
                for row in 0..depth {
                    let salt = mix64(seed.wrapping_add(row as u64 + 1));
                    let column = (mix64(key ^ salt) % width as u64) as usize;
                    let cells = &cms.rows[row * width..(row + 1) * width];
                    assert_eq!(cells[column], 1, "{width}x{depth} seed {seed} key {key} row {row}");
                    assert_eq!(cells.iter().sum::<u64>(), 1);
                }
            }
        }
    }

    proptest! {
        /// The count-min invariant: estimates never fall below the true
        /// count, and never exceed the total mass inserted into the sketch
        /// (each cell only ever accumulates a subset of the stream).
        #[test]
        fn cms_overestimation_is_bounded(
            updates in proptest::collection::vec((0u64..50, 1u64..20), 1..200),
            width in 4usize..128,
            depth in 1usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let mut cms = CountMinSketch::new(width, depth, seed);
            let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
            let mut total = 0u64;
            for &(key, count) in &updates {
                cms.add(key, count);
                *truth.entry(key).or_insert(0) += count;
                total += count;
            }
            for (&key, &count) in &truth {
                let est = cms.estimate(key);
                prop_assert!(est >= count);
                prop_assert!(est <= total);
            }
        }

        /// The space-saving invariant: for every tracked id,
        /// `count - overestimate <= true count <= count`, and the summary
        /// never exceeds its capacity.
        #[test]
        fn space_saving_error_bounds_hold(
            updates in proptest::collection::vec((0u32..30, 1u64..10), 1..150),
            capacity in 1usize..12,
        ) {
            let mut ss = SpaceSaving::new(capacity);
            let mut truth: BTreeMap<u32, u64> = BTreeMap::new();
            for &(id, count) in &updates {
                ss.add(id, count);
                *truth.entry(id).or_insert(0) += count;
            }
            prop_assert!(ss.entries().len() <= capacity);
            for e in ss.entries() {
                let true_count = truth.get(&e.id).copied().unwrap_or(0);
                prop_assert!(e.count >= true_count);
                prop_assert!(e.count - e.overestimate <= true_count);
            }
        }

        /// The heap summary against the linear-scan reference on a tiny id
        /// space with small counts, where nearly every eviction is a tie.
        #[test]
        fn space_saving_matches_linear_reference_under_ties(
            updates in proptest::collection::vec((0u32..8, 1u64..3), 1..200),
            capacity in 1usize..16,
        ) {
            assert_matches_linear_reference(capacity, &updates);
        }

        /// The same differential check with counts at or near `u64::MAX`
        /// mixed in, so counts saturate and saturated entries tie.
        #[test]
        fn space_saving_matches_linear_reference_near_saturation(
            updates in proptest::collection::vec((0u32..12, 0u64..4, any::<bool>()), 1..120),
            capacity in 1usize..16,
        ) {
            let updates: Vec<(u32, u64)> = updates
                .iter()
                .map(|&(id, n, huge)| (id, if huge { u64::MAX - n } else { n }))
                .collect();
            assert_matches_linear_reference(capacity, &updates);
        }

        /// And on a wider id space with spread counts, where most updates
        /// come from untracked ids and evict.
        #[test]
        fn space_saving_matches_linear_reference_under_churn(
            updates in proptest::collection::vec((0u32..64, 1u64..1_000), 1..200),
            capacity in 1usize..16,
        ) {
            assert_matches_linear_reference(capacity, &updates);
        }
    }
}
