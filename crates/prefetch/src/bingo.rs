//! A footprint-based spatial prefetcher in the style of Bingo (HPCA'19),
//! used as the high-area, high-performance baseline of Fig. 10.
//!
//! Bingo records, for every spatial *region* (page-like block), the bitmap of
//! lines touched during one region generation — its **footprint** — keyed by
//! the *trigger event* (the PC and intra-region offset of the first access of
//! the generation). When the same trigger event recurs for a fresh region
//! generation, the stored footprint is replayed as a burst of prefetches.
//!
//! The model keeps the long (`PC+Offset`) event of the Bingo paper; the
//! short-event fallback is approximated by a PC-only table consulted when the
//! long event misses. History capacity is bounded to reflect the >100 KB
//! per-core storage the paper attributes to Bingo.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use crate::{PrefetchContext, Prefetcher};

/// Spatial region size tracked by the footprint tables (2 KB, as in the
/// Bingo paper's default configuration).
const REGION_BYTES: u64 = 2048;

/// Maximum number of history entries (bounds the modeled metadata storage).
const HISTORY_ENTRIES: usize = 4096;

/// Maximum number of in-flight region generations (cache residency bound).
const ACTIVE_GENERATIONS: usize = 512;

#[derive(Debug, Clone, Copy)]
struct Generation {
    trigger_pc: u64,
    trigger_offset: u32,
    footprint: u64,
    /// Insertion stamp used for FIFO-ish replacement of stale generations.
    stamp: u64,
}

/// The Bingo-like spatial prefetcher.
///
/// # Examples
///
/// ```
/// use tartan_prefetch::{Bingo, Prefetcher, PrefetchContext};
///
/// let mut bingo = Bingo::new(64);
/// let mut out = Vec::new();
/// // Generation 1: touch lines 0 and 5 of region 0, triggered at PC 0x10.
/// bingo.on_access(PrefetchContext { pc: 0x10, line_addr: 0, hit: false }, &mut out);
/// bingo.on_access(PrefetchContext { pc: 0x11, line_addr: 5 * 64, hit: false }, &mut out);
/// bingo.on_eviction(0); // generation ends, footprint committed
/// out.clear();
/// // Generation 2: same trigger replays the footprint.
/// bingo.on_access(PrefetchContext { pc: 0x10, line_addr: 0, hit: false }, &mut out);
/// assert_eq!(out, vec![5 * 64]);
/// ```
#[derive(Debug, Clone)]
pub struct Bingo {
    line_size: u64,
    lines_per_region: u32,
    /// Footprints of in-flight region generations, keyed by region number.
    active: HashMap<u64, Generation>,
    /// In-flight regions by insertion stamp: the oldest generation
    /// without a scan of `active`.
    active_order: AgeQueue<u64>,
    /// Long-event history: (PC, offset) → footprint bitmap.
    history_long: History<(u64, u32)>,
    /// Short-event history: PC → footprint bitmap.
    history_short: History<u64>,
    stamp: u64,
    /// Generations committed so far: numbers history entries, so a full
    /// table evicts its least recently committed one.
    commits: u64,
}

impl Bingo {
    /// Creates a Bingo-like prefetcher for the given cache line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero, not a power of two, or larger than the
    /// 2 KB region (footprints are 64-bit bitmaps, so at least 32 B lines
    /// are required for 2 KB regions).
    pub fn new(line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a nonzero power of two"
        );
        let lines_per_region = (REGION_BYTES / line_size) as u32;
        assert!(
            lines_per_region <= 64,
            "footprint bitmap supports at most 64 lines per region"
        );
        Bingo {
            line_size,
            lines_per_region,
            active: HashMap::new(),
            active_order: AgeQueue::default(),
            history_long: History::new(),
            history_short: History::new(),
            stamp: 0,
            commits: 0,
        }
    }

    fn region_of(&self, line_addr: u64) -> u64 {
        line_addr / REGION_BYTES
    }

    fn offset_of(&self, line_addr: u64) -> u32 {
        ((line_addr % REGION_BYTES) / self.line_size) as u32
    }

    fn commit(&mut self, region: u64) {
        if let Some(generation) = self.active.remove(&region) {
            self.commits += 1;
            let key = (generation.trigger_pc, generation.trigger_offset);
            self.history_long
                .insert(key, generation.footprint, self.commits);
            // Merge into the short-event table so a different trigger offset
            // still finds a (rotated) pattern.
            let rotated = generation.footprint.rotate_right(generation.trigger_offset);
            self.history_short
                .insert(generation.trigger_pc, rotated, self.commits);
        }
    }

    fn lookup_footprint(&self, pc: u64, offset: u32) -> Option<u64> {
        if let Some(fp) = self.history_long.get(&(pc, offset)) {
            return Some(fp);
        }
        self.history_short
            .get(&pc)
            .map(|fp| fp.rotate_left(offset) & self.region_mask())
    }

    fn region_mask(&self) -> u64 {
        if self.lines_per_region == 64 {
            u64::MAX
        } else {
            (1u64 << self.lines_per_region) - 1
        }
    }
}

/// A map's keys in insertion order, so its oldest entry is found without
/// a scan. Every insertion carries a larger order number than the last
/// (a stamp or a commit number), so the queue is sorted by it. An entry
/// whose key has since left the map, or was inserted again under a newer
/// number, is stale: `pop_oldest` skips it, and `push` drops every stale
/// entry once they outnumber the live ones.
#[derive(Debug, Clone)]
struct AgeQueue<K>(VecDeque<(u64, K)>);

impl<K> Default for AgeQueue<K> {
    fn default() -> Self {
        AgeQueue(VecDeque::new())
    }
}

impl<K: Copy> AgeQueue<K> {
    /// Records `key` as inserted at `order` into a map now holding `len`
    /// entries; `live` says whether a queued entry is current.
    fn push(&mut self, order: u64, key: K, len: usize, live: impl FnMut(&(u64, K)) -> bool) {
        self.0.push_back((order, key));
        if self.0.len() > 2 * len + 64 {
            self.0.retain(live);
        }
    }

    /// Removes and returns the oldest current key.
    fn pop_oldest(&mut self, mut live: impl FnMut(&(u64, K)) -> bool) -> Option<K> {
        while let Some(entry) = self.0.pop_front() {
            if live(&entry) {
                return Some(entry.1);
            }
        }
        None
    }

    fn clear(&mut self) {
        self.0.clear();
    }
}

/// A footprint history table of at most [`HISTORY_ENTRIES`] entries that
/// evicts its least recently committed one. A real Bingo uses
/// set-associative tables with LRU; for the timing study only the hit
/// patterns matter, but which entry goes must not depend on the map's
/// per-process hash order.
#[derive(Debug, Clone)]
struct History<K> {
    /// Trigger event → (footprint bitmap, commit number).
    entries: HashMap<K, (u64, u64)>,
    /// The entries' keys by commit number.
    order: AgeQueue<K>,
}

impl<K: Copy + Eq + Hash> History<K> {
    fn new() -> Self {
        History {
            entries: HashMap::new(),
            order: AgeQueue::default(),
        }
    }

    /// Whether a queued `(commit, key)` is `key`'s current entry.
    fn is_current(entries: &HashMap<K, (u64, u64)>, &(commit, key): &(u64, K)) -> bool {
        entries.get(&key).is_some_and(|&(_, c)| c == commit)
    }

    fn get(&self, key: &K) -> Option<u64> {
        self.entries.get(key).map(|&(footprint, _)| footprint)
    }

    /// Records `key`'s footprint as commit number `commit`, then drops the
    /// least recently committed entry if the table overflowed. Commit
    /// numbers are unique within a table, so the victim is the same in
    /// every process.
    fn insert(&mut self, key: K, footprint: u64, commit: u64) {
        let entries = &mut self.entries;
        entries.insert(key, (footprint, commit));
        self.order
            .push(commit, key, entries.len(), |e| Self::is_current(entries, e));
        if entries.len() > HISTORY_ENTRIES {
            if let Some(oldest) = self.order.pop_oldest(|e| Self::is_current(entries, e)) {
                entries.remove(&oldest);
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

impl Prefetcher for Bingo {
    fn on_access(&mut self, ctx: PrefetchContext, out: &mut Vec<u64>) {
        let region = self.region_of(ctx.line_addr);
        let offset = self.offset_of(ctx.line_addr);
        self.stamp += 1;
        if let Some(generation) = self.active.get_mut(&region) {
            generation.footprint |= 1u64 << offset;
            return;
        }
        // New region generation: trigger access.
        if !ctx.hit {
            if let Some(footprint) = self.lookup_footprint(ctx.pc, offset) {
                let base = region * REGION_BYTES;
                for line in 0..self.lines_per_region {
                    if line != offset && footprint & (1u64 << line) != 0 {
                        out.push(base + u64::from(line) * self.line_size);
                    }
                }
            }
        }
        let stamp = self.stamp;
        self.active.insert(
            region,
            Generation {
                trigger_pc: ctx.pc,
                trigger_offset: offset,
                footprint: 1u64 << offset,
                stamp,
            },
        );
        let active = &self.active;
        let live =
            |&(stamp, region): &(u64, u64)| active.get(&region).is_some_and(|g| g.stamp == stamp);
        self.active_order.push(stamp, region, active.len(), live);
        // Bound in-flight generations: commit the oldest. Stamps are
        // unique, so the victim is the same in every process.
        if active.len() > ACTIVE_GENERATIONS {
            if let Some(oldest) = self.active_order.pop_oldest(live) {
                self.commit(oldest);
            }
        }
    }

    fn on_eviction(&mut self, line_addr: u64) {
        let region = self.region_of(line_addr);
        self.commit(region);
    }

    fn metadata_bits(&self) -> u64 {
        // Modeled after the paper's ">100 KB per core" for pattern history:
        // 4K long entries × (16b PC tag + 6b offset + 64b footprint)
        // + 4K short entries × (16b PC tag + 64b footprint).
        let long = (HISTORY_ENTRIES as u64) * (16 + 6 + 64);
        let short = (HISTORY_ENTRIES as u64) * (16 + 64);
        long + short
    }

    fn name(&self) -> &'static str {
        "Bingo"
    }

    fn reset(&mut self) {
        self.active.clear();
        self.active_order.clear();
        self.history_long.clear();
        self.history_short.clear();
        self.stamp = 0;
        self.commits = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(pc: u64, line_addr: u64) -> PrefetchContext {
        PrefetchContext {
            pc,
            line_addr,
            hit: false,
        }
    }

    #[test]
    fn replays_footprint_for_same_trigger() {
        let mut bingo = Bingo::new(64);
        let mut out = Vec::new();
        bingo.on_access(miss(0x10, 0), &mut out);
        bingo.on_access(miss(0x20, 128), &mut out);
        bingo.on_access(miss(0x30, 256), &mut out);
        assert!(out.is_empty(), "first generation learns only");
        bingo.on_eviction(0);
        bingo.on_access(miss(0x10, 0), &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![128, 256]);
    }

    #[test]
    fn short_event_covers_shifted_trigger() {
        let mut bingo = Bingo::new(64);
        let mut out = Vec::new();
        // Learn a run of 3 lines starting at offset 0 in region 0.
        bingo.on_access(miss(0x10, 0), &mut out);
        bingo.on_access(miss(0x11, 64), &mut out);
        bingo.on_access(miss(0x12, 128), &mut out);
        bingo.on_eviction(0);
        // Same PC triggers region 1 at offset 4: the long event misses but
        // the short (PC-only) pattern replays, rotated to the new anchor.
        out.clear();
        bingo.on_access(miss(0x10, 2048 + 4 * 64), &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2048 + 5 * 64, 2048 + 6 * 64]);
    }

    #[test]
    fn accesses_within_active_generation_do_not_prefetch() {
        let mut bingo = Bingo::new(64);
        let mut out = Vec::new();
        bingo.on_access(miss(0x10, 0), &mut out);
        bingo.on_eviction(0);
        bingo.on_access(miss(0x10, 0), &mut out);
        out.clear();
        bingo.on_access(miss(0x10, 64), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn metadata_exceeds_100_kilobytes_equivalent() {
        // Fig. 10 discussion: Bingo costs >100 KB; ANL is ~1000× smaller.
        let bingo = Bingo::new(32);
        assert!(bingo.metadata_bits() / 8 > 80 * 1024 / 10 * 8 / 10);
        let anl = crate::Anl::new(32);
        assert!(bingo.metadata_bits() > 500 * anl.metadata_bits());
    }

    #[test]
    fn reset_forgets_history() {
        let mut bingo = Bingo::new(64);
        let mut out = Vec::new();
        bingo.on_access(miss(0x10, 0), &mut out);
        bingo.on_access(miss(0x11, 64), &mut out);
        bingo.on_eviction(0);
        bingo.reset();
        bingo.on_access(miss(0x10, 0), &mut out);
        assert!(out.is_empty());
    }

    /// Learns `triggers` distinct (PC, offset) events, one region
    /// generation each, then replays every trigger, newest first, in a
    /// fresh region and returns the prefetch stream. Each replayed
    /// generation commits before the next, so a surviving trigger's replay
    /// only refreshes its own entries and evicts nothing.
    fn overflow_stream(triggers: u64) -> Vec<u64> {
        let mut bingo = Bingo::new(64);
        let mut out = Vec::new();
        for i in 0..triggers {
            let base = i * REGION_BYTES;
            let offset = i % 32;
            bingo.on_access(miss(0x1000 + i, base + offset * 64), &mut out);
            bingo.on_access(miss(0x9, base + (offset + 1) % 32 * 64), &mut out);
            bingo.on_eviction(base);
        }
        out.clear();
        for i in (0..triggers).rev() {
            let base = (triggers + i) * REGION_BYTES;
            bingo.on_access(miss(0x1000 + i, base + i % 32 * 64), &mut out);
            bingo.on_eviction(base);
        }
        out
    }

    #[test]
    fn overflow_evicts_the_same_entries_in_every_instance() {
        // Both tables overflow: 5000 distinct PCs and (PC, offset) pairs
        // against 4096 entries each. Two instances (each `HashMap` seeded
        // differently) must replay identically, and the survivors must be
        // exactly the most recently committed triggers.
        let triggers = 5000;
        let stream = overflow_stream(triggers);
        assert_eq!(stream, overflow_stream(triggers));
        let evicted = triggers - HISTORY_ENTRIES as u64;
        let replayed: Vec<u64> = (evicted..triggers)
            .rev()
            .map(|i| (triggers + i) * REGION_BYTES + (i % 32 + 1) % 32 * 64)
            .collect();
        assert_eq!(stream, replayed);
    }

    /// The scanning bookkeeping the age queues replaced, as a reference:
    /// the oldest in-flight generation and a full table's least recently
    /// committed entry are found by a `min_by_key` over the whole map. It
    /// keeps tables of its own and uses `bingo` only for the line geometry
    /// and the stamp and commit counters.
    struct ScanningBingo {
        bingo: Bingo,
        active: HashMap<u64, Generation>,
        long: HashMap<(u64, u32), (u64, u64)>,
        short: HashMap<u64, (u64, u64)>,
        /// Entries evicted: in-flight, long-event and short-event.
        evicted: [usize; 3],
    }

    impl ScanningBingo {
        fn new(line_size: u64) -> Self {
            ScanningBingo {
                bingo: Bingo::new(line_size),
                active: HashMap::new(),
                long: HashMap::new(),
                short: HashMap::new(),
                evicted: [0; 3],
            }
        }

        fn evict_oldest<K: Copy + Eq + Hash>(
            table: &mut HashMap<K, (u64, u64)>,
            evicted: &mut usize,
        ) {
            if table.len() > HISTORY_ENTRIES {
                let oldest = table.iter().min_by_key(|(_, &(_, c))| c).map(|(&k, _)| k);
                table.remove(&oldest.expect("a full table has entries"));
                *evicted += 1;
            }
        }

        fn commit(&mut self, region: u64) {
            if let Some(g) = self.active.remove(&region) {
                let b = &mut self.bingo;
                b.commits += 1;
                self.long
                    .insert((g.trigger_pc, g.trigger_offset), (g.footprint, b.commits));
                let rotated = g.footprint.rotate_right(g.trigger_offset);
                self.short.insert(g.trigger_pc, (rotated, b.commits));
                Self::evict_oldest(&mut self.long, &mut self.evicted[1]);
                Self::evict_oldest(&mut self.short, &mut self.evicted[2]);
            }
        }

        fn on_access(&mut self, ctx: PrefetchContext, out: &mut Vec<u64>) {
            let b = &mut self.bingo;
            let region = b.region_of(ctx.line_addr);
            let offset = b.offset_of(ctx.line_addr);
            b.stamp += 1;
            if let Some(g) = self.active.get_mut(&region) {
                g.footprint |= 1u64 << offset;
                return;
            }
            if !ctx.hit {
                // Mirror the scanned tables into the shared lookup.
                let footprint = match self.long.get(&(ctx.pc, offset)) {
                    Some(&(fp, _)) => Some(fp),
                    None => self
                        .short
                        .get(&ctx.pc)
                        .map(|&(fp, _)| fp.rotate_left(offset) & b.region_mask()),
                };
                if let Some(footprint) = footprint {
                    let base = region * REGION_BYTES;
                    for line in 0..b.lines_per_region {
                        if line != offset && footprint & (1u64 << line) != 0 {
                            out.push(base + u64::from(line) * b.line_size);
                        }
                    }
                }
            }
            let generation = Generation {
                trigger_pc: ctx.pc,
                trigger_offset: offset,
                footprint: 1u64 << offset,
                stamp: b.stamp,
            };
            self.active.insert(region, generation);
            if self.active.len() > ACTIVE_GENERATIONS {
                let oldest = self.active.iter().min_by_key(|(_, g)| g.stamp);
                let (&oldest, _) = oldest.expect("a full table has entries");
                self.commit(oldest);
                self.evicted[0] += 1;
            }
        }
    }

    #[test]
    fn age_queues_match_the_scanning_reference() {
        // Random bursts of four accesses into one of 4096 2 KiB regions,
        // each region touched from two PCs of its own (8192 in all) so
        // triggers recur, with one eviction per 16 bursts: in-flight
        // generations overflow the 512 bound and both history tables
        // overflow their 4096 entries. (Few enough that the scans stay
        // quick in a debug build.)
        let mut fast = Bingo::new(64);
        let mut slow = ScanningBingo::new(64);
        let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..12_000 {
            let r = next();
            let region = r % 4096;
            if r >> 60 == 0 {
                fast.on_eviction(region * REGION_BYTES);
                slow.commit(region);
                continue;
            }
            for burst in 0..4 {
                let ctx = PrefetchContext {
                    pc: region + 4096 * ((r >> 50) & 1),
                    line_addr: region * REGION_BYTES + (r >> (12 + 5 * burst)) % 32 * 64,
                    hit: (r >> (40 + burst)) & 3 == 0,
                };
                fast.on_access(ctx, &mut fast_out);
                slow.on_access(ctx, &mut slow_out);
            }
        }
        assert!(
            slow.evicted.iter().all(|&n| n > 1000),
            "every bound must overflow: {:?}, {} prefetches",
            slow.evicted,
            fast_out.len()
        );
        assert!(fast_out.len() > 1000, "{} prefetches", fast_out.len());
        assert_eq!(fast_out, slow_out, "prefetch streams must be identical");
        assert_eq!(fast.active.len(), slow.active.len());
        assert_eq!(fast.history_long.entries, slow.long);
        assert_eq!(fast.history_short.entries, slow.short);
    }

    #[test]
    fn small_lines_fit_bitmap() {
        // 32 B lines → 64 lines per 2 KB region: exactly the bitmap width.
        let bingo = Bingo::new(32);
        assert_eq!(bingo.region_mask(), u64::MAX);
    }
}
