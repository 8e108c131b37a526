//! A set-associative cache with true-LRU replacement, prefetched-line
//! tracking (including *timeliness*), and Tartan's FCP indexing and recency
//! manipulation (§VII).

use crate::config::FcpConfig;
use crate::stats::CacheStats;

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present (including in-flight prefetches).
    pub hit: bool,
    /// Whether this was the first demand touch of a *timely* prefetched
    /// line (a fully covered miss).
    pub covered_by_prefetch: bool,
    /// If the access caught an in-flight prefetch that had not yet arrived,
    /// the remaining cycles until the data is ready (a *late* prefetch:
    /// §VIII-C-2's "untimeliness"; counted as a miss for coverage).
    pub late_by: Option<u64>,
    /// Line evicted to make room, if the access missed and displaced a
    /// valid victim.
    pub evicted: Option<EvictedLine>,
}

/// A line displaced from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line number (byte address / line size) of the victim.
    pub line_number: u64,
    /// Whether the victim was dirty (requires a writeback).
    pub dirty: bool,
    /// Whether the victim was a prefetched line never touched by a demand
    /// access — prefetch pollution (the waste FCP and ANL's accuracy are
    /// meant to contain).
    pub prefetched: bool,
}

/// Outcome of a prefetch insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The line was already resident; nothing happened.
    AlreadyPresent,
    /// The line was inserted; `evicted` reports any displaced victim.
    Inserted {
        /// Displaced victim, if any.
        evicted: Option<EvictedLine>,
    },
}

/// Per-way status bits, one byte per way in [`Cache`]'s flag array.
/// Validity is not a bit: a zero tag marks an invalid way.
const DIRTY: u8 = 1 << 0;
const PREFETCHED: u8 = 1 << 1;

/// Age values saturate here so FCP's `x²` manipulation cannot overflow.
const AGE_MAX: u16 = 1 << 15;

/// One set-associative cache level.
///
/// The cache stores no data — only tags and replacement metadata — because
/// the simulator is execution-driven: functional values live in the
/// workload's own memory. The per-access loop is the simulator's hottest
/// code, so the tag store is laid out for it:
///
/// * Per-field arrays instead of an array of line structs: the tag scan
///   reads 4 bytes per way (an 8-way set is one 32-byte run), and LRU
///   aging 2 bytes per way.
/// * Every array is allocated zeroed and a zero tag means "invalid", so a
///   fresh cache is a `calloc`: untouched sets of a large L3 are never
///   written. The `ready` stamps are allocated by the first prefetch fill.
/// * Each set remembers its most-recently-used way. A demand hit on it
///   skips the tag scan and the LRU update, because the true-LRU touch of
///   an age-0 way changes nothing.
/// * The FCP index function runs on masks/shifts precomputed at
///   construction, and LRU aging is branchless over the set.
///
/// Two invariants keep this exact. Only valid ways' ages are ever read:
/// the victim choice takes the first invalid way before comparing ages,
/// and the FCP manipulation skips invalid ways; so the aging loop may age
/// invalid ways too. And within a set, the MRU way is the only valid way
/// of age 0, since a touch ages every younger valid way and `m(x) ≥ 1`
/// for `x ≥ 1`.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    ways: u32,
    latency: u64,
    fcp: Option<FcpConfig>,
    /// `sets - 1`: the conventional index mask.
    sets_mask: u64,
    /// `lines_per_region - 1` (0 without FCP).
    fcp_offset_mask: u64,
    /// `log2(lines_per_region)` — shifts replace the per-access divisions.
    fcp_region_shift: u32,
    /// `offset_bits - xor_bits`: selects the high offset bits to XOR.
    fcp_offset_shift: u32,
    /// Per way, set-major: line number + 1, or 0 for an invalid way.
    tags: Vec<u32>,
    /// Per way: LRU age, 0 = most recently used; larger = closer to
    /// eviction. Meaningless for invalid ways.
    ages: Vec<u16>,
    /// Per way: `DIRTY` / `PREFETCHED` bits.
    flags: Vec<u8>,
    /// Per way: cycle (thread-local time domain) at which a prefetched
    /// line's data arrives. Read only while `PREFETCHED` is set; empty
    /// until the first prefetch fill.
    ready: Vec<u64>,
    /// Per set: the way last touched (the set's only valid age-0 way, if
    /// any way is valid).
    mru: Vec<u32>,
    /// Public running statistics for this level.
    pub stats: CacheStats,
}

/// The tag stored for a line: its number plus one, so that 0 can mark an
/// invalid way.
///
/// # Panics
///
/// Panics if the line number does not fit the 32-bit tag store, rather
/// than let two lines alias one tag.
#[inline(always)]
fn tag_of(line_number: u64) -> u32 {
    if line_number < u64::from(u32::MAX) {
        line_number as u32 + 1
    } else {
        tag_overflow(line_number)
    }
}

#[cold]
#[inline(never)]
fn tag_overflow(line_number: u64) -> ! {
    panic!("line number {line_number:#x} does not fit the 32-bit cache tag store")
}

/// A plain demand hit on a line no prefetch is pending for.
const HIT: AccessOutcome = AccessOutcome {
    hit: true,
    covered_by_prefetch: false,
    late_by: None,
    evicted: None,
};

impl Cache {
    /// Creates a cache level.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two, if the geometry is degenerate,
    /// or if an FCP configuration is inconsistent with the line size
    /// (`region < 2^l` lines).
    pub fn new(
        size_bytes: u64,
        ways: u32,
        latency: u64,
        line_bytes: u64,
        fcp: Option<FcpConfig>,
    ) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1, "cache needs at least one way");
        let sets = size_bytes / (line_bytes * u64::from(ways));
        assert!(
            sets >= 1 && sets.is_power_of_two(),
            "set count must be a power of two"
        );
        let (fcp_offset_mask, fcp_region_shift, fcp_offset_shift) = match fcp {
            None => (0, 0, 0),
            Some(fcp) => {
                let lines_per_region = fcp.region_bytes / line_bytes;
                assert!(
                    lines_per_region.is_power_of_two() && lines_per_region >= (1 << fcp.xor_bits),
                    "FCP region must hold at least 2^l lines"
                );
                let offset_bits = lines_per_region.trailing_zeros();
                (
                    lines_per_region - 1,
                    offset_bits,
                    offset_bits - fcp.xor_bits,
                )
            }
        };
        let n = (sets as usize) * (ways as usize);
        Cache {
            sets,
            ways,
            latency,
            fcp,
            sets_mask: sets - 1,
            fcp_offset_mask,
            fcp_region_shift,
            fcp_offset_shift,
            tags: vec![0; n],
            ages: vec![0; n],
            flags: vec![0; n],
            ready: Vec::new(),
            mru: vec![0; sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// Access latency of this level in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Computes the set index for a line number.
    ///
    /// Without FCP this is the conventional low-order-bits index. With FCP
    /// (§VII-B) the index is *region-based*: the region number provides the
    /// index, with the high-order `l` bits of the intra-region offset XORed
    /// into its low-order `l` bits. Lines of one region therefore spread
    /// over exactly `2^l` sets — enough sets to exploit spatial locality,
    /// few enough that a runaway region cannot monopolize the cache. The
    /// low-order offset bits are excluded from the XOR so that next-line
    /// prefetch bursts land set-local rather than hashing across the whole
    /// cache.
    #[inline(always)]
    pub fn index_of(&self, line_number: u64) -> u64 {
        match self.fcp {
            None => line_number & self.sets_mask,
            Some(_) => {
                let offset = line_number & self.fcp_offset_mask;
                let region = line_number >> self.fcp_region_shift;
                (region ^ (offset >> self.fcp_offset_shift)) & self.sets_mask
            }
        }
    }

    /// The way range of a set in the per-way arrays.
    #[inline(always)]
    fn set_range(&self, index: usize) -> std::ops::Range<usize> {
        let start = index * (self.ways as usize);
        start..start + self.ways as usize
    }

    /// True-LRU touch: the accessed way becomes age 0, ways that were
    /// younger than it age by one. The loop is branchless: the accessed way
    /// itself contributes a zero increment (`age < old_age` is false for
    /// `age == old_age`), as do already-older ways. Invalid ways age along
    /// with the rest, since no reader looks at their age. No clamp is
    /// needed: a way only increments when `age < old_age ≤ AGE_MAX`.
    #[inline(always)]
    fn touch(ages: &mut [u16], way: usize) {
        let old_age = ages[way];
        for age in ages.iter_mut() {
            *age += u16::from(*age < old_age);
        }
        ages[way] = 0;
    }

    /// Tag compare across all ways, branchless: every way contributes a
    /// conditional-move instead of an early-exit branch, so the scan runs at
    /// a fixed few cycles regardless of which way (if any) matches. A line
    /// is resident in at most one way, so keeping the last match is
    /// equivalent to the first; an invalid way's zero tag matches nothing.
    #[inline(always)]
    fn find(tags: &[u32], tag: u32) -> Option<usize> {
        let mut found = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            found = if t == tag { w } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// First invalid way, else the oldest (smallest way index on ties).
    #[inline(always)]
    fn victim(tags: &[u32], ages: &[u16]) -> usize {
        if let Some(w) = tags.iter().position(|&t| t == 0) {
            return w;
        }
        let mut victim = 0usize;
        let mut victim_age = ages[0];
        for (w, &age) in ages.iter().enumerate() {
            if age > victim_age {
                victim = w;
                victim_age = age;
            }
        }
        victim
    }

    /// Applies FCP's recency manipulation `m(x)` to resident lines that
    /// share the filled line's region (§VII-B, steps 3–5 of Fig. 5).
    fn manipulate_region(&mut self, index: usize, filled_tag: u32) {
        let Some(fcp) = self.fcp else { return };
        let region_shift = self.fcp_region_shift;
        let region = u64::from(filled_tag - 1) >> region_shift;
        let m = fcp.manipulation;
        let range = self.set_range(index);
        for (&tag, age) in self.tags[range.clone()].iter().zip(&mut self.ages[range]) {
            if tag != 0 && tag != filled_tag && u64::from(tag - 1) >> region_shift == region {
                *age = m.apply(u32::from(*age)).min(u32::from(AGE_MAX)) as u16;
            }
        }
    }

    /// Performs a demand access (load or store) on a line at thread-local
    /// time `now`.
    #[inline]
    pub fn access(&mut self, line_number: u64, is_write: bool, now: u64) -> AccessOutcome {
        self.stats.accesses += 1;
        let tag = tag_of(line_number);
        let index = self.index_of(line_number) as usize;
        let dirty = if is_write { DIRTY } else { 0 };
        // MRU short-circuit: a demand line in the set's age-0 way needs no
        // scan, and its LRU touch would be a no-op.
        let mru = index * (self.ways as usize) + self.mru[index] as usize;
        if self.tags[mru] == tag && self.flags[mru] & PREFETCHED == 0 {
            self.flags[mru] |= dirty;
            self.stats.hits += 1;
            return HIT;
        }
        let range = self.set_range(index);
        let Some(way) = Self::find(&self.tags[range.clone()], tag) else {
            // Miss: fill.
            self.stats.misses += 1;
            let evicted = self.fill(index, tag, dirty, 0);
            return AccessOutcome {
                hit: false,
                evicted,
                ..HIT
            };
        };
        let slot = range.start + way;
        let flags = self.flags[slot];
        self.flags[slot] = (flags & !PREFETCHED) | dirty;
        Self::touch(&mut self.ages[range], way);
        self.mru[index] = way as u32;
        if flags & PREFETCHED == 0 {
            self.stats.hits += 1;
            return HIT;
        }
        self.stats.prefetches_useful += 1;
        let ready = self.ready[slot];
        if ready <= now {
            // Timely prefetch: the miss is fully covered.
            self.stats.prefetch_covered += 1;
            return AccessOutcome {
                covered_by_prefetch: true,
                ..HIT
            };
        }
        // Late prefetch: the line is in flight; the access waits for the
        // remainder and counts as a miss for coverage.
        self.stats.misses += 1;
        self.stats.prefetches_late += 1;
        AccessOutcome {
            late_by: Some(ready - now),
            ..HIT
        }
    }

    /// Inserts a prefetched line whose data arrives at `ready`.
    pub fn insert_prefetch(&mut self, line_number: u64, ready: u64) -> PrefetchOutcome {
        let tag = tag_of(line_number);
        let index = self.index_of(line_number) as usize;
        if Self::find(&self.tags[self.set_range(index)], tag).is_some() {
            return PrefetchOutcome::AlreadyPresent;
        }
        self.stats.prefetches_issued += 1;
        let evicted = self.fill(index, tag, PREFETCHED, ready);
        PrefetchOutcome::Inserted { evicted }
    }

    /// Fills `tag` into set `index` with status `flags`; `ready` is stored
    /// only for a prefetched fill.
    fn fill(&mut self, index: usize, tag: u32, flags: u8, ready: u64) -> Option<EvictedLine> {
        let range = self.set_range(index);
        let way = Self::victim(&self.tags[range.clone()], &self.ages[range.clone()]);
        let slot = range.start + way;
        let old_tag = self.tags[slot];
        let evicted = (old_tag != 0).then(|| EvictedLine {
            line_number: u64::from(old_tag - 1),
            dirty: self.flags[slot] & DIRTY != 0,
            prefetched: self.flags[slot] & PREFETCHED != 0,
        });
        self.tags[slot] = tag;
        self.flags[slot] = flags;
        if flags & PREFETCHED != 0 {
            if self.ready.is_empty() {
                self.ready = vec![0; self.tags.len()];
            }
            self.ready[slot] = ready;
        }
        // Start "infinitely old" so the touch below ages every other
        // resident line by one, as a true LRU stack would.
        self.ages[slot] = AGE_MAX;
        Self::touch(&mut self.ages[range], way);
        self.mru[index] = way as u32;
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            if ev.dirty {
                self.stats.writebacks += 1;
            }
        }
        self.manipulate_region(index, tag);
        evicted
    }

    /// Whether a line is currently resident (no state change).
    pub fn contains(&self, line_number: u64) -> bool {
        let tag = tag_of(line_number);
        let index = self.index_of(line_number) as usize;
        self.tags[self.set_range(index)].contains(&tag)
    }

    /// Number of currently valid lines (for invariants/testing).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Invalidates everything, keeping statistics.
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.ages.fill(0);
        self.flags.fill(0);
        self.mru.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FcpManipulation;

    fn small_cache() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(512, 2, 4, 64, None)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache();
        let first = c.access(10, false, 0);
        assert!(!first.hit);
        let second = c.access(10, false, 10);
        assert!(second.hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (index = line & 3).
        c.access(0, false, 0);
        c.access(4, false, 0);
        c.access(0, false, 0); // 0 is now MRU, 4 is LRU
        let out = c.access(8, false, 0);
        assert_eq!(
            out.evicted,
            Some(EvictedLine {
                line_number: 4,
                dirty: false,
                prefetched: false
            })
        );
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        c.access(0, true, 0);
        c.access(4, false, 0);
        let out = c.access(8, false, 0);
        assert_eq!(
            out.evicted,
            Some(EvictedLine {
                line_number: 0,
                dirty: true,
                prefetched: false
            })
        );
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn timely_prefetch_covers_demand() {
        let mut c = small_cache();
        assert!(matches!(
            c.insert_prefetch(12, 50),
            PrefetchOutcome::Inserted { .. }
        ));
        assert!(matches!(
            c.insert_prefetch(12, 50),
            PrefetchOutcome::AlreadyPresent
        ));
        let out = c.access(12, false, 100);
        assert!(out.hit && out.covered_by_prefetch && out.late_by.is_none());
        // Second touch is a plain hit.
        let out2 = c.access(12, false, 101);
        assert!(out2.hit && !out2.covered_by_prefetch);
        assert_eq!(c.stats.prefetch_covered, 1);
        assert_eq!(c.stats.prefetches_useful, 1);
        assert_eq!(c.stats.prefetches_issued, 1);
    }

    #[test]
    fn late_prefetch_counts_as_miss_and_waits() {
        let mut c = small_cache();
        c.insert_prefetch(12, 500);
        let out = c.access(12, false, 100);
        assert!(out.hit && !out.covered_by_prefetch);
        assert_eq!(out.late_by, Some(400));
        assert_eq!(c.stats.prefetches_late, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.prefetch_covered, 0);
        // The line has arrived by the next touch: plain hit.
        let out2 = c.access(12, false, 600);
        assert!(out2.hit && out2.late_by.is_none());
    }

    #[test]
    fn unused_prefetched_victim_is_flagged() {
        let mut c = small_cache();
        // Prefetch into set 0, never touch it, then stream demand lines
        // through the same set until it is displaced.
        c.insert_prefetch(0, 10);
        c.access(4, false, 0);
        let out = c.access(8, false, 0);
        let ev = out.evicted.expect("set is full, something must go");
        assert!(ev.prefetched, "untouched prefetched victim must be flagged");
        // A demanded prefetched line loses the flag before eviction.
        let mut c2 = small_cache();
        c2.insert_prefetch(0, 10);
        c2.access(0, false, 20); // demand touch clears `prefetched`
        c2.access(4, false, 21);
        c2.access(8, false, 22);
        let ev2 = c2.access(12, false, 23).evicted.expect("victim");
        assert!(!ev2.prefetched);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = small_cache();
        for line in 0..100 {
            c.access(line, line % 3 == 0, line);
        }
        assert!(c.valid_lines() <= 8);
    }

    fn fcp_cache(l: u32, m: FcpManipulation) -> Cache {
        // 16 sets × 4 ways × 64 B = 4 KB; regions of 512 B = 8 lines.
        Cache::new(
            4096,
            4,
            4,
            64,
            Some(FcpConfig {
                region_bytes: 512,
                xor_bits: l,
                manipulation: m,
            }),
        )
    }

    #[test]
    fn fcp_spreads_region_over_2_to_l_sets() {
        for l in [1u32, 2, 3] {
            let c = fcp_cache(l, FcpManipulation::Square);
            // All 8 lines of region 5.
            let mut sets: Vec<u64> = (0..8).map(|o| c.index_of(5 * 8 + o)).collect();
            sets.sort_unstable();
            sets.dedup();
            assert_eq!(sets.len(), 1 << l, "l = {l}");
        }
    }

    #[test]
    fn fcp_indexing_separates_regions() {
        let c = fcp_cache(2, FcpManipulation::Square);
        // Offset-0 lines of 16 consecutive regions hit 16 distinct sets.
        let mut sets: Vec<u64> = (0..16).map(|r| c.index_of(r * 8)).collect();
        sets.sort_unstable();
        sets.dedup();
        assert_eq!(sets.len(), 16);
    }

    #[test]
    fn fcp_manipulation_ages_region_mates() {
        // With m(x) = x², filling lines from one region repeatedly ages
        // the region's other lines, so a *different* region's line survives
        // contention that plain LRU would lose.
        let mut c = fcp_cache(1, FcpManipulation::Square);
        // Region A = region 0 (lines 0..8); region B = region 16 (lines 128..136).
        let a0 = 0u64;
        let b0 = 128u64;
        assert_eq!(c.index_of(a0), c.index_of(b0));
        c.access(b0, false, 0); // B resident
        // Stream region-A lines mapping to the same set (offset_high = 0).
        c.access(0, false, 1);
        c.access(1, false, 2);
        c.access(2, false, 3);
        c.access(3, false, 4);
        assert!(c.contains(b0), "FCP must protect the other region's line");
    }

    #[test]
    fn plain_lru_would_evict_other_region() {
        // Control for the test above: without FCP, streaming one region
        // through a set evicts the bystander.
        let mut c = Cache::new(4096 / 16, 4, 4, 64, None); // 1 set × 4 ways
        c.access(100, false, 0);
        c.access(0, false, 1);
        c.access(1, false, 2);
        c.access(2, false, 3);
        c.access(3, false, 4);
        assert!(!c.contains(100));
    }

    #[test]
    fn flush_clears_contents_but_not_stats() {
        let mut c = small_cache();
        c.access(3, false, 0);
        c.flush();
        assert!(!c.contains(3));
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn write_hit_on_clean_mru_line_evicts_dirty() {
        let mut c = small_cache();
        c.access(0, false, 0); // clean fill: set 0's MRU way
        assert!(c.access(0, true, 1).hit, "short-circuit write hit");
        c.access(4, false, 2);
        c.access(4, false, 3);
        let ev = c.access(8, false, 4).evicted.expect("set is full");
        assert_eq!(
            ev,
            EvictedLine {
                line_number: 0,
                dirty: true,
                prefetched: false
            }
        );
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn prefetched_mru_line_still_reports_covered_or_late() {
        // A prefetch fill makes its way the set's MRU, so the first demand
        // touch must not take the plain-hit short-circuit.
        let mut c = small_cache();
        c.insert_prefetch(12, 50);
        let out = c.access(12, false, 100);
        assert!(out.hit && out.covered_by_prefetch);
        c.insert_prefetch(13, 500);
        let out = c.access(13, false, 100);
        assert!(out.hit && !out.covered_by_prefetch);
        assert_eq!(out.late_by, Some(400));
        // Both lines are now demanded: repeat touches are plain hits.
        assert_eq!(c.access(13, false, 600), HIT);
        assert_eq!(c.stats.prefetches_useful, 2);
        assert_eq!(c.stats.prefetch_covered, 1);
        assert_eq!(c.stats.prefetches_late, 1);
        assert_eq!(c.stats.hits, 1);
    }

    #[test]
    fn flush_resets_mru_state() {
        let mut c = small_cache();
        c.access(5, true, 0);
        assert!(c.access(5, false, 1).hit);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        let out = c.access(5, false, 2);
        assert!(
            !out.hit && out.evicted.is_none(),
            "flushed MRU line must miss"
        );
        // The refill is clean: the pre-flush write does not survive.
        c.access(9, false, 3);
        let ev = c.access(13, false, 4).evicted.expect("set is full");
        assert_eq!(
            ev,
            EvictedLine {
                line_number: 5,
                dirty: false,
                prefetched: false
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit cache tag store")]
    fn line_beyond_tag_range_panics_instead_of_aliasing() {
        let mut c = small_cache();
        c.access(u64::from(u32::MAX), false, 0);
    }

    #[test]
    #[should_panic(expected = "FCP region must hold")]
    fn fcp_region_smaller_than_xor_span_rejected() {
        let _ = Cache::new(
            4096,
            4,
            4,
            64,
            Some(FcpConfig {
                region_bytes: 128, // 2 lines, but l = 2 needs ≥ 4
                xor_bits: 2,
                manipulation: FcpManipulation::Square,
            }),
        );
    }
}
