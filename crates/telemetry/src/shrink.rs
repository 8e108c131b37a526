//! Generic greedy delta-debugging: the chunked-deletion loop the oracle's
//! fuzzer shrinks reproducers with and the scenario synthesizer's corpus
//! minimizer reuses, each against its own "still interesting?" predicate.
//! It lives here, in the dependency-free base crate, so neither user has
//! to link the other.
//!
//! The algorithm is the classic ddmin-style pass the fuzz driver has
//! always run: try deleting chunks of the item list, halving the chunk
//! size down to single items, and repeat the whole sweep until a fixpoint.
//! It is deterministic (no randomness, scan order fixed), terminates (the
//! list only ever shrinks between sweeps), and **idempotent**: running it
//! on its own output deletes nothing, because the final sweep already
//! proved every single-item deletion loses the property.

/// Greedily deletes items from `items` while `keeps` stays true, and
/// returns the locally minimal subset (original order preserved).
///
/// `keeps` receives candidate sublists; a candidate is adopted when the
/// predicate holds for it. The input itself is *not* checked — callers
/// start from a list already known to satisfy the predicate (the fuzzer
/// asserts divergence before shrinking; the corpus minimizer probes the
/// unshrunk spec first). The result is 1-minimal: no single remaining
/// item can be deleted without losing the property. An empty result is
/// possible when `keeps` accepts the empty list; predicates with a
/// non-empty invariant must encode it (`!c.is_empty() && ...`).
pub fn greedy_min_subset<T: Clone>(
    items: &[T],
    mut keeps: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let mut best = items.to_vec();
    // Chunked deletion, repeated until a fixpoint.
    loop {
        let before = best.len();
        let mut chunk = (best.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.len() {
                let mut candidate = best.clone();
                let end = (start + chunk).min(candidate.len());
                candidate.drain(start..end);
                if keeps(&candidate) {
                    best = candidate;
                    // Same start index now holds the next chunk.
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if best.len() == before {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_the_required_items() {
        // Property: the subset must contain both 3 and 7.
        let items: Vec<u32> = (0..100).collect();
        let min = greedy_min_subset(&items, |c| c.contains(&3) && c.contains(&7));
        assert_eq!(min, [3, 7]);
    }

    #[test]
    fn preserves_order_and_is_one_minimal() {
        // Property: sum of the kept items is at least 25; items 9+9+9
        // would do, but greedy deletion keeps whatever suffices.
        let items = vec![9, 1, 9, 1, 9, 1, 1];
        let min = greedy_min_subset(&items, |c| c.iter().sum::<i32>() >= 25);
        assert!(min.iter().sum::<i32>() >= 25);
        for skip in 0..min.len() {
            let without: Vec<i32> = min
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, v)| *v)
                .collect();
            assert!(
                without.iter().sum::<i32>() < 25,
                "result is not 1-minimal: could drop index {skip}"
            );
        }
        // Order is the original order (a subsequence, never a permutation).
        let mut it = items.iter();
        assert!(min.iter().all(|m| it.any(|v| v == m)));
    }

    #[test]
    fn shrinking_a_minimal_subset_is_a_no_op() {
        let items: Vec<u32> = (0..37).collect();
        let keeps = |c: &[u32]| c.contains(&5) && c.contains(&23) && c.contains(&36);
        let min = greedy_min_subset(&items, keeps);
        assert_eq!(greedy_min_subset(&min, keeps), min, "not idempotent");
    }

    #[test]
    fn empty_input_and_always_true_predicates_are_safe() {
        let empty: Vec<u8> = Vec::new();
        assert!(greedy_min_subset(&empty, |_| true).is_empty());
        assert!(greedy_min_subset(&[1u8, 2, 3], |_| true).is_empty());
        // A predicate that rejects every deletion keeps everything.
        let items = [1u8, 2, 3];
        assert_eq!(greedy_min_subset(&items, |c| c.len() == 3), items);
    }
}
