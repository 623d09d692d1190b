//! Property-based verification of the dirty-row external-contribution
//! cache: across random update arrival patterns (set vs merge, arbitrary
//! sources, arbitrary row subsets, interleaved refreshes) the cached
//! [`AfferentState`] must materialize an `X` vector that is **bit-for-bit**
//! identical to a full rebuild — zero `X`, then add every received payload
//! in ascending source order. Floating-point addition is not associative,
//! so this only holds because the cache re-sums each stale row from
//! scratch in that same order.

use std::collections::BTreeMap;

use dpr::core::AfferentState;
use proptest::prelude::*;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The reference: per-source payloads, `X` rebuilt from all of them on
/// every refresh after a change.
struct FullRebuild {
    received: BTreeMap<u32, Vec<(u32, f64)>>,
    x: Vec<f64>,
    dirty: bool,
    rows_recomputed: u64,
}

impl FullRebuild {
    fn new(n: usize) -> Self {
        Self { received: BTreeMap::new(), x: vec![0.0; n], dirty: false, rows_recomputed: 0 }
    }

    fn set(&mut self, src: u32, entries: Vec<(u32, f64)>) {
        self.received.insert(src, entries);
        self.dirty = true;
    }

    /// Upsert per entry; absent entries keep their previous value.
    fn merge(&mut self, src: u32, entries: &[(u32, f64)]) {
        if entries.is_empty() {
            return;
        }
        let stored = self.received.entry(src).or_default();
        for &(li, s) in entries {
            match stored.binary_search_by_key(&li, |&(i, _)| i) {
                Ok(pos) => stored[pos].1 = s,
                Err(pos) => stored.insert(pos, (li, s)),
            }
        }
        self.dirty = true;
    }

    fn refresh(&mut self) -> &[f64] {
        if self.dirty {
            self.x.iter_mut().for_each(|v| *v = 0.0);
            for entries in self.received.values() {
                for &(li, s) in entries {
                    self.x[li as usize] += s;
                }
            }
            self.rows_recomputed += self.x.len() as u64;
            self.dirty = false;
        }
        &self.x
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random op sequences, including the zero-update extreme (a refresh
    /// before anything arrived, and ops whose entry set filters to empty).
    #[test]
    fn dirty_row_cache_matches_full_rebuild_bit_for_bit(
        n in 1usize..40,
        ops in prop::collection::vec(
            (
                0u32..8,                                              // source group
                any::<bool>(),                                        // merge vs set
                any::<bool>(),                                        // refresh afterwards?
                prop::collection::vec((0u32..40, -1.0f64..1.0), 0..=40),
            ),
            0..60,
        ),
    ) {
        let mut cached = AfferentState::new(n);
        let mut full = FullRebuild::new(n);
        // Zero-update extreme: refreshing before any arrival is a no-op.
        prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
        for (src, is_merge, refresh_after, mut raw) in ops {
            // Sort and deduplicate by row, keeping only rows the group owns
            // — ascending unique local indices, what `localize` guarantees
            // in production.
            raw.sort_by_key(|&(li, _)| li);
            raw.dedup_by_key(|&mut (li, _)| li);
            let entries: Vec<(u32, f64)> =
                raw.into_iter().filter(|&(li, _)| (li as usize) < n).collect();
            if is_merge {
                cached.merge(src, &entries);
                full.merge(src, &entries);
            } else {
                cached.set(src, entries.clone());
                full.set(src, entries);
            }
            if refresh_after {
                prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
            }
        }
        prop_assert_eq!(bits(cached.refresh()), bits(full.refresh()));
        prop_assert_eq!(cached.n_sources(), full.received.len());
        // The cache must never do *more* row work than the full rebuild.
        prop_assert!(cached.rows_recomputed() <= full.rows_recomputed);
    }
}

/// The all-updated extreme: when every source re-publishes every row each
/// round, the cache has nothing to skip — it must degrade gracefully to
/// exactly the full rebuild's work and bits.
#[test]
fn all_rows_updated_every_round_still_bit_identical() {
    let n = 16usize;
    let mut cached = AfferentState::new(n);
    let mut full = FullRebuild::new(n);
    for round in 0..20u32 {
        for src in 0..4u32 {
            let entries: Vec<(u32, f64)> =
                (0..n as u32).map(|li| (li, f64::from(round * 31 + src * 7 + li) * 0.01)).collect();
            cached.set(src, entries.clone());
            full.set(src, entries);
        }
        assert_eq!(bits(cached.refresh()), bits(full.refresh()), "round {round}");
    }
    // Every row was stale at every refresh: identical work on both sides.
    assert_eq!(cached.rows_recomputed(), full.rows_recomputed);
}

/// A replaced source whose new `Y` no longer touches a row must retract its
/// old contribution from that row (the regression the inverted index could
/// get wrong silently).
#[test]
fn replacement_retracts_abandoned_rows() {
    let mut cached = AfferentState::new(4);
    let mut full = FullRebuild::new(4);
    cached.set(0, vec![(0, 1.0), (2, 2.0)]);
    full.set(0, vec![(0, 1.0), (2, 2.0)]);
    cached.set(1, vec![(2, 0.5)]);
    full.set(1, vec![(2, 0.5)]);
    cached.refresh();
    full.refresh();
    // Source 0 re-publishes without row 2: row 2 must fall back to
    // source 1's contribution alone.
    cached.set(0, vec![(0, 3.0), (1, 0.25)]);
    full.set(0, vec![(0, 3.0), (1, 0.25)]);
    assert_eq!(cached.refresh(), &[3.0, 0.25, 0.5, 0.0]);
    assert_eq!(bits(cached.refresh()), bits(full.refresh()));
    // Rows 0/1/2 went stale; row 3 was never touched.
    assert!(cached.rows_recomputed() < full.rows_recomputed);
}

/// Retracting a source (one a crawl delta cut off) must leave exactly the
/// bits of a rebuild that never heard from it, and touch only its rows.
#[test]
fn retraction_matches_a_rebuild_without_the_source() {
    let mut cached = AfferentState::new(5);
    let mut full = FullRebuild::new(5);
    for (src, entries) in
        [(0, vec![(0, 0.1), (3, 0.7)]), (4, vec![(3, 1e-9), (4, 0.3)]), (9, vec![(1, 0.25)])]
    {
        cached.set(src, entries.clone());
        if src != 4 {
            full.set(src, entries);
        }
    }
    cached.refresh();
    let before = cached.rows_recomputed();
    assert!(cached.retract(4));
    assert!(!cached.retract(4), "a second retraction finds nothing");
    assert!(!cached.retract(7), "never-heard sources are a no-op");
    assert_eq!(bits(cached.refresh()), bits(full.refresh()));
    assert_eq!(cached.n_sources(), 2);
    assert_eq!(cached.rows_recomputed() - before, 2, "only source 4's rows go stale");
}
