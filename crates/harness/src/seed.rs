//! Centralized per-trial seed derivation.
//!
//! Every experiment used to roll its own seed scheme — XOR of small
//! salts (`base ^ 0x55`), linear strides (`base + i * 7919`), shifted
//! ids (`base ^ (id << 32)`). Those schemes are *correlated*: nearby
//! cells get seed sequences that are translates or low-bit-XOR twins
//! of each other, so "independent" cells can share the stochastic
//! coin flips inside the censor models. Every trial consumer now funnels
//! through [`derive_trial_seed`], a splitmix64-style finalizing mixer:
//! flipping any bit of the base seed, the cell tag, or the trial index
//! avalanches through the whole output word.
//!
//! The derivation is pure, so the parallel pool computes trial `i`'s
//! seed independently on any worker — seed sequences never depend on
//! execution order or worker count.

use netsim::splitmix64;

/// Derive the seed for trial `index` of the experiment cell `cell_tag`
/// under master seed `base`.
///
/// Three chained splitmix64 rounds — one per input — so distinct
/// (base, tag, index) triples map to decorrelated seeds even when the
/// inputs differ in a single bit.
#[must_use]
pub fn derive_trial_seed(base: u64, cell_tag: u64, index: u32) -> u64 {
    let mut s = splitmix64(base);
    s = splitmix64(s ^ cell_tag);
    splitmix64(s ^ u64::from(index))
}

/// Hash a textual cell label (strategy DSL, experiment name, …) into a
/// tag for [`derive_trial_seed`]. FNV-1a: deterministic across runs
/// and platforms, unlike `std`'s `DefaultHasher`.
#[must_use]
pub fn cell_tag(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::cast_possible_truncation)] // test code
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn derivation_is_pure_and_deterministic() {
        assert_eq!(derive_trial_seed(7, 1, 3), derive_trial_seed(7, 1, 3));
        assert_ne!(derive_trial_seed(7, 1, 3), derive_trial_seed(7, 1, 4));
        assert_ne!(derive_trial_seed(7, 1, 3), derive_trial_seed(7, 2, 3));
        assert_ne!(derive_trial_seed(7, 1, 3), derive_trial_seed(8, 1, 3));
    }

    #[test]
    fn nearby_cells_are_decorrelated() {
        // The old schemes made cell A's sequence a translate of cell
        // B's: seed_a(i) - seed_b(i) constant, or seed_a(i) ^ seed_b(i)
        // constant. The mixer must produce neither.
        let a: Vec<u64> = (0..64).map(|i| derive_trial_seed(1, 0x51, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_trial_seed(1, 0x52, i)).collect();
        let diffs: HashSet<u64> = a.iter().zip(&b).map(|(x, y)| x.wrapping_sub(*y)).collect();
        let xors: HashSet<u64> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert!(diffs.len() > 60, "additive correlation: {}", diffs.len());
        assert!(xors.len() > 60, "xor correlation: {}", xors.len());
    }

    #[test]
    fn no_collisions_across_a_realistic_grid() {
        // 45 cells × 300 trials (Table 2 scale) must not collide.
        let mut seen = HashSet::new();
        for cell in 0..45u64 {
            for i in 0..300u32 {
                assert!(
                    seen.insert(derive_trial_seed(0xBADC_0FFE, cell, i)),
                    "collision at cell {cell} trial {i}"
                );
            }
        }
    }

    #[test]
    fn cell_tag_is_stable_and_discriminating() {
        assert_eq!(cell_tag("table2"), cell_tag("table2"));
        assert_ne!(cell_tag("table2"), cell_tag("table3"));
        assert_ne!(cell_tag(""), cell_tag(" "));
    }
}
