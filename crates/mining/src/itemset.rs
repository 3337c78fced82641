//! Compact itemsets over the boolean item view.
//!
//! An *item* is one boolean column of the categorical database's boolean
//! mapping — i.e. one `(attribute, category)` pair. An *itemset* is a
//! set of items, stored as a `u64` bitmask (the paper's datasets have
//! `M_b = 23` and `27` items, comfortably within 64).

/// A set of items as a `u64` bitmask. Item `i` is bit `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ItemSet(pub u64);

impl ItemSet {
    /// The empty itemset.
    pub const EMPTY: ItemSet = ItemSet(0);

    /// Singleton itemset `{item}`.
    pub fn singleton(item: usize) -> Self {
        debug_assert!(item < 64);
        ItemSet(1u64 << item)
    }

    /// Builds an itemset from item indices.
    pub fn from_items(items: &[usize]) -> Self {
        let mut mask = 0u64;
        for &i in items {
            debug_assert!(i < 64);
            mask |= 1u64 << i;
        }
        ItemSet(mask)
    }

    /// Number of items (popcount).
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the itemset is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Whether `self` contains `other` as a subset.
    pub fn contains(&self, other: ItemSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two itemsets.
    pub fn union(&self, other: ItemSet) -> ItemSet {
        ItemSet(self.0 | other.0)
    }

    /// Intersection of two itemsets.
    pub fn intersect(&self, other: ItemSet) -> ItemSet {
        ItemSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: ItemSet) -> ItemSet {
        ItemSet(self.0 & !other.0)
    }

    /// Iterates the item indices in ascending order.
    pub fn items(&self) -> impl Iterator<Item = usize> + '_ {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            if rest == 0 {
                None
            } else {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(i)
            }
        })
    }

    /// Collects the item indices into a vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.items().collect()
    }

    /// Iterates all subsets obtained by removing exactly one item — the
    /// `(k−1)`-subsets used by the Apriori prune step.
    pub fn remove_one_subsets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        let mask = self.0;
        self.items().map(move |i| ItemSet(mask & !(1u64 << i)))
    }

    /// Iterates every non-empty *proper* subset (for rule generation).
    /// Exponential in `len()`; intended for the short itemsets of
    /// association-rule mining.
    pub fn proper_subsets(&self) -> Vec<ItemSet> {
        let items = self.to_vec();
        let k = items.len();
        let mut out = Vec::with_capacity((1usize << k).saturating_sub(2));
        for pattern in 1..(1u64 << k) {
            if pattern == (1u64 << k) - 1 {
                continue; // skip the full set
            }
            let mut mask = 0u64;
            for (bit, &item) in items.iter().enumerate() {
                if pattern >> bit & 1 == 1 {
                    mask |= 1u64 << item;
                }
            }
            out.push(ItemSet(mask));
        }
        out
    }
}

impl std::fmt::Display for ItemSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.items().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Converts a boolean row into its item bitmask.
pub fn row_to_mask(row: &[bool]) -> u64 {
    debug_assert!(row.len() <= 64, "item universe must fit in 64 bits");
    row.iter()
        .enumerate()
        .fold(0u64, |m, (i, &b)| if b { m | 1u64 << i } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_membership() {
        let s = ItemSet::singleton(5);
        assert_eq!(s.len(), 1);
        assert!(s.contains(ItemSet::singleton(5)));
        assert!(!s.contains(ItemSet::singleton(4)));
    }

    #[test]
    fn from_items_round_trips() {
        let s = ItemSet::from_items(&[3, 17, 60]);
        assert_eq!(s.to_vec(), vec![3, 17, 60]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_items_collapse() {
        let s = ItemSet::from_items(&[2, 2, 2]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = ItemSet::from_items(&[1, 2, 3]);
        let b = ItemSet::from_items(&[3, 4]);
        assert_eq!(a.union(b).to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(a.intersect(b).to_vec(), vec![3]);
        assert_eq!(a.difference(b).to_vec(), vec![1, 2]);
        assert!(a.contains(ItemSet::from_items(&[1, 3])));
        assert!(!a.contains(b));
        assert!(a.contains(ItemSet::EMPTY));
    }

    #[test]
    fn remove_one_subsets_yields_k_subsets() {
        let s = ItemSet::from_items(&[0, 4, 9]);
        let subs: Vec<_> = s.remove_one_subsets().collect();
        assert_eq!(subs.len(), 3);
        for sub in &subs {
            assert_eq!(sub.len(), 2);
            assert!(s.contains(*sub));
        }
    }

    #[test]
    fn proper_subsets_count() {
        let s = ItemSet::from_items(&[2, 5, 11]);
        let subs = s.proper_subsets();
        // 2^3 − 2 (skip empty handled by range start, skip full).
        assert_eq!(subs.len(), 6);
        assert!(subs
            .iter()
            .all(|x| s.contains(*x) && !x.is_empty() && *x != s));
    }

    #[test]
    fn display_formats_items() {
        let s = ItemSet::from_items(&[1, 9]);
        assert_eq!(format!("{s}"), "{1,9}");
    }

    #[test]
    fn row_to_mask_matches_bits() {
        let row = vec![true, false, false, true];
        assert_eq!(row_to_mask(&row), 0b1001);
    }
}
