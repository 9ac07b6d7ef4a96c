//! A fixed-width set of small indices, one bit each, walked in ascending
//! order. The factorization keeps its zero-cost pivot columns in one,
//! primal pricing its eligible columns and the dual loop its primal
//! infeasible rows, so none rescans the indices whose membership did not
//! change.

/// A set of indices below the width given to [`BitSet::reset`].
#[derive(Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Empty the set and make room for indices `0..n`, reusing storage.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Add `i` when `on`, remove it otherwise.
    pub(crate) fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        if on {
            self.words[i / 64] |= bit;
        } else {
            self.words[i / 64] &= !bit;
        }
    }

    /// Add `i`; whether it was absent.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    /// Whether `i` is in the set.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The members at or above `from`, in ascending order.
    pub(crate) fn iter_from(&self, from: usize) -> Ones<'_> {
        let w = from / 64;
        let cur = match self.words.get(w) {
            Some(&word) => word & (u64::MAX << (from % 64)),
            None => 0,
        };
        Ones {
            words: &self.words,
            w,
            cur,
        }
    }
}

/// Ascending iterator over a [`BitSet`]'s members.
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    w: usize,
    cur: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.w += 1;
            self.cur = *self.words.get(self.w)?;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.w * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_members_in_order_from_any_start() {
        let mut s = BitSet::default();
        s.reset(200);
        for i in [0, 3, 63, 64, 130, 199] {
            s.set(i, true);
        }
        s.set(3, false);
        assert!(s.contains(63) && !s.contains(3));
        assert!(!s.insert(63) && s.insert(3) && s.contains(3));
        s.set(3, false);
        assert_eq!(s.iter_from(0).collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        assert_eq!(s.iter_from(64).collect::<Vec<_>>(), [64, 130, 199]);
        assert_eq!(s.iter_from(131).collect::<Vec<_>>(), [199]);
        assert_eq!(s.iter_from(200).next(), None);
        s.reset(10);
        assert_eq!(s.iter_from(0).next(), None);
    }
}
