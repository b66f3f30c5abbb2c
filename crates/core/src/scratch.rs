//! Inline scratch collections for per-operation traversal state.
//!
//! A point lookup visits three or four nodes and delivers one RID; a
//! descent stacks one ancestor per level. Heap-backed `Vec`/`HashSet`
//! scratch for that costs an allocation (and, for the set, a SipHash) per
//! operation for a handful of `Copy` items. These two types keep the
//! first `N` items inline and spill to the heap beyond that, so the
//! common case allocates nothing and the large case (a long range scan's
//! `seen` set) keeps its old asymptotics.

use std::collections::HashSet;
use std::hash::Hash;

/// A stack/vector of `Copy` items: the first `N` live inline, the rest
/// in a `Vec` (which allocates only when first used). Order is insertion
/// order across both parts.
#[derive(Debug, Clone)]
pub(crate) struct InlineVec<T: Copy, const N: usize> {
    head: [Option<T>; N],
    head_len: usize,
    tail: Vec<T>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    pub(crate) fn new() -> Self {
        InlineVec { head: [None; N], head_len: 0, tail: Vec::new() }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.head_len < N {
            self.head[self.head_len] = Some(item);
            self.head_len += 1;
        } else {
            self.tail.push(item);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        if let Some(item) = self.tail.pop() {
            return Some(item);
        }
        if self.head_len == 0 {
            return None;
        }
        self.head_len -= 1;
        self.head[self.head_len].take()
    }

    pub(crate) fn len(&self) -> usize {
        self.head_len + self.tail.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.head[..self.head_len].iter().flatten().chain(self.tail.iter()).copied()
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

/// A set of `Copy` items: up to `N` members are kept inline and found by
/// linear scan; the `N + 1`-th member moves everything into a `HashSet`.
#[derive(Debug, Clone)]
pub(crate) struct InlineSet<T: Copy + Eq + Hash, const N: usize> {
    small: InlineVec<T, N>,
    /// Holds every member once the inline part has overflowed.
    large: Option<HashSet<T>>,
}

impl<T: Copy + Eq + Hash, const N: usize> InlineSet<T, N> {
    pub(crate) fn new() -> Self {
        InlineSet { small: InlineVec::new(), large: None }
    }

    pub(crate) fn contains(&self, item: &T) -> bool {
        match &self.large {
            Some(set) => set.contains(item),
            None => self.small.iter().any(|m| m == *item),
        }
    }

    /// Add `item`; returns whether it was new.
    pub(crate) fn insert(&mut self, item: T) -> bool {
        if let Some(set) = &mut self.large {
            return set.insert(item);
        }
        if self.contains(&item) {
            return false;
        }
        if self.small.len() < N {
            self.small.push(item);
        } else {
            let mut set: HashSet<T> = self.small.iter().collect();
            set.insert(item);
            self.large = Some(set);
        }
        true
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match &self.large {
            Some(set) => set.len(),
            None => self.small.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_is_lifo_across_the_spill_boundary() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert_eq!(v.pop(), None);
        for i in 0..10 {
            v.push(i);
        }
        assert_eq!(v.len(), 10);
        assert_eq!(v.iter().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        for i in (0..10).rev() {
            assert_eq!(v.pop(), Some(i));
        }
        assert_eq!(v.pop(), None);
        // Refill after draining back below the boundary.
        v.extend([7, 8]);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![7, 8]);
    }

    #[test]
    fn set_dedupes_inline_and_spilled() {
        let mut s: InlineSet<u32, 4> = InlineSet::new();
        for round in 0..2 {
            for i in 0..10 {
                assert_eq!(s.insert(i), round == 0, "item {i} round {round}");
            }
        }
        assert_eq!(s.len(), 10);
        assert!((0..10).all(|i| s.contains(&i)) && !s.contains(&10));
    }
}
