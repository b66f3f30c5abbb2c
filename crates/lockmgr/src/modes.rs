//! The S and X lock modes with their \[GR93\] compatibility and supremum.

use std::fmt;

/// The two lock modes the GiST protocols take: record locks, signaling
/// locks and transaction-id locks are all `S` or `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared.
    S,
    /// Exclusive.
    X,
}

impl LockMode {
    /// Both modes, weaker first.
    pub const ALL: [LockMode; 2] = [LockMode::S, LockMode::X];

    /// Whether a holder of `self` permits a concurrent grant of `other`:
    /// only two shared holders coexist.
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::S && other == LockMode::S
    }

    /// Least mode at least as strong as both (`sup` in \[GR93\]).
    pub fn supremum(self, other: LockMode) -> LockMode {
        self.max(other)
    }

    /// Whether `self` is at least as strong as `other` (i.e. granting
    /// `self` covers a request for `other`).
    pub fn covers(self, other: LockMode) -> bool {
        self.supremum(other) == self
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::LockMode::{self, *};

    #[test]
    fn matrix_is_symmetric() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                assert_eq!(a.compatible(b), b.compatible(a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn classic_compatibilities() {
        assert!(S.compatible(S));
        assert!(!S.compatible(X));
        assert!(!X.compatible(X));
    }

    #[test]
    fn supremum_is_commutative_and_covering() {
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                let s = a.supremum(b);
                assert_eq!(s, b.supremum(a), "{a} sup {b}");
                assert!(s.covers(a), "{s} covers {a}");
                assert!(s.covers(b), "{s} covers {b}");
            }
        }
    }

    #[test]
    fn supremum_examples() {
        assert_eq!(S.supremum(S), S);
        assert_eq!(S.supremum(X), X);
        assert_eq!(X.supremum(S), X);
    }

    #[test]
    fn covers_is_reflexive() {
        for a in LockMode::ALL {
            assert!(a.covers(a));
        }
        assert!(X.covers(S));
        assert!(!S.covers(X));
    }
}
