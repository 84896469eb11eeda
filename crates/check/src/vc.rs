//! Vector clocks: the partial order underlying both the happens-before
//! race detector and the stale-value eligibility floor in the memory model.
//!
//! Thread ids are small dense indices assigned at spawn, so a `Vec<u32>`
//! (grown on demand) is the whole representation.

/// A vector clock over model-thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u32>);

impl VClock {
    /// The component for `tid` (0 if never touched).
    pub(crate) fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    /// Set the component for `tid`.
    pub(crate) fn set(&mut self, tid: usize, v: u32) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] = v;
    }

    /// Increment `tid`'s own component and return the new value.
    pub(crate) fn bump(&mut self, tid: usize) -> u32 {
        let v = self.get(tid) + 1;
        self.set(tid, v);
        v
    }

    /// Pointwise maximum: `self ← self ⊔ other`.
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    /// Does this clock know about event `(tid, stamp)`?  I.e. does
    /// `stamp ≤ self[tid]` — the event happens-before the clock's owner.
    pub(crate) fn dominates(&self, tid: usize, stamp: u32) -> bool {
        self.get(tid) >= stamp
    }

    /// Iterate over `(tid, component)` pairs with non-zero components.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.0.iter().copied().enumerate().filter(|&(_, v)| v != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_dominates() {
        let mut a = VClock::default();
        a.bump(0);
        a.bump(0);
        let mut b = VClock::default();
        b.bump(3);
        assert!(!a.dominates(3, 1));
        a.join(&b);
        assert!(a.dominates(3, 1));
        assert!(a.dominates(0, 2));
        assert!(!a.dominates(0, 3));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 2), (3, 1)]);
    }
}
