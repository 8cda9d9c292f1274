//! Cheaply-clonable shared message payloads.
//!
//! A [`Payload`] is an `Arc`-shared word buffer with copy-on-write
//! mutation.  Cloning one — which the engine does for every hop of a
//! broadcast carry, every reliable-transport retry frame, and every
//! relay of a pipelined block — bumps a reference count instead of
//! copying O(message-size) words.  The invariants that make this safe:
//!
//! * A payload handed to the network is immutable from the sender's
//!   point of view: mutation goes through [`Payload::to_mut`], which
//!   clones the buffer first iff any other handle (a receiver's inbox,
//!   a retained retry frame, a sibling broadcast carry) still shares
//!   it.  No observer can see another handle's writes.
//! * Equality and hashing are by value, so two payloads compare equal
//!   exactly as the owned `Vec<Word>`s they replace did.
//! * [`Payload::into_vec`] is move-out-or-clone: free when the handle
//!   is unique (the common case at matrix-assembly boundaries), a
//!   plain copy otherwise.

use std::sync::Arc;

use crate::Word;

/// A shared, copy-on-write message payload (see the module docs).
///
/// Dereferences to `[Word]`, so indexing, slicing and iteration work
/// as on the owned vector it replaces.
#[derive(Debug, Clone, Default)]
pub struct Payload(Arc<Vec<Word>>);

impl Payload {
    /// An empty payload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the words, cloning the buffer first iff it is
    /// shared with another handle (copy-on-write).
    pub fn to_mut(&mut self) -> &mut Vec<Word> {
        Arc::make_mut(&mut self.0)
    }

    /// Extract the owned vector: free when this is the only handle,
    /// otherwise a copy.
    #[must_use]
    pub fn into_vec(self) -> Vec<Word> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Number of other handles sharing this buffer (for tests and
    /// diagnostics; racy under concurrent clones, exact within one
    /// virtual processor).
    #[must_use]
    pub fn shared_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl std::ops::Deref for Payload {
    type Target = [Word];
    fn deref(&self) -> &[Word] {
        &self.0
    }
}

impl From<Vec<Word>> for Payload {
    fn from(words: Vec<Word>) -> Self {
        Self(Arc::new(words))
    }
}

impl From<&[Word]> for Payload {
    fn from(words: &[Word]) -> Self {
        Self(Arc::new(words.to_vec()))
    }
}

impl FromIterator<Word> for Payload {
    fn from_iter<I: IntoIterator<Item = Word>>(iter: I) -> Self {
        Self(Arc::new(iter.into_iter().collect()))
    }
}

impl<'a> IntoIterator for &'a Payload {
    type Item = &'a Word;
    type IntoIter = std::slice::Iter<'a, Word>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        *self.0 == *other.0
    }
}

impl PartialEq<Vec<Word>> for Payload {
    fn eq(&self, other: &Vec<Word>) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<Payload> for Vec<Word> {
    fn eq(&self, other: &Payload) -> bool {
        *self == *other.0
    }
}

impl PartialEq<&[Word]> for Payload {
    fn eq(&self, other: &&[Word]) -> bool {
        self.0.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[Word; N]> for Payload {
    fn eq(&self, other: &[Word; N]) -> bool {
        self.0.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_mutation() {
        let mut a = Payload::from(vec![1.0, 2.0, 3.0]);
        let b = a.clone();
        assert_eq!(a.shared_count(), 2);
        a.to_mut()[0] = 9.0; // copy-on-write detaches a from b
        assert_eq!(a, vec![9.0, 2.0, 3.0]);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
        assert_eq!(b.shared_count(), 1);
    }

    #[test]
    fn unique_mutation_does_not_copy() {
        let mut a = Payload::from(vec![1.0; 4]);
        let ptr = a.as_ptr();
        a.to_mut()[2] = 5.0;
        assert_eq!(a.as_ptr(), ptr, "unique handle must mutate in place");
    }

    #[test]
    fn into_vec_moves_when_unique() {
        let a = Payload::from(vec![1.0, 2.0]);
        let ptr = a.as_ptr();
        let v = a.into_vec();
        assert_eq!(v.as_ptr(), ptr, "unique handle must move out");
        let b = Payload::from(v);
        let c = b.clone();
        assert_eq!(b.into_vec(), c, "shared handle copies");
    }

    #[test]
    fn equality_is_by_value() {
        let a = Payload::from(vec![1.0, 2.0]);
        let b = Payload::from(vec![1.0, 2.0]);
        assert_eq!(a, b);
        assert_eq!(a, vec![1.0, 2.0]);
        assert_eq!(vec![1.0, 2.0], a);
        assert_eq!(a, [1.0, 2.0]);
        assert_eq!(a, &[1.0, 2.0][..]);
        assert_ne!(a, Payload::from(vec![1.0]));
    }

    #[test]
    fn deref_and_iteration() {
        let a = Payload::from(vec![3.0, 1.0]);
        assert_eq!(a[0], 3.0);
        assert_eq!(a.len(), 2);
        assert_eq!((&a).into_iter().copied().sum::<f64>(), 4.0);
        let doubled: Payload = a.iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, vec![6.0, 2.0]);
    }
}
