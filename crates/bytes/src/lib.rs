//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a minimal API-compatible implementation of the parts of `bytes`
//! that MassBFT uses: the [`Bytes`] type — an immutable, reference-counted
//! view into a shared byte buffer whose `clone()` is a refcount bump and
//! whose `slice()` is pointer arithmetic, never a copy.
//!
//! The representation is an `Arc<[u8]>` plus an `(offset, len)` window,
//! which loses the small-vector and static-slice optimizations of the real
//! crate but preserves the property the replication data plane depends on:
//! passing a chunk payload around is O(1), not O(len). Building one from a
//! slice ([`Bytes::copy_from_slice`], `From<&[u8]>`, [`Bytes::from_static`])
//! costs one allocation and one copy; building one from a `Vec<u8>` or a
//! `Box<[u8]>` copies too, where the real crate adopts the buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of shared memory.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates `Bytes` by copying a slice: one allocation and one copy
    /// (`Arc<[u8]>::from(&[u8])`), then free clones.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            offset: 0,
            len: data.len(),
        }
    }

    /// Creates a `Bytes` from a static slice (copies once; the real crate
    /// keeps the reference, but the observable behaviour is identical).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a new `Bytes` windowing the given subrange of `self`
    /// without copying.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// The bytes of the view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Copies the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies: `Arc<[u8]>` keeps its reference counts in the same
    /// allocation as the bytes, so the vector's buffer cannot be adopted.
    /// (An `Arc<Vec<u8>>` representation would adopt it, and was measured:
    /// no CPU change on the benchmark's heaviest workload and +81 MB RSS
    /// from the capacity every retained vector keeps — do not switch.)
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: v.into(),
            offset: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let len = v.len();
        Bytes {
            data: v.into(),
            offset: 0,
            len,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let c = b.clone();
        assert_eq!(Arc::strong_count(&b.data), 2);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn slice_is_zero_copy_window() {
        let b = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let s = b.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(s.as_slice(), &(4u8..12).collect::<Vec<u8>>()[..]);
        assert_eq!(Arc::strong_count(&b.data), 2);
        let s2 = s.slice(2..);
        assert_eq!(s2.as_slice()[0], 6);
    }

    #[test]
    fn equality_and_deref() {
        let b = Bytes::from(vec![9u8, 8, 7]);
        assert_eq!(b, vec![9u8, 8, 7]);
        assert_eq!(b[1], 8);
        assert_eq!(&b[..2], &[9, 8]);
        assert!(!b.is_empty());
        assert!(Bytes::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn bad_slice_panics() {
        let b = Bytes::from(vec![1u8]);
        let _ = b.slice(0..2);
    }
}
