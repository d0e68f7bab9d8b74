//! `Bytes`: an immutable, cheaply clonable, sliceable byte buffer.
//!
//! The part of the `bytes` 1.x API this workspace, its tests and
//! `bench_e2e` call, and nothing else: a view (`start..end`) into either
//! a `'static` slice or a reference-counted allocation. A clone or a
//! [`Bytes::slice`] bumps a reference count and copies no bytes.
//! Comparison, ordering and hashing are those of the viewed `[u8]`, so a
//! `Bytes` key in a map can be looked up by `&[u8]`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

/// A view into shared, immutable bytes.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
///
/// let whole = Bytes::from(vec![1u8, 2, 3, 4]);
/// let tail = whole.slice(2..);
/// assert_eq!(&tail[..], &[3, 4]);
/// assert_eq!(whole.len(), 4);
/// ```
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer; allocates nothing.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// A view of a `'static` slice; allocates nothing.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::shared(Arc::from(data))
    }

    fn shared(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            repr: Repr::Shared(data),
            start: 0,
            end,
        }
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are in view.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` (relative to this view) sharing its storage.
    ///
    /// # Panics
    ///
    /// Panics when the range is decreasing or out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of 0..{len}"
        );
        Bytes {
            repr: self.repr.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
        };
        &all[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
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

/// Copies: an `Arc<[u8]>` keeps its counts in front of the bytes, so the
/// vector's bytes move into a fresh allocation and the vector is freed. A
/// caller that fills a `Vec` only to wrap it writes every byte twice.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::shared(Arc::from(v))
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

/// Hashes as the viewed `[u8]` does, which `Borrow<[u8]>` requires.
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// Prints as a byte-string literal, `b"ab\x00"`.
impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.as_slice().escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn constructors_agree_on_content() {
        let v = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(v, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(v, Bytes::from_static(&[1, 2, 3]));
        assert_eq!(v, Bytes::from(&[1u8, 2, 3][..]));
        assert_eq!(Bytes::from(String::from("ab")), Bytes::from_static(b"ab"));
        assert!(Bytes::new().is_empty() && Bytes::default().is_empty());
        assert_eq!((v.len(), &v[..]), (3, &[1u8, 2, 3][..]));
    }

    #[test]
    fn slices_are_relative_views_of_the_same_allocation() {
        let whole = Bytes::from((0u8..10).collect::<Vec<_>>());
        let mid = whole.slice(2..8);
        assert_eq!(&mid[..], &[2, 3, 4, 5, 6, 7]);
        // A slice of a slice is relative to the slice, not the allocation.
        assert_eq!(&mid.slice(1..=2)[..], &[3, 4]);
        assert_eq!(&mid.slice(..)[..], &mid[..]);
        assert!(mid.slice(3..3).is_empty());
        assert!(std::ptr::eq(&whole[2], &mid[0]), "slice copied its bytes");
        assert!(std::ptr::eq(&whole[0], &whole.clone()[0]));
    }

    #[test]
    #[should_panic(expected = "out of 0..3")]
    fn out_of_range_slice_panics() {
        Bytes::from_static(b"abc").slice(2..4);
    }

    #[test]
    fn compares_orders_and_hashes_as_its_bytes() {
        let a = Bytes::from_static(b"apple");
        let b = Bytes::from(b"xbanana".to_vec()).slice(1..);
        assert!(a < b && a != b);
        assert_eq!(a.cmp(&b), a[..].cmp(&b[..]));
        let ordered: BTreeMap<Bytes, u8> = [(b.clone(), 2), (a.clone(), 1)].into();
        assert_eq!(ordered.values().copied().collect::<Vec<_>>(), vec![1, 2]);
        // Borrow<[u8]>: lookup by slice finds the Bytes key.
        let hashed: HashMap<Bytes, u8> = [(a, 1), (b, 2)].into();
        assert_eq!(hashed.get(&b"banana"[..]), Some(&2));
        assert_eq!(ordered.get(&b"apple"[..]), Some(&1));
    }

    #[test]
    fn debug_is_a_byte_string_literal() {
        let text = format!("{:?}", Bytes::from_static(b"a\"\x00\n"));
        assert_eq!(text, r#"b"a\"\x00\n""#);
    }
}
