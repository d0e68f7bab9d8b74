//! Offline stand-in for `bytes` 1.x: an immutable, cheaply clonable byte
//! buffer. Only `Bytes` is provided, with the constructors and slice
//! access the workspace uses; a clone bumps a reference count, as in the
//! real crate.

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

#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
            start: 0,
            end: bytes.len(),
        }
    }

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

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` sharing this buffer's storage.
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
        assert!(begin <= end && end <= len, "slice {begin}..{end} out of 0..{len}");
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

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::shared(Arc::from(v))
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

