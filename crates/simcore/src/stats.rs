//! Online statistics helpers used throughout the experiment harness.

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics when the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// use ef_simcore::stats::mse;
/// assert_eq!(mse(&[1.0, 2.0], &[1.0, 4.0]), 2.0);
/// ```
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(!a.is_empty(), "empty input");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Mean absolute relative error `mean(|a-b| / |a|)` — the "estimation error"
/// metric the paper reports for Algorithm 1 (< 4 %).
///
/// # Panics
///
/// Panics when the slices differ in length, are empty, or a reference value
/// is zero.
pub fn mean_relative_error(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "length mismatch");
    assert!(!reference.is_empty(), "empty input");
    reference
        .iter()
        .zip(estimate)
        .map(|(r, e)| {
            assert!(*r != 0.0, "zero reference value");
            ((r - e) / r).abs()
        })
        .sum::<f64>()
        / reference.len() as f64
}

/// A fixed-bucket histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal-width buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        assert!(lo < hi, "empty range");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.buckets.len() as f64) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Approximate quantile `q ∈ [0,1]` from bucket midpoints.
    ///
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let in_range: u64 = self.buckets.iter().sum();
        if in_range == 0 {
            return None;
        }
        let target = (q * in_range as f64).ceil().max(1.0) as u64;
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + width * (i as f64 + 0.5));
            }
        }
        Some(self.hi - width / 2.0)
    }
}

/// How two readings of one counter combine in a family's `merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Event counts and byte totals add, saturating at `u64::MAX`.
    Sum,
    /// High-water marks and worst cases keep the larger reading.
    Max,
}

impl Fold {
    /// Combines two readings.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a.saturating_add(b),
            Fold::Max => a.max(b),
        }
    }
}

/// What a non-zero counter says about the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Accrues on healthy traffic once its feature is armed.
    Routine,
    /// Something went wrong, or a mitigation acted on it.
    Fault,
}

/// One counter of a [`counters!`](crate::counters) family as `fields()`
/// reports it: the declaration next to the current reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The family (struct) name.
    pub family: &'static str,
    /// The field name.
    pub name: &'static str,
    /// The field's doc comment, lines concatenated.
    pub doc: &'static str,
    /// How `merge` combines it.
    pub fold: Fold,
    /// Whether a non-zero reading breaks quietness.
    pub class: Class,
    /// The reading.
    pub value: u64,
}

impl Counter {
    /// False only for a non-zero [`Class::Fault`] counter.
    pub fn is_quiet(&self) -> bool {
        self.class == Class::Routine || self.value == 0
    }
}

/// Declares families of end-of-run `u64` counters. Each field is written
/// once, as `/// doc` then `name: fold class,` with fold `sum` | `max`
/// ([`Fold`](crate::stats::Fold)) and class `routine` | `fault`
/// ([`Class`](crate::stats::Class)); everything that has to agree with
/// the declaration is generated from it: the `Copy + Default + Eq` struct
/// with one public `u64` per counter, `merge`, `is_quiet` and `fields()`.
///
/// ```
/// ef_simcore::counters! {
///     /// Door counters.
///     pub struct DoorStats {
///         /// Most people inside at once.
///         peak: max routine,
///         /// Times it jammed.
///         jams: sum fault,
///     }
/// }
/// let mut a = DoorStats { peak: 5, jams: 0 };
/// a.merge(&DoorStats { peak: 3, jams: 1 });
/// assert_eq!((a.peak, a.jams, a.is_quiet()), (5, 1, false));
/// assert_eq!(a.fields().map(|c| c.name).collect::<Vec<_>>(), ["peak", "jams"]);
/// ```
#[macro_export]
macro_rules! counters {
    (@fold sum) => { $crate::stats::Fold::Sum };
    (@fold max) => { $crate::stats::Fold::Max };
    (@class routine) => { $crate::stats::Class::Routine };
    (@class fault) => { $crate::stats::Class::Fault };
    ($(
        $(#[doc = $family_doc:literal])+
        pub struct $family:ident {
            $(
                $(#[doc = $doc:literal])+
                $field:ident: $fold:ident $class:ident,
            )+
        }
    )+) => {$(
        $(#[doc = $family_doc])+
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $family {
            $(
                $(#[doc = $doc])+
                pub $field: u64,
            )+
        }

        impl $family {
            /// Folds `other` into `self`, each counter by its declared
            /// fold: sums saturate, maxima keep the larger reading.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field = $crate::counters!(@fold $fold).apply(self.$field, other.$field);)+
            }

            /// True when no fault-class counter is non-zero.
            pub fn is_quiet(&self) -> bool {
                self.fields().all(|c| c.is_quiet())
            }

            /// Every counter in declaration order, declaration and
            /// reading together.
            pub fn fields(&self) -> impl Iterator<Item = $crate::stats::Counter> {
                [$($crate::stats::Counter {
                    family: stringify!($family),
                    name: stringify!($field),
                    doc: concat!($($doc),+),
                    fold: $crate::counters!(@fold $fold),
                    class: $crate::counters!(@class $class),
                    value: self.$field,
                }),+]
                .into_iter()
            }

            /// Test support, the inverse of `fields()`: the family that
            /// reads `values`, exactly one per counter.
            #[doc(hidden)]
            pub fn from_values(values: &[u64]) -> Self {
                let n = [$(stringify!($field)),+].len();
                assert_eq!(values.len(), n, "a value per counter");
                let mut values = values.iter().copied();
                $family { $($field: values.next().unwrap_or(0),)+ }
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basic() {
        assert_eq!(mse(&[0.0, 0.0], &[3.0, 4.0]), 12.5);
    }

    #[test]
    fn relative_error_basic() {
        let e = mean_relative_error(&[2.0, 4.0], &[1.9, 4.2]);
        assert!((e - 0.05).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.add(i as f64 / 10.0);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        let median = h.quantile(0.5).unwrap();
        assert!((median - 4.5).abs() <= 1.0, "median {median}");
    }

    #[test]
    fn histogram_overflow_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-1.0);
        h.add(2.0);
        h.add(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 3);
    }
}
