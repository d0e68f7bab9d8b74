//! A small deterministic property-test harness.
//!
//! [`check`] draws `cases` inputs from a [`Strategy`], runs the property
//! on each (a property fails by panicking: plain `assert!`), and on the
//! first failure shrinks the input and panics with a report. Nothing here
//! reads a clock, the environment or OS entropy: a property's cases are a
//! function of its *name*, so a failure repeats on every machine, and the
//! report carries the case seed [`replay`] needs to go straight to it.
//!
//! Shrinking works on the recorded draw sequence, not on values: every
//! strategy is a function of the `u64`s it takes from a [`Source`], and
//! smaller draws give simpler values (a range draws its offset from the
//! low bound, a vec stops at its first zero flag). The harness makes the
//! failing case's draws shorter and smaller while the property keeps
//! failing and regenerates the input from what is left, so tuples and
//! vecs shrink with no code of their own.

use crate::DetRng;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Property runs one failing case may spend on shrinking.
const MAX_SHRINK_RUNS: u32 = 4096;

/// The `u64` draws a strategy builds its value from: a recorded prefix
/// first, then the generator if there is one, then zeros. Every draw
/// handed out is recorded in `taken`.
#[derive(Debug)]
pub struct Source {
    prefix: Vec<u64>,
    rng: Option<DetRng>,
    taken: Vec<u64>,
}

impl Source {
    fn new(prefix: Vec<u64>, rng: Option<DetRng>) -> Self {
        let taken = Vec::new();
        Source { prefix, rng, taken }
    }

    /// The recorded draw, clamped to `max` so an edited sequence still
    /// yields a valid input, else a `fresh` one.
    fn next(&mut self, max: u64, fresh: impl FnOnce(&mut DetRng) -> u64) -> u64 {
        let v = match (self.prefix.get(self.taken.len()), &mut self.rng) {
            (Some(&recorded), _) => recorded.min(max),
            (None, Some(rng)) => fresh(rng),
            (None, None) => 0,
        };
        self.taken.push(v);
        v
    }

    /// A draw uniform in `0..=max`.
    pub fn draw(&mut self, max: u64) -> u64 {
        self.next(max, |rng| match max {
            u64::MAX => rng.next_u64(),
            _ => rng.range_u64(0, max + 1),
        })
    }

    /// `true` with probability `num / den`, recorded as one or zero.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next(1, |rng| u64::from(rng.range_u64(0, den) < num)) == 1
    }
}

/// A recipe for test inputs. Tuples of up to six strategies are
/// strategies for tuples, drawn left to right.
pub trait Strategy {
    /// What the recipe makes.
    type Value: Debug;

    /// Builds one value from `src`. Smaller draws must give simpler
    /// values: that is the whole shrinking contract.
    fn draw(&self, src: &mut Source) -> Self::Value;
}

/// See [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(PhantomData<T>);

/// Every value of an unsigned integer type or `bool`, shrinking toward
/// zero and `false`.
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn draw(&self, src: &mut Source) -> bool {
        src.draw(1) == 1
    }
}

/// Half-open integer ranges draw uniformly and shrink toward `start`.
macro_rules! integer_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn draw(&self, src: &mut Source) -> $t {
                assert!(self.start < self.end, "empty range {self:?}");
                self.start + src.draw((self.end - self.start - 1) as u64) as $t
            }
        }

        impl Strategy for Any<$t> {
            type Value = $t;
            fn draw(&self, src: &mut Source) -> $t {
                src.draw(<$t>::MAX as u64) as $t
            }
        }
    )*};
}
integer_strategies!(u8, u32, u64, usize);

/// Uniform in `[start, end)` from 53 bits; shrinks toward `start`.
impl Strategy for Range<f64> {
    type Value = f64;
    fn draw(&self, src: &mut Source) -> f64 {
        assert!(self.start < self.end, "empty range {self:?}");
        let unit = src.draw((1 << 53) - 1) as f64 / (1u64 << 53) as f64;
        // Rounding can land on `end` when the bounds are close.
        (self.start + unit * (self.end - self.start)).min(self.end.next_down())
    }
}

/// See [`vec`].
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    elem: S,
    len: Range<usize>,
}

/// Vecs of `elem` with a length uniform in `len`. Past the minimum
/// length each element is announced by a one-or-zero draw, so zeroing a
/// flag ends the vec there and deleting a flag with its element removes
/// that element alone.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecOf<S> {
    VecOf { elem, len }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn draw(&self, src: &mut Source) -> Vec<S::Value> {
        let Range { start, end } = self.len;
        assert!(start < end, "empty length range {:?}", self.len);
        let mut v = Vec::new();
        loop {
            // Of the lengths still possible all but one go on: continuing
            // at that rate makes the length uniform.
            let left = (end - v.len()) as u64;
            if v.len() >= start && !(left > 1 && src.chance(left - 1, left)) {
                return v;
            }
            v.push(self.elem.draw(src));
        }
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident . $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn draw(&self, src: &mut Source) -> Self::Value {
                ($(self.$i.draw(src),)+)
            }
        }
    )*};
}
tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Runs `property` on `cases` inputs drawn from `strategy`; the inputs
/// are a function of `name` alone. Panics with the case seed, the shrunk
/// input and the property's own panic message when a case fails.
pub fn check<S: Strategy>(name: &str, cases: u32, strategy: S, property: impl Fn(S::Value)) {
    let failed = (0..cases).find_map(|case| run_case(case_seed(name, case), &strategy, &property));
    let report = failed.map(|(_, report)| report).unwrap_or_default();
    assert!(report.is_empty(), "property `{name}` {report}");
}

/// The seed of case number `case` of the property called `name`.
fn case_seed(name: &str, case: u32) -> u64 {
    let root = DetRng::new(0).substream(name);
    root.substream_idx("case", u64::from(case)).seed()
}

/// Runs the one case a [`check`] report named, shrinking and panicking
/// as `check` did.
pub fn replay<S: Strategy>(seed: u64, strategy: S, property: impl Fn(S::Value)) {
    let failed = run_case(seed, &strategy, &property);
    let report = failed.map(|(_, report)| report).unwrap_or_default();
    assert!(report.is_empty(), "replayed case {report}");
}

/// One case: `None` when the property holds on it, else the shrunk
/// input and the report on it.
fn run_case<S: Strategy>(
    seed: u64,
    strategy: &S,
    property: &impl Fn(S::Value),
) -> Option<(S::Value, String)> {
    // The draws `src` handed out and the property's panic message, if the
    // property fails on the input `src` yields.
    let failure_on = |mut src: Source| -> Option<(Vec<u64>, String)> {
        let input = strategy.draw(&mut src);
        let payload = catch_unwind(AssertUnwindSafe(|| property(input))).err()?;
        let text = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        Some((src.taken, text.unwrap_or("a non-string payload").to_owned()))
    };
    let (best, message) = failure_on(Source::new(Vec::new(), Some(DetRng::new(seed))))?;
    let mut shrinker = Shrinker {
        failure_on: |draws| failure_on(Source::new(draws, None)),
        best,
        message,
        runs: 0,
    };
    loop {
        let before = shrinker.best.clone();
        shrinker.truncate();
        shrinker.lower_each_draw();
        shrinker.delete_runs_of_draws();
        if shrinker.best == before {
            break;
        }
    }
    let Shrinker {
        best,
        message,
        runs,
        ..
    } = shrinker;
    let input = strategy.draw(&mut Source::new(best, None));
    let report = format!(
        "failed at case seed {seed:#018x}; input after {runs} shrink runs:\n{input:#?}\n\
         which fails with: {message}\n\
         to go straight to it: ef_simcore::prop::replay({seed:#018x}, <strategy>, <property>)"
    );
    Some((input, report))
}

/// The smallest failing draw sequence found so far, and the passes that
/// make it smaller.
struct Shrinker<F> {
    failure_on: F,
    best: Vec<u64>,
    message: String,
    runs: u32,
}

impl<F: Fn(Vec<u64>) -> Option<(Vec<u64>, String)>> Shrinker<F> {
    /// Adopts `candidate` when the property still fails on it and what it
    /// consumed is shortlex-smaller than `best`, so every pass terminates.
    fn attempt(&mut self, candidate: Vec<u64>) -> bool {
        if self.runs == MAX_SHRINK_RUNS {
            return false;
        }
        self.runs += 1;
        match (self.failure_on)(candidate) {
            Some((taken, message)) if (taken.len(), &taken) < (self.best.len(), &self.best) => {
                (self.best, self.message) = (taken, message);
                true
            }
            _ => false,
        }
    }

    fn attempt_with(&mut self, i: usize, v: u64) -> bool {
        let mut candidate = self.best.clone();
        candidate[i] = v;
        self.attempt(candidate)
    }

    /// Bisects for the shortest prefix that still fails. Draws past the
    /// cut replay as zero, which ends every vec and takes every range's
    /// low bound: "fails at step k" loses everything after step k here.
    fn truncate(&mut self) {
        let (mut passing, mut failing) = (0, self.best.len());
        while passing < failing {
            let mid = passing + (failing - passing) / 2;
            if self.attempt(self.best[..mid].to_vec()) {
                failing = mid;
            } else {
                passing = mid + 1;
            }
        }
    }

    /// Lowers each draw as far as the property keeps failing: to zero if
    /// it can, else by bisection between a passing and a failing value —
    /// exact when failure is monotone in the draw, as for a threshold.
    fn lower_each_draw(&mut self) {
        let mut i = 0;
        while i < self.best.len() {
            if self.best[i] > 0 && !self.attempt_with(i, 0) {
                let mut passing = 0;
                while self.best[i] - passing > 1 {
                    let mid = passing + (self.best[i] - passing) / 2;
                    if !self.attempt_with(i, mid) {
                        passing = mid;
                    }
                }
            }
            i += 1;
        }
    }

    /// Deletes runs of draws, longest first, from the back. A vec element
    /// and the flag that announced it are one such run, so this is what
    /// drops the elements a failure does not need.
    fn delete_runs_of_draws(&mut self) {
        for run in [8, 4, 3, 2, 1] {
            let mut end = self.best.len();
            while end >= run {
                let mut candidate = self.best.clone();
                candidate.drain(end - run..end);
                if !self.attempt(candidate) {
                    end -= 1;
                }
                end = end.min(self.best.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first failing case of a property: its seed, the shrunk input
    /// and the report.
    fn falsify<S: Strategy>(
        name: &str,
        strategy: S,
        property: impl Fn(S::Value),
    ) -> (u64, S::Value, String) {
        (0..256)
            .find_map(|case| {
                let seed = case_seed(name, case);
                let (input, report) = run_case(seed, &strategy, &property)?;
                Some((seed, input, report))
            })
            .expect("the planted bug is found within 256 cases")
    }

    /// The inputs `check` feeds a property, in order.
    fn cases_of<S: Strategy>(name: &str, cases: u32, strategy: S) -> Vec<String> {
        let seen = std::cell::RefCell::new(Vec::new());
        check(name, cases, strategy, |v| {
            seen.borrow_mut().push(format!("{v:?}"))
        });
        seen.into_inner()
    }

    #[test]
    fn a_threshold_shrinks_to_the_threshold() {
        let (_, x, _) = falsify("planted_threshold", 0u64..1000, |x| assert!(x < 100));
        assert_eq!(x, 100);
        // Offsets are taken from the low bound, whatever it is.
        let (_, x, _) = falsify("planted_offset", 50u32..1000, |x| assert!(x < 100));
        assert_eq!(x, 100);
    }

    #[test]
    fn a_too_long_vec_shrinks_to_the_shortest_too_long_vec_of_zeros() {
        let (_, v, report) = falsify("planted_length", vec(any::<u8>(), 0..50), |v| {
            assert!(v.len() <= 3, "{} elements", v.len())
        });
        assert_eq!(v, [0, 0, 0, 0]);
        assert!(report.contains("which fails with: 4 elements"), "{report}");
    }

    #[test]
    fn the_one_element_that_matters_survives_and_the_rest_are_deleted() {
        let (_, ops, _) = falsify(
            "planted_element",
            vec((0u8..7, 0usize..90), 1..250),
            |ops| assert!(ops.iter().all(|&(op, len)| op != 5 || len < 60)),
        );
        assert_eq!(ops, [(5, 60)]);
    }

    #[test]
    fn tuples_floats_and_flags_shrink_through_their_draws() {
        let strategy = (10u64..20, 0.5f64..4.0, any::<u32>(), any::<bool>());
        let (_, (n, x, word, flag), _) = falsify("planted_product", strategy, |(n, x, _, _)| {
            assert!(n as f64 * x < 30.0)
        });
        // n shrinks to 10 first, which pins x at the 3.0 boundary.
        assert!(n == 10 && (3.0..3.0 + 1e-9).contains(&x), "{n} * {x}");
        assert_eq!((word, flag), (0, false));
    }

    #[test]
    fn cases_are_a_function_of_the_property_name() {
        let strategy = || (any::<u64>(), vec(0u32..1000, 0..8), 0.0f64..1.0);
        let a = cases_of("some_property", 32, strategy());
        assert_eq!(a, cases_of("some_property", 32, strategy()));
        let b = cases_of("another_property", 32, strategy());
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        // Cases differ from one another, and a longer run extends a
        // shorter one.
        assert!(a.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(cases_of("some_property", 8, strategy()), a[..8]);
    }

    #[test]
    fn draws_stay_in_range_and_cover_it() {
        let seen = cases_of("coverage", 256, (3u8..7, 0usize..2, any::<bool>()));
        for lo in 3..7 {
            for idx in 0..2 {
                for flag in [false, true] {
                    assert!(seen.contains(&format!("({lo}, {idx}, {flag})")));
                }
            }
        }
        assert_eq!(seen.len(), 256);
        check("float_range", 256, -2.5f64..7.5, |x| {
            assert!((-2.5..7.5).contains(&x))
        });
        // Every length of the range turns up, about equally often.
        let lens = std::cell::RefCell::new([0u32; 5]);
        check("vec_lengths", 1000, vec(any::<u64>(), 2..5), |v| {
            lens.borrow_mut()[v.len()] += 1
        });
        let lens = lens.into_inner();
        assert_eq!(lens[..2], [0, 0]);
        assert!(lens[2..].iter().all(|n| (250..420).contains(n)), "{lens:?}");
    }

    #[test]
    fn the_report_names_a_seed_that_replays_to_the_same_shrunk_case() {
        let strategy = || vec(0u64..1_000_000, 0..40);
        let property = |v: Vec<u64>| assert!(v.iter().sum::<u64>() < 1_500_000, "sum too big");
        let report_of = |run: &(dyn Fn() + std::panic::RefUnwindSafe)| -> String {
            let payload = catch_unwind(run).expect_err("the property is false");
            payload.downcast_ref::<String>().expect("a report").clone()
        };

        let first = report_of(&|| check("planted_sum", 256, strategy(), property));
        let (seed, input, report) = falsify("planted_sum", strategy(), property);
        assert_eq!(first, format!("property `planted_sum` {report}"));
        assert!(report.starts_with(&format!("failed at case seed {seed:#018x};")));
        assert!(report.contains(&format!("{input:#?}")));
        assert!(report.contains("which fails with: sum too big"));
        // Not the fewest elements, but lowered onto the bound exactly.
        assert_eq!(input.iter().sum::<u64>(), 1_500_000);

        let again = report_of(&|| replay(seed, strategy(), property));
        assert_eq!(again, format!("replayed case {report}"));
    }

    #[test]
    fn a_true_property_runs_every_case_and_reports_nothing() {
        let runs = std::cell::Cell::new(0);
        check("true_property", 100, any::<u64>(), |_| {
            runs.set(runs.get() + 1)
        });
        assert_eq!(runs.get(), 100);
    }
}
