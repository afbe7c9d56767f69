//! # frontier-prop
//!
//! A zero-dependency property-test runner. It implements the slice of
//! `proptest`'s API that the workspace's suites use, and the workspace
//! imports it under the name `proptest`, so a suite reads as it would
//! against the real crate (`proptest::prelude::*`,
//! `proptest::collection::vec`):
//!
//! ```
//! use frontier_prop::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!
//!     // In a test target, mark it `#[test]`.
//!     fn sums_commute(a in 0u64..1000, xs in frontier_prop::collection::vec(-1.0f64..1.0, 0..8)) {
//!         prop_assume!(a != 7);
//!         let s: f64 = xs.iter().sum();
//!         prop_assert_eq!(a as f64 + s, s + a as f64);
//!     }
//! }
//! # fn main() { sums_commute() }
//! ```
//!
//! The surface: `proptest!` with an optional
//! `#![proptest_config(ProptestConfig::with_cases(n))]`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assert_ne!`, `prop_assume!`,
//! [`TestCaseError`] for check helpers shared with pinned cases, half-open
//! `u32`/`u64`/`usize` and `f64` ranges, pairs of strategies,
//! [`collection::vec`] and [`bool::ANY`]. As in proptest, a property
//! runs until 256 cases pass (or the configured count), and more than
//! 1024 rejected cases abort it.
//!
//! Two deliberate differences. Each property is seeded from its test
//! name, so every run draws the same cases (proptest seeds from OS
//! entropy). And there is no shrinking: a failing property reports the
//! index of the failing case and the `Debug` form of its inputs.

// simlint::allow-file(unreached-from-roots): a dev-dependency; every caller is a test

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

/// The items a suite imports with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{ProptestConfig, TestCaseError};
}

/// Rejected cases (`prop_assume!`) a property tolerates before it
/// aborts, as in proptest.
const MAX_GLOBAL_REJECTS: u32 = 1024;

/// How many cases a property runs.
pub struct ProptestConfig {
    /// Passing cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// proptest's default: 256 passing cases.
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why one case did not pass. A helper that checks a property for
/// given inputs returns `Result<(), TestCaseError>`, so the same checks
/// can run inside `proptest!` (with `?`) and on one pinned input.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed: the property is false.
    Fail(String),
    /// An assumption failed: the case is discarded and another drawn.
    Reject(String),
}

/// The case generator: SplitMix64 seeded with the FNV-1a hash of the
/// property's name.
pub struct TestRng(u64);

impl TestRng {
    fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An integer in `[0, n)` (the high half of a widening multiply).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A recipe for drawing test inputs.
pub trait Strategy {
    type Value: Clone + Debug;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}

int_range!(u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let x = self.start + (self.end - self.start) * rng.unit();
        // Rounding can land exactly on the open end.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

/// Strategies for collections.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vectors with a length drawn from `size` and elements from
    /// `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy [`vec`] returns.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Strategies for booleans.
pub mod bool {
    use super::{Strategy, TestRng};

    /// `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    /// The type of [`ANY`].
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }
}

/// Run one property: draw inputs with `generate` and check them with
/// `test` until `config.cases` cases pass. `inputs` names the inputs in
/// failure reports. Panics, and so fails the calling `#[test]`, on the
/// first failing case or when too many cases are rejected.
pub fn run<T: Clone + Debug>(
    config: &ProptestConfig,
    name: &str,
    inputs: &str,
    mut generate: impl FnMut(&mut TestRng) -> T,
    mut test: impl FnMut(T) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::from_name(name);
    let (mut passed, mut rejected) = (0, 0);
    for case in 0u64.. {
        if passed == config.cases {
            return;
        }
        let value = generate(&mut rng);
        let why = match panic::catch_unwind(AssertUnwindSafe(|| test(value.clone()))) {
            Ok(Ok(())) => {
                passed += 1;
                continue;
            }
            Ok(Err(TestCaseError::Reject(why))) => {
                rejected += 1;
                if rejected > MAX_GLOBAL_REJECTS {
                    // simlint::allow(panic-in-lib): aborting the property fails its test, which is the point
                    panic!("{name}: too many rejected cases ({rejected}); last: {why}");
                }
                continue;
            }
            Ok(Err(TestCaseError::Fail(why))) => why,
            Err(_) => "the test body panicked (message above)".to_string(),
        };
        // simlint::allow(panic-in-lib): a failing case fails its test, which is the point
        panic!("{name}: failed at case {case}: {why}\n  inputs {inputs} = {value:?}");
    }
}

/// Define `#[test]` functions whose arguments are drawn from strategies:
/// `fn name(x in 0u32..8, v in collection::vec(0.0f64..1.0, 1..9)) { .. }`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($config) $($rest)*);
    };
    (@with ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                &$config,
                stringify!($name),
                stringify!(($($arg),+)),
                |rng| ($($crate::Strategy::generate(&$strategy, rng),)+),
                |($($arg,)+)| {
                    $body;
                    ::core::result::Result::Ok(())
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fail the case unless `cond` holds, optionally with a format message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "{}", concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fail the case unless `left == right`, reporting both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `{} == {}` {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                ::std::format!($($fmt)+),
                left,
                right,
            ),
        }
    };
}

/// Fail the case unless `left != right`, reporting the shared value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_ne!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left != *right,
                "assertion failed: `{} != {}` {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                ::std::format!($($fmt)+),
                left,
            ),
        }
    };
}

/// Reject the case (draw another) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject(
                ::std::string::String::from(concat!("assumption failed: ", stringify!($cond))),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_cases() {
        let draw = |name| {
            let mut rng = TestRng::from_name(name);
            let strategy = (0u64..1000, (collection::vec(-1.0f64..1.0, 0..5), bool::ANY));
            (0..16)
                .map(|_| strategy.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(format!("{:?}", draw("a")), format!("{:?}", draw("a")));
        assert_ne!(format!("{:?}", draw("a")), format!("{:?}", draw("b")));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        for _ in 0..10_000 {
            assert!((3u32..9).contains(&(3u32..9).generate(&mut rng)));
            assert!((-2.0f64..2.0).contains(&(-2.0f64..2.0).generate(&mut rng)));
            assert!((1usize..4).contains(&collection::vec(0u32..1, 1..4).generate(&mut rng).len()));
        }
        let mut rng = TestRng::from_name("full");
        assert!((0..16).any(|_| (0u64..u64::MAX).generate(&mut rng) > u64::MAX / 2));
    }

    #[test]
    fn runs_the_configured_number_of_passing_cases() {
        let (mut seen, mut odd) = (0, 0);
        run(
            &ProptestConfig::with_cases(40),
            "count",
            "(x)",
            |rng| (0u32..100).generate(rng),
            |x| {
                seen += 1;
                if x % 2 == 1 {
                    odd += 1;
                    return Err(TestCaseError::Reject("odd".into()));
                }
                Ok(())
            },
        );
        assert_eq!(seen - odd, 40);
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn a_failing_case_reports_its_index() {
        run(
            &ProptestConfig::default(),
            "fail",
            "(x)",
            |rng| (0u32..100).generate(rng),
            |x| {
                if x > 90 {
                    return Err(TestCaseError::Fail("too big".into()));
                }
                Ok(())
            },
        );
    }

    #[test]
    #[should_panic(expected = "too many rejected cases")]
    fn endless_rejection_aborts() {
        run(
            &ProptestConfig::default(),
            "reject",
            "(x)",
            |rng| (0u32..100).generate(rng),
            |_| Err(TestCaseError::Reject("never".into())),
        );
    }
}
