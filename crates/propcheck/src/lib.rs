//! A deterministic, dependency-free property-testing shim.
//!
//! This crate implements exactly the subset of the `proptest` API that the
//! workspace's property tests use (`proptest!`, `prop_assert*`, `prop_assume!`,
//! `prop_oneof!`, `any`, `Just`, ranges, tuples, `prop::collection::vec`,
//! `prop::option::weighted`), backed by a fixed-seed splitmix64 generator
//! instead of an entropy source. The workspace wires it in through a
//! dependency rename (`proptest = { path = "crates/propcheck", package =
//! "propcheck" }`), so test files keep their `use proptest::prelude::*;`
//! imports verbatim.
//!
//! Two deliberate departures from real proptest, both in service of the
//! determinism audit (`cargo xtask analyze` / `replay-diff`):
//!
//! * **No shrinking.** A failing case panics with the case index and the
//!   derived stream seed; re-running is bit-reproducible, which replaces
//!   shrinking for debugging purposes.
//! * **No persistence.** `*.proptest-regressions` files are ignored; every
//!   run draws the same deterministic case sequence, so there are no
//!   "regression" cases to replay.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

pub mod strategy;
pub mod test_runner;

pub use strategy::{BoxedStrategy, Just, Map, Strategy, Union};
pub use test_runner::{ProptestConfig, TestCaseError, TestRng};

/// Produces the canonical strategy for a type, mirroring
/// `proptest::arbitrary::any`.
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy(PhantomData)
}

/// Types with a canonical "whole domain" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<A>(PhantomData<A>);

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary_value(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary_value(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                (self.start as i128 + rng.below(span as u64) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128) - (*self.start() as i128) + 1;
                assert!(span > 0, "empty range strategy");
                (*self.start() as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.next_f64() * (self.end() - self.start())
    }
}

/// `prop::collection` equivalent: sized containers of a base strategy.
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A size specification for [`vec`]: any half-open or inclusive
    /// `usize` range.
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.end > r.start, "empty vec size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `prop::option` equivalent.
pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` that is `Some` with probability
    /// `probability`.
    pub fn weighted<S: Strategy>(probability: f64, inner: S) -> WeightedOption<S> {
        WeightedOption { probability, inner }
    }

    pub struct WeightedOption<S> {
        probability: f64,
        inner: S,
    }

    impl<S: Strategy> Strategy for WeightedOption<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_f64() < self.probability {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property-test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{any, Arbitrary};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of the `prop` module re-export in proptest's prelude.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Runs each contained `fn name(arg in strategy, ..) { body }` as a
/// deterministic multi-case test. Accepts an optional leading
/// `#![proptest_config(..)]` just like real proptest.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__propcheck_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__propcheck_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __propcheck_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[allow(unreachable_code, unused_mut, unused_variables, clippy::all)]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
                |__propcheck_rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __propcheck_rng);)*
                    $body
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__propcheck_fns!{ ($cfg) $($rest)* }
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "msg {x}")` — fails the
/// current case (not the whole process) when `cond` is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `prop_assert_eq!(a, b)` with an optional trailing format message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}\n{}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assert_ne!(a, b)` with an optional trailing format message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  left: {:?}\n right: {:?}",
            left,
            right
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  left: {:?}\n right: {:?}\n{}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// `prop_assume!(cond)` — discards the current case (drawing a fresh one)
/// when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}

/// `prop_oneof![a, b, c]` — uniform choice between heterogeneous
/// strategies sharing a `Value` type (each arm is boxed).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}
