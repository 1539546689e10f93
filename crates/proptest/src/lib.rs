//! Deterministic stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate, implementing exactly the API subset this workspace's property
//! suites use (see `crates/proptest/Cargo.toml`). A property runs
//! [`ProptestConfig::cases`] cases; case `k` draws its inputs from a
//! generator seeded with `k`, so every run sees the same inputs. Nothing
//! is shrunk: the first failing case panics with its index and inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// What a property suite imports: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// A recipe for drawing values of one type: any `Fn(&mut StdRng) -> T`,
/// a numeric range, or a tuple of strategies.
pub trait Strategy {
    /// The type of the values drawn.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// The strategy whose values are this one's passed through `f`.
    fn prop_map<T: Debug>(self, f: impl Fn(Self::Value) -> T) -> impl Strategy<Value = T>
    where
        Self: Sized,
    {
        move |rng: &mut StdRng| f(self.generate(rng))
    }
}

impl<T: Debug, F: Fn(&mut StdRng) -> T> Strategy for F {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        self(rng)
    }
}

macro_rules! range_strategy {
    ($($range:ident),+) => {$(
        impl<T: SampleUniform + Debug> Strategy for $range<T> {
            type Value = T;
            fn generate(&self, rng: &mut StdRng) -> T {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

range_strategy!(Range, RangeInclusive);

macro_rules! tuple_strategy {
    ($($s:ident . $i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0);
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);
tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// Collection strategies.
pub mod collection {
    use super::{Range, StdRng, Strategy};

    /// Vectors of `elem` values whose length is drawn from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> impl Strategy<Value = Vec<S::Value>> {
        move |rng: &mut StdRng| {
            let len = size.generate(rng);
            (0..len).map(|_| elem.generate(rng)).collect::<Vec<_>>()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Rng, StdRng};

    /// `true` or `false`, each with probability one half.
    pub const ANY: fn(&mut StdRng) -> core::primitive::bool = |rng| rng.gen_bool(0.5);
}

/// How many cases a property runs: [`ProptestConfig::with_cases`], or
/// 256 by default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig::with_cases(256)
    }
}

/// Why a case failed: the message of the `prop_assert*` that stopped it.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// Runs `test` on `config.cases` cases of `strategy`, case `k` seeded
/// with `k`; `proptest!` expands to a call of this.
///
/// # Panics
/// At the first failing case, naming the property, the case and its
/// inputs.
pub fn run<S: Strategy>(
    config: ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    for case in 0..config.cases {
        let draw = || strategy.generate(&mut StdRng::seed_from_u64(u64::from(case)));
        if let Err(TestCaseError(reason)) = test(draw()) {
            let cases = config.cases;
            panic!(
                "property `{name}` failed at case {case} of {cases}: {reason}\ninputs: {:?}",
                draw()
            );
        }
    }
}

/// Declares properties: `fn name(arg in strategy, ...) { body }` items,
/// optionally preceded by `#![proptest_config(config)]`. Each becomes a
/// function (attributes such as `#[test]` carry over) that [`run`]s the
/// body, which may `return Ok(())` early and fails through `prop_assert*`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($items:tt)*) => {
        $crate::__proptest_items!(($config) $($items)*);
    };
    ($($items:tt)*) => {
        $crate::__proptest_items!(($crate::ProptestConfig::default()) $($items)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr) $(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?)
        $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run($config, stringify!($name), &($($strategy,)+), |($($arg,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
        }
        $crate::__proptest_items!(($config) $($rest)*);
    };
}

/// Fails the case unless `cond` holds (message optional, as in `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError(::std::format!($($fmt)+)));
        }
    };
}

/// Fails the case unless `left == right` (message optional, as in
/// `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `left == right` {}\n  left: {:?}\n right: {:?}",
                format_args!($($fmt)+),
                left,
                right
            ),
        }
    };
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, Ordering};

    use super::*;

    static CASES_RUN: AtomicU32 = AtomicU32::new(0);

    crate::proptest! {
        #![proptest_config(ProptestConfig::with_cases(37))]
        fn counts_its_cases(_x in 0u8..1) {
            CASES_RUN.fetch_add(1, Ordering::Relaxed);
        }
    }

    crate::proptest! {
        #[test]
        #[should_panic(expected = "property `a_false_property_panics` failed at case 0 of 256: \
                                   3 is not above 100")]
        fn a_false_property_panics(x in 3u32..=3) {
            crate::prop_assert!(x > 100, "{x} is not above 100");
        }

        #[test]
        #[should_panic(expected = "failed at case 0 of 256: assertion failed: `left == right` \
                                   \n  left: 3\n right: 4\ninputs: (3,)")]
        fn a_false_equality_names_both_sides(x in 3i64..4) {
            crate::prop_assert_eq!(x, 4);
        }
    }

    #[test]
    fn every_configured_case_runs() {
        counts_its_cases();
        assert_eq!(CASES_RUN.load(Ordering::Relaxed), 37);
        assert_eq!(ProptestConfig::default().cases, 256);
    }

    #[test]
    fn the_same_case_sees_the_same_inputs_on_every_run() {
        let draws = || {
            let strategy = (0i64..1_000, collection::vec(-1.0f64..=1.0, 0..20), bool::ANY)
                .prop_map(|(a, v, b)| (b, v, a));
            let seen = RefCell::new(Vec::new());
            run(ProptestConfig::with_cases(64), "record", &strategy, |value| {
                seen.borrow_mut().push(value);
                Ok(())
            });
            seen.into_inner()
        };
        let first = draws();
        assert_eq!(first.len(), 64);
        assert_eq!(first, draws());
        assert!(first.windows(2).any(|w| w[0] != w[1]), "cases draw different inputs");
        for (_, v, a) in &first {
            assert!((0..1_000).contains(a) && v.len() < 20);
            assert!(v.iter().all(|x| (-1.0..=1.0).contains(x)));
        }
    }
}
