//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the slice of proptest its property tests actually use:
//! the [`proptest!`] macro, [`Strategy`](strategy::Strategy) with
//! `prop_map`, [`prop_oneof!`] (weighted and unweighted),
//! [`Just`](strategy::Just), [`any`](arbitrary::any),
//! `collection::vec`, and the `prop_assert*` macros.
//!
//! Differences from upstream, none of which the workspace's
//! invariant-style properties depend on:
//! * no shrinking — a failing case panics with the sampled values
//!   still bound, so the assertion message carries the context;
//! * sampling streams differ from upstream (deterministic per test
//!   name + case index, so failures reproduce across runs);
//! * `.proptest-regressions` files are ignored.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),+) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )+};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($v,)+) = self;
                    ($($v.sample(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(S1 / a);
    impl_tuple_strategy!(S1 / a, S2 / b);
    impl_tuple_strategy!(S1 / a, S2 / b, S3 / c);
    impl_tuple_strategy!(S1 / a, S2 / b, S3 / c, S4 / d);
    impl_tuple_strategy!(S1 / a, S2 / b, S3 / c, S4 / d, S5 / e);
    impl_tuple_strategy!(S1 / a, S2 / b, S3 / c, S4 / d, S5 / e, S6 / f);

    /// Weighted choice between boxed strategies ([`prop_oneof!`](crate::prop_oneof!)).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    /// Box one weighted arm (used by the [`prop_oneof!`](crate::prop_oneof!) expansion).
    pub fn weighted<T, S>(weight: u32, strategy: S) -> (u32, Box<dyn Strategy<Value = T>>)
    where
        S: Strategy<Value = T> + 'static,
    {
        assert!(weight > 0, "prop_oneof! weights must be positive");
        (weight, Box::new(strategy))
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|&(w, _)| w as u64).sum();
            let mut pick = rng.next_u64() % total;
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draw one unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),+) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )+};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i32, i64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test configuration. Only `cases` is modelled.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` random cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Deterministic per-test generator (SplitMix64 over a name hash),
    /// so every failure reproduces on re-run.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from the test's name.
        pub fn deterministic(name: &str) -> TestRng {
            // FNV-1a over the name gives a stable cross-run seed.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// `use proptest::prelude::*;` — everything the tests import.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Property-test declaration macro. Supports an optional
/// `#![proptest_config(..)]` header and any number of
/// `fn name(arg in strategy, ..) { body }` tests.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = ($cfg:expr);
     $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __config: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                    $body
                }
            }
        )*
    };
}

/// Weighted (`w => strategy`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted($weight, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted(1, $strat)),+
        ])
    };
}

/// Assert inside a property (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)+) => { assert!($($t)+) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)+) => { assert_eq!($($t)+) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)+) => { assert_ne!($($t)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Op {
        A(u64),
        B,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..10).prop_map(Op::A),
            1 => Just(Op::B),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Sampled values respect their strategies.
        #[test]
        fn strategies_respect_bounds(
            ops in crate::collection::vec(op(), 1..20),
            x in 5u16..9,
            flag in any::<bool>(),
        ) {
            prop_assert!((5..9).contains(&x));
            prop_assert!(!ops.is_empty() && ops.len() < 20);
            for o in ops {
                if let Op::A(v) = o {
                    prop_assert!(v < 10, "v = {} out of range", v);
                }
            }
            let _ = flag;
        }

        #[test]
        fn tuples_and_inclusive_ranges(pair in (0u32..4, 0u64..=3)) {
            prop_assert!(pair.0 < 4);
            prop_assert!(pair.1 <= 3);
        }
    }

    #[test]
    fn weighted_union_hits_every_arm() {
        let s = op();
        let mut rng = crate::test_runner::TestRng::deterministic("arms");
        let mut saw_a = false;
        let mut saw_b = false;
        for _ in 0..200 {
            match s.sample(&mut rng) {
                Op::A(_) => saw_a = true,
                Op::B => saw_b = true,
            }
        }
        assert!(saw_a && saw_b);
    }
}
