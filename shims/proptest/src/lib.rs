//! Offline stand-in for `proptest`.
//!
//! crates.io is unreachable in this build environment, so the workspace
//! vendors the subset of proptest it uses: the [`proptest!`] macro with an
//! optional `proptest_config` header, range and tuple strategies,
//! [`prelude::any`], `collection::vec`, and `prop_map`. Failing inputs are
//! reported but **not shrunk** — on failure, rerun with the printed case
//! index; generation is deterministic per test name, so failures reproduce
//! exactly.

#![forbid(unsafe_code)]

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// Generates values of an associated type from a random stream.
    ///
    /// Unlike real proptest there is no value tree: strategies produce
    /// concrete values directly and nothing shrinks.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (mirrors `prop_map`).
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng.rng(), self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen_range(rng.rng(), self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    /// 128-bit ranges need a dedicated impl: the vendored `rand` samples
    /// through i128 arithmetic internally, so split the draw in two words.
    impl Strategy for std::ops::Range<i128> {
        type Value = i128;

        fn generate(&self, rng: &mut TestRng) -> i128 {
            assert!(self.start < self.end, "empty range");
            let span = (self.end - self.start) as u128;
            let v = if span <= u64::MAX as u128 {
                u128::from(rand::Rng::gen_range(rng.rng(), 0..span as u64))
            } else {
                let zone = u128::MAX - (u128::MAX % span + 1) % span;
                loop {
                    let c = (u128::from(rand::Rng::gen::<u64>(rng.rng())) << 64)
                        | u128::from(rand::Rng::gen::<u64>(rng.rng()));
                    if c <= zone {
                        break c % span;
                    }
                }
            };
            self.start + v as i128
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait behind [`crate::prelude::any`].

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// The canonical strategy.
        fn arbitrary() -> AnyStrategy<Self>;
    }

    /// Full-domain strategy for a primitive type.
    #[derive(Debug, Clone)]
    pub struct AnyStrategy<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Default for AnyStrategy<T> {
        fn default() -> Self {
            Self {
                _marker: std::marker::PhantomData,
            }
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary() -> AnyStrategy<Self> { AnyStrategy::default() }
            }
            impl Strategy for AnyStrategy<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rand::Rng::gen::<$t>(rng.rng())
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);
}

pub mod collection {
    //! Collection strategies (`proptest::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specifications accepted by [`vec()`]: a fixed `usize` or a range.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for std::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng.rng(), self.clone())
        }
    }

    impl IntoLenRange for std::ops::RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rand::Rng::gen_range(rng.rng(), self.clone())
        }
    }

    /// Strategy for vectors of values drawn from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `vec(strategy, len)` — a vector whose length is drawn from `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Case-count configuration and the deterministic test RNG.

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-test configuration (only the case count is honoured).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic per-test random stream (seeded from the test name, so
    /// every run of the suite sees the same inputs — failures reproduce).
    #[derive(Debug)]
    pub struct TestRng {
        inner: StdRng,
    }

    impl TestRng {
        /// Seeds from an arbitrary label (the test's name).
        pub fn deterministic(label: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in label.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self {
                inner: StdRng::seed_from_u64(h),
            }
        }

        /// The underlying generator.
        pub fn rng(&mut self) -> &mut StdRng {
            &mut self.inner
        }
    }
}

pub mod prelude {
    //! Everything `use proptest::prelude::*` is expected to bring in.

    pub use crate::arbitrary::{AnyStrategy, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The canonical strategy for a primitive type (`any::<u64>()`).
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        T::arbitrary()
    }
}

/// Property-test entry point: a block of `#[test]` functions whose arguments
/// are drawn from strategies. Accepts the standard
/// `#![proptest_config(...)]` header. No shrinking is performed.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($items:tt)*) => {
        $crate::__proptest_items! { $cfg; $($items)* }
    };
    ($($items:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::Config::default(); $($items)* }
    };
}

/// Internal expansion helper for [`proptest!`]. Not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr; $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                let mut __inputs = format!(concat!("case ", stringify!($name), " #{}"), __case);
                $(
                    let __value = $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    __inputs.push_str(&format!(
                        concat!(" ", stringify!($arg), " = {:?}"),
                        &__value
                    ));
                    let $arg = __value;
                )*
                let __result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                if let Err(e) = __result {
                    eprintln!("proptest failure at {__inputs}");
                    ::std::panic::resume_unwind(e);
                }
            }
        }
    )*};
}

/// `assert!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// `assert_eq!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// `assert_ne!` that reports through the proptest harness.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 0u64..100, y in -5i64..=5, f in 0.5..2.0f64) {
            prop_assert!(x < 100);
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_spec(v in crate::collection::vec(0u8..10, 3..=6)) {
            prop_assert!((3..=6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn tuples_and_map_compose(pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 20);
        }

        #[test]
        fn any_draws_full_domain(x in any::<u32>()) {
            let _ = x;
        }
    }

    #[test]
    fn i128_range_strategy_in_bounds() {
        let strat = -(1i128 << 60)..(1i128 << 60);
        let mut rng = crate::test_runner::TestRng::deterministic("i128");
        for _ in 0..1000 {
            use crate::strategy::Strategy;
            let v = strat.generate(&mut rng);
            assert!((-(1i128 << 60)..(1i128 << 60)).contains(&v));
        }
    }
}
