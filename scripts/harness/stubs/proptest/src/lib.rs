//! Offline stand-in for `proptest` covering the repo's usage: the
//! `proptest!` macro with `pat in strategy` arguments, numeric-range and
//! tuple strategies, `collection::vec`, `any::<bool>()`, and a small
//! regex-subset string strategy (`".{0,24}"`, `"[a-z0-9.]{0,16}"` style
//! patterns).
//!
//! No shrinking: a failing case panics with the generated inputs in the
//! assertion message (cases are generated from a per-test deterministic
//! seed, so failures reproduce).

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the 1-CPU harness fast while
        // still exercising the space (failures reproduce deterministically).
        Self { cases: 64 }
    }
}

/// A generator of values for one `pat in strategy` binding.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// `any::<T>()` support (upstream `Arbitrary`).
pub trait ArbitraryStub: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl ArbitraryStub for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryStub for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryStub> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: ArbitraryStub>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Always-the-same-value strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Regex-subset string strategy: a *sequence* of terms, each a `[...]`
/// class (literal chars and `a-z` ranges), `.` (printable ASCII), a
/// literal-alternation group `(com|net|org)`, or a bare literal char,
/// optionally quantified with `{n}` / `{min,max}` (default: once).
/// Covers every pattern the repo's proptests use.
impl Strategy for str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        let terms = parse_pattern(self)
            .unwrap_or_else(|| panic!("stub proptest: unsupported string pattern {self:?}"));
        let mut out = String::new();
        for (term, min, max) in &terms {
            let reps = if max > min {
                rng.gen_range(*min..=*max)
            } else {
                *min
            };
            for _ in 0..reps {
                match term {
                    Term::Class(alphabet) => {
                        out.push(alphabet[rng.gen_range(0..alphabet.len())]);
                    }
                    Term::Alt(alts) => {
                        out.push_str(&alts[rng.gen_range(0..alts.len())]);
                    }
                }
            }
        }
        out
    }
}

enum Term {
    /// One character drawn from an alphabet.
    Class(Vec<char>),
    /// One literal string drawn from `(a|b|c)`.
    Alt(Vec<String>),
}

fn parse_pattern(pat: &str) -> Option<Vec<(Term, usize, usize)>> {
    let chars: Vec<char> = pat.chars().collect();
    let mut terms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let term = match chars[i] {
            '.' => {
                i += 1;
                Term::Class((32u8..127).map(char::from).collect())
            }
            '[' => {
                let end = (i + 1..chars.len()).find(|&j| chars[j] == ']')?;
                let inner = &chars[i + 1..end];
                i = end + 1;
                let mut alphabet = Vec::new();
                let mut j = 0;
                while j < inner.len() {
                    if j + 2 < inner.len() && inner[j + 1] == '-' {
                        for c in inner[j]..=inner[j + 2] {
                            alphabet.push(c);
                        }
                        j += 3;
                    } else {
                        alphabet.push(inner[j]);
                        j += 1;
                    }
                }
                if alphabet.is_empty() {
                    return None;
                }
                Term::Class(alphabet)
            }
            '(' => {
                let end = (i + 1..chars.len()).find(|&j| chars[j] == ')')?;
                let inner: String = chars[i + 1..end].iter().collect();
                i = end + 1;
                let alts: Vec<String> = inner.split('|').map(str::to_owned).collect();
                if alts
                    .iter()
                    .any(|a| a.chars().any(|c| "[](){}|.".contains(c)))
                {
                    return None; // literal alternatives only
                }
                Term::Alt(alts)
            }
            c => {
                i += 1;
                Term::Class(vec![c])
            }
        };
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let end = (i + 1..chars.len()).find(|&j| chars[j] == '}')?;
            let body: String = chars[i + 1..end].iter().collect();
            i = end + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
                None => {
                    let n = body.trim().parse().ok()?;
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        if min > max {
            return None;
        }
        terms.push((term, min, max));
    }
    Some(terms)
}

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Upstream takes `impl Into<SizeRange>`; cover the forms the repo
    /// uses (exact length, half-open and inclusive ranges).
    pub trait IntoSizeRange {
        fn into_size_range(self) -> std::ops::Range<usize>;
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn into_size_range(self) -> std::ops::Range<usize> {
            self
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn into_size_range(self) -> std::ops::Range<usize> {
            *self.start()..self.end().saturating_add(1)
        }
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> std::ops::Range<usize> {
            // Exact length: an empty range makes `generate` use `start`.
            self..self
        }
    }

    /// `proptest::collection::vec(strategy, len)`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_size_range(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.len.is_empty() {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-test seed derived from the test's module path and
/// name, so each proptest gets an independent, reproducible stream.
pub fn seed_for(test_path: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_path.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

pub fn fresh_rng(test_path: &str) -> StdRng {
    StdRng::seed_from_u64(seed_for(test_path))
}

// Re-export so macro expansions can name the rng type without the user
// crate depending on the stub `rand` directly.
pub use rand::rngs::StdRng as TestRng;
pub use rand::RngCore as _;

pub mod prelude {
    pub use super::collection;
    pub use super::{any, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// The `proptest!` block macro: expands each `fn name(pat in strategy)`
/// item into a fn that loops `cases` times over generated inputs. As
/// upstream, the caller writes `#[test]` on each fn inside the block.
#[macro_export]
macro_rules! proptest {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::fresh_rng(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                let ($($pat,)+) = ($($crate::Strategy::generate(&$strat, &mut rng),)+);
                $body
            }
        }
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    // Entry points last: the bare form is a catch-all and must not
    // shadow the internal @cfg arms above.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}
