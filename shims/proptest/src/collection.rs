//! Collection strategies (`vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Acceptable element-count specifications for [`vec()`]: an exact `usize`
/// or a half-open `Range<usize>`.
#[derive(Clone, Debug)]
pub struct SizeRange(Range<usize>);

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange(n..n + 1)
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        SizeRange(r)
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let Range { start, end } = self.size.0;
        assert!(start < end, "vec strategy size range is empty");
        let len = start + rng.below((end - start) as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `Vec` strategy: `size` elements (or a count drawn from the range), each
/// drawn from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}
