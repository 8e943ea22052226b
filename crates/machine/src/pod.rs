//! Typed views over word-aligned region storage.
//!
//! Region data in both runtimes is stored as `[u64]` words (8-byte aligned,
//! like the CM-5's double-word-aligned heap). Applications view a region as
//! a slice of some plain-old-data element type. The casts here are guarded
//! by size/alignment checks; with the `malloc_trim` call in `spmd` they are
//! the only `unsafe` code in `ace-machine` (downstream crates add only
//! `unsafe impl Pod` declarations for their element types).

/// Marker for types that are valid for any bit pattern and contain no
/// padding requirements beyond 8-byte alignment.
///
/// # Safety
///
/// Implementors must be `repr(C)` (or primitive), contain no references,
/// no interior mutability and no invalid bit patterns, and have alignment
/// at most 8.
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Number of `u64` words needed to store `count` elements of `T`.
pub fn words_for<T: Pod>(count: usize) -> usize {
    let bytes = count * std::mem::size_of::<T>();
    bytes.div_ceil(8)
}

fn check<T: Pod>(words: usize, count: usize) {
    assert!(std::mem::align_of::<T>() <= 8, "Pod alignment must be <= 8");
    assert!(
        words_for::<T>(count) <= words,
        "view of {count} x {} ({} words) exceeds region of {words} words",
        std::any::type_name::<T>(),
        words_for::<T>(count),
    );
}

/// View `count` elements of `T` over word storage.
///
/// # Panics
///
/// Panics if the storage is too small for `count` elements.
pub fn view<T: Pod>(words: &[u64], count: usize) -> &[T] {
    check::<T>(words.len(), count);
    // SAFETY: `words` is 8-byte aligned which satisfies align_of::<T>() <= 8,
    // the length check above guarantees `count` elements fit, and `T: Pod`
    // promises every bit pattern is valid.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const T, count) }
}

/// Mutable view of `count` elements of `T` over word storage.
///
/// # Panics
///
/// Panics if the storage is too small for `count` elements.
pub fn view_mut<T: Pod>(words: &mut [u64], count: usize) -> &mut [T] {
    check::<T>(words.len(), count);
    // SAFETY: as in `view`, plus exclusivity inherited from `&mut`.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut T, count) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip() {
        let mut store = vec![0u64; 4];
        {
            let v = view_mut::<f64>(&mut store, 4);
            v[0] = 1.5;
            v[3] = -2.25;
        }
        let v = view::<f64>(&store, 4);
        assert_eq!(v[0], 1.5);
        assert_eq!(v[3], -2.25);
    }

    #[test]
    fn u32_packing() {
        assert_eq!(words_for::<u32>(3), 2);
        let mut store = vec![0u64; 2];
        {
            let v = view_mut::<u32>(&mut store, 3);
            v.copy_from_slice(&[10, 20, 30]);
        }
        assert_eq!(view::<u32>(&store, 3), &[10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn oversized_view_rejected() {
        let store = vec![0u64; 1];
        let _ = view::<f64>(&store, 2);
    }

    #[test]
    fn struct_view() {
        #[derive(Copy, Clone, Debug, PartialEq)]
        #[repr(C)]
        struct P {
            x: f64,
            y: f64,
            tag: u64,
        }
        unsafe impl Pod for P {}
        let mut store = vec![0u64; words_for::<P>(2)];
        {
            let v = view_mut::<P>(&mut store, 2);
            v[1] = P { x: 3.0, y: 4.0, tag: 9 };
        }
        assert_eq!(view::<P>(&store, 2)[1], P { x: 3.0, y: 4.0, tag: 9 });
    }

    #[test]
    fn words_for_exact_and_ragged() {
        assert_eq!(words_for::<u64>(5), 5);
        assert_eq!(words_for::<u8>(1), 1);
        assert_eq!(words_for::<u8>(8), 1);
        assert_eq!(words_for::<u8>(9), 2);
        assert_eq!(words_for::<f64>(0), 0);
    }
}
