//! Integer boxes of compile-time dimension: the route kernel's form of a
//! submesh.
//!
//! A [`Submesh`] carries two 8-lane [`Coord`]s (72 bytes) and a runtime
//! dimension, and [`Submesh::new`] checks every axis. The route kernel
//! builds a dozen blocks per path, so it works in [`IntBox<D>`] instead:
//! two `[u32; D]` corners with `D` a const generic, 16 bytes in 2-D, no
//! checks. [`with_dim!`](crate::with_dim) turns a runtime dimension into
//! that `D` once per query.

use crate::coord::{Coord, MAX_DIM};
use crate::submesh::Submesh;

/// Runs `$body` with `$D` bound to the runtime dimension `$d` as a
/// `const usize`, so a const-generic kernel is picked once per query:
/// one `match` over `1..=MAX_DIM`.
///
/// ```
/// use oblivion_mesh::with_dim;
/// fn lanes<const D: usize>() -> usize { D }
/// assert_eq!(with_dim!(3, D => lanes::<D>()), 3);
/// ```
///
/// # Panics
/// Panics if `$d` is outside `1..=MAX_DIM`.
#[macro_export]
macro_rules! with_dim {
    ($d:expr, $D:ident => $body:expr) => {
        match $d {
            1 => {
                const $D: usize = 1;
                $body
            }
            2 => {
                const $D: usize = 2;
                $body
            }
            3 => {
                const $D: usize = 3;
                $body
            }
            4 => {
                const $D: usize = 4;
                $body
            }
            5 => {
                const $D: usize = 5;
                $body
            }
            6 => {
                const $D: usize = 6;
                $body
            }
            7 => {
                const $D: usize = 7;
                $body
            }
            8 => {
                const $D: usize = 8;
                $body
            }
            d => $crate::dimension_out_of_range(d),
        }
    };
}

// `with_dim!` spells out one arm per dimension up to this bound.
const _: () = assert!(MAX_DIM == 8);

/// The panic of [`with_dim!`](crate::with_dim) for a dimension it has no arm for.
#[doc(hidden)]
#[cold]
pub fn dimension_out_of_range(d: usize) -> ! {
    panic!("mesh dimension {d} is outside 1..={MAX_DIM}")
}

/// An axis-aligned box of nodes, `lo[i] ..= hi[i]` on every axis `i`,
/// in a dimension `D` fixed at compile time.
///
/// On a torus a box may wrap: `lo` is reduced modulo the side and `hi`
/// is `lo + side − 1`, not reduced, so a box is still one range per axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntBox<const D: usize> {
    /// Low corner (inclusive).
    pub lo: [u32; D],
    /// High corner (inclusive).
    pub hi: [u32; D],
}

impl<const D: usize> IntBox<D> {
    /// The single-node box `{c}`.
    #[inline]
    pub fn point(c: [u32; D]) -> Self {
        Self { lo: c, hi: c }
    }

    /// The aligned cube of side `2^h` holding `c`: the type-1 block of
    /// height `h` in every decomposition here (mesh, torus, 2-D).
    #[inline]
    pub fn aligned(c: &[u32; D], h: u32) -> Self {
        let mask = (1u32 << h) - 1;
        Self {
            lo: c.map(|x| x & !mask),
            hi: c.map(|x| x | mask),
        }
    }

    /// The box `[0, side − 1]^D`.
    #[inline]
    pub fn cube(side: u32) -> Self {
        Self {
            lo: [0; D],
            hi: [side - 1; D],
        }
    }

    /// Side length along `axis`.
    #[inline]
    pub fn side(&self, axis: usize) -> u32 {
        self.hi[axis] - self.lo[axis] + 1
    }

    /// Smallest side length over all axes.
    #[inline]
    pub fn min_side(&self) -> u32 {
        (0..D).map(|i| self.side(i)).min().unwrap_or(0)
    }

    /// True if `other` lies inside (no wrap-around).
    #[inline]
    pub fn contains_box(&self, other: &Self) -> bool {
        (0..D).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// The box of a `D`-dimensional [`Submesh`].
    #[inline]
    pub fn of(sub: &Submesh) -> Self {
        Self {
            lo: sub.lo().to_array(),
            hi: sub.hi().to_array(),
        }
    }

    /// The box as a [`Submesh`] (no wrap-around).
    pub fn to_submesh(&self) -> Submesh {
        Submesh::new(Coord::new(&self.lo), Coord::new(&self.hi))
    }
}

impl Coord {
    /// The components as an array of the compile-time dimension `D`.
    ///
    /// # Panics
    /// Panics in debug builds if `D` is not [`Self::dim`].
    #[inline]
    pub fn to_array<const D: usize>(&self) -> [u32; D] {
        debug_assert_eq!(self.dim(), D);
        std::array::from_fn(|i| self[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_cubes_nest_and_hold_their_node() {
        let c = [13u32, 6];
        let mut prev = IntBox::point(c);
        for h in 0..=4 {
            let b = IntBox::aligned(&c, h);
            assert_eq!(b.side(0), 1 << h);
            assert_eq!(b.lo.map(|x| x % (1 << h)), [0, 0]);
            assert!(b.contains_box(&prev) && b.contains_box(&IntBox::point(c)));
            prev = b;
        }
        assert_eq!(IntBox::aligned(&c, 4), IntBox::cube(16));
    }

    #[test]
    fn converts_to_the_same_submesh() {
        let b = IntBox {
            lo: [2, 0, 5],
            hi: [3, 7, 5],
        };
        let sub = b.to_submesh();
        assert_eq!(
            sub,
            Submesh::new(Coord::new(&[2, 0, 5]), Coord::new(&[3, 7, 5]))
        );
        assert_eq!(b.min_side(), 1);
        assert_eq!(Coord::new(&[4, 1, 9]).to_array::<3>(), [4, 1, 9]);
    }

    #[test]
    fn with_dim_binds_every_dimension() {
        fn lanes<const D: usize>() -> usize {
            D
        }
        for d in 1..=MAX_DIM {
            assert_eq!(with_dim!(d, D => lanes::<D>()), d);
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn with_dim_rejects_nine() {
        let d = 9;
        let _: usize = with_dim!(d, D => D);
    }
}
