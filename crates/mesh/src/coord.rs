//! Fixed-capacity mesh coordinates.
//!
//! Mesh dimensions in this library are small (the paper's results concern
//! `d ≤ O(log n)`, and in practice `d ≤ 8`), so coordinates are stored inline
//! in a fixed array rather than on the heap: a hop is never an allocation
//! of its own. Path selection builds its walk in reused scratch, so after
//! warm-up a `select_path` call makes one allocation, the exact-size node
//! vector of the path it returns (measured by the benchmark's
//! `alloc.select_path.per_call` on a 64×64 mesh: 13.4 before that scratch,
//! 1 with it).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of mesh dimensions supported by [`Coord`].
///
/// Eight dimensions cover every configuration the paper's analysis targets
/// (the interesting regime is constant `d`; at `d = 8` even side length 2
/// already gives 256 nodes).
pub const MAX_DIM: usize = 8;

/// A point of the `d`-dimensional grid, `0 ≤ coord[i] < m_i`.
///
/// Stored inline (`Copy`) with capacity [`MAX_DIM`]; the active dimension
/// count is carried alongside. Two coordinates compare equal only if they
/// have the same dimensionality and identical components.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    xs: [u32; MAX_DIM],
    dim: u8,
}

impl Coord {
    /// Creates a coordinate from a slice of components.
    ///
    /// # Panics
    /// Panics if `xs.len() > MAX_DIM` or `xs` is empty.
    #[inline]
    pub fn new(xs: &[u32]) -> Self {
        assert!(
            !xs.is_empty() && xs.len() <= MAX_DIM,
            "coordinate dimension must be in 1..={MAX_DIM}, got {}",
            xs.len()
        );
        let mut arr = [0u32; MAX_DIM];
        arr[..xs.len()].copy_from_slice(xs);
        Self {
            xs: arr,
            dim: xs.len() as u8,
        }
    }

    /// The origin (all-zero) coordinate of dimension `dim`.
    #[inline]
    pub fn origin(dim: usize) -> Self {
        assert!((1..=MAX_DIM).contains(&dim));
        Self {
            xs: [0; MAX_DIM],
            dim: dim as u8,
        }
    }

    /// Number of dimensions of this coordinate.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The components as a slice of length [`Self::dim`].
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.xs[..self.dim as usize]
    }

    /// Mutable view of the components.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.xs[..self.dim as usize]
    }

    /// Returns a copy with component `axis` replaced by `value`.
    #[inline]
    pub fn with(&self, axis: usize, value: u32) -> Self {
        debug_assert!(axis < self.dim());
        let mut c = *self;
        c.xs[axis] = value;
        c
    }

    /// Adds `v` to every component slot at once, wrapping: one wide add
    /// instead of a store to one component, so a running coordinate is
    /// never read back wide right after a narrow write. Slots past
    /// [`Self::dim`] must get 0.
    #[inline]
    pub(crate) fn wrapping_add_all(&mut self, v: &[u32; MAX_DIM]) {
        for (x, dx) in self.xs.iter_mut().zip(v) {
            *x = x.wrapping_add(*dx);
        }
    }

    /// L1 (Manhattan) distance to `other`, the mesh shortest-path distance.
    ///
    /// # Panics
    /// Panics in debug builds if dimensions differ.
    #[inline]
    pub fn l1(&self, other: &Coord) -> u64 {
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum()
    }

    /// L∞ (Chebyshev) distance to `other`.
    #[inline]
    pub fn linf(&self, other: &Coord) -> u32 {
        debug_assert_eq!(self.dim, other.dim);
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a.abs_diff(b))
            .max()
            .unwrap_or(0)
    }
}

impl Index<usize> for Coord {
    type Output = u32;
    #[inline]
    fn index(&self, i: usize) -> &u32 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for Coord {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.as_mut_slice()[i]
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, x) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<(u32, u32)> for Coord {
    fn from((x, y): (u32, u32)) -> Self {
        Coord::new(&[x, y])
    }
}

impl From<(u32, u32, u32)> for Coord {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Coord::new(&[x, y, z])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let c = Coord::new(&[3, 5, 7]);
        assert_eq!(c.dim(), 3);
        assert_eq!(c.as_slice(), &[3, 5, 7]);
        assert_eq!(c[1], 5);
    }

    #[test]
    fn origin_is_zero() {
        let c = Coord::origin(4);
        assert_eq!(c.as_slice(), &[0, 0, 0, 0]);
    }

    #[test]
    fn with_replaces_single_axis() {
        let c = Coord::new(&[1, 2]).with(0, 9);
        assert_eq!(c.as_slice(), &[9, 2]);
    }

    #[test]
    fn l1_distance() {
        let a = Coord::new(&[0, 10]);
        let b = Coord::new(&[4, 3]);
        assert_eq!(a.l1(&b), 11);
        assert_eq!(b.l1(&a), 11);
        assert_eq!(a.l1(&a), 0);
    }

    #[test]
    fn linf_distance() {
        let a = Coord::new(&[0, 10, 2]);
        let b = Coord::new(&[4, 3, 2]);
        assert_eq!(a.linf(&b), 7);
    }

    #[test]
    fn equality_respects_dim() {
        assert_ne!(Coord::new(&[0]), Coord::origin(2));
        assert_eq!(Coord::new(&[0, 0]), Coord::origin(2));
    }

    #[test]
    #[should_panic]
    fn too_many_dims_panics() {
        let _ = Coord::new(&[0; MAX_DIM + 1]);
    }

    #[test]
    fn index_mut_updates() {
        let mut c = Coord::new(&[1, 2]);
        c[0] = 8;
        assert_eq!(c.as_slice(), &[8, 2]);
    }

    #[test]
    fn tuple_conversions() {
        assert_eq!(Coord::from((1, 2)).as_slice(), &[1, 2]);
        assert_eq!(Coord::from((1, 2, 3)).as_slice(), &[1, 2, 3]);
    }
}
