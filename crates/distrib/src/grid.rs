//! Stage 3 — embedding the logical processor grid in the physical machine.
//!
//! The `PROCESSORS P(p, q, ...)` directive declares the logical grid. The
//! embedding functions `φ` / `φ⁻¹` (paper §3 stage 3) convert between grid
//! coordinates and physical node ranks. Decoupling the grid from the
//! physical numbering is what lets the same mapped program run on an
//! iPSC/860 hypercube, an nCUBE/2, or a workstation network unchanged —
//! only `φ` changes.

use serde::{Deserialize, Serialize};

/// How logical grid coordinates are laid onto physical ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GridEmbedding {
    /// Row-major linearization (last axis fastest), the conventional
    /// embedding for meshes and fully-connected transports.
    #[default]
    RowMajor,
    /// Binary-reflected Gray-code embedding per axis: neighbouring grid
    /// coordinates land on hypercube nodes that differ in one address bit,
    /// so grid `shift` operations travel one physical hop on the
    /// hypercubes the paper evaluates (iPSC/860, nCUBE/2). Requires every
    /// axis extent to be a power of two.
    GrayCode,
}

#[inline]
fn gray(x: u64) -> u64 {
    x ^ (x >> 1)
}

#[inline]
fn gray_inverse(mut g: u64) -> u64 {
    let mut x = g;
    while g > 0 {
        g >>= 1;
        x ^= g;
    }
    x
}

/// The logical processor grid (`PROCESSORS` directive): a Cartesian
/// arrangement of `size()` processors plus an embedding into physical
/// ranks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcGrid {
    /// Extent of each grid axis.
    pub shape: Vec<i64>,
    /// The `φ` embedding.
    pub embedding: GridEmbedding,
}

impl ProcGrid {
    /// A grid with the given axis extents and row-major embedding.
    ///
    /// # Panics
    /// Panics if any extent is non-positive.
    pub fn new(shape: &[i64]) -> Self {
        Self::with_embedding(shape, GridEmbedding::RowMajor)
    }

    /// A grid with an explicit embedding.
    ///
    /// # Panics
    /// Panics if any extent is non-positive, or if `GrayCode` is requested
    /// with a non-power-of-two axis.
    pub fn with_embedding(shape: &[i64], embedding: GridEmbedding) -> Self {
        assert!(
            shape.iter().all(|&e| e > 0),
            "grid extents must be positive"
        );
        if embedding == GridEmbedding::GrayCode {
            assert!(
                shape.iter().all(|&e| (e as u64).is_power_of_two()),
                "Gray-code embedding requires power-of-two grid axes"
            );
        }
        ProcGrid {
            shape: shape.to_vec(),
            embedding,
        }
    }

    /// Number of grid axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of processors.
    pub fn size(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Extent of axis `axis`.
    pub fn extent(&self, axis: usize) -> i64 {
        self.shape[axis]
    }

    /// `φ`: physical rank of grid coordinates `coords`.
    pub fn rank_of(&self, coords: &[i64]) -> i64 {
        assert_eq!(coords.len(), self.rank(), "coordinate rank mismatch");
        let mut r: i64 = 0;
        for (axis, (&c, &e)) in coords.iter().zip(&self.shape).enumerate() {
            assert!(
                (0..e).contains(&c),
                "grid coordinate {c} out of range on axis {axis}"
            );
            r = r * e + self.embed(c);
        }
        r
    }

    /// `φ⁻¹`: grid coordinates of physical rank `rank`.
    pub fn coords_of(&self, rank: i64) -> Vec<i64> {
        assert!((0..self.size()).contains(&rank), "rank out of range");
        let mut rem = rank;
        let mut coords = vec![0; self.rank()];
        for axis in (0..self.rank()).rev() {
            let e = self.shape[axis];
            let idx = rem % e;
            rem /= e;
            coords[axis] = match self.embedding {
                GridEmbedding::RowMajor => idx,
                GridEmbedding::GrayCode => gray_inverse(idx as u64) as i64,
            };
        }
        coords
    }

    /// The embedded index of coordinate `c` along one axis: its digit in
    /// the mixed-radix rank.
    #[inline]
    fn embed(&self, c: i64) -> i64 {
        match self.embedding {
            GridEmbedding::RowMajor => c,
            GridEmbedding::GrayCode => gray(c as u64) as i64,
        }
    }

    /// All ranks whose coordinates agree with `coords` on every axis
    /// except `axis` — the row/column/fiber along `axis` through `coords`,
    /// member `c` at coordinate `c`. This is the processor set of a
    /// `multicast` along a grid dimension (paper Fig. 4b). Arithmetic:
    /// `axis` is one digit of the mixed-radix rank, so a member is the
    /// rank of `coords` with that digit replaced.
    pub fn fiber(&self, coords: &[i64], axis: usize) -> Vec<i64> {
        let stride: i64 = self.shape[axis + 1..].iter().product();
        let base = self.rank_of(coords) - self.embed(coords[axis]) * stride;
        (0..self.shape[axis])
            .map(|c| base + self.embed(c) * stride)
            .collect()
    }

    /// All ranks at coordinate `c` on `axis`, ascending: one member of
    /// every fiber along `axis` — the owner line of a slab along it.
    /// Arithmetic, like [`ProcGrid::fiber`]: the ranks whose digit for
    /// `axis` is the embedded `c`.
    pub fn slice(&self, axis: usize, c: i64) -> impl Iterator<Item = i64> {
        let stride: i64 = self.shape[axis + 1..].iter().product();
        let (block, at) = (stride * self.shape[axis], self.embed(c) * stride);
        (0..self.size() / block).flat_map(move |hi| (0..stride).map(move |lo| hi * block + at + lo))
    }

    /// The rank `amount` steps along `axis` from `coords`, or `None` at
    /// the edge (non-periodic shift).
    pub fn neighbor(&self, coords: &[i64], axis: usize, amount: i64) -> Option<i64> {
        let c = coords[axis] + amount;
        if (0..self.shape[axis]).contains(&c) {
            let mut cc = coords.to_vec();
            cc[axis] = c;
            Some(self.rank_of(&cc))
        } else {
            None
        }
    }

    /// The rank `amount` steps along `axis`, wrapping (periodic shift, as
    /// CSHIFT needs).
    pub fn neighbor_wrap(&self, coords: &[i64], axis: usize, amount: i64) -> i64 {
        let e = self.shape[axis];
        let mut cc = coords.to_vec();
        cc[axis] = (coords[axis] + amount).rem_euclid(e);
        self.rank_of(&cc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_code_roundtrip() {
        for x in 0..256u64 {
            assert_eq!(gray_inverse(gray(x)), x);
        }
        // adjacent codes differ in exactly one bit
        for x in 0..255u64 {
            let d = gray(x) ^ gray(x + 1);
            assert_eq!(d.count_ones(), 1);
        }
    }

    #[test]
    fn row_major_rank_roundtrip() {
        let g = ProcGrid::new(&[3, 4]);
        assert_eq!(g.size(), 12);
        for r in 0..12 {
            assert_eq!(g.rank_of(&g.coords_of(r)), r);
        }
        assert_eq!(g.rank_of(&[0, 0]), 0);
        assert_eq!(g.rank_of(&[1, 0]), 4);
        assert_eq!(g.rank_of(&[2, 3]), 11);
    }

    #[test]
    fn gray_rank_roundtrip() {
        let g = ProcGrid::with_embedding(&[4, 8], GridEmbedding::GrayCode);
        for r in 0..32 {
            assert_eq!(g.rank_of(&g.coords_of(r)), r);
        }
    }

    #[test]
    fn gray_neighbors_one_hop_on_hypercube() {
        let g = ProcGrid::with_embedding(&[16], GridEmbedding::GrayCode);
        for c in 0..15 {
            let a = g.rank_of(&[c]);
            let b = g.rank_of(&[c + 1]);
            assert_eq!(
                ((a ^ b) as u64).count_ones(),
                1,
                "grid neighbours {c},{} are not cube neighbours",
                c + 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn gray_requires_pow2() {
        ProcGrid::with_embedding(&[3], GridEmbedding::GrayCode);
    }

    #[test]
    fn fiber_is_grid_column() {
        let g = ProcGrid::new(&[2, 3]);
        // fiber along axis 1 through (1, _): ranks of (1,0),(1,1),(1,2)
        assert_eq!(g.fiber(&[1, 0], 1), vec![3, 4, 5]);
        // fiber along axis 0 through (_, 2): ranks of (0,2),(1,2)
        assert_eq!(g.fiber(&[0, 2], 0), vec![2, 5]);
    }

    /// `slice` is every rank whose coordinate on the axis is `c`, in
    /// rank order, under both embeddings.
    #[test]
    fn slice_is_the_ranks_at_one_coordinate() {
        for g in [
            ProcGrid::new(&[3, 4, 2]),
            ProcGrid::new(&[5]),
            ProcGrid::with_embedding(&[4, 2, 8], GridEmbedding::GrayCode),
        ] {
            for axis in 0..g.rank() {
                for c in 0..g.extent(axis) {
                    let want: Vec<i64> = (0..g.size())
                        .filter(|&r| g.coords_of(r)[axis] == c)
                        .collect();
                    assert_eq!(
                        g.slice(axis, c).collect::<Vec<_>>(),
                        want,
                        "{g:?} {axis} {c}"
                    );
                }
            }
        }
    }

    /// `fiber` is `rank_of` with one coordinate varied, member `c` at
    /// coordinate `c`, through every node along every axis — under both
    /// embeddings.
    #[test]
    fn fiber_is_rank_of_along_the_axis() {
        for g in [
            ProcGrid::new(&[3, 4, 2]),
            ProcGrid::new(&[5]),
            ProcGrid::with_embedding(&[4, 2, 8], GridEmbedding::GrayCode),
            ProcGrid::with_embedding(&[16], GridEmbedding::GrayCode),
        ] {
            for r in 0..g.size() {
                let coords = g.coords_of(r);
                for axis in 0..g.rank() {
                    let want: Vec<i64> = (0..g.extent(axis))
                        .map(|c| {
                            let mut cc = coords.clone();
                            cc[axis] = c;
                            g.rank_of(&cc)
                        })
                        .collect();
                    assert_eq!(
                        g.fiber(&coords, axis),
                        want,
                        "{g:?} at {coords:?}, axis {axis}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbors_edge_and_wrap() {
        let g = ProcGrid::new(&[4]);
        assert_eq!(g.neighbor(&[3], 0, 1), None);
        assert_eq!(g.neighbor(&[2], 0, 1), Some(3));
        assert_eq!(g.neighbor_wrap(&[3], 0, 1), 0);
        assert_eq!(g.neighbor_wrap(&[0], 0, -1), 3);
    }
}
