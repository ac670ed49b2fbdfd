//! # f90d-distrib — three-stage data mapping for Fortran 90D/HPF
//!
//! This crate implements the data-partitioning machinery of the Fortran
//! 90D/HPF compiler (Bozkus et al., SC'93, §3): the *three-stage mapping*
//! of arrays to physical processors shown in the paper's Figure 2.
//!
//! * **Stage 1 — ALIGN** ([`align`]): each array dimension is aligned to a
//!   dimension of a *template* (the paper's `DECOMPOSITION`) through an
//!   affine subscript function `f(i) = a*i + b` with inverse `f⁻¹`.
//! * **Stage 2 — DISTRIBUTE** ([`dist`]): each template dimension is mapped
//!   onto a dimension of the logical processor grid in `BLOCK`, `CYCLIC`, or
//!   (as an HPF extension) `CYCLIC(K)` fashion; the mapping functions `μ` and
//!   `μ⁻¹` convert between global and local indices.
//! * **Stage 3 — grid embedding** ([`grid`]): the logical grid is embedded in
//!   the physical machine (`φ`, `φ⁻¹`), either row-major or by Gray code (the
//!   natural embedding for the hypercubes the paper targets).
//!
//! The stages compose into a [`dad::Dad`] (Distributed Array Descriptor,
//! paper §6), the structure that run-time primitives receive so that they
//! can compute send/receive sets, local bounds and shapes.
//!
//! [`bounds::set_bound`] is the paper's `set_BOUND` primitive (§4): it turns
//! a global iteration range `(glb, gub, gst)` into each processor's local
//! ranges `(llb, lub, lst)` — a [`Runs`], the one representation of an
//! owned or iterated index set — masking processors with no work.
//! [`Dad::walk`] walks the product of a node's per-dimension owned sets an
//! innermost run at a time, the one element walk of the run-time
//! primitives; [`Dad::for_each_owned`] expands it an element at a time.
//!
//! All indices in this crate are **0-based**; the front end converts from
//! Fortran's 1-based (or declared-bound) indexing before any of this math
//! runs.

#![warn(missing_docs)]

pub mod align;
pub mod bounds;
pub mod dad;
pub mod dist;
pub mod grid;
pub mod template;

pub use align::{AlignExpr, Alignment, AxisAlign};
pub use bounds::{owned_cells, set_bound, Progression, Runs};
pub use dad::{row_major_strides, ArrayDimMap, Dad, DadBuilder, Locator, OwnedRun, Segment};
pub use dist::{DimDist, DistKind, Mu};
pub use grid::{GridEmbedding, ProcGrid};
pub use template::Template;

/// Ceiling division for non-negative operands.
#[inline]
pub(crate) fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    if a <= 0 {
        // Works for the a <= 0 cases we need (floor toward -inf semantics of
        // `/` are fine because b > 0 and we only call this with a >= -b).
        a / b
    } else {
        (a + b - 1) / b
    }
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
///
/// Used by the CYCLIC `set_BOUND` math to intersect the global iteration
/// progression with a processor's residue class.
pub(crate) fn ext_gcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        (a.abs(), a.signum(), 0)
    } else {
        let (g, x, y) = ext_gcd(b, a.rem_euclid(b));
        (g, y, x - (a.div_euclid(b)) * y)
    }
}

#[cfg(test)]
mod util_tests {
    use super::*;

    #[test]
    fn ceil_div_basic() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(0, 3), 0);
        assert_eq!(ceil_div(1, 7), 1);
    }

    #[test]
    fn ext_gcd_identity() {
        for a in 1..40i64 {
            for b in 1..40i64 {
                let (g, x, y) = ext_gcd(a, b);
                assert_eq!(a * x + b * y, g, "bezout failed for {a},{b}");
                assert_eq!(g, gcd_ref(a, b));
            }
        }
    }

    fn gcd_ref(mut a: i64, mut b: i64) -> i64 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
}
