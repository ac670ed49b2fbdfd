//! Fortran 90 parallel intrinsics on distributed arrays — the paper's
//! Table 3, organized by its five categories.
//!
//! | Category | Intrinsics | Module |
//! |---|---|---|
//! | 1. Structured communication | `CSHIFT`, `EOSHIFT` | [`shift`] |
//! | 2. Reduction | `DOTPRODUCT`, `ALL`, `ANY`, `COUNT`, `MAXVAL`, `MINVAL`, `PRODUCT`, `SUM`, `MAXLOC`, `MINLOC` | [`reduction`] |
//! | 3. Multicasting | `SPREAD` | [`multicast`] |
//! | 4. Unstructured communication | `PACK`, `UNPACK`, `RESHAPE`, `TRANSPOSE` | [`unstructured`] |
//! | 5. Special routines | `MATMUL` | [`special`] |

pub mod multicast;
pub mod reduction;
pub mod shift;
pub mod special;
pub mod unstructured;

pub use multicast::spread;
pub use reduction::{
    all, any, count, dotproduct, maxloc, maxval, minloc, minval, product, reduce_dim, reduce_int,
    sum,
};
pub use shift::{cshift, eoshift};
pub use special::{matmul, MatmulAlgorithm};
pub use unstructured::{pack, reshape, transpose, unpack};
