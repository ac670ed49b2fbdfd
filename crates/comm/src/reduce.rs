//! Reduction trees (paper §6, Table 3 category 2).
//!
//! "Computations based on local data followed by use of a reduction tree
//! on the processors involved." Contributions are `f64` vectors combined
//! elementwise up a binomial tree, then the result is tree-broadcast back
//! (allreduce), so every node holds the reduced value — Fortran 90
//! reduction intrinsics are replicated scalars/arrays on exit.
//!
//! `MAXLOC`/`MINLOC` reduce `(value, index)` pairs laid out as stride-2
//! runs; ties resolve to the smallest index, matching Fortran semantics.

use f90d_machine::{ArrayData, Machine, Value};

use crate::helpers::{tree_broadcast, tree_reduce};
use crate::op::CommResult;

/// Reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `SUM` / `DOTPRODUCT`
    Sum,
    /// `PRODUCT`
    Prod,
    /// `MAXVAL`
    Max,
    /// `MINVAL`
    Min,
    /// `ALL` (logical and over 0/1 encodings)
    And,
    /// `ANY` (logical or)
    Or,
    /// `MAXLOC` over (value, index) pairs
    MaxLoc,
    /// `MINLOC` over (value, index) pairs
    MinLoc,
}

impl ReduceOp {
    /// The identity element (per slot; pairs get `(identity, -1)`).
    pub fn identity(&self) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Or => 0.0,
            ReduceOp::Prod | ReduceOp::And => 1.0,
            ReduceOp::Max | ReduceOp::MaxLoc => f64::NEG_INFINITY,
            ReduceOp::Min | ReduceOp::MinLoc => f64::INFINITY,
        }
    }

    /// `true` for the pairwise (value, index) operators.
    pub fn is_loc(&self) -> bool {
        matches!(self, ReduceOp::MaxLoc | ReduceOp::MinLoc)
    }

    /// Combine `b` into `a`, elementwise (stride 2 for loc ops).
    pub fn fold(&self, a: &mut [f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "reduction contributions must conform");
        if self.is_loc() {
            assert_eq!(a.len() % 2, 0, "loc reduction needs (value, index) pairs");
            for k in (0..a.len()).step_by(2) {
                let (av, ai) = (a[k], a[k + 1]);
                let (bv, bi) = (b[k], b[k + 1]);
                let take_b = match self {
                    ReduceOp::MaxLoc => bv > av || (bv == av && bi >= 0.0 && (ai < 0.0 || bi < ai)),
                    ReduceOp::MinLoc => bv < av || (bv == av && bi >= 0.0 && (ai < 0.0 || bi < ai)),
                    _ => unreachable!(),
                };
                if take_b {
                    a[k] = bv;
                    a[k + 1] = bi;
                }
            }
        } else {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = self.combine(*x, y);
            }
        }
    }

    /// `x ⊕ y` of one slot of a value reduction — the step both
    /// [`ReduceOp::fold`] and the per-rank partials take.
    ///
    /// # Panics
    /// Panics on the (value, index) operators, which combine pairs.
    #[inline]
    pub fn combine(&self, x: f64, y: f64) -> f64 {
        match self {
            ReduceOp::Sum => x + y,
            ReduceOp::Prod => x * y,
            ReduceOp::Max => x.max(y),
            ReduceOp::Min => x.min(y),
            ReduceOp::And => {
                if x != 0.0 && y != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ReduceOp::Or => {
                if x != 0.0 || y != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ReduceOp::MaxLoc | ReduceOp::MinLoc => panic!("a loc reduction combines pairs"),
        }
    }

    /// The identity of an INTEGER `SUM`, `PRODUCT`, `MAXVAL` or `MINVAL`.
    ///
    /// # Panics
    /// Panics on the other operators, which have no INTEGER form.
    pub fn identity_int(&self) -> i64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Prod => 1,
            ReduceOp::Max => i64::MIN,
            ReduceOp::Min => i64::MAX,
            _ => panic!("{self:?} has no INTEGER form"),
        }
    }

    /// `x ⊕ y` of an INTEGER reduction. `+` and `*` wrap, like every
    /// INTEGER operation, so the combination order cannot show.
    ///
    /// # Panics
    /// Panics on the operators [`ReduceOp::identity_int`] rejects.
    #[inline]
    pub fn combine_int(&self, x: i64, y: i64) -> i64 {
        match self {
            ReduceOp::Sum => x.wrapping_add(y),
            ReduceOp::Prod => x.wrapping_mul(y),
            ReduceOp::Max => x.max(y),
            ReduceOp::Min => x.min(y),
            _ => panic!("{self:?} has no INTEGER form"),
        }
    }
}

fn to_payload(v: &[f64]) -> ArrayData {
    ArrayData::Real(v.to_vec())
}

fn from_payload(d: &ArrayData) -> Vec<f64> {
    match d {
        ArrayData::Real(v) => v.clone(),
        other => (0..other.len()).map(|k| other.get(k).as_real()).collect(),
    }
}

/// Allreduce over an explicit member set: every member contributes a
/// conforming `f64` vector; every member receives the elementwise
/// reduction. `O(log F)` up + `O(log F)` down.
pub fn allreduce_group(
    m: &mut Machine,
    members: &[i64],
    op: ReduceOp,
    contributions: Vec<Vec<f64>>,
) -> CommResult<Vec<Vec<f64>>> {
    let payloads: Vec<ArrayData> = contributions.iter().map(|c| to_payload(c)).collect();
    let results = allreduce_payloads(m, members, payloads, |acc, x| {
        let mut a = from_payload(acc);
        op.fold(&mut a, &from_payload(x));
        *acc = to_payload(&a);
    })?;
    let vectors = results.into_iter().map(|d| match d {
        ArrayData::Real(v) => v,
        other => from_payload(&other),
    });
    Ok(vectors.collect())
}

/// The one allreduce tree under every element type: the members'
/// payloads folded up by `combine`, and the result broadcast back down.
/// Returns what each member receives, in `members` order.
fn allreduce_payloads(
    m: &mut Machine,
    members: &[i64],
    payloads: Vec<ArrayData>,
    combine: impl Fn(&mut ArrayData, &ArrayData),
) -> CommResult<Vec<ArrayData>> {
    m.stats.record("reduce");
    assert_eq!(members.len(), payloads.len());
    let combined = tree_reduce(m, members, payloads, combine)?;
    // The broadcast charges the down leg; every member receives the
    // same combined payload, so nothing needs depositing per rank.
    tree_broadcast(m, members, 0, combined.clone(), |_, _, _| {})?;
    Ok(vec![combined; members.len()])
}

/// Allreduce over **all** nodes of the machine.
pub fn allreduce(
    m: &mut Machine,
    op: ReduceOp,
    contributions: Vec<Vec<f64>>,
) -> CommResult<Vec<Vec<f64>>> {
    let members: Vec<i64> = (0..m.nranks()).collect();
    allreduce_group(m, &members, op, contributions)
}

/// Allreduce within every grid fiber along `axis` (Table 3 reductions
/// with a `DIM=` argument): nodes of each fiber contribute and receive
/// fiber-local results. `contributions` is indexed by physical rank.
pub fn allreduce_along_axis(
    m: &mut Machine,
    axis: usize,
    op: ReduceOp,
    contributions: Vec<Vec<f64>>,
) -> CommResult<Vec<Vec<f64>>> {
    assert_eq!(contributions.len(), m.nranks() as usize);
    let mut results: Vec<Option<Vec<f64>>> = vec![None; contributions.len()];
    // Enumerate fibers by their axis-0 representative.
    let mut seen = vec![false; contributions.len()];
    for rank in 0..m.nranks() {
        if seen[rank as usize] {
            continue;
        }
        let coords = m.grid.coords_of(rank);
        let members = m.grid.fiber(&coords, axis);
        for &r in &members {
            seen[r as usize] = true;
        }
        let contribs: Vec<Vec<f64>> = members
            .iter()
            .map(|&r| contributions[r as usize].clone())
            .collect();
        let res = allreduce_group(m, &members, op, contribs)?;
        for (&r, v) in members.iter().zip(res) {
            results[r as usize] = Some(v);
        }
    }
    Ok(results.into_iter().map(|o| o.unwrap()).collect())
}

/// Convenience: allreduce a single scalar per node.
pub fn allreduce_scalar(m: &mut Machine, op: ReduceOp, per_rank: Vec<f64>) -> CommResult<f64> {
    let contribs = per_rank.into_iter().map(|v| vec![v]).collect();
    Ok(allreduce(m, op, contribs)?[0][0])
}

/// [`allreduce_scalar`] of one INTEGER per node, exact in `i64` (see
/// [`ReduceOp::combine_int`]). The payload is one 8-byte element on the
/// same tree, so the modelled cost is [`allreduce_scalar`]'s.
pub fn allreduce_int(m: &mut Machine, op: ReduceOp, per_rank: Vec<i64>) -> CommResult<i64> {
    let members: Vec<i64> = (0..m.nranks()).collect();
    let payloads = per_rank.into_iter().map(|v| ArrayData::Int(vec![v]));
    let results = allreduce_payloads(m, &members, payloads.collect(), |acc, x| {
        let v = op.combine_int(acc.get(0).as_int(), x.get(0).as_int());
        acc.set(0, Value::Int(v));
    })?;
    Ok(results[0].get(0).as_int())
}

/// Convenience: MAXLOC/MINLOC allreduce of one (value, global index) pair
/// per node; returns the winning `(value, index)` (replicated logically).
pub fn allreduce_loc(
    m: &mut Machine,
    op: ReduceOp,
    per_rank: Vec<(f64, i64)>,
) -> CommResult<(f64, i64)> {
    assert!(op.is_loc());
    let contribs = per_rank
        .into_iter()
        .map(|(v, i)| vec![v, i as f64])
        .collect();
    let out = allreduce(m, op, contribs)?;
    Ok((out[0][0], out[0][1] as i64))
}

/// Convert a [`Value`] to its reduction encoding.
pub fn encode_value(v: Value) -> f64 {
    match v {
        Value::Bool(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
        other => other.as_real(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::ProcGrid;
    use f90d_machine::MachineSpec;

    fn machine(p: i64) -> Machine {
        Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]))
    }

    #[test]
    fn scalar_sum_all_ops() {
        let mut m = machine(5);
        let s = allreduce_scalar(&mut m, ReduceOp::Sum, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s, 15.0);
        let p = allreduce_scalar(&mut m, ReduceOp::Prod, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(p, 120.0);
        let mx = allreduce_scalar(&mut m, ReduceOp::Max, vec![1.0, 9.0, 3.0, -4.0, 5.0]).unwrap();
        assert_eq!(mx, 9.0);
        let mn = allreduce_scalar(&mut m, ReduceOp::Min, vec![1.0, 9.0, 3.0, -4.0, 5.0]).unwrap();
        assert_eq!(mn, -4.0);
        let and = allreduce_scalar(&mut m, ReduceOp::And, vec![1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        assert_eq!(and, 0.0);
        let or = allreduce_scalar(&mut m, ReduceOp::Or, vec![0.0, 0.0, 1.0, 0.0, 0.0]).unwrap();
        assert_eq!(or, 1.0);
    }

    #[test]
    fn vector_reduce_elementwise() {
        let mut m = machine(3);
        let out = allreduce(
            &mut m,
            ReduceOp::Sum,
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
        )
        .unwrap();
        for r in 0..3 {
            assert_eq!(out[r], vec![6.0, 60.0]);
        }
    }

    #[test]
    fn maxloc_picks_value_then_lowest_index() {
        let mut m = machine(4);
        let (v, i) = allreduce_loc(
            &mut m,
            ReduceOp::MaxLoc,
            vec![(3.0, 0), (9.0, 5), (9.0, 2), (1.0, 7)],
        )
        .unwrap();
        assert_eq!(v, 9.0);
        assert_eq!(i, 2);
        let (v, i) = allreduce_loc(
            &mut m,
            ReduceOp::MinLoc,
            vec![(3.0, 0), (-9.0, 5), (9.0, 2), (-9.0, 7)],
        )
        .unwrap();
        assert_eq!(v, -9.0);
        assert_eq!(i, 5);
    }

    #[test]
    fn loc_ignores_empty_contributions() {
        // A node with no elements contributes (identity, -1).
        let mut m = machine(3);
        let (v, i) = allreduce_loc(
            &mut m,
            ReduceOp::MaxLoc,
            vec![(f64::NEG_INFINITY, -1), (4.0, 1), (f64::NEG_INFINITY, -1)],
        )
        .unwrap();
        assert_eq!(v, 4.0);
        assert_eq!(i, 1);
    }

    #[test]
    fn axis_reduce_is_fiber_local() {
        // 2x2 grid; reduce along axis 1: rows reduce independently.
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        // rank layout row-major: (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3
        let out = allreduce_along_axis(
            &mut m,
            1,
            ReduceOp::Sum,
            vec![vec![1.0], vec![2.0], vec![10.0], vec![20.0]],
        )
        .unwrap();
        assert_eq!(out[0], vec![3.0]);
        assert_eq!(out[1], vec![3.0]);
        assert_eq!(out[2], vec![30.0]);
        assert_eq!(out[3], vec![30.0]);
    }

    #[test]
    fn reduction_cost_logarithmic() {
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[16]));
        allreduce_scalar(&mut m, ReduceOp::Sum, vec![1.0; 16]).unwrap();
        let alpha = m.spec().alpha;
        // 4 up + 4 down stages; certainly below 10 startups worth.
        assert!(m.elapsed() < 10.0 * (alpha + 50e-6));
        assert!(m.elapsed() > 6.0 * alpha);
    }

    #[test]
    fn encode_logicals() {
        assert_eq!(encode_value(Value::Bool(true)), 1.0);
        assert_eq!(encode_value(Value::Bool(false)), 0.0);
        assert_eq!(encode_value(Value::Int(3)), 3.0);
    }
}
