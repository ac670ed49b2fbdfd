//! The modelled cost of local computation, by hand arithmetic.
//!
//! Bytecode ↔ native parity cannot see a charge that is wrong on both
//! tiers — a FORALL's mask cost (only the bytecode tier runs masks), a
//! `DO`'s loop control, a scalar assignment, an `IF` condition — and the
//! reference interpreter has no clock. Until PR 21 a second executor with
//! its own statement loop charged the same programs and was compared by
//! bits; what replaces it here is the rule itself (`SExpr::op_count` /
//! `op_count_cse`, `vmlower`): every node of an expression tree that
//! depends on a FORALL variable costs one element operation per
//! iteration, a body assignment two more, a masked-out iteration its mask
//! only; replicated statements cost their tree's nodes (at least one) on
//! every rank, and every `DO` trip one for loop control. The program has
//! no communication, so each rank's clock is exactly its charges, in
//! statement order.

mod common;

use common::{observe, Tier};
use f90d_machine::{ExecMode, MachineSpec};

const SRC: &str = "
PROGRAM COST
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
REAL S
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N, B(I) > 6.0) A(I) = B(I) * 2.0 + 1.0
S = 0.5
DO K = 1, 3
  S = S * 2.0 + 1.0
END DO
IF (S > 1.0) THEN
  FORALL (I=1:N) A(I) = A(I) + S
END IF
END
";

/// Element operations rank `r` of 4 is charged, one entry per charge.
fn charges(r: i64) -> Vec<i64> {
    // B(I) > 6.0 passes for I = 7..16: 0, 2, 4, 4 of each rank's 4.
    let passes = [0, 2, 4, 4][r as usize];
    let mut ops = vec![
        // B(I) = REAL(I): loop variables count from 0 in the node
        // program, so the value `I` is an add; REAL() is another node,
        // the write two more.
        4 * (2 + 2),
        // Mask `B(I) > 6.0`: a read and a compare on every iteration;
        // body `B(I) * 2.0 + 1.0`: read, multiply, add, and the write.
        4 * 2 + passes * (3 + 2),
        // S = 0.5: no nodes, charged as one.
        1,
    ];
    for _trip in 0..3 {
        ops.push(2); // S = S * 2.0 + 1.0
        ops.push(1); // loop control
    }
    ops.push(1); // IF (S > 1.0)
    ops.push(4 * (2 + 2)); // A(I) = A(I) + S
    ops
}

#[test]
fn local_computation_is_charged_by_the_documented_rule() {
    let spec = MachineSpec::ipsc860();
    for tier in [Tier::Bytecode, Tier::Native] {
        let (seen, _) = observe(SRC, &[4], &[], tier, ExecMode::Sequential).expect("runs");
        assert_eq!((seen.messages, seen.bytes), (0, 0), "no communication");
        for r in 0..4 {
            let want = (charges(r).iter()).fold(0.0, |clock, &n| clock + spec.compute_time(n));
            assert_eq!(
                f64::from_bits(seen.clocks[r as usize]),
                want,
                "rank {r} on {tier:?}: charged {:?}",
                charges(r)
            );
        }
    }
}
