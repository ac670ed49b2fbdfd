//! Property tests for the interconnect metric (`Topology::hops`) and the
//! router (`Topology::route`, `f90d-machine::net`): across every topology
//! family and random machine sizes,
//!
//! * `hops` is a metric — identity, symmetry, triangle inequality;
//! * every route is a minimal path — it chains node→node through the
//!   topology's entities, starts at the source, ends at the destination,
//!   and its length equals `hops` exactly;
//! * routing is deterministic (two calls give the same links), which is
//!   what makes the contention model reproducible, and `route_into` a
//!   reused buffer gives exactly `route`'s links;
//! * an idle `LinkClocks` network reproduces the paper's distance
//!   formula `α + β·bytes + τ·hops` to fp-association precision.

use f90d_machine::{LinkClocks, MachineSpec, Topology};
use proptest::prelude::*;

/// A random topology together with its rank count P.
fn topo_and_size() -> impl Strategy<Value = (Topology, i64)> {
    prop_oneof![
        (0i64..7).prop_map(|d| (Topology::Hypercube, 1i64 << d)),
        (2i64..65).prop_map(|p| (Topology::Crossbar, p)),
        ((1i64..9), (1i64..9)).prop_map(|(r, c)| (Topology::Mesh2D { rows: r, cols: c }, r * c)),
        ((1i64..7), (1i64..7), (1i64..7)).prop_map(|(a, b, c)| {
            (
                Topology::Torus {
                    dims: vec![a, b, c],
                },
                a * b * c,
            )
        }),
        ((2i64..5), (1i64..6)).prop_map(|(a, l)| {
            (
                Topology::FatTree {
                    arity: a,
                    levels: l,
                },
                a.pow(l as u32),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `hops` is a metric: hops(a,a) = 0, hops(a,b) = hops(b,a) ≥ 0,
    /// and hops(a,c) ≤ hops(a,b) + hops(b,c).
    #[test]
    fn hops_is_a_metric(
        tp in topo_and_size(),
        ra in 0i64..4096,
        rb in 0i64..4096,
        rc in 0i64..4096,
    ) {
        let (topo, p) = tp;
        let (a, b, c) = (ra % p, rb % p, rc % p);
        prop_assert_eq!(topo.hops(a, a), 0);
        let ab = topo.hops(a, b);
        prop_assert!(ab >= 0);
        prop_assert_eq!(ab, topo.hops(b, a));
        if a != b {
            prop_assert!(ab > 0);
        }
        prop_assert!(topo.hops(a, c) <= ab + topo.hops(b, c));
    }

    /// Every route is a minimal path: it starts at the source, every
    /// link chains into the next, it ends at the destination, and its
    /// length is exactly `hops(a, b)`.
    #[test]
    fn routes_are_minimal_chained_paths(
        tp in topo_and_size(),
        ra in 0i64..4096,
        rb in 0i64..4096,
    ) {
        let (topo, p) = tp;
        let (a, b) = (ra % p, rb % p);
        let route = topo.route(a, b);
        prop_assert_eq!(route.len() as i64, topo.hops(a, b));
        if a == b {
            prop_assert!(route.is_empty());
        } else {
            prop_assert_eq!(route[0].src, a);
            prop_assert_eq!(route[route.len() - 1].dst, b);
            for w in route.windows(2) {
                prop_assert_eq!(w[0].dst, w[1].src);
            }
            for l in &route {
                prop_assert!(l.src != l.dst, "degenerate link {:?}", l);
            }
        }
        // Deterministic: the contention model replays the same links.
        prop_assert_eq!(route, topo.route(a, b));
    }

    /// `route_into` is `route`: the same links in the same order —
    /// `hops` of them — whatever an earlier message left in the reused
    /// buffer.
    #[test]
    fn route_into_a_dirty_buffer_equals_route(
        tp in topo_and_size(),
        ra in 0i64..4096,
        rb in 0i64..4096,
        rc in 0i64..4096,
    ) {
        let (topo, p) = tp;
        let (a, b, c) = (ra % p, rb % p, rc % p);
        let mut buf = Vec::new();
        // Dirty the buffer with another pair's route first.
        topo.route_into(c, a, &mut buf);
        prop_assert_eq!(&buf, &topo.route(c, a));
        topo.route_into(a, b, &mut buf);
        prop_assert_eq!(buf.len() as i64, topo.hops(a, b));
        prop_assert_eq!(&buf, &topo.route(a, b));
        // A self-message clears it.
        topo.route_into(b, b, &mut buf);
        prop_assert!(buf.is_empty());
    }

    /// An idle contention model degenerates to the paper's distance
    /// formula on every topology, rank pair and message size.
    #[test]
    fn idle_link_clocks_match_the_distance_formula(
        tp in topo_and_size(),
        ra in 0i64..4096,
        rb in 0i64..4096,
        bytes in 0i64..1_000_000,
        start in 0.0f64..1e3,
    ) {
        let (topo, p) = tp;
        let (a, b) = (ra % p, rb % p);
        prop_assume!(a != b);
        let mut spec = MachineSpec::ipsc860();
        spec.topology = topo;
        let route = spec.topology.route(a, b);
        let mut clocks = LinkClocks::new();
        let arrival = clocks.transfer(&spec, &route, start, bytes);
        let ideal = start + spec.msg_time(a, b, bytes);
        prop_assert!(
            (arrival - ideal).abs() <= 1e-9 * ideal.abs().max(1.0),
            "idle network must reproduce α+β·bytes+τ·hops: {} vs {}",
            arrival,
            ideal
        );
    }
}
