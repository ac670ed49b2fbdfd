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
//!   formula `α + β·bytes + τ·hops` to fp-association precision;
//! * `Topology::link_slot` gives every link some route uses a slot of
//!   its own, under the family's bound, and the dense `LinkClocks` it
//!   indexes prices every transfer bit for bit as the sparse per-link
//!   map it replaced ([`MapClocks`], kept here as the oracle).

use std::collections::{HashMap, HashSet};

use f90d_machine::{LinkClocks, LinkId, MachineSpec, Topology};
use proptest::prelude::*;

/// The per-link busy-until map `LinkClocks` was before it became a
/// dense table: absent = idle since t = 0.
#[derive(Default)]
struct MapClocks {
    busy: HashMap<LinkId, f64>,
}

impl MapClocks {
    fn transfer(&mut self, spec: &MachineSpec, route: &[LinkId], start: f64, bytes: i64) -> f64 {
        let mut head = start + spec.alpha;
        for link in route {
            head = head.max(self.busy.get(link).copied().unwrap_or(0.0)) + spec.tau;
        }
        let arrival = head + spec.beta * bytes as f64;
        for link in route {
            self.busy.insert(*link, arrival);
        }
        arrival
    }
}

/// The slot bound of a `p`-rank machine of `topo`'s family.
fn slot_bound(topo: &Topology, p: i64) -> i64 {
    match topo {
        Topology::Crossbar => p * p,
        Topology::Hypercube => p * p.max(2).ilog2() as i64,
        Topology::Mesh2D { .. } => 4 * p,
        Topology::Torus { dims } => 2 * dims.len() as i64 * p,
        Topology::FatTree { levels, .. } => 2 * p * levels,
    }
}

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

proptest! {
    // Every route of the machine per case: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every link of every route is a link of the topology and has its
    /// own slot, and the slots stay under the family's bound.
    #[test]
    fn link_slots_are_injective_over_routed_links(tp in topo_and_size()) {
        let (topo, p) = tp;
        let bound = slot_bound(&topo, p);
        let mut seen: HashMap<usize, LinkId> = HashMap::new();
        let mut links = HashSet::new();
        for a in 0..p {
            for b in 0..p {
                links.extend(topo.route(a, b));
            }
        }
        for link in links {
            prop_assert!(topo.is_link(link), "{:?}: routed {:?} is no link", topo, link);
            let slot = topo.link_slot(link);
            prop_assert!((slot as i64) < bound, "{:?}: slot {} of {:?} ≥ {}", topo, slot, link, bound);
            if let Some(other) = seen.insert(slot, link) {
                prop_assert!(false, "{:?}: {:?} and {:?} share slot {}", topo, other, link, slot);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense table prices a random stream of transfers exactly as
    /// the per-link map did: every arrival's bits, and the links used.
    #[test]
    fn dense_link_clocks_equal_the_map_model(
        tp in topo_and_size(),
        seed in 0i64..i64::MAX,
        n in 1usize..64,
    ) {
        let (topo, p) = tp;
        let mut spec = MachineSpec::ipsc860();
        spec.topology = topo;
        let (mut dense, mut map) = (LinkClocks::new(), MapClocks::default());
        let mut rng = seed as u64 | 1;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        for _ in 0..n {
            let (a, b) = (next(p as u64) as i64, next(p as u64) as i64);
            let (bytes, start) = (next(4096) as i64, next(1000) as f64 * 1e-6);
            let route = spec.topology.route(a, b);
            let got = dense.transfer(&spec, &route, start, bytes);
            let want = map.transfer(&spec, &route, start, bytes);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(dense.links_used(), map.busy.len());
        }
        for (&link, &t) in &map.busy {
            prop_assert_eq!(dense.busy_until(&spec.topology, link).to_bits(), t.to_bits());
        }
    }
}
