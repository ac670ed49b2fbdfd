//! Deterministic minimal-path routing: `Topology::route(a, b)` expands a
//! rank pair into the ordered list of directed links the message
//! traverses (`Topology::route_into` does it into a reused buffer).
//!
//! Entity numbering: compute nodes are `0..P`; fat-tree switches get ids
//! `leaves·level + group` (disjoint from every leaf id because levels
//! start at 1). A [`LinkId`] is a directed `(src, dst)` entity pair, so
//! the two directions of one physical cable are two links — full-duplex,
//! matching the machines the paper models.
//!
//! Every route is minimal (`route.len() == hops`) and deterministic:
//! dimension-order on hypercube, mesh and torus (ties in the torus wrap
//! direction resolve to the increasing direction), up-then-down on the
//! fat tree. Determinism is what keeps contended virtual times
//! reproducible run-to-run.

use crate::spec::Topology;

/// One directed link of the interconnect: an edge between two entities
/// (compute nodes, or fat-tree switches above them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Source entity id.
    pub src: i64,
    /// Destination entity id.
    pub dst: i64,
}

impl LinkId {
    /// Shorthand constructor.
    pub fn new(src: i64, dst: i64) -> Self {
        LinkId { src, dst }
    }
}

impl Topology {
    /// The ordered directed links a message from rank `a` to rank `b`
    /// traverses. Empty for a self-message; `route(a, b).len()` always
    /// equals [`Topology::hops`]`(a, b)`.
    pub fn route(&self, a: i64, b: i64) -> Vec<LinkId> {
        let mut links = Vec::new();
        self.route_into(a, b, &mut links);
        links
    }

    /// [`Topology::route`] into a caller-owned buffer: `links` is
    /// cleared and refilled, so a transport routing every message
    /// through one buffer allocates nothing per message.
    pub fn route_into(&self, a: i64, b: i64, links: &mut Vec<LinkId>) {
        links.clear();
        if a == b {
            return;
        }
        match self {
            Topology::Crossbar => links.push(LinkId::new(a, b)),
            Topology::Hypercube => {
                // Fix differing address bits lowest-first.
                let mut cur = a;
                let mut diff = a ^ b;
                while diff != 0 {
                    let bit = diff & diff.wrapping_neg();
                    let next = cur ^ bit;
                    links.push(LinkId::new(cur, next));
                    cur = next;
                    diff &= diff - 1;
                }
            }
            Topology::Mesh2D { cols, .. } => {
                let (mut r, mut c) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                let mut push = |r0: i64, c0: i64, r1: i64, c1: i64| {
                    links.push(LinkId::new(r0 * cols + c0, r1 * cols + c1));
                };
                while r != br {
                    let nr = r + (br - r).signum();
                    push(r, c, nr, c);
                    r = nr;
                }
                while c != bc {
                    let nc = c + (bc - c).signum();
                    push(r, c, r, nc);
                    c = nc;
                }
            }
            Topology::Torus { dims } => {
                let mut cur = Topology::torus_coords(dims, a);
                let dst = Topology::torus_coords(dims, b);
                let rank_of = |c: &[i64]| -> i64 {
                    c.iter().zip(dims).fold(0, |acc, (&x, &ext)| acc * ext + x)
                };
                for d in 0..dims.len() {
                    let ext = dims[d];
                    let fwd = (dst[d] - cur[d]).rem_euclid(ext);
                    // Shorter way around; the tie (fwd == ext - fwd) goes
                    // to the increasing direction, deterministically.
                    let (step, count) = if fwd <= ext - fwd {
                        (1, fwd)
                    } else {
                        (-1, ext - fwd)
                    };
                    for _ in 0..count {
                        let from = rank_of(&cur);
                        cur[d] = (cur[d] + step).rem_euclid(ext);
                        links.push(LinkId::new(from, rank_of(&cur)));
                    }
                }
            }
            Topology::FatTree { arity, levels } => {
                let leaves = arity.checked_pow(*levels as u32).expect("fat tree size");
                let switch = |level: i64, group: i64| leaves * level + group;
                let lca = Topology::fat_tree_lca(*arity, *levels, a, b);
                // Up from leaf `a` to the common ancestor…
                let mut cur = a; // entity id; group of level-l ancestor is a / arity^l
                let mut ga = a;
                for l in 1..=lca {
                    ga /= arity;
                    let next = switch(l, ga);
                    links.push(LinkId::new(cur, next));
                    cur = next;
                }
                // …then down to leaf `b`.
                for l in (1..lca).rev() {
                    let gb = b / arity.pow(l as u32);
                    let next = switch(l, gb);
                    links.push(LinkId::new(cur, next));
                    cur = next;
                }
                links.push(LinkId::new(cur, b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Route must chain src→dst from `a` to `b` with `hops` links.
    fn check(t: &Topology, a: i64, b: i64) {
        let r = t.route(a, b);
        assert_eq!(r.len() as i64, t.hops(a, b), "{t:?} {a}->{b}");
        if a == b {
            assert!(r.is_empty());
            return;
        }
        assert_eq!(r.first().unwrap().src, a);
        assert_eq!(r.last().unwrap().dst, b);
        for w in r.windows(2) {
            assert_eq!(w[0].dst, w[1].src, "chain broken in {r:?}");
        }
    }

    #[test]
    fn routes_chain_and_match_hops() {
        let topos = [
            Topology::Hypercube,
            Topology::Mesh2D { rows: 4, cols: 4 },
            Topology::Crossbar,
            Topology::Torus { dims: vec![4, 4] },
            Topology::FatTree {
                arity: 2,
                levels: 4,
            },
        ];
        for t in &topos {
            for a in 0..16 {
                for b in 0..16 {
                    check(t, a, b);
                }
            }
        }
    }

    #[test]
    fn torus_wrap_goes_the_short_way() {
        let t = Topology::Torus { dims: vec![8] };
        // 0 -> 6: two hops backwards through the wrap link.
        let r = t.route(0, 6);
        assert_eq!(r, vec![LinkId::new(0, 7), LinkId::new(7, 6)]);
        // Tie at distance 4: resolves forward.
        let r = t.route(0, 4);
        assert_eq!(r[0], LinkId::new(0, 1));
    }

    #[test]
    fn fat_tree_route_goes_up_then_down() {
        let t = Topology::FatTree {
            arity: 2,
            levels: 2,
        };
        // Leaves 0..4, switches: level 1 = {4+0, 4+1}, level 2 root = 8.
        let r = t.route(0, 3);
        assert_eq!(
            r,
            vec![
                LinkId::new(0, 4), // up to level-1 switch of group 0
                LinkId::new(4, 8), // up to the root
                LinkId::new(8, 5), // down to level-1 switch of group 1
                LinkId::new(5, 3), // down to leaf 3
            ]
        );
        // Siblings only touch their shared level-1 switch.
        assert_eq!(t.route(2, 3), vec![LinkId::new(2, 5), LinkId::new(5, 3)]);
    }

    #[test]
    fn hypercube_dimension_order_is_lowest_bit_first() {
        let r = Topology::Hypercube.route(0, 0b110);
        assert_eq!(r, vec![LinkId::new(0, 2), LinkId::new(2, 6)]);
    }

    #[test]
    fn routes_are_deterministic() {
        let t = Topology::Torus { dims: vec![3, 5] };
        for a in 0..15 {
            for b in 0..15 {
                assert_eq!(t.route(a, b), t.route(a, b));
            }
        }
    }
}
