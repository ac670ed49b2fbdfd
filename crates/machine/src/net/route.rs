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
    /// The index of `link` in a dense per-link table ([`LinkClocks`]):
    /// distinct links of the family have distinct slots, and a machine's
    /// slots are all below a bound that grows with its size, so a table
    /// indexed by slot grows to that bound at most. Defined for the links
    /// [`Topology::route`] produces; one formula per family:
    ///
    /// * crossbar — `(a, b)` with `m = max(a, b)`: `m² + b` when `a = m`,
    ///   `m² + m + 1 + a` when `b = m`, under `P²`;
    /// * hypercube — `(s, s ^ 2^k)`, grouped by the address bits `d` the
    ///   link needs (`s < 2^d`, `k < d`), so the `2^d·d` links among the
    ///   first `2^d` nodes take the first `2^d·d` slots: `P·log2 P`;
    /// * mesh and torus — `src·2n + 2d + (0 forward, 1 backward)` over
    ///   the `n` dimensions (a mesh has two), a torus of extent 2 only
    ///   ever stepping forward: `2n·P`;
    /// * fat tree — every entity but the root has one parent link, so
    ///   the slot is `2·child + (0 up, 1 down)`: under
    ///   `2·arity^levels·levels`.
    ///
    /// [`LinkClocks`]: crate::net::LinkClocks
    pub fn link_slot(&self, link: LinkId) -> usize {
        let LinkId { src, dst } = link;
        let slot = match self {
            Topology::Crossbar => {
                let m = src.max(dst);
                if src == m {
                    m * m + dst
                } else {
                    m * m + m + 1 + src
                }
            }
            Topology::Hypercube => {
                let k = (src ^ dst).trailing_zeros() as i64;
                let d = 64 - (src | 1 << k).leading_zeros() as i64;
                let half = 1 << (d - 1);
                let base = half * (d - 1);
                if src < half {
                    base + src
                } else {
                    base + half + (src - half) * d + k
                }
            }
            Topology::Mesh2D { cols, .. } => {
                let dir = match dst - src {
                    1 => 2,
                    -1 => 3,
                    delta if delta == *cols => 0,
                    _ => 1,
                };
                src * 4 + dir
            }
            Topology::Torus { dims } => {
                // The one dimension whose coordinate differs, found from
                // the fastest (last) one out.
                let mut stride = 1;
                let mut at = (0, 0);
                for (d, &ext) in dims.iter().enumerate().rev() {
                    let (a, b) = (src / stride % ext, dst / stride % ext);
                    if a != b {
                        at = (d as i64, ((a + 1) % ext != b) as i64);
                        break;
                    }
                    stride *= ext;
                }
                src * 2 * dims.len() as i64 + 2 * at.0 + at.1
            }
            Topology::FatTree { .. } => 2 * src.min(dst) + (src > dst) as i64,
        };
        slot as usize
    }

    /// Whether `link` joins two adjacent entities of this topology, as
    /// every link of its routes does: on a fat tree a switch or leaf and
    /// its parent, elsewhere two ranks one hop apart (within the mesh or
    /// torus).
    pub fn is_link(&self, link: LinkId) -> bool {
        let LinkId { src, dst } = link;
        let size = match self {
            Topology::FatTree { arity, levels } => {
                let leaves = arity.pow(*levels as u32);
                // Level and group of entity `e`, when it is one.
                let at = |e: i64| {
                    let (level, group) = (e / leaves, e % leaves);
                    let ok = e >= 0 && level <= *levels;
                    (ok && group < leaves / arity.pow(level as u32)).then_some((level, group))
                };
                let up = Topology::fat_tree_up(*arity);
                let parent = |(level, group): (i64, i64)| (level + 1, up(group));
                return match (at(src), at(dst)) {
                    (Some(a), Some(b)) => parent(a) == b || parent(b) == a,
                    _ => false,
                };
            }
            Topology::Mesh2D { rows, cols } => rows * cols,
            Topology::Torus { dims } => dims.iter().product(),
            Topology::Crossbar | Topology::Hypercube => i64::MAX,
        };
        (0..size).contains(&src) && (0..size).contains(&dst) && self.hops(src, dst) == 1
    }

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
                // Up from leaf `a` to the common ancestor…
                let mut cur = a;
                let lca = Topology::fat_tree_lca(*arity, *levels, a, b, |l, ga| {
                    let next = switch(l, ga);
                    links.push(LinkId::new(cur, next));
                    cur = next;
                });
                // …then down to leaf `b`: its ancestors below that one,
                // climbed the same way and laid down in reverse.
                let (up, top) = (Topology::fat_tree_up(*arity), links.len());
                let (mut below, mut gb) = (b, b);
                for l in 1..lca {
                    gb = up(gb);
                    let next = switch(l, gb);
                    links.push(LinkId::new(next, below));
                    below = next;
                }
                links.push(LinkId::new(cur, below));
                links[top..].reverse();
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
    fn links_of_another_family_are_not_links() {
        // One hypercube link, two hops on the 4 × 4 torus.
        let torus = Topology::Torus { dims: vec![4, 4] };
        assert!(Topology::Hypercube.is_link(LinkId::new(0, 2)));
        assert!(!torus.is_link(LinkId::new(0, 2)));
        // Leaves 0..4, level-1 switches 4 and 5, the root 8.
        let fat = Topology::FatTree {
            arity: 2,
            levels: 2,
        };
        assert!(fat.is_link(LinkId::new(0, 4)) && fat.is_link(LinkId::new(8, 5)));
        assert!(!fat.is_link(LinkId::new(0, 5)) && !fat.is_link(LinkId::new(0, 1)));
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
