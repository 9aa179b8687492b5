//! Stateless Multicast RPL Forwarding (SMRF).
//!
//! The prototype's multicast plane (§6): SMRF forwards multicast packets
//! *down* the RPL DODAG only — a node accepts a multicast frame only from
//! its preferred parent and re-broadcasts it if any descendant subtree
//! contains group members. A packet originated below the root therefore
//! first travels up to the root via link-local unicast, then floods down
//! the member branches. This module computes the forwarding sets and
//! per-member hop counts the simulator charges time and energy for.

use std::collections::{BTreeSet, HashSet};

use crate::rpl::{Dodag, Node};

/// The down-tree delivery plan for one multicast transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastPlan {
    /// Hops from the source up to the root (empty if the source is the
    /// root).
    pub uplink: Vec<(Node, Node)>,
    /// Down-tree forwarding transmissions `(forwarder, receiver)` in
    /// breadth-first order.
    pub downlink: Vec<(Node, Node)>,
    /// Total hops to reach each member: `(member, hop count)`.
    pub member_hops: Vec<(Node, usize)>,
}

impl MulticastPlan {
    /// Total number of radio transmissions the plan needs.
    pub fn transmissions(&self) -> usize {
        // Down-tree forwarding is broadcast: one TX per distinct forwarder.
        let forwarders: HashSet<Node> = self.downlink.iter().map(|(f, _)| *f).collect();
        self.uplink.len() + forwarders.len()
    }
}

/// Computes which nodes must forward a group packet so that every member
/// receives it, and how many hops each member is from the source.
///
/// Members come in as a [`BTreeSet`] so iteration order (and therefore
/// the produced plan) is deterministic, and so the network layer can hand
/// its group index over without rebuilding a set per transmission.
///
/// Returns `None` if the source is detached from the DODAG.
pub fn plan(dodag: &Dodag, source: Node, members: &BTreeSet<Node>) -> Option<MulticastPlan> {
    if !dodag.reachable(source) {
        return None;
    }
    plan_from_path(
        dodag,
        &dodag.path_to_root(source),
        members,
        &mut MarkScratch::new(),
    )
}

/// Reusable marking scratch for [`plan_from_path`].
///
/// The marking pass needs an `on_path` flag per node. Allocating (and
/// zeroing) an O(nodes) bitmap per plan made fleet-scale discovery waves
/// quadratic — 100k sources × 100k-entry memsets. Generation stamping
/// reuses one buffer across plans with O(1) reset: a slot counts as
/// marked only if it carries the current generation.
///
/// The climb also records every marked `(parent, child)` tree edge, so
/// the down-walk visits only the union of member paths instead of every
/// child of every marked node (25 000 children at a star root).
#[derive(Debug, Default)]
pub struct MarkScratch {
    stamp: Vec<u64>,
    generation: u64,
    edges: Vec<(Node, Node)>,
}

impl MarkScratch {
    /// Creates an empty scratch; it grows to the DODAG size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh marking pass over `n` nodes.
    fn begin(&mut self, n: usize) -> u64 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.edges.clear();
        self.generation += 1;
        self.generation
    }
}

/// Like [`plan`], but with the source→root chain supplied by the caller
/// and the marking buffer reused via `scratch`.
///
/// The network layer memoises `path_to_root` per source, so planning for
/// a deep tree does not re-walk the same uplink for every (group, source)
/// pair. `up_path` must start at the source and end at the root (the
/// shape [`Dodag::path_to_root`] returns).
pub fn plan_from_path(
    dodag: &Dodag,
    up_path: &[Node],
    members: &BTreeSet<Node>,
    scratch: &mut MarkScratch,
) -> Option<MulticastPlan> {
    if up_path.is_empty() || *up_path.last().expect("non-empty") != dodag.root {
        return None;
    }
    let uplink: Vec<(Node, Node)> = up_path.windows(2).map(|w| (w[0], w[1])).collect();

    // Mark every node that lies on a root→member path.
    let generation = scratch.begin(dodag.len());
    for &m in members {
        if !dodag.reachable(m) {
            continue;
        }
        let mut cur = m;
        // Stop climbing as soon as an already-marked ancestor is hit, so
        // the total marking work is O(union of member paths).
        while scratch.stamp[cur] != generation {
            scratch.stamp[cur] = generation;
            match dodag.parent[cur] {
                Some(p) => {
                    scratch.edges.push((p, cur));
                    cur = p;
                }
                None => break,
            }
        }
    }
    // `Dodag::children` lists children in ascending node order; sorting
    // the marked edges by (parent, child) keeps the down-walk's order.
    scratch.edges.sort_unstable();
    let edges = &scratch.edges;

    // Walk down from the root along the marked edges, forwarding into
    // branches containing members; record hop counts (uplink hops +
    // down-tree depth).
    let up_hops = uplink.len();
    let mut downlink = Vec::new();
    let mut member_hops = Vec::new();
    if members.contains(&dodag.root) {
        member_hops.push((dodag.root, up_hops));
    }
    let mut frontier = vec![(dodag.root, up_hops)];
    while let Some((node, hops)) = frontier.pop() {
        let first = edges.partition_point(|&(p, _)| p < node);
        for &(_, child) in edges[first..].iter().take_while(|&&(p, _)| p == node) {
            downlink.push((node, child));
            let child_hops = hops + 1;
            if members.contains(&child) {
                member_hops.push((child, child_hops));
            }
            frontier.push((child, child_hops));
        }
    }
    member_hops.sort_unstable();
    Some(MulticastPlan {
        uplink,
        downlink,
        member_hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkQuality;
    use crate::rpl::Topology;
    use proptest::prelude::*;

    /// The reference planner: a fresh `on_path` bitmap and a down-walk
    /// over every child of every marked node, O(fan-out) per node.
    fn oracle(dodag: &Dodag, up_path: &[Node], members: &BTreeSet<Node>) -> Option<MulticastPlan> {
        if up_path.last() != Some(&dodag.root) {
            return None;
        }
        let uplink: Vec<(Node, Node)> = up_path.windows(2).map(|w| (w[0], w[1])).collect();
        let mut on_path = vec![false; dodag.len()];
        for &m in members.iter().filter(|&&m| dodag.reachable(m)) {
            let mut cur = Some(m);
            while let Some(c) = cur {
                on_path[c] = true;
                cur = dodag.parent[c];
            }
        }
        let up_hops = uplink.len();
        let mut downlink = Vec::new();
        let mut member_hops = Vec::new();
        if members.contains(&dodag.root) {
            member_hops.push((dodag.root, up_hops));
        }
        let mut frontier = vec![(dodag.root, up_hops)];
        while let Some((node, hops)) = frontier.pop() {
            for &child in dodag.children(node) {
                if !on_path[child] {
                    continue;
                }
                downlink.push((node, child));
                if members.contains(&child) {
                    member_hops.push((child, hops + 1));
                }
                frontier.push((child, hops + 1));
            }
        }
        member_hops.sort_unstable();
        Some(MulticastPlan {
            uplink,
            downlink,
            member_hops,
        })
    }

    /// A DODAG over `parents.len() + 1` attached nodes plus `detached`
    /// isolated ones. `shape` 0 draws a random tree (node `i` hangs off
    /// `parents[i-1] % i`), 1 a star at node 0, and `k >= 2` a fanout-k
    /// heap (node `i` hangs off `(i-1)/k`).
    fn shaped(shape: usize, parents: &[usize], detached: usize) -> Dodag {
        let attached = parents.len() + 1;
        let mut t = Topology::new(attached + detached);
        for (j, &r) in parents.iter().enumerate() {
            let i = j + 1;
            let p = match shape {
                0 => r % i,
                1 => 0,
                k => (i - 1) / k,
            };
            t.link(p, i, LinkQuality::PERFECT);
        }
        Dodag::build(&t, 0)
    }

    proptest! {
        /// The marked-edge down-walk produces byte-identical plans to the
        /// full-children walk, with one scratch reused across plans so a
        /// stale generation or edge list would show.
        #[test]
        fn plan_from_path_matches_full_children_walk(
            shape in 0usize..5,
            parents in prop::collection::vec(any::<usize>(), 0..40),
            detached in 0usize..4,
            plans in prop::collection::vec(
                (any::<usize>(), prop::collection::vec(any::<usize>(), 0..8)),
                1..6,
            ),
        ) {
            let d = shaped(shape, &parents, detached);
            let mut scratch = MarkScratch::new();
            for (src, picks) in plans {
                let src = src % d.len();
                // Member ids range over every node, so the root and the
                // detached nodes turn up; an empty pick list is the empty set.
                let members: BTreeSet<Node> = picks.iter().map(|&p| p % d.len()).collect();
                let path = d.path_to_root(src);
                prop_assert_eq!(
                    plan_from_path(&d, &path, &members, &mut scratch),
                    oracle(&d, &path, &members)
                );
            }
        }
    }

    /// Root 0 with two branches: 0-1-3 and 0-2-4-5.
    fn tree() -> Dodag {
        let mut t = Topology::new(6);
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(1, 3, LinkQuality::PERFECT);
        t.link(0, 2, LinkQuality::PERFECT);
        t.link(2, 4, LinkQuality::PERFECT);
        t.link(4, 5, LinkQuality::PERFECT);
        Dodag::build(&t, 0)
    }

    fn set(nodes: &[Node]) -> BTreeSet<Node> {
        nodes.iter().copied().collect()
    }

    #[test]
    fn root_source_floods_only_member_branches() {
        let d = tree();
        let p = plan(&d, 0, &set(&[3])).unwrap();
        assert!(p.uplink.is_empty());
        assert_eq!(p.downlink, vec![(0, 1), (1, 3)]);
        assert_eq!(p.member_hops, vec![(3, 2)]);
        // Branch 2-4-5 must not be touched.
        assert!(!p.downlink.iter().any(|(f, _)| *f == 2 || *f == 4));
    }

    #[test]
    fn below_root_source_goes_up_first() {
        let d = tree();
        let p = plan(&d, 3, &set(&[5])).unwrap();
        assert_eq!(p.uplink, vec![(3, 1), (1, 0)]);
        assert_eq!(p.downlink, vec![(0, 2), (2, 4), (4, 5)]);
        // 2 hops up + 3 down.
        assert_eq!(p.member_hops, vec![(5, 5)]);
    }

    #[test]
    fn multiple_members_share_forwarders() {
        let d = tree();
        let p = plan(&d, 0, &set(&[4, 5])).unwrap();
        // One TX by 0, one by 2, one by 4 reaches both members.
        assert_eq!(p.transmissions(), 3);
        assert_eq!(p.member_hops, vec![(4, 2), (5, 3)]);
    }

    #[test]
    fn member_at_source_counts_zero_hops() {
        let d = tree();
        let p = plan(&d, 0, &set(&[0, 3])).unwrap();
        assert!(p.member_hops.contains(&(0, 0)));
        assert!(p.member_hops.contains(&(3, 2)));
    }

    #[test]
    fn empty_membership_needs_no_downlink() {
        let d = tree();
        let p = plan(&d, 3, &set(&[])).unwrap();
        assert!(p.downlink.is_empty());
        assert_eq!(
            p.uplink.len(),
            2,
            "uplink still happens (SMRF is stateless)"
        );
    }

    #[test]
    fn detached_source_returns_none() {
        let mut t = Topology::new(3);
        t.link(0, 1, LinkQuality::PERFECT);
        let d = Dodag::build(&t, 0);
        assert!(plan(&d, 2, &set(&[1])).is_none());
    }

    #[test]
    fn unreachable_members_are_skipped() {
        let mut t = Topology::new(3);
        t.link(0, 1, LinkQuality::PERFECT);
        let d = Dodag::build(&t, 0);
        let p = plan(&d, 0, &set(&[1, 2])).unwrap();
        assert_eq!(p.member_hops, vec![(1, 1)]);
    }
}
