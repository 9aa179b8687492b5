//! The frame-level network simulator.
//!
//! Owns the node table, the physical topology, the RPL DODAG, multicast
//! membership and the in-flight datagram queue. `upnp-core` drives it:
//! endpoints hand in [`Datagram`]s; the simulator routes them (unicast
//! along tree paths with link-layer retries, multicast via SMRF, anycast
//! to the nearest instance), charges radio time and energy, and yields
//! [`Delivery`] records at the right virtual instants.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv6Addr;

use upnp_sim::{EnergyMeter, Scheduler, SimDuration, SimRng, SimTime};

use crate::addr;
use crate::link::{DegradeMode, LinkChaos, LinkDegrade, LinkQuality, RadioModel};
use crate::msg::Payload;
use crate::rpl::{Dodag, Node, Topology};
use crate::sixlowpan;
use crate::smrf::{self, MarkScratch, MulticastPlan};

/// A node handle in the network.
///
/// 32 bits: fleets beyond 65 535 nodes are in scope (the 100k-node
/// benchmark sweep), so the id must not saturate a `u16`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A UDP datagram between µPnP endpoints.
///
/// The payload is a [`Payload`] (refcounted, immutable), so cloning a
/// datagram for every receiver of a multicast shares the bytes instead of
/// copying them.
#[derive(Debug, Clone, PartialEq)]
pub struct Datagram {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address (unicast, multicast group or anycast).
    pub dst: Ipv6Addr,
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// UDP payload (shared, zero-copy on clone).
    pub payload: Payload,
}

impl Datagram {
    /// A copy whose payload share is *not counted* in the payload
    /// statistics — see [`Payload::coordination_clone`]. Used when a
    /// frame is moved between shard coordinators rather than delivered.
    pub fn coordination_clone(&self) -> Datagram {
        Datagram {
            src: self.src,
            dst: self.dst,
            src_port: self.src_port,
            dst_port: self.dst_port,
            payload: self.payload.coordination_clone(),
        }
    }
}

/// A datagram arriving at a node.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// When it arrives.
    pub at: SimTime,
    /// The receiving node.
    pub node: NodeId,
    /// The datagram.
    pub dgram: Datagram,
}

/// What happened to a transmission (accounting for benches/tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendReport {
    /// Radio frames transmitted across all hops.
    pub frames: u32,
    /// Total radio airtime consumed.
    pub airtime: SimDuration,
    /// Number of receivers the datagram was scheduled to reach.
    pub receivers: u32,
    /// Receivers lost to unrecoverable link errors.
    pub lost: u32,
}

#[derive(Debug)]
struct NodeState {
    unicast: Ipv6Addr,
    radio_meter: EnergyMeter,
}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Frames put on the air.
    pub frames_tx: u64,
    /// MAC payload bytes put on the air.
    pub bytes_tx: u64,
    /// Datagram deliveries that failed permanently.
    pub drops: u64,
    /// Deliveries perturbed to a later instant by link chaos.
    pub frames_delayed: u64,
    /// Deliveries echoed a second time by link chaos.
    pub frames_duplicated: u64,
    /// Hops carried while gray-degraded (slow or lossy) — the evidence
    /// a [`LinkDegrade`] schedule actually fired.
    pub frames_degraded: u64,
}

impl NetStats {
    /// Registers every counter into a unified metrics registry under
    /// the `net` group.
    pub fn register_into(&self, reg: &mut upnp_trace::MetricsRegistry) {
        reg.register("net", "frames_tx", self.frames_tx);
        reg.register("net", "bytes_tx", self.bytes_tx);
        reg.register("net", "drops", self.drops);
        reg.register("net", "frames_delayed", self.frames_delayed);
        reg.register("net", "frames_duplicated", self.frames_duplicated);
        reg.register("net", "frames_degraded", self.frames_degraded);
    }
}

/// A handle into the route arena (a memoised tree path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteHandle(u32);

/// A handle into the plan arena (a memoised SMRF plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanHandle(u32);

/// Flat arena of interned node chains (tree routes, uplink paths).
///
/// Paths are stored back to back in one `Vec<Node>`; a handle names a
/// `(start, len)` span. Lookups hand out handles, not owned paths, so a
/// cache hit costs nothing and the arena is reclaimed wholesale when a
/// topology change invalidates every path at once.
#[derive(Debug, Default)]
struct RouteArena {
    nodes: Vec<Node>,
    spans: Vec<(u32, u32)>,
}

impl RouteArena {
    fn intern(&mut self, path: &[Node]) -> RouteHandle {
        let start = self.nodes.len() as u32;
        self.nodes.extend_from_slice(path);
        self.spans.push((start, path.len() as u32));
        RouteHandle(self.spans.len() as u32 - 1)
    }

    fn slice(&self, h: RouteHandle) -> &[Node] {
        let (start, len) = self.spans[h.0 as usize];
        &self.nodes[start as usize..(start + len) as usize]
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.spans.clear();
    }
}

/// Slab of interned SMRF plans with a free list: plans die per group on
/// membership churn, so slots are recycled instead of leaking.
#[derive(Debug, Default)]
struct PlanArena {
    slots: Vec<Option<MulticastPlan>>,
    free: Vec<u32>,
}

impl PlanArena {
    fn intern(&mut self, plan: MulticastPlan) -> PlanHandle {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(plan);
                PlanHandle(i)
            }
            None => {
                self.slots.push(Some(plan));
                PlanHandle(self.slots.len() as u32 - 1)
            }
        }
    }

    fn get(&self, h: PlanHandle) -> &MulticastPlan {
        self.slots[h.0 as usize].as_ref().expect("live plan handle")
    }

    fn release(&mut self, h: PlanHandle) {
        self.slots[h.0 as usize] = None;
        self.free.push(h.0);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// A multicast frame that has climbed to the DODAG root and may still
/// have group members outside this network slice (see
/// [`Network::take_cross_frames`]).
#[derive(Debug, Clone)]
pub struct RootedFrame {
    /// When the frame reached the root (meaningless when `lost`).
    pub at_root: SimTime,
    /// The datagram (payload shared, zero-copy).
    pub dgram: Datagram,
    /// True if the uplink failed: the dissemination died before the
    /// root, and other shards must count their members as drops instead
    /// of delivering (the sequential simulator charges every group
    /// member on an uplink failure).
    pub lost: bool,
}

/// The network simulator.
///
/// Fleet-scale hot paths are index-backed rather than scan-backed:
///
/// * unicast destinations resolve in O(1) by arithmetic: a node's
///   address is derived from its index, so no address table is kept;
/// * `group_index` maps each multicast group to its member set, so
///   membership queries and SMRF planning never walk the node table;
/// * `anycast_index` keeps the instance set per anycast address;
/// * routes, SMRF plans and per-source uplink chains are interned in
///   arenas and memoised by handle — a cache hit copies nothing, and
///   multicast fan-out to *m* receivers shares one refcounted payload
///   instead of allocating *m* times;
/// * the plan cache is keyed group-first, so membership churn invalidates
///   one group's plans in O(plans of that group) instead of scanning the
///   whole cache (formerly an O(n²) term in discovery waves).
///
/// # Determinism
///
/// Radio randomness (CSMA backoff, frame loss) is *not* a sequential
/// stream: every hop draws from a private generator keyed by
/// `(seed, tx node, rx node, hop start time)`. Two executions that put
/// the same frame on the same link at the same virtual instant therefore
/// observe identical radio behaviour regardless of how unrelated traffic
/// is interleaved — the property that lets a sharded world simulate
/// disjoint subtrees on different threads and still match the sequential
/// simulator bit for bit.
pub struct Network {
    prefix: u64,
    nodes: Vec<NodeState>,
    topo: Topology,
    dodag: Option<Dodag>,
    sched: Scheduler<Delivery>,
    /// Base seed for the per-hop radio generators.
    hop_seed: u64,
    radio: RadioModel,
    stats: NetStats,
    group_index: HashMap<Ipv6Addr, BTreeSet<Node>>,
    anycast_index: HashMap<Ipv6Addr, BTreeSet<NodeId>>,
    /// Memoised anycast resolution per `(source, anycast address)` —
    /// invalidated on instance join/leave and topology churn, like the
    /// route caches.
    anycast_cache: HashMap<(NodeId, Ipv6Addr), NodeId>,
    /// Instances registered via [`Network::set_anycast_scoped`] — they
    /// only resolve for senders whose root path passes through them.
    scoped_instances: BTreeSet<NodeId>,
    routes: RouteArena,
    route_cache: HashMap<(NodeId, NodeId), RouteHandle>,
    /// Memoised `path_to_root` per source (SMRF uplink) — deep trees stop
    /// re-walking the same chain for every (group, source) pair.
    uplink_cache: HashMap<NodeId, RouteHandle>,
    plans: PlanArena,
    plan_cache: HashMap<Ipv6Addr, HashMap<NodeId, PlanHandle>>,
    /// Dense per-send arrival scratch, generation-stamped so it is reused
    /// across sends without clearing (no per-multicast allocation).
    arrival: Vec<(u64, SimTime)>,
    arrival_gen: u64,
    /// Reusable SMRF marking buffer (see [`MarkScratch`]).
    smrf_scratch: MarkScratch,
    /// Nodes that are replicas of entities simulated in every shard
    /// (manager, clients). [`Network::multicast_from_root`] skips them so
    /// a cross-shard continuation never re-delivers to a replica that the
    /// originating shard already served.
    replicated: BTreeSet<Node>,
    /// When true, multicasts to partitionable groups are mirrored into
    /// [`Network::take_cross_frames`] after their uplink completes.
    cross_capture: bool,
    cross_outbox: Vec<RootedFrame>,
    /// Memoised `all_clients_group(prefix)` (compared per multicast).
    all_clients: Ipv6Addr,
    /// Seeded delay/duplicate perturbation applied at delivery
    /// scheduling time, when enabled (see [`LinkChaos`]).
    chaos: Option<LinkChaos>,
    /// Seeded gray-failure schedule applied per directed hop, when
    /// enabled (see [`LinkDegrade`]).
    degrade: Option<LinkDegrade>,
}

impl Network {
    /// Creates an empty network with the given 48-bit prefix and radio
    /// seed.
    pub fn new(prefix_48: u64, seed: u64) -> Self {
        Self::with_capacity(prefix_48, seed, 0)
    }

    /// Creates an empty network pre-sized for `nodes` nodes — avoids
    /// repeated reallocation when fleets of thousands of nodes are built.
    pub fn with_capacity(prefix_48: u64, seed: u64, nodes: usize) -> Self {
        Network {
            prefix: prefix_48,
            nodes: Vec::with_capacity(nodes),
            topo: Topology::new(0),
            dodag: None,
            sched: Scheduler::with_capacity(nodes.max(64)),
            hop_seed: seed,
            radio: RadioModel::ieee802154(),
            stats: NetStats::default(),
            group_index: HashMap::new(),
            anycast_index: HashMap::new(),
            anycast_cache: HashMap::new(),
            scoped_instances: BTreeSet::new(),
            routes: RouteArena::default(),
            route_cache: HashMap::new(),
            uplink_cache: HashMap::new(),
            plans: PlanArena::default(),
            plan_cache: HashMap::new(),
            arrival: Vec::new(),
            arrival_gen: 0,
            smrf_scratch: MarkScratch::new(),
            replicated: BTreeSet::new(),
            cross_capture: false,
            cross_outbox: Vec::new(),
            all_clients: addr::all_clients_group(prefix_48),
            chaos: None,
            degrade: None,
        }
    }

    /// The deterministic radio generator for one hop: a pure function of
    /// `(seed, tx, rx, hop start time)`, so radio outcomes are independent
    /// of how unrelated traffic is interleaved (see the type-level
    /// determinism notes).
    fn hop_rng(&self, a: Node, b: Node, at: SimTime) -> SimRng {
        // The xor of the three keyed terms is structured, so run it
        // through the shared full-avalanche finalizer before seeding.
        SimRng::seed(upnp_sim::splitmix64(
            self.hop_seed
                ^ (a as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (b as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ at.as_nanos().wrapping_mul(0xD6E8_FEB8_6659_FD93),
        ))
    }

    /// The network's 48-bit prefix.
    pub fn prefix(&self) -> u64 {
        self.prefix
    }

    /// The radio model in use.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// Adds a node; its unicast address is derived from its index.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let unicast = addr::unicast(self.prefix, 0, id.0 as u64 + 1);
        self.nodes.push(NodeState {
            unicast,
            radio_meter: EnergyMeter::new("radio"),
        });
        self.topo.add_node();
        id
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The unicast address of `node`.
    pub fn addr_of(&self, node: NodeId) -> Ipv6Addr {
        self.nodes[node.0 as usize].unicast
    }

    /// Resolves a unicast address to its node.
    pub fn node_by_addr(&self, a: Ipv6Addr) -> Option<NodeId> {
        // Inverts `add_node`'s derivation (interface id = index + 1);
        // the comparison rejects other prefixes, subnets and groups.
        let iid = u64::from_be_bytes(a.octets()[8..].try_into().ok()?);
        let index = usize::try_from(iid.checked_sub(1)?).ok()?;
        let node = self.nodes.get(index)?;
        (node.unicast == a).then_some(NodeId(index as u32))
    }

    /// Connects two nodes with the given link quality.
    pub fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        self.topo.link(a.0 as usize, b.0 as usize, quality);
        // Paths and plans may now be stale; recompute lazily.
        self.invalidate_topology_caches();
    }

    /// Severs the link between two nodes (a fault-injected partition).
    /// Returns whether the link existed. The DODAG is *not* rebuilt —
    /// call [`Network::build_tree`] when the routing layer notices, as a
    /// real RPL network would repair after a trickle interval.
    pub fn unlink(&mut self, a: NodeId, b: NodeId) -> bool {
        let severed = self.topo.unlink(a.0 as usize, b.0 as usize);
        if severed {
            self.invalidate_topology_caches();
        }
        severed
    }

    /// The quality of the direct link `a → b`, if one exists (used by
    /// fault injectors to remember what to restore on heal).
    pub fn link_quality(&self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        self.topo.quality(a.0 as usize, b.0 as usize)
    }

    /// (Re)builds the RPL DODAG rooted at `root`.
    pub fn build_tree(&mut self, root: NodeId) {
        self.dodag = Some(Dodag::build(&self.topo, root.0 as usize));
        self.invalidate_topology_caches();
    }

    fn invalidate_topology_caches(&mut self) {
        self.route_cache.clear();
        self.uplink_cache.clear();
        self.routes.clear();
        self.plan_cache.clear();
        self.plans.clear();
        self.anycast_cache.clear();
    }

    /// Joins `node` to a multicast group.
    pub fn join_group(&mut self, node: NodeId, group: Ipv6Addr) {
        assert!(group.is_multicast(), "not a multicast address: {group}");
        if self
            .group_index
            .entry(group)
            .or_default()
            .insert(node.0 as usize)
        {
            self.invalidate_group_plans(group);
        }
    }

    /// Removes `node` from a multicast group. Returns whether it was a
    /// member.
    pub fn leave_group(&mut self, node: NodeId, group: Ipv6Addr) -> bool {
        let Some(members) = self.group_index.get_mut(&group) else {
            return false;
        };
        let was_member = members.remove(&(node.0 as usize));
        if was_member {
            if members.is_empty() {
                self.group_index.remove(&group);
            }
            self.invalidate_group_plans(group);
        }
        was_member
    }

    /// Drops every memoised plan for `group` — O(plans of that group).
    fn invalidate_group_plans(&mut self, group: Ipv6Addr) {
        if let Some(per_source) = self.plan_cache.remove(&group) {
            for (_, h) in per_source {
                self.plans.release(h);
            }
        }
    }

    /// Iterates the current members of `group` in node order, without
    /// allocating.
    pub fn group_members(&self, group: Ipv6Addr) -> impl Iterator<Item = NodeId> + '_ {
        self.group_index
            .get(&group)
            .into_iter()
            .flatten()
            .map(|&n| NodeId(n as u32))
    }

    /// Number of members of `group`.
    pub fn group_len(&self, group: Ipv6Addr) -> usize {
        self.group_index.get(&group).map_or(0, BTreeSet::len)
    }

    /// Registers `node` as an instance of an anycast address (§5: "the
    /// µPnP manager is assigned an anycast IPv6 address"). An address may
    /// have many instances — the origin repository plus its edge caches —
    /// and a send resolves to the instance nearest the sender.
    pub fn set_anycast(&mut self, node: NodeId, anycast: Ipv6Addr) {
        self.scoped_instances.remove(&node);
        if self.anycast_index.entry(anycast).or_default().insert(node) {
            self.anycast_cache.retain(|&(_, a), _| a != anycast);
        }
    }

    /// Registers `node` as a *subtree-scoped* instance of an anycast
    /// address: it only resolves for senders it routes for — those whose
    /// DODAG chain to the root passes through it. Edge caches register
    /// this way, so a requester whose own cache is down falls through to
    /// the backbone replicas (manager, standby) rather than to a sibling
    /// subtree's cache across the tree.
    ///
    /// The scoping is what keeps anycast resolution identical between
    /// the sequential simulator and every shard count: a sibling
    /// subtree's cache may live in another shard (an unreachable ghost
    /// there), so "nearest instance anywhere in the tree" is not a
    /// shard-invariant answer — "an instance on my own uplink path, else
    /// a replicated backbone instance, else unresolved" is.
    pub fn set_anycast_scoped(&mut self, node: NodeId, anycast: Ipv6Addr) {
        self.scoped_instances.insert(node);
        if self.anycast_index.entry(anycast).or_default().insert(node) {
            self.anycast_cache.retain(|&(_, a), _| a != anycast);
        }
    }

    /// Deregisters `node` as an instance of an anycast address (an edge
    /// cache leaving the tier). Returns whether it was registered.
    pub fn unset_anycast(&mut self, node: NodeId, anycast: Ipv6Addr) -> bool {
        let Some(instances) = self.anycast_index.get_mut(&anycast) else {
            return false;
        };
        let was = instances.remove(&node);
        if was {
            if instances.is_empty() {
                self.anycast_index.remove(&anycast);
            }
            self.anycast_cache.retain(|&(_, a), _| a != anycast);
        }
        was
    }

    /// Removes a *crashed* node from every anycast instance set it was
    /// registered in — the ungraceful counterpart of
    /// [`Network::unset_anycast`], for instances that die without a
    /// goodbye. Returns whether the node was registered anywhere.
    ///
    /// Memoised anycast resolutions pointing at the dead instance are
    /// invalidated exactly as topology churn would invalidate them;
    /// without that, a per-`(source, address)` memo keeps steering
    /// traffic into the corpse until an unrelated rebuild flushes it.
    pub fn fail_node(&mut self, node: NodeId) -> bool {
        let mut was_instance = false;
        self.anycast_index.retain(|_, instances| {
            if instances.remove(&node) {
                was_instance = true;
            }
            !instances.is_empty()
        });
        if was_instance {
            self.anycast_cache.retain(|_, resolved| *resolved != node);
        }
        was_instance
    }

    /// Radio energy consumed by `node` so far, joules.
    pub fn radio_energy_j(&self, node: NodeId) -> f64 {
        self.nodes[node.0 as usize].radio_meter.total_j()
    }

    /// Aggregate traffic statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Enables (or disables, with `None`) seeded link chaos: a fraction
    /// of deliveries is delayed and/or duplicated at scheduling time.
    ///
    /// The perturbation is a pure function of `(chaos seed, receiving
    /// node, clamped delivery instant)` — the same decomposed keying as
    /// `Network::hop_rng` — so it is independent of traffic
    /// interleaving and bit-identical under sharding. The chaos stream
    /// is separate from the radio stream: enabling it never shifts a
    /// loss or backoff draw.
    pub fn set_link_chaos(&mut self, chaos: Option<LinkChaos>) {
        self.chaos = chaos;
    }

    /// Enables (or disables, with `None`) the seeded gray-failure
    /// schedule: directed hops are slowed, made lossier, or cut in
    /// windows of virtual time (see [`LinkDegrade`]).
    ///
    /// The schedule is a pure function of `(degrade seed, directed
    /// edge, window index)`, evaluated at each hop's start instant — a
    /// third keyed stream next to the radio and chaos streams, so
    /// enabling it never shifts a loss, backoff, delay or duplicate
    /// draw, and a sharded execution computes the identical mode for
    /// the identical hop.
    pub fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>) {
        self.degrade = degrade;
    }

    /// The gray-failure mode this network would impose on the directed
    /// hop `tx → rx` at `at` ([`DegradeMode::None`] when no schedule is
    /// installed). Exposed for the purity property tests.
    pub fn degrade_mode(&self, tx: NodeId, rx: NodeId, at: SimTime) -> DegradeMode {
        self.degrade
            .map_or(DegradeMode::None, |d| d.mode_at(tx, rx, at))
    }

    /// Applies the gray-failure schedule to one directed hop: `None`
    /// means this direction is cut at `at`; otherwise the (possibly
    /// degraded) quality and the latency multiplier to apply to the
    /// hop's link time. Books the degraded-hop evidence counter for
    /// slow and lossy hops.
    fn degraded_hop(
        &mut self,
        a: Node,
        b: Node,
        at: SimTime,
        quality: LinkQuality,
    ) -> Option<(LinkQuality, u64)> {
        let Some(d) = self.degrade else {
            return Some((quality, 1));
        };
        match d.mode_at(NodeId(a as u32), NodeId(b as u32), at) {
            DegradeMode::None => Some((quality, 1)),
            DegradeMode::Slow => {
                self.stats.frames_degraded += 1;
                Some((quality, d.latency_factor as u64))
            }
            DegradeMode::Lossy => {
                self.stats.frames_degraded += 1;
                Some((d.degraded_quality(quality), 1))
            }
            DegradeMode::Cut => None,
        }
    }

    /// The DODAG parent of `node`, if a tree is built and the node is
    /// reachable and not the root. Fault injectors use this to sever
    /// the routing edge above an arbitrary interior node.
    pub fn dodag_parent(&self, node: NodeId) -> Option<NodeId> {
        self.dodag.as_ref()?.parent[node.0 as usize].map(|p| NodeId(p as u32))
    }

    /// Sends a datagram from `from` at virtual time `now`.
    ///
    /// Deliveries are scheduled into the future; fetch them with
    /// [`Network::poll`].
    pub fn send(&mut self, now: SimTime, from: NodeId, dgram: Datagram) -> SendReport {
        let mut report = SendReport {
            frames: 0,
            airtime: SimDuration::ZERO,
            receivers: 0,
            lost: 0,
        };
        // Loopback.
        if self.nodes[from.0 as usize].unicast == dgram.dst {
            self.schedule(now + SimDuration::from_micros(100), from, dgram);
            report.receivers = 1;
            return report;
        }
        if dgram.dst.is_multicast() {
            self.send_multicast(now, from, dgram, &mut report);
        } else {
            let target = self.resolve_destination(from, dgram.dst);
            match target {
                Some(t) => self.send_unicast(now, from, t, dgram, &mut report),
                None => {
                    self.stats.drops += 1;
                    report.lost = 1;
                }
            }
        }
        report
    }

    /// Resolves a unicast or anycast destination to a concrete node.
    ///
    /// Anycast resolves to the *live instance nearest the sender* by
    /// DODAG hop distance (ties to the lowest node id) — so a Thing's
    /// driver request lands on the edge cache in its own subtree, not a
    /// replica across the tree. Resolution is memoised per
    /// `(source, anycast)` and invalidated on instance churn and
    /// topology changes.
    fn resolve_destination(&mut self, from: NodeId, dst: Ipv6Addr) -> Option<NodeId> {
        if let Some(n) = self.node_by_addr(dst) {
            return Some(n);
        }
        if let Some(&n) = self.anycast_cache.get(&(from, dst)) {
            return Some(n);
        }
        let resolved = self.resolve_anycast_fresh(from, dst)?;
        self.anycast_cache.insert((from, dst), resolved);
        Some(resolved)
    }

    /// Uncached nearest-instance anycast resolution (also the oracle the
    /// cache-coherence diagnostics recompute against). Only the
    /// registered instances are examined, not the whole node table;
    /// instances unreachable in this slice's DODAG (another shard's
    /// ghost nodes) never win, and a *scoped* instance
    /// ([`Network::set_anycast_scoped`]) is only a candidate for senders
    /// whose root path passes through it — so the answer is the same in
    /// the sequential tree and in every shard slice.
    fn resolve_anycast_fresh(&self, from: NodeId, dst: Ipv6Addr) -> Option<NodeId> {
        let dodag = self.dodag.as_ref()?;
        self.anycast_index
            .get(&dst)?
            .iter()
            .copied()
            .filter(|inst| {
                !self.scoped_instances.contains(inst)
                    || dodag.on_root_path(from.0 as usize, inst.0 as usize)
            })
            .filter_map(|inst| {
                dodag
                    .distance(from.0 as usize, inst.0 as usize)
                    .map(|d| (d, inst))
            })
            .min()
            .map(|(_, inst)| inst)
    }

    /// The tree path `from → to`, memoised per destination pair and
    /// interned in the route arena.
    fn route(&mut self, from: NodeId, to: NodeId) -> Option<RouteHandle> {
        if let Some(&h) = self.route_cache.get(&(from, to)) {
            return Some(h);
        }
        let path = self.dodag.as_ref()?.route(from.0 as usize, to.0 as usize)?;
        let h = self.routes.intern(&path);
        self.route_cache.insert((from, to), h);
        Some(h)
    }

    /// The memoised source→root chain used by SMRF uplinks.
    fn uplink(&mut self, from: NodeId) -> Option<RouteHandle> {
        if let Some(&h) = self.uplink_cache.get(&from) {
            return Some(h);
        }
        let dodag = self.dodag.as_ref()?;
        if !dodag.reachable(from.0 as usize) {
            return None;
        }
        let path = dodag.path_to_root(from.0 as usize);
        let h = self.routes.intern(&path);
        self.uplink_cache.insert(from, h);
        Some(h)
    }

    fn datagram_wire_size(&self, dgram: &Datagram) -> usize {
        sixlowpan::compressed_header(dgram.src, dgram.dst, self.prefix) + dgram.payload.len()
    }

    fn send_unicast(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        dgram: Datagram,
        report: &mut SendReport,
    ) {
        report.receivers = 1;
        let Some(h) = self.route(from, to) else {
            self.stats.drops += 1;
            report.lost = 1;
            return;
        };
        let total = self.datagram_wire_size(&dgram);
        let frames = sixlowpan::fragment(total, &self.radio);
        let hops = self.routes.slice(h).len().saturating_sub(1);
        let mut t = now;
        for i in 0..hops {
            // Short immutable borrows of the arena; the loop body mutates
            // stats/meters freely in between.
            let (a, b) = {
                let path = self.routes.slice(h);
                (path[i], path[i + 1])
            };
            // Routes are memoised against the DODAG snapshot; a fault
            // injector may have severed this hop since. The packet dies
            // at the break — stale routing tables are repaired by the
            // next reroot, not by the data plane.
            let Some(quality) = self.topo.quality(a, b) else {
                self.stats.drops += 1;
                report.lost = 1;
                return;
            };
            // Per-hop forwarding cost on intermediate nodes.
            if a != from.0 as usize {
                t += crate::calib::duration(crate::calib::FORWARD_HOP);
            }
            // Gray failures: this direction may be cut (the packet dies
            // at the break like a severed link), slowed, or lossier.
            let Some((quality, slow)) = self.degraded_hop(a, b, t, quality) else {
                self.stats.drops += 1;
                report.lost = 1;
                return;
            };
            let mut rng = self.hop_rng(a, b, t);
            for &frame in &frames {
                let (hop_time, attempts, ok) = self.radio.unicast_hop(frame, quality, &mut rng);
                let hop_time = hop_time * slow;
                t += hop_time;
                report.frames += attempts;
                report.airtime += hop_time;
                self.stats.frames_tx += attempts as u64;
                self.stats.bytes_tx += frame as u64 * attempts as u64;
                self.charge_radio(NodeId(a as u32), NodeId(b as u32), frame, attempts);
                if !ok {
                    self.stats.drops += 1;
                    report.lost = 1;
                    return;
                }
            }
        }
        self.schedule(t, to, dgram);
    }

    /// The SMRF plan for `from` multicasting to `group`, memoised per
    /// `(group, source)` — discovery waves and streams re-multicast to the
    /// same group from the same sources over and over.
    fn multicast_plan(&mut self, group: Ipv6Addr, from: NodeId) -> Option<(PlanHandle, u32)> {
        let receivers = {
            let members = self.group_index.get(&group);
            members.map_or(0, |m| m.len() - usize::from(m.contains(&(from.0 as usize)))) as u32
        };
        if let Some(&h) = self.plan_cache.get(&group).and_then(|m| m.get(&from)) {
            return Some((h, receivers));
        }
        let up = self.uplink(from)?;
        let dodag = self.dodag.as_ref()?;
        let up_path = self.routes.slice(up);
        let members = self.group_index.get(&group);
        let scratch = &mut self.smrf_scratch;
        let plan = match members {
            Some(m) if m.contains(&(from.0 as usize)) => {
                // SMRF never loops a packet back to its source; plan over
                // the membership without it.
                let mut others = m.clone();
                others.remove(&(from.0 as usize));
                smrf::plan_from_path(dodag, up_path, &others, scratch)?
            }
            Some(m) => smrf::plan_from_path(dodag, up_path, m, scratch)?,
            None => smrf::plan_from_path(dodag, up_path, &BTreeSet::new(), scratch)?,
        };
        let h = self.plans.intern(plan);
        self.plan_cache.entry(group).or_default().insert(from, h);
        Some((h, receivers))
    }

    fn send_multicast(
        &mut self,
        now: SimTime,
        from: NodeId,
        dgram: Datagram,
        report: &mut SendReport,
    ) {
        let Some((h, receivers)) = self.multicast_plan(dgram.dst, from) else {
            let receivers = self.group_len(dgram.dst)
                - usize::from(
                    self.group_index
                        .get(&dgram.dst)
                        .is_some_and(|m| m.contains(&(from.0 as usize))),
                );
            self.stats.drops += receivers as u64;
            // A partitioned source has no uplink, but the group may still
            // have members in other shards: mirror the failure so they
            // charge their drops too, as the sequential simulator does.
            if self.captures_cross_shard(dgram.dst) {
                self.cross_outbox.push(RootedFrame {
                    at_root: now,
                    dgram: dgram.coordination_clone(),
                    lost: true,
                });
            }
            return;
        };
        report.receivers = receivers;
        let total = self.datagram_wire_size(&dgram);
        let frames = sixlowpan::fragment(total, &self.radio);

        // Per-node arrival time in the generation-stamped scratch; lost
        // nodes simply never get this generation's stamp.
        self.arrival_gen += 1;
        let generation = self.arrival_gen;
        if self.arrival.len() < self.nodes.len() {
            self.arrival.resize(self.nodes.len(), (0, SimTime::ZERO));
        }
        self.arrival[from.0 as usize] = (generation, now);

        // Uplink to the root: link-local unicast hops (reliable).
        let uplink_hops = self.plans.get(h).uplink.len();
        for i in 0..uplink_hops {
            let (a, b) = self.plans.get(h).uplink[i];
            let (g, t_in) = self.arrival[a];
            debug_assert_eq!(g, generation, "uplink hops chain from the source");
            let mut t = t_in;
            if a != from.0 as usize {
                t += crate::calib::duration(crate::calib::FORWARD_HOP);
            }
            // A fault injector may have severed this tree link since the
            // plan was memoised; the dissemination dies at the break,
            // exactly like a lossy-uplink failure.
            let quality = self.topo.quality(a, b).and_then(|q|
                // A gray one-direction cut kills the uplink exactly
                // like a severed tree link.
                self.degraded_hop(a, b, t, q));
            let Some((quality, slow)) = quality else {
                self.stats.drops += receivers as u64;
                report.lost = report.receivers;
                if self.captures_cross_shard(dgram.dst) {
                    self.cross_outbox.push(RootedFrame {
                        at_root: t,
                        dgram: dgram.coordination_clone(),
                        lost: true,
                    });
                }
                return;
            };
            let mut rng = self.hop_rng(a, b, t);
            let mut ok_all = true;
            for &frame in &frames {
                let (hop_time, attempts, ok) = self.radio.unicast_hop(frame, quality, &mut rng);
                let hop_time = hop_time * slow;
                t += hop_time;
                report.frames += attempts;
                report.airtime += hop_time;
                self.stats.frames_tx += attempts as u64;
                self.stats.bytes_tx += frame as u64 * attempts as u64;
                self.charge_radio(NodeId(a as u32), NodeId(b as u32), frame, attempts);
                ok_all &= ok;
            }
            if !ok_all {
                // Uplink failure kills the whole dissemination —
                // including the remote-shard members this slice cannot
                // see, so mirror the failure for the coordinator.
                self.stats.drops += receivers as u64;
                report.lost = report.receivers;
                if self.captures_cross_shard(dgram.dst) {
                    self.cross_outbox.push(RootedFrame {
                        at_root: t,
                        dgram: dgram.coordination_clone(),
                        lost: true,
                    });
                }
                return;
            }
            self.arrival[b] = (generation, t);
        }

        // The frame has reached the root. If this network is one shard of
        // a partitioned world, the group may have members in other shards:
        // mirror the rooted frame so the coordinator can continue the
        // downlink there. Groups that only ever hold replicated nodes
        // (the all-clients group, per-stream groups) are exempt — the
        // local replicas already cover every logical member.
        if self.captures_cross_shard(dgram.dst) {
            if let Some(dodag) = self.dodag.as_ref() {
                let (g, at_root) = self.arrival[dodag.root];
                debug_assert_eq!(g, generation, "uplink always ends at the root");
                self.cross_outbox.push(RootedFrame {
                    at_root,
                    dgram: dgram.coordination_clone(),
                    lost: false,
                });
            }
        }

        self.run_downlink(h, generation, &frames, &dgram, Some(report));
    }

    /// Runs the downlink (root-to-members) half of an SMRF dissemination:
    /// broadcast per forwarder, no retries, deliveries scheduled for every
    /// member the flood reaches. `arrival` must already carry this
    /// `generation`'s stamp for the subtree heads the plan starts from.
    fn run_downlink(
        &mut self,
        h: PlanHandle,
        generation: u64,
        frames: &[usize],
        dgram: &Datagram,
        mut report: Option<&mut SendReport>,
    ) {
        let downlink_hops = self.plans.get(h).downlink.len();
        for i in 0..downlink_hops {
            let (f, child) = self.plans.get(h).downlink[i];
            let (g, t_in) = self.arrival[f];
            if g != generation {
                continue; // Forwarder never got the packet.
            }
            let mut t = t_in + crate::calib::duration(crate::calib::FORWARD_HOP);
            // Severed since the plan was memoised: the child never hears
            // the flood and the member loop below books the drop. A gray
            // one-direction cut silences the same hop the same way.
            let quality = self
                .topo
                .quality(f, child)
                .and_then(|q| self.degraded_hop(f, child, t, q));
            let Some((quality, slow)) = quality else {
                continue;
            };
            let mut rng = self.hop_rng(f, child, t);
            let mut heard = true;
            for &frame in frames {
                let (hop_time, ok) = self.radio.multicast_hop(frame, quality, &mut rng);
                let hop_time = hop_time * slow;
                t += hop_time;
                if let Some(r) = report.as_deref_mut() {
                    r.frames += 1;
                    r.airtime += hop_time;
                }
                self.stats.frames_tx += 1;
                self.stats.bytes_tx += frame as u64;
                self.charge_radio(NodeId(f as u32), NodeId(child as u32), frame, 1);
                heard &= ok;
            }
            if heard {
                self.arrival[child] = (generation, t);
            }
        }

        let member_count = self.plans.get(h).member_hops.len();
        for i in 0..member_count {
            let (m, _) = self.plans.get(h).member_hops[i];
            let (g, t) = self.arrival[m];
            if g == generation {
                // Payload is refcounted: this clone shares bytes.
                self.schedule(t, NodeId(m as u32), dgram.clone());
            } else {
                self.stats.drops += 1;
                if let Some(r) = report.as_deref_mut() {
                    r.lost += 1;
                }
            }
        }
    }

    // ---- Shard-slice support -------------------------------------------
    //
    // A sharded world builds one `Network` per shard over the *same*
    // global node-id space (so addresses and wire sizes match the
    // sequential simulator), links only its own subtrees, and uses the
    // three methods below to exchange the rare multicasts whose group
    // spans shards.

    /// Declares `nodes` as replicas of entities that exist in every shard
    /// (the manager and the clients). Cross-shard multicast continuations
    /// skip them so no logical endpoint hears a frame twice.
    pub fn set_replicated_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.replicated = nodes.into_iter().map(|n| n.0 as usize).collect();
    }

    /// Starts mirroring rooted multicast frames for the coordinator to
    /// collect with [`Network::take_cross_frames`].
    pub fn enable_cross_shard_capture(&mut self) {
        self.cross_capture = true;
    }

    /// Drains the multicasts that reached this shard's root and whose
    /// group may have members in other shards.
    pub fn take_cross_frames(&mut self) -> Vec<RootedFrame> {
        std::mem::take(&mut self.cross_outbox)
    }

    /// True if multicasts to `dst` must be mirrored for other shards:
    /// capture is enabled and the group is not one whose members are
    /// replicated into every shard (the all-clients group, per-stream
    /// groups).
    fn captures_cross_shard(&self, dst: Ipv6Addr) -> bool {
        self.cross_capture && dst != self.all_clients && dst.octets()[11] != addr::STREAM_FLAG
    }

    /// This slice's deliverable members of `group`: joined nodes minus
    /// replicated nodes and the root itself — the set a cross-shard
    /// continuation would deliver to.
    fn remote_members(&self, group: Ipv6Addr, root: Node) -> BTreeSet<Node> {
        self.group_index
            .get(&group)
            .into_iter()
            .flatten()
            .copied()
            .filter(|m| !self.replicated.contains(m) && *m != root)
            .collect()
    }

    /// Accounts a multicast whose uplink failed in another shard: every
    /// member this slice would have delivered to counts as a drop, just
    /// as the sequential simulator charges the whole group on an uplink
    /// failure.
    pub fn drop_from_root(&mut self, dgram: &Datagram) {
        let Some(dodag) = self.dodag.as_ref() else {
            return;
        };
        let root = dodag.root;
        self.stats.drops += self.remote_members(dgram.dst, root).len() as u64;
    }

    /// Continues a multicast dissemination that reached the DODAG root in
    /// another shard: floods this slice's member subtrees from the root
    /// at `at_root`, charging only the local downlink (the shared uplink
    /// was already accounted by the originating shard). Replicated nodes
    /// ([`Network::set_replicated_nodes`]) are excluded — the originating
    /// shard already delivered to its local replicas.
    pub fn multicast_from_root(&mut self, at_root: SimTime, dgram: Datagram) {
        let Some(dodag) = self.dodag.as_ref() else {
            return;
        };
        let root = dodag.root;
        let members = self.remote_members(dgram.dst, root);
        if members.is_empty() {
            return;
        }
        let Some(plan) = smrf::plan_from_path(dodag, &[root], &members, &mut self.smrf_scratch)
        else {
            return;
        };
        let h = self.plans.intern(plan);

        let total = self.datagram_wire_size(&dgram);
        let frames = sixlowpan::fragment(total, &self.radio);
        self.arrival_gen += 1;
        let generation = self.arrival_gen;
        if self.arrival.len() < self.nodes.len() {
            self.arrival.resize(self.nodes.len(), (0, SimTime::ZERO));
        }
        self.arrival[root] = (generation, at_root);
        self.run_downlink(h, generation, &frames, &dgram, None);
        self.plans.release(h);
    }

    fn charge_radio(&mut self, tx: NodeId, rx: NodeId, frame: usize, attempts: u32) {
        let tx_j = self.radio.tx_energy(frame) * attempts as f64;
        let rx_j = self.radio.rx_energy(frame) * attempts as f64;
        self.nodes[tx.0 as usize].radio_meter.charge_j(tx_j);
        self.nodes[rx.0 as usize].radio_meter.charge_j(rx_j);
    }

    fn schedule(&mut self, at: SimTime, node: NodeId, dgram: Datagram) {
        let at = at.max(self.sched.now());
        let Some(chaos) = self.chaos else {
            self.sched.schedule_at(at, Delivery { at, node, dgram });
            return;
        };
        // The perturbation is a pure function of (seed, node, delivery
        // instant): no shared RNG stream, so the sequential and the
        // sharded execution perturb the same logical delivery
        // identically regardless of global event interleaving.
        let mut rng = SimRng::seed(upnp_sim::splitmix64(
            chaos.seed
                ^ (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ at.as_nanos().wrapping_mul(0xD6E8_FEB8_6659_FD93),
        ));
        let span = chaos.max_delay.as_nanos().max(1);
        let deliver_at = if rng.chance(chaos.delay_p) {
            self.stats.frames_delayed += 1;
            at + SimDuration::from_nanos(1 + rng.next_u64() % span)
        } else {
            at
        };
        if rng.chance(chaos.duplicate_p) {
            self.stats.frames_duplicated += 1;
            let echo_at = deliver_at + SimDuration::from_nanos(1 + rng.next_u64() % span);
            self.sched.schedule_at(
                echo_at,
                Delivery {
                    at: echo_at,
                    node,
                    dgram: dgram.clone(),
                },
            );
        }
        self.sched.schedule_at(
            deliver_at,
            Delivery {
                at: deliver_at,
                node,
                dgram,
            },
        );
    }

    /// The timestamp of the next pending delivery.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.sched.peek_time()
    }

    /// Pops all deliveries due at or before `until`, in time order.
    pub fn poll(&mut self, until: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.poll_into(until, &mut out);
        out
    }

    /// Pops all deliveries due at or before `until` into `out` (appended
    /// in time order). Batching into a caller-owned buffer keeps the
    /// world loop's per-step cost `O(deliveries)` with zero allocation in
    /// steady state.
    pub fn poll_into(&mut self, until: SimTime, out: &mut Vec<Delivery>) {
        while matches!(self.sched.peek_time(), Some(t) if t <= until) {
            let entry = self.sched.pop().expect("peeked");
            out.push(entry.event);
        }
    }

    /// True if deliveries are still in flight.
    pub fn pending(&self) -> bool {
        !self.sched.is_empty()
    }

    /// (diagnostics) True if every memoised route, uplink chain and SMRF
    /// plan equals a freshly recomputed one.
    ///
    /// Exists for the cache-coherence property tests: arbitrary
    /// plug/unplug/topology churn must leave the caches indistinguishable
    /// from a cold network. Not a hot-path API.
    pub fn caches_coherent(&self) -> bool {
        let Some(dodag) = self.dodag.as_ref() else {
            return self.route_cache.is_empty() && self.plan_cache.is_empty();
        };
        for (&(from, to), &h) in &self.route_cache {
            let fresh = dodag.route(from.0 as usize, to.0 as usize);
            if fresh.as_deref() != Some(self.routes.slice(h)) {
                return false;
            }
        }
        for (&from, &h) in &self.uplink_cache {
            if dodag.path_to_root(from.0 as usize) != self.routes.slice(h) {
                return false;
            }
        }
        for (&(from, dst), &resolved) in &self.anycast_cache {
            if self.resolve_anycast_fresh(from, dst) != Some(resolved) {
                return false;
            }
        }
        for (group, per_source) in &self.plan_cache {
            for (&from, &h) in per_source {
                let members = self.group_index.get(group).cloned().unwrap_or_default();
                let fresh = match members.contains(&(from.0 as usize)) {
                    true => {
                        let mut others = members.clone();
                        others.remove(&(from.0 as usize));
                        smrf::plan(dodag, from.0 as usize, &others)
                    }
                    false => smrf::plan(dodag, from.0 as usize, &members),
                };
                if fresh.as_ref() != Some(self.plans.get(h)) {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("pending", &self.sched.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{peripheral_group, MCAST_PORT};

    const PREFIX: u64 = 0x2001_0db8_0000;

    fn dgram(net: &Network, from: NodeId, dst: Ipv6Addr, len: usize) -> Datagram {
        Datagram {
            src: net.addr_of(from),
            dst,
            src_port: MCAST_PORT,
            dst_port: MCAST_PORT,
            payload: vec![0xab; len].into(),
        }
    }

    /// Two nodes with a perfect link, tree rooted at 0.
    fn pair() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(PREFIX, 7);
        let a = net.add_node();
        let b = net.add_node();
        net.link(a, b, LinkQuality::PERFECT);
        net.build_tree(a);
        (net, a, b)
    }

    #[test]
    fn unicast_delivery_with_latency() {
        let (mut net, a, b) = pair();
        let d = dgram(&net, a, net.addr_of(b), 20);
        let report = net.send(SimTime::ZERO, a, d.clone());
        assert_eq!(report.receivers, 1);
        assert_eq!(report.lost, 0);
        assert!(report.frames >= 1);
        let deliveries = net.poll(SimTime::MAX);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, b);
        assert_eq!(deliveries[0].dgram, d);
        // One hop of a small frame: between 1 and 10 ms (CSMA + airtime).
        let ms = deliveries[0].at.since(SimTime::ZERO).as_millis_f64();
        assert!((0.5..10.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn multihop_unicast_routes_through_tree() {
        let mut net = Network::new(PREFIX, 8);
        let n: Vec<NodeId> = (0..4).map(|_| net.add_node()).collect();
        for w in n.windows(2) {
            net.link(w[0], w[1], LinkQuality::PERFECT);
        }
        net.build_tree(n[0]);
        let d = dgram(&net, n[3], net.addr_of(n[0]), 30);
        net.send(SimTime::ZERO, n[3], d);
        let deliveries = net.poll(SimTime::MAX);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, n[0]);
        // Intermediate nodes consumed radio energy forwarding.
        assert!(net.radio_energy_j(n[1]) > 0.0);
        assert!(net.radio_energy_j(n[2]) > 0.0);
    }

    #[test]
    fn multicast_reaches_only_members() {
        let mut net = Network::new(PREFIX, 9);
        let root = net.add_node();
        let things: Vec<NodeId> = (0..3).map(|_| net.add_node()).collect();
        for &t in &things {
            net.link(root, t, LinkQuality::PERFECT);
        }
        net.build_tree(root);
        let group = peripheral_group(PREFIX, 0xed3f_0ac1);
        net.join_group(things[0], group);
        net.join_group(things[2], group);

        let d = dgram(&net, root, group, 25);
        let report = net.send(SimTime::ZERO, root, d);
        assert_eq!(report.receivers, 2);
        let deliveries = net.poll(SimTime::MAX);
        let mut who: Vec<NodeId> = deliveries.iter().map(|d| d.node).collect();
        who.sort();
        assert_eq!(who, vec![things[0], things[2]]);
    }

    #[test]
    fn multicast_fanout_shares_one_payload() {
        let mut net = Network::new(PREFIX, 29);
        let root = net.add_node();
        let members: Vec<NodeId> = (0..8).map(|_| net.add_node()).collect();
        for &m in &members {
            net.link(root, m, LinkQuality::PERFECT);
        }
        net.build_tree(root);
        let group = peripheral_group(PREFIX, 7);
        for &m in &members {
            net.join_group(m, group);
        }
        let before = crate::msg::payload_stats();
        let d = dgram(&net, root, group, 25); // the single allocation
        net.send(SimTime::ZERO, root, d);
        assert_eq!(net.poll(SimTime::MAX).len(), 8);
        let after = crate::msg::payload_stats();
        assert_eq!(after.allocs - before.allocs, 1, "one payload materialised");
        assert!(after.clones - before.clones >= 8, "receivers share it");
    }

    #[test]
    fn multicast_from_leaf_goes_via_root() {
        let mut net = Network::new(PREFIX, 10);
        let root = net.add_node();
        let a = net.add_node();
        let b = net.add_node();
        net.link(root, a, LinkQuality::PERFECT);
        net.link(root, b, LinkQuality::PERFECT);
        net.build_tree(root);
        let group = peripheral_group(PREFIX, 0xffff_ffff);
        net.join_group(b, group);
        let d = dgram(&net, a, group, 25);
        net.send(SimTime::ZERO, a, d);
        let deliveries = net.poll(SimTime::MAX);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, b);
        // Root forwarded: it spent radio energy.
        assert!(net.radio_energy_j(root) > 0.0);
    }

    #[test]
    fn anycast_resolves_to_nearest_instance() {
        // Chain: far(3) - mid(2) - root(0) - src(1); both far and root are
        // manager instances; src must reach root, not far.
        let mut net = Network::new(PREFIX, 11);
        let root = net.add_node();
        let src = net.add_node();
        let mid = net.add_node();
        let far = net.add_node();
        net.link(root, src, LinkQuality::PERFECT);
        net.link(root, mid, LinkQuality::PERFECT);
        net.link(mid, far, LinkQuality::PERFECT);
        net.build_tree(root);
        let mgr: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        net.set_anycast(root, mgr);
        net.set_anycast(far, mgr);
        let d = dgram(&net, src, mgr, 10);
        net.send(SimTime::ZERO, src, d);
        let deliveries = net.poll(SimTime::MAX);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, root, "nearest instance wins");
    }

    #[test]
    fn anycast_prefers_instance_in_senders_own_branch() {
        // root(0) — a1(1) — a2(2) and root — b(3); instances at root and
        // a1. A sender at a2 is 1 hop from a1 and 2 from the root: the
        // in-branch instance must win even though the root instance has
        // the lower rank. A sender at b (1 hop from root, 2 from a1)
        // resolves to the root.
        let mut net = Network::new(PREFIX, 21);
        let root = net.add_node();
        let a1 = net.add_node();
        let a2 = net.add_node();
        let b = net.add_node();
        net.link(root, a1, LinkQuality::PERFECT);
        net.link(a1, a2, LinkQuality::PERFECT);
        net.link(root, b, LinkQuality::PERFECT);
        net.build_tree(root);
        let mgr: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        net.set_anycast(root, mgr);
        net.set_anycast(a1, mgr);
        net.send(SimTime::ZERO, a2, dgram(&net, a2, mgr, 10));
        net.send(SimTime::ZERO, b, dgram(&net, b, mgr, 10));
        let mut who: Vec<NodeId> = net.poll(SimTime::MAX).iter().map(|d| d.node).collect();
        who.sort();
        assert_eq!(
            who,
            vec![root, a1],
            "each sender reaches its nearest instance"
        );
        assert!(net.caches_coherent());
    }

    #[test]
    fn anycast_instance_leave_reroutes_and_stays_coherent() {
        let mut net = Network::new(PREFIX, 22);
        let root = net.add_node();
        let mid = net.add_node();
        let leaf = net.add_node();
        net.link(root, mid, LinkQuality::PERFECT);
        net.link(mid, leaf, LinkQuality::PERFECT);
        net.build_tree(root);
        let mgr: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        net.set_anycast(root, mgr);
        net.set_anycast(mid, mgr);
        net.send(SimTime::ZERO, leaf, dgram(&net, leaf, mgr, 10));
        assert_eq!(net.poll(SimTime::MAX)[0].node, mid);
        assert!(net.unset_anycast(mid, mgr), "mid was registered");
        assert!(!net.unset_anycast(mid, mgr), "second leave is a no-op");
        let d = dgram(&net, leaf, mgr, 10);
        net.send(SimTime::ZERO + SimDuration::from_secs(1), leaf, d);
        assert_eq!(
            net.poll(SimTime::MAX)[0].node,
            root,
            "resolution must fall back to the remaining instance"
        );
        assert!(net.caches_coherent());
    }

    #[test]
    fn scoped_instance_never_serves_a_sibling_subtree() {
        // root(0) with two cache subtrees: ca(1) — ta(2) and cb(3) — tb(4).
        // Both caches are subtree-scoped instances. ta resolves to ca
        // (its own uplink cache); when ca dies AND the backbone root
        // instance is gone too, ta must NOT fall over to cb — cb is 2
        // hops away but in a sibling subtree (and, sharded, possibly
        // another shard's ghost). The send drops at resolution instead.
        let mut net = Network::new(PREFIX, 26);
        let root = net.add_node();
        let ca = net.add_node();
        let ta = net.add_node();
        let cb = net.add_node();
        let tb = net.add_node();
        net.link(root, ca, LinkQuality::PERFECT);
        net.link(ca, ta, LinkQuality::PERFECT);
        net.link(root, cb, LinkQuality::PERFECT);
        net.link(cb, tb, LinkQuality::PERFECT);
        net.build_tree(root);
        let mgr: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        net.set_anycast(root, mgr);
        net.set_anycast_scoped(ca, mgr);
        net.set_anycast_scoped(cb, mgr);
        net.send(SimTime::ZERO, ta, dgram(&net, ta, mgr, 10));
        assert_eq!(net.poll(SimTime::MAX)[0].node, ca, "own cache serves");
        net.fail_node(ca);
        let d = dgram(&net, ta, mgr, 10);
        net.send(SimTime::ZERO + SimDuration::from_secs(1), ta, d);
        assert_eq!(
            net.poll(SimTime::MAX)[0].node,
            root,
            "dead cache falls through to the backbone, not the sibling"
        );
        net.fail_node(root);
        let drops = net.stats().drops;
        let d = dgram(&net, ta, mgr, 10);
        net.send(SimTime::ZERO + SimDuration::from_secs(2), ta, d);
        assert!(
            net.poll(SimTime::MAX).is_empty(),
            "with the backbone dark the request must drop at resolution"
        );
        assert!(net.stats().drops > drops, "the drop is counted");
        assert!(net.caches_coherent());
    }

    #[test]
    fn dead_instance_invalidates_anycast_memo() {
        // leaf memoises mgr → mid; mid then dies WITHOUT a graceful
        // unset_anycast. The memo must not keep steering traffic into
        // the corpse: the next send re-resolves to the next-nearest live
        // instance, and the caches stay coherent with a fresh oracle.
        let mut net = Network::new(PREFIX, 23);
        let root = net.add_node();
        let mid = net.add_node();
        let leaf = net.add_node();
        net.link(root, mid, LinkQuality::PERFECT);
        net.link(mid, leaf, LinkQuality::PERFECT);
        net.build_tree(root);
        let mgr: Ipv6Addr = "2001:db8:aaaa::1".parse().unwrap();
        net.set_anycast(root, mgr);
        net.set_anycast(mid, mgr);
        net.send(SimTime::ZERO, leaf, dgram(&net, leaf, mgr, 10));
        assert_eq!(net.poll(SimTime::MAX)[0].node, mid, "memo primed on mid");
        assert!(net.fail_node(mid), "mid was an instance");
        assert!(!net.fail_node(mid), "a corpse fails only once");
        let d = dgram(&net, leaf, mgr, 10);
        net.send(SimTime::ZERO + SimDuration::from_secs(1), leaf, d);
        assert_eq!(
            net.poll(SimTime::MAX)[0].node,
            root,
            "the dead instance's memo must be invalidated, not served"
        );
        assert!(net.caches_coherent());
    }

    #[test]
    fn unlink_partitions_until_rebuild_heals() {
        let mut net = Network::new(PREFIX, 24);
        let root = net.add_node();
        let mid = net.add_node();
        let leaf = net.add_node();
        net.link(root, mid, LinkQuality::PERFECT);
        net.link(mid, leaf, LinkQuality::PERFECT);
        net.build_tree(root);
        let q = net.link_quality(root, mid).expect("linked");
        assert!(net.unlink(root, mid));
        net.build_tree(root); // reroot: mid and leaf are now orphaned
        let r = net.send(
            SimTime::ZERO,
            leaf,
            dgram(&net, leaf, net.addr_of(root), 10),
        );
        assert_eq!(r.lost, 1, "partitioned leaf cannot reach the root");
        // Heal: restore the link at its remembered quality and reroot.
        net.link(root, mid, q);
        net.build_tree(root);
        net.send(
            SimTime::ZERO + SimDuration::from_secs(1),
            leaf,
            dgram(&net, leaf, net.addr_of(root), 10),
        );
        assert_eq!(net.poll(SimTime::MAX).pop().unwrap().node, root);
        assert!(net.caches_coherent());
    }

    #[test]
    fn loopback_is_immediate() {
        let (mut net, a, _) = pair();
        let d = dgram(&net, a, net.addr_of(a), 5);
        net.send(SimTime::ZERO, a, d);
        let deliveries = net.poll(SimTime::MAX);
        assert_eq!(deliveries[0].node, a);
        assert!(deliveries[0].at.since(SimTime::ZERO) < SimDuration::from_millis(1));
    }

    #[test]
    fn unroutable_destination_is_dropped() {
        let (mut net, a, _) = pair();
        let stranger: Ipv6Addr = "2001:dead::77".parse().unwrap();
        let report = net.send(SimTime::ZERO, a, dgram(&net, a, stranger, 5));
        assert_eq!(report.lost, 1);
        assert_eq!(net.stats().drops, 1);
        assert!(net.poll(SimTime::MAX).is_empty());
    }

    #[test]
    fn lossy_multicast_can_lose_members() {
        let mut net = Network::new(PREFIX, 12);
        let root = net.add_node();
        let m = net.add_node();
        net.link(root, m, LinkQuality::new(0.3));
        net.build_tree(root);
        let group = peripheral_group(PREFIX, 1);
        net.join_group(m, group);
        let mut delivered = 0;
        for i in 0..100 {
            let d = dgram(&net, root, group, 10);
            let t = SimTime::ZERO + SimDuration::from_secs(i);
            net.send(t, root, d);
            delivered += net.poll(SimTime::MAX).len();
        }
        // PRR 0.3 and no retries: roughly 30 % get through.
        assert!((10..60).contains(&delivered), "{delivered}/100 delivered");
        assert!(net.stats().drops > 0);
    }

    #[test]
    fn fragmentation_multiplies_frames() {
        let (mut net, a, b) = pair();
        let small = net.send(SimTime::ZERO, a, dgram(&net, a, net.addr_of(b), 20));
        let big = net.send(
            SimTime::ZERO + SimDuration::from_secs(1),
            a,
            dgram(&net, a, net.addr_of(b), 300),
        );
        assert!(big.frames > small.frames * 2);
        net.poll(SimTime::MAX);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let (mut net, a, b) = pair();
            let d = dgram(&net, a, net.addr_of(b), 40);
            net.send(SimTime::ZERO, a, d);
            net.poll(SimTime::MAX)
                .into_iter()
                .map(|d| d.at)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn caches_stay_coherent_under_churn() {
        let mut net = Network::new(PREFIX, 13);
        let root = net.add_node();
        let nodes: Vec<NodeId> = (0..6).map(|_| net.add_node()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            let parent = if i == 0 { root } else { nodes[(i - 1) / 2] };
            net.link(parent, n, LinkQuality::PERFECT);
        }
        net.build_tree(root);
        let group = peripheral_group(PREFIX, 0x44);
        net.join_group(nodes[1], group);
        net.join_group(nodes[4], group);
        net.send(SimTime::ZERO, root, dgram(&net, root, group, 12));
        net.send(SimTime::ZERO, nodes[5], dgram(&net, nodes[5], group, 12));
        assert!(net.caches_coherent());
        // Membership churn must invalidate that group's plans.
        net.leave_group(nodes[1], group);
        net.join_group(nodes[2], group);
        net.send(SimTime::ZERO, root, dgram(&net, root, group, 12));
        assert!(net.caches_coherent());
        // Topology churn must invalidate routes and plans alike.
        net.link(nodes[5], root, LinkQuality::PERFECT);
        net.build_tree(root);
        net.send(SimTime::ZERO, nodes[5], dgram(&net, nodes[5], group, 12));
        assert!(net.caches_coherent());
        net.poll(SimTime::MAX);
    }
}
