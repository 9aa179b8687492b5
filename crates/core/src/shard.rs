//! A [`World`] partitioned across threads with deterministic merge.
//!
//! [`ShardedWorld`] cuts the fleet along DODAG subtree boundaries — the
//! natural partition for UPnP-style device management, where a Thing only
//! ever converses with the border router above it — and simulates each
//! partition on its own worker thread as a complete [`World`] over a
//! *slice* of the global network. The design goal is not "roughly the
//! same answer, faster": every fingerprint, latency percentile and joules
//! counter must be **bit-identical** to the sequential simulator at K = 1
//! and independent of K. Three properties carry that guarantee:
//!
//! 1. **Decomposed randomness.** Radio draws are keyed per
//!    `(link, hop start time)` (see [`upnp_net::Network`]), and per-Thing
//!    jitter is keyed by node id (see [`World::add_thing`]). No sequential
//!    stream couples unrelated traffic, so simulating subtrees in any
//!    order — or concurrently — produces the same numbers.
//! 2. **Replicated shared endpoints.** The manager and the clients exist
//!    in every shard. The manager's replies are a pure function of each
//!    request, so replicas cannot diverge; client replicas record the
//!    observations of their own shard, and the coordinator moves them
//!    into the master clients in `(virtual time, shard)` order after
//!    every round.
//! 3. **Epoch-exchanged cross-shard frames.** The rare multicast whose
//!    group spans shards (a typed discovery probe) is captured when it
//!    reaches the shard's DODAG root and re-played from the root in every
//!    other shard between rounds, in `(virtual time, source shard,
//!    capture order)` — so the merged event stream is independent of
//!    thread scheduling.
//!
//! Shard counts beyond the number of root-child subtrees buy nothing (a
//! subtree is never split); star topologies therefore scale to any K,
//! while a fanout-f tree parallelises at most f ways.

use std::collections::HashMap;
use std::mem::take;
use std::net::Ipv6Addr;

use upnp_hw::id::DeviceTypeId;
use upnp_net::link::{LinkChaos, LinkDegrade, LinkQuality};
use upnp_net::network::{NetStats, RootedFrame};
use upnp_net::rpl::{Dodag, Topology};
use upnp_net::{Datagram, NodeId};
use upnp_sim::SimTime;

use crate::catalog::Catalog;
use crate::client::{Arrivals, Client};
use crate::thing::Thing;
use crate::world::{CacheId, ClientId, DistroStats, SimWorld, ThingId, World, WorldConfig};

/// A recorded construction step, replayed into every shard at
/// materialisation time so node ids and addresses line up with the
/// sequential simulator.
#[derive(Debug, Clone, Copy)]
enum BuildOp {
    Manager,
    Standby,
    Thing,
    Client,
    Cache,
    Link(NodeId, NodeId, LinkQuality),
}

/// The pre-materialisation recording state.
#[derive(Debug, Default)]
struct Build {
    ops: Vec<BuildOp>,
    next_node: u32,
    /// Global node id of every Thing, in creation order (node ids are
    /// assigned sequentially, so they are known before materialisation —
    /// topology builders query them while wiring the tree).
    thing_nodes: Vec<NodeId>,
    client_nodes: Vec<NodeId>,
    /// Global node id of every edge cache, in creation order. Unlike the
    /// manager and the clients, caches are *not* replicated: a cache
    /// sits inside one DODAG subtree and is simulated only by the shard
    /// owning that subtree — which is exactly what keeps its hit/miss/
    /// coalescing behaviour bit-identical to the sequential simulator
    /// (all its requesters live in the same subtree).
    cache_nodes: Vec<NodeId>,
    manager: Option<NodeId>,
    /// The standby Manager replica's node. Replicated like the primary:
    /// takeover must resolve identically in every shard.
    standby: Option<NodeId>,
}

/// One freshly built shard: its world, the Things and edge caches it
/// owns as `(global index, local handle)` pairs, and the client
/// addresses (the same in every shard).
type BuiltShard = (
    World,
    Vec<(usize, ThingId)>,
    Vec<(usize, CacheId)>,
    Vec<Ipv6Addr>,
);

/// The materialised, runnable state.
struct Running {
    shards: Vec<World>,
    /// Global thing index → (owning shard, local handle in that shard).
    thing_home: Vec<(usize, ThingId)>,
    /// Global cache index → (owning shard, local handle in that shard).
    cache_home: Vec<(usize, CacheId)>,
    /// Global thing index → network node.
    thing_nodes: Vec<NodeId>,
    /// Global cache index → network node.
    cache_nodes: Vec<NodeId>,
    /// Node id → the shard owning that Thing, `None` for every other
    /// node. Dense, so the per-datagram and per-Thing lookups are an
    /// index, not a hash.
    thing_shard: Vec<Option<u16>>,
    /// Master clients: the merged observation streams, and the sequence
    /// counters request builders draw from (so wire seq numbers follow
    /// the global issue order exactly as in the sequential world). The
    /// replicas' observations are moved here after every round, so
    /// each one is held once.
    clients: Vec<Client>,
    now: SimTime,
}

enum State {
    Building(Build),
    Running(Box<Running>),
}

/// A fleet [`World`] sharded across `K` worker threads along DODAG
/// subtree boundaries, bit-identical to the sequential simulator (see
/// the module docs for why).
///
/// Construction is *deferred*: [`SimWorld::add_thing`] and friends record
/// build steps, and the call to [`SimWorld::build_tree`] — the point at
/// which the subtree structure is finally known — partitions the Things
/// and materialises the per-shard worlds. Accessors panic before that
/// point, and topology mutators panic after it.
pub struct ShardedWorld {
    config: WorldConfig,
    shards_requested: usize,
    catalog: Catalog,
    state: State,
}

impl ShardedWorld {
    /// Creates an empty sharded world that will run on (up to) `shards`
    /// worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: WorldConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded world needs at least one shard");
        ShardedWorld {
            config,
            shards_requested: shards,
            catalog: Catalog::with_prototypes(),
            state: State::Building(Build::default()),
        }
    }

    /// The number of shards the world was materialised into.
    pub fn shard_count(&self) -> usize {
        match &self.state {
            State::Building(_) => self.shards_requested,
            State::Running(r) => r.shards.len(),
        }
    }

    fn build_mut(&mut self) -> &mut Build {
        match &mut self.state {
            State::Building(b) => b,
            State::Running(_) => panic!("sharded world topology is sealed after build_tree"),
        }
    }

    fn running(&self) -> &Running {
        match &self.state {
            State::Running(r) => r,
            State::Building(_) => panic!("sharded world not materialised yet (call build_tree)"),
        }
    }

    fn running_mut(&mut self) -> &mut Running {
        match &mut self.state {
            State::Running(r) => r,
            State::Building(_) => panic!("sharded world not materialised yet (call build_tree)"),
        }
    }

    /// Partitions Things and edge caches into shards by DODAG subtree:
    /// every node maps to its root-child ancestor, and whole subtrees go
    /// to the shard with the fewest Things so far (deterministic greedy
    /// balance, ties to the lowest shard). A cache always lands in the
    /// shard owning its subtree, so every Thing that anycast-resolves to
    /// it is simulated on the same thread.
    fn partition(
        ops: &[BuildOp],
        total_nodes: usize,
        root: NodeId,
        thing_nodes: &[NodeId],
        cache_nodes: &[NodeId],
        shards: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut topo = Topology::new(total_nodes);
        for op in ops {
            if let BuildOp::Link(a, b, q) = op {
                topo.link(a.0 as usize, b.0 as usize, *q);
            }
        }
        let dodag = Dodag::build(&topo, root.0 as usize);

        // Root-child ancestor of every node (the subtree head).
        let head_of = |mut n: usize| -> usize {
            while let Some(p) = dodag.parent[n] {
                if p == root.0 as usize {
                    return n;
                }
                n = p;
            }
            n // the root itself, or a detached node
        };

        // Things per subtree head, heads visited in ascending node order
        // for determinism. Cache-only subtrees participate with zero
        // weight so an empty cache still gets a deterministic owner.
        let mut head_things: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, &n) in thing_nodes.iter().enumerate() {
            head_things
                .entry(head_of(n.0 as usize))
                .or_default()
                .push(i);
        }
        let cache_heads: Vec<usize> = cache_nodes.iter().map(|&n| head_of(n.0 as usize)).collect();
        let mut heads: Vec<usize> = head_things
            .keys()
            .copied()
            .chain(cache_heads.iter().copied())
            .collect();
        heads.sort_unstable();
        heads.dedup();

        let mut load = vec![0usize; shards];
        let mut assignment = vec![0usize; thing_nodes.len()];
        let mut head_shard: HashMap<usize, usize> = HashMap::new();
        for head in heads {
            let target = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect(">= 1 shard");
            head_shard.insert(head, target);
            if let Some(members) = head_things.get(&head) {
                load[target] += members.len();
                for &i in members {
                    assignment[i] = target;
                }
            }
        }
        let cache_assignment = cache_heads.into_iter().map(|h| head_shard[&h]).collect();
        (assignment, cache_assignment)
    }

    /// Materialises the recorded build into per-shard worlds and routing
    /// tables.
    fn materialise(&mut self, root: NodeId) {
        let build = match &mut self.state {
            State::Building(b) => std::mem::take(b),
            State::Running(_) => panic!("sharded world topology is sealed after build_tree"),
        };
        let shards = self.shards_requested;
        let thing_nodes = build.thing_nodes.clone();
        let client_nodes = build.client_nodes.clone();
        let cache_nodes = build.cache_nodes.clone();
        let n_things = thing_nodes.len();
        let n_clients = client_nodes.len();

        let (assignment, cache_assignment) = Self::partition(
            &build.ops,
            build.next_node as usize,
            root,
            &thing_nodes,
            &cache_nodes,
            shards,
        );
        let thing_owner: HashMap<NodeId, usize> = thing_nodes
            .iter()
            .copied()
            .zip(assignment.iter().copied())
            .collect();
        let cache_owner: HashMap<NodeId, usize> = cache_nodes
            .iter()
            .copied()
            .zip(cache_assignment.iter().copied())
            .collect();
        let replicated: Vec<NodeId> = build
            .manager
            .into_iter()
            .chain(build.standby)
            .chain(client_nodes.iter().copied())
            .collect();

        // The per-shard builds are independent, and at fleet scale each
        // one replays the full op log and allocates a full node table —
        // build them on worker threads so startup does not serialise
        // what the round loop parallelises.
        let config = &self.config;
        let build_shard = |s: usize| -> BuiltShard {
            let mut w = World::new(config.clone());
            let mut owned = Vec::new();
            let mut owned_caches = Vec::new();
            let mut addrs = Vec::with_capacity(n_clients);
            let mut thing_idx = 0usize;
            let mut cache_idx = 0usize;
            // A node is simulated here if it is replicated (manager,
            // standby, clients) or a Thing/cache this shard owns.
            let local = |n: NodeId| {
                Some(n) == build.manager
                    || Some(n) == build.standby
                    || client_nodes.contains(&n)
                    || thing_owner.get(&n) == Some(&s)
                    || cache_owner.get(&n) == Some(&s)
            };
            for op in &build.ops {
                match op {
                    BuildOp::Manager => {
                        w.add_manager();
                    }
                    BuildOp::Standby => {
                        w.add_standby();
                    }
                    BuildOp::Thing => {
                        let i = thing_idx;
                        thing_idx += 1;
                        if assignment[i] == s {
                            let id = w.add_thing();
                            debug_assert_eq!(w.thing_node(id), thing_nodes[i]);
                            owned.push((i, id));
                        } else {
                            w.add_remote_node();
                        }
                    }
                    BuildOp::Client => {
                        let id = w.add_client();
                        w.client_mut(id).arrivals = Some(Arrivals::default());
                        debug_assert_eq!(w.client_node(id), client_nodes[addrs.len()]);
                        addrs.push(w.client(id).address);
                    }
                    BuildOp::Cache => {
                        let i = cache_idx;
                        cache_idx += 1;
                        if cache_assignment[i] == s {
                            let id = w.add_cache();
                            debug_assert_eq!(w.cache_node(id), cache_nodes[i]);
                            owned_caches.push((i, id));
                        } else {
                            // Another shard's cache: occupy the node slot
                            // so ids line up, but leave it unlinked and
                            // unregistered — anycast resolution here must
                            // never pick it.
                            w.add_remote_node();
                        }
                    }
                    BuildOp::Link(a, b, q) => {
                        if local(*a) && local(*b) {
                            w.link(*a, *b, *q);
                        }
                    }
                }
            }
            w.build_tree(root);
            w.net.set_replicated_nodes(replicated.iter().copied());
            w.net.enable_cross_shard_capture();
            (w, owned, owned_caches, addrs)
        };
        let mut built: Vec<BuiltShard> = Vec::with_capacity(shards);
        if shards == 1 {
            built.push(build_shard(0));
        } else {
            let build_shard = &build_shard;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|s| scope.spawn(move || build_shard(s)))
                    .collect();
                for h in handles {
                    built.push(h.join().expect("shard builder thread"));
                }
            });
        }

        let mut worlds = Vec::with_capacity(shards);
        let mut thing_home = vec![(0usize, ThingId(0)); n_things];
        let mut cache_home = vec![(0usize, CacheId(0)); cache_nodes.len()];
        let mut client_addrs = vec![Ipv6Addr::UNSPECIFIED; n_clients];
        for (s, (w, owned, owned_caches, addrs)) in built.into_iter().enumerate() {
            for (i, id) in owned {
                thing_home[i] = (s, id);
            }
            for (i, id) in owned_caches {
                cache_home[i] = (s, id);
            }
            client_addrs = addrs;
            worlds.push(w);
        }

        let mut thing_shard = vec![None; build.next_node as usize];
        for (&node, &(s, _)) in thing_nodes.iter().zip(&thing_home) {
            thing_shard[node.0 as usize] = Some(u16::try_from(s).expect("at most 65 535 shards"));
        }
        let clients = client_nodes
            .iter()
            .zip(&client_addrs)
            .map(|(&n, &a)| Client::new(n, a, self.config.prefix))
            .collect();
        self.state = State::Running(Box::new(Running {
            shards: worlds,
            thing_home,
            cache_home,
            thing_nodes,
            cache_nodes,
            thing_shard,
            clients,
            now: SimTime::ZERO,
        }));
    }

    /// Moves each shard replica's client observations into the master
    /// clients, leaving the replicas empty (their buffers are taken too,
    /// so a replica holds nothing between rounds). Every log merges in
    /// `(virtual arrival time, shard)` order, so the master logs equal
    /// the sequential simulator's; no thread-arrival order participates.
    fn merge_clients(r: &mut Running) {
        for (c, master) in r.clients.iter_mut().enumerate() {
            let id = ClientId(c);
            let mut discovered = Vec::new();
            let mut readings = Vec::new();
            let mut stream_data = Vec::new();
            let mut closed_streams = Vec::new();
            let mut write_acks = Vec::new();
            for (s, w) in r.shards.iter_mut().enumerate() {
                let replica = w.client_mut(id);
                let arrivals = replica
                    .arrivals
                    .as_mut()
                    .expect("shard replica clients record arrivals");
                discovered.extend(stamped(
                    s,
                    take(&mut arrivals.discovered),
                    take(&mut replica.discovered),
                ));
                closed_streams.extend(stamped(
                    s,
                    take(&mut arrivals.closed_streams),
                    take(&mut replica.closed_streams),
                ));
                write_acks.extend(stamped(
                    s,
                    take(&mut arrivals.write_acks),
                    take(&mut replica.write_acks),
                ));
                readings.extend(take(&mut replica.readings).into_iter().map(|r| (r.2, s, r)));
                stream_data.extend(
                    take(&mut replica.stream_data)
                        .into_iter()
                        .map(|d| (d.2, s, d)),
                );
                // Keyed by group, so re-inserting is idempotent.
                master
                    .stream_groups
                    .extend(take(&mut replica.stream_groups));
            }
            append_in_time_order(&mut master.discovered, discovered);
            append_in_time_order(&mut master.readings, readings);
            append_in_time_order(&mut master.stream_data, stream_data);
            append_in_time_order(&mut master.closed_streams, closed_streams);
            append_in_time_order(&mut master.write_acks, write_acks);
        }
    }

    /// The shard owning Thing `node`, or `None` for nodes no single
    /// shard owns.
    fn thing_shard(r: &Running, node: NodeId) -> Option<usize> {
        r.thing_shard
            .get(node.0 as usize)
            .copied()
            .flatten()
            .map(usize::from)
    }

    /// One parallel round: every shard runs its own event loop on its own
    /// thread — to idle, or (when the chaos harness pauses a wave
    /// mid-transfer) to exactly the virtual `deadline`.
    fn run_round(shards: &mut [World], until: Option<SimTime>) {
        if shards.len() == 1 {
            match until {
                None => shards[0].run_until_idle(),
                Some(deadline) => shards[0].run_until(deadline),
            }
            return;
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = shards
                .iter_mut()
                .map(|w| {
                    scope.spawn(move || {
                        match until {
                            None => w.run_until_idle(),
                            Some(deadline) => w.run_until(deadline),
                        }
                        upnp_net::msg::take_payload_stats()
                    })
                })
                .collect();
            // The coordinator's counters carry every shard's work, as the
            // sequential world's carry its own.
            for worker in workers {
                upnp_net::msg::absorb_payload_stats(worker.join().expect("shard worker thread"));
            }
        });
    }

    /// Runs rounds and exchanges cross-shard frames until quiescent —
    /// fully idle (`until: None`), or idle *up to* a virtual deadline
    /// with every shard's clock left exactly there (`until: Some`): the
    /// sharded mirror of [`World::run_until`], so fault instants mean
    /// the same thing on both simulators.
    fn run_phase(r: &mut Running, until: Option<SimTime>) {
        loop {
            Self::run_round(&mut r.shards, until);
            Self::merge_clients(r);

            // Epoch boundary: exchange the multicasts whose groups span
            // shards, replayed from the root in deterministic order.
            // Under a deadline every captured frame reached its root at
            // or before it, so replaying cannot leak past the pause.
            let mut frames: Vec<(usize, RootedFrame)> = Vec::new();
            for (s, w) in r.shards.iter_mut().enumerate() {
                frames.extend(w.net.take_cross_frames().into_iter().map(|f| (s, f)));
            }
            if frames.is_empty() {
                break;
            }
            frames.sort_by_key(|&(s, ref f)| (f.at_root, s));
            for (src, frame) in frames {
                for (t, w) in r.shards.iter_mut().enumerate() {
                    if t == src {
                        continue;
                    }
                    if frame.lost {
                        // The uplink died in the origin shard; this
                        // shard's members count as drops, as they would
                        // in the sequential simulator.
                        w.net.drop_from_root(&frame.dgram);
                    } else {
                        w.net
                            .multicast_from_root(frame.at_root, frame.dgram.coordination_clone());
                    }
                }
            }
        }
        r.now = match until {
            None => r
                .shards
                .iter()
                .map(|w| w.now())
                .max()
                .unwrap_or(SimTime::ZERO),
            // Every shard ran to exactly the deadline (run_until pins the
            // clock there) — so did the sequential simulator.
            Some(deadline) => deadline,
        };
    }
}

/// Pairs each entry of a replica log whose entries carry no instant with
/// its arrival instant and shard `s`.
fn stamped<T>(
    s: usize,
    arrivals: Vec<SimTime>,
    log: Vec<T>,
) -> impl Iterator<Item = (SimTime, usize, T)> {
    arrivals
        .into_iter()
        .zip(log)
        .map(move |(at, item)| (at, s, item))
}

/// Appends `(virtual time, shard, item)` observations to a master log in
/// `(time, shard)` order; the sort is stable, so a shard's own order
/// among equal instants is kept.
fn append_in_time_order<T>(log: &mut Vec<T>, mut items: Vec<(SimTime, usize, T)>) {
    items.sort_by_key(|&(at, s, _)| (at, s));
    log.extend(items.into_iter().map(|(_, _, item)| item));
}

impl SimWorld for ShardedWorld {
    fn add_manager(&mut self) -> NodeId {
        let b = self.build_mut();
        assert!(b.manager.is_none(), "world already has a manager");
        let node = NodeId(b.next_node);
        b.next_node += 1;
        b.manager = Some(node);
        b.ops.push(BuildOp::Manager);
        node
    }

    fn add_standby(&mut self) -> NodeId {
        let b = self.build_mut();
        assert!(b.manager.is_some(), "standby needs a primary");
        assert!(b.standby.is_none(), "world already has a standby");
        let node = NodeId(b.next_node);
        b.next_node += 1;
        b.standby = Some(node);
        b.ops.push(BuildOp::Standby);
        node
    }

    fn add_thing(&mut self) -> ThingId {
        let b = self.build_mut();
        let id = ThingId(b.thing_nodes.len());
        b.thing_nodes.push(NodeId(b.next_node));
        b.next_node += 1;
        b.ops.push(BuildOp::Thing);
        id
    }

    fn add_client(&mut self) -> ClientId {
        let b = self.build_mut();
        let id = ClientId(b.client_nodes.len());
        b.client_nodes.push(NodeId(b.next_node));
        b.next_node += 1;
        b.ops.push(BuildOp::Client);
        id
    }

    fn add_cache(&mut self) -> CacheId {
        let b = self.build_mut();
        let id = CacheId(b.cache_nodes.len());
        b.cache_nodes.push(NodeId(b.next_node));
        b.next_node += 1;
        b.ops.push(BuildOp::Cache);
        id
    }

    fn cache_node(&self, id: CacheId) -> NodeId {
        match &self.state {
            State::Building(b) => b.cache_nodes[id.0],
            State::Running(r) => r.cache_nodes[id.0],
        }
    }

    fn distro_stats(&self) -> DistroStats {
        // Caches are simulated in exactly one shard each, so their
        // counters sum without double counting; the replicated manager's
        // counters split its global load across replicas, and the sum
        // equals the sequential total.
        let r = self.running();
        let mut total = DistroStats::default();
        for w in &r.shards {
            let s = w.distro_stats();
            total.cache_hits += s.cache_hits;
            total.cache_misses += s.cache_misses;
            total.cache_coalesced += s.cache_coalesced;
            total.cache_uploads += s.cache_uploads;
            total.origin_uploads += s.origin_uploads;
            total.mgr_inventory += s.mgr_inventory;
            total.mgr_removal_acks += s.mgr_removal_acks;
        }
        total
    }

    fn crash_cache(&mut self, at: SimTime, id: CacheId) -> usize {
        // The cache, its LRU, its in-flight fetches and every parked
        // follower all live in the one shard owning its subtree — the
        // crash, the memo purge and the re-issued requests are local.
        let r = self.running_mut();
        let (s, local) = r.cache_home[id.0];
        r.shards[s].crash_cache(at, local)
    }

    fn revive_cache(&mut self, id: CacheId) {
        let r = self.running_mut();
        let (s, local) = r.cache_home[id.0];
        r.shards[s].revive_cache(local);
    }

    fn fail_primary(&mut self) {
        // The Manager is replicated: it dies (and the standby takes
        // over) in every shard at once, exactly as the sequential world
        // sees one death.
        for w in &mut self.running_mut().shards {
            w.fail_primary();
        }
    }

    fn restore_primary(&mut self) {
        for w in &mut self.running_mut().shards {
            w.restore_primary();
        }
    }

    fn fail_standby(&mut self) {
        // Replicated like the primary: the standby dies in every shard
        // at once, so anycast resolution goes dark identically.
        for w in &mut self.running_mut().shards {
            w.fail_standby();
        }
    }

    fn restore_standby(&mut self) {
        for w in &mut self.running_mut().shards {
            w.restore_standby();
        }
    }

    fn crash_thing(&mut self, id: ThingId) {
        // A Thing, its torn flash and every upload in flight to it live
        // in the one shard owning its subtree.
        let r = self.running_mut();
        let (s, local) = r.thing_home[id.0];
        r.shards[s].crash_thing(local);
    }

    fn revive_thing(&mut self, at: SimTime, id: ThingId) -> (u64, u64) {
        let r = self.running_mut();
        let (s, local) = r.thing_home[id.0];
        r.shards[s].revive_thing(at, local)
    }

    fn set_link_chaos(&mut self, chaos: Option<LinkChaos>) {
        // The perturbation is keyed by (seed, receiving node, delivery
        // instant), so enabling it in every shard perturbs exactly the
        // deliveries the sequential simulator perturbs — including the
        // cross-shard continuations, which re-enter schedule() in the
        // destination shard with the same clamped instants.
        for w in &mut self.running_mut().shards {
            w.set_link_chaos(chaos);
        }
    }

    fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>) {
        // The schedule is a pure function of (seed, directed edge,
        // window index): installing it in every shard imposes exactly
        // the modes the sequential simulator imposes, because any given
        // hop executes in exactly one shard at the same instant.
        for w in &mut self.running_mut().shards {
            w.set_link_degrade(degrade);
        }
    }

    fn set_cache_crawl(&mut self, id: CacheId, factor: u32) {
        // A cache and every reply it stretches live in the one shard
        // owning its subtree.
        let r = self.running_mut();
        let (s, local) = r.cache_home[id.0];
        r.shards[s].set_cache_crawl(local, factor);
    }

    fn dodag_parent(&self, node: NodeId) -> Option<NodeId> {
        // A Thing's subtree is fully local to its owning shard, and the
        // Dodag tie-break (lowest node id) is deterministic, so the
        // shard-local parent equals the sequential one. Other nodes
        // fall back to shard 0 — correct for replicated endpoints; an
        // unowned cache is unlinked there and answers `None`.
        let r = self.running();
        let s = Self::thing_shard(r, node).unwrap_or(0);
        r.shards[s].dodag_parent(node)
    }

    fn partition_link(&mut self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        // A subtree link exists in exactly one shard; a link between
        // replicated nodes exists in all of them. Severing everywhere
        // covers both, and any copy's quality serves for the heal.
        let mut quality = None;
        for w in &mut self.running_mut().shards {
            quality = w.partition_link(a, b).or(quality);
        }
        quality
    }

    fn heal_link(&mut self, a: NodeId, b: NodeId, q: LinkQuality) {
        for w in &mut self.running_mut().shards {
            // Each world re-links only endpoints it simulates.
            w.heal_link(a, b, q);
        }
    }

    fn rebuild_tree(&mut self) {
        for w in &mut self.running_mut().shards {
            w.rebuild_tree();
        }
    }

    fn caches_coherent(&self) -> bool {
        self.running().shards.iter().all(|w| w.caches_coherent())
    }

    fn manager_replicas(&self) -> u64 {
        self.running()
            .shards
            .iter()
            .map(|w| w.manager_replicas())
            .sum()
    }

    fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        self.build_mut().ops.push(BuildOp::Link(a, b, quality));
    }

    fn build_tree(&mut self, root: NodeId) {
        self.materialise(root);
    }

    fn now(&self) -> SimTime {
        self.running().now
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn thing(&self, id: ThingId) -> &Thing {
        let r = self.running();
        let (s, local) = r.thing_home[id.0];
        r.shards[s].thing(local)
    }

    fn thing_node(&self, id: ThingId) -> NodeId {
        match &self.state {
            State::Building(b) => b.thing_nodes[id.0],
            State::Running(r) => r.thing_nodes[id.0],
        }
    }

    fn thing_addr(&self, id: ThingId) -> Ipv6Addr {
        let r = self.running();
        let (s, local) = r.thing_home[id.0];
        r.shards[s].thing_addr(local)
    }

    fn client(&self, id: ClientId) -> &Client {
        &self.running().clients[id.0]
    }

    fn client_node(&self, id: ClientId) -> NodeId {
        match &self.state {
            State::Building(b) => b.client_nodes[id.0],
            State::Running(r) => r.clients[id.0].node,
        }
    }

    fn plug_at(&mut self, at: SimTime, thing: ThingId, channel: u8, device_id: DeviceTypeId) {
        let r = self.running_mut();
        let (s, local) = r.thing_home[thing.0];
        r.shards[s].plug_at(at, local, channel, device_id);
    }

    fn unplug_at(&mut self, at: SimTime, thing: ThingId, channel: u8) {
        let r = self.running_mut();
        let (s, local) = r.thing_home[thing.0];
        r.shards[s].unplug_at(at, local, channel);
    }

    fn run_until_idle(&mut self) {
        Self::run_phase(self.running_mut(), None);
    }

    fn run_until(&mut self, deadline: SimTime) {
        Self::run_phase(self.running_mut(), Some(deadline));
    }

    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram) {
        let r = self.running_mut();
        // Unicasts go to the shard that simulates the destination Thing.
        // Otherwise (anycast/multicast dst), a datagram sourced at a
        // Thing node runs in that Thing's shard — anycast must resolve
        // against *its* subtree's cache, as it would sequentially.
        // Everything else (client-sourced traffic) homes on shard 0,
        // whose replicas account the shared uplink.
        // Every shard derives unicast addresses from node ids alike, so
        // shard 0's table resolves a destination for all of them.
        let shard = r.shards[0]
            .net
            .node_by_addr(dgram.dst)
            .and_then(|n| Self::thing_shard(r, n))
            .or_else(|| Self::thing_shard(r, from))
            .unwrap_or(0);
        r.shards[shard].inject(at, from, dgram);
    }

    fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.running_mut().clients[client.0].read(thing, peripheral)
    }

    fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.running_mut().clients[client.0].stream(thing, peripheral)
    }

    fn net_stats(&self) -> NetStats {
        let r = self.running();
        let mut total = NetStats::default();
        for w in &r.shards {
            let s = w.net.stats();
            total.frames_tx += s.frames_tx;
            total.bytes_tx += s.bytes_tx;
            total.drops += s.drops;
            total.frames_delayed += s.frames_delayed;
            total.frames_duplicated += s.frames_duplicated;
            total.frames_degraded += s.frames_degraded;
        }
        total
    }

    fn radio_energy_j(&self, node: NodeId) -> f64 {
        let r = self.running();
        match Self::thing_shard(r, node) {
            // A Thing's meter is charged only in its owning shard, in the
            // same causal order as the sequential simulator — bit-exact.
            Some(s) => r.shards[s].net.radio_energy_j(node),
            // Replicated nodes (manager, clients) accrue energy in every
            // shard; the sum is order-sensitive in the last float bits
            // and is not part of any fingerprint.
            None => r.shards.iter().map(|w| w.net.radio_energy_j(node)).sum(),
        }
    }

    fn node_count(&self) -> usize {
        self.running().shards[0].net.len()
    }

    fn set_tracing(&mut self, enabled: bool) {
        for w in &mut self.running_mut().shards {
            w.set_tracing(enabled);
        }
    }

    fn take_spans(&mut self) -> Vec<upnp_trace::Span> {
        // Every span is recorded once, in its owning shard (requests
        // resolve shard-locally; replicated managers that never see a
        // request record nothing). Concatenating and canonical-sorting
        // therefore reconstructs the sequential sequence exactly.
        let mut spans = Vec::new();
        for w in &mut self.running_mut().shards {
            spans.append(&mut w.take_spans());
        }
        upnp_trace::canonical_sort(&mut spans);
        spans
    }

    fn flight_dump(&self, reason: &str) -> String {
        let mut merged = upnp_trace::FlightRecorder::new(upnp_trace::FLIGHT_RECORDER_CAPACITY);
        for w in &self.running().shards {
            merged.merge(w.flight_recorder());
        }
        merged.dump_json(reason)
    }
}

impl std::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ShardedWorld");
        match &self.state {
            State::Building(b) => d
                .field("state", &"building")
                .field("things", &b.thing_nodes.len())
                .finish_non_exhaustive(),
            State::Running(r) => d
                .field("shards", &r.shards.len())
                .field("things", &r.thing_home.len())
                .field("now", &r.now)
                .finish_non_exhaustive(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_world(things: usize, shards: usize) -> ShardedWorld {
        let mut w = ShardedWorld::new(WorldConfig::default(), shards);
        let root = w.add_manager();
        let ids: Vec<ThingId> = (0..things).map(|_| w.add_thing()).collect();
        for &t in &ids {
            let n = w.thing_node(t);
            w.link(root, n, LinkQuality::PERFECT);
        }
        w.build_tree(root);
        w
    }

    #[test]
    fn star_partition_balances_things() {
        let w = star_world(10, 4);
        let r = w.running();
        let mut load = vec![0usize; 4];
        for &(s, _) in &r.thing_home {
            load[s] += 1;
        }
        load.sort_unstable();
        assert_eq!(load, vec![2, 2, 3, 3], "greedy balance within one Thing");
    }

    #[test]
    fn tree_partition_keeps_subtrees_whole() {
        // Chain topology under two root children: two subtrees, so two
        // shards get everything regardless of the requested count.
        let mut w = ShardedWorld::new(WorldConfig::default(), 8);
        let root = w.add_manager();
        let ids: Vec<ThingId> = (0..6).map(|_| w.add_thing()).collect();
        // Things 0 and 1 hang off the root; 2..=3 chain under 0, 4..=5
        // chain under 1.
        let n = |w: &ShardedWorld, i: usize| w.thing_node(ids[i]);
        w.link(root, n(&w, 0), LinkQuality::PERFECT);
        w.link(root, n(&w, 1), LinkQuality::PERFECT);
        w.link(n(&w, 0), n(&w, 2), LinkQuality::PERFECT);
        w.link(n(&w, 2), n(&w, 3), LinkQuality::PERFECT);
        w.link(n(&w, 1), n(&w, 4), LinkQuality::PERFECT);
        w.link(n(&w, 4), n(&w, 5), LinkQuality::PERFECT);
        w.build_tree(root);
        let r = w.running();
        let shard_of = |i: usize| r.thing_home[i].0;
        assert_eq!(shard_of(0), shard_of(2));
        assert_eq!(shard_of(0), shard_of(3));
        assert_eq!(shard_of(1), shard_of(4));
        assert_eq!(shard_of(1), shard_of(5));
        assert_ne!(shard_of(0), shard_of(1), "two subtrees spread over shards");
    }

    #[test]
    fn replica_client_logs_are_empty_after_every_phase() {
        // Observations move from the replicas into the master clients
        // after every round: nothing is held twice, whatever K is.
        use crate::fleet::{FleetConfig, ShardedFleet};
        fn assert_moved(fleet: &ShardedFleet, phase: &str) {
            for (s, w) in fleet.world.running().shards.iter().enumerate() {
                for &c in &fleet.clients {
                    let replica = w.client(c);
                    let arrivals = replica.arrivals.as_ref().expect("replica");
                    assert!(
                        replica.discovered.is_empty()
                            && replica.readings.is_empty()
                            && replica.stream_data.is_empty()
                            && replica.stream_groups.is_empty()
                            && replica.closed_streams.is_empty()
                            && replica.write_acks.is_empty()
                            && arrivals.discovered.is_empty()
                            && arrivals.closed_streams.is_empty()
                            && arrivals.write_acks.is_empty(),
                        "{phase}: shard {s} still holds {replica:?}"
                    );
                }
            }
        }
        for k in [1, 2, 4] {
            let mut fleet = ShardedFleet::build_sharded(FleetConfig::new(120), k);
            fleet.discovery_wave();
            assert_moved(&fleet, "discovery");
            fleet.churn_storm(60);
            assert_moved(&fleet, "churn");
            fleet.steady_state(60);
            assert_moved(&fleet, "steady");
            let master = fleet.world.client(fleet.clients[0]);
            assert!(!master.discovered.is_empty() && !master.readings.is_empty());
        }
    }

    #[test]
    fn node_ids_match_the_sequential_world() {
        let mut seq = World::new(WorldConfig::default());
        let sm = seq.add_manager();
        let st = seq.add_thing();
        let sc = seq.add_client();

        let mut sharded = ShardedWorld::new(WorldConfig::default(), 2);
        let m = sharded.add_manager();
        let t = sharded.add_thing();
        let c = sharded.add_client();
        assert_eq!(m, sm);
        assert_eq!(sharded.thing_node(t), seq.thing_node(st));
        assert_eq!(sharded.client_node(c), seq.client_node(sc));
    }
}
