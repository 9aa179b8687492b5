//! The top-level simulation world: a manager, Things and clients on one
//! 6LoWPAN network, driven on a single virtual clock.
//!
//! This is the API the examples, integration tests and benchmark harness
//! use. It mediates every datagram, so it is also where the plug-pipeline
//! timelines (Table 4, §8) are stitched together.

use std::collections::{HashMap, VecDeque};
use std::net::Ipv6Addr;

use upnp_distro::{CacheAction, CacheConfig, CacheReply, EdgeCache};
use upnp_hw::board::BoardTemplate;
use upnp_hw::channels::ChannelId;
use upnp_hw::components::ToleranceClass;
use upnp_hw::id::DeviceTypeId;
use upnp_hw::peripheral::PeripheralTemplate;
use upnp_net::link::{LinkChaos, LinkDegrade, LinkQuality};
use upnp_net::msg::Value;
use upnp_net::{Datagram, Delivery, Network, NodeId};
use upnp_sim::{Scheduler, SimDuration, SimRng, SimTime};
use upnp_trace::{Span, SpanKind, TraceCtx, TraceId, TraceSink};
use upnp_vm::runtime::RuntimeTemplate;

use crate::catalog::Catalog;
use crate::client::Client;
use crate::image_pool::ImagePool;
use crate::manager::Manager;
use crate::thing::{Outbound, PlugTimeline, Thing};

/// A Thing handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThingId(pub usize);

/// A client handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub usize);

/// An edge-cache handle in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheId(pub usize);

/// Aggregate counters of the driver-distribution tier: the edge caches'
/// summed [`upnp_distro::CacheStats`] plus the origin Manager's load and
/// retention levels. All deterministic — they participate in the
/// scenario metrics the differential harness compares bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistroStats {
    /// Cache requests answered straight from an LRU.
    pub cache_hits: u64,
    /// Cache requests that started an upstream fetch.
    pub cache_misses: u64,
    /// Cache requests parked on an in-flight fetch (singleflight).
    pub cache_coalesced: u64,
    /// (5) driver uploads served by caches.
    pub cache_uploads: u64,
    /// Driver uploads served by the origin Manager itself: direct (5)
    /// uploads plus one per chunked fetch session.
    pub origin_uploads: u64,
    /// Things currently tracked in the Manager's bounded inventory.
    pub mgr_inventory: u64,
    /// Total (9) removal acks the Manager ever received (the retained
    /// ring is bounded; this is the monotone counter).
    pub mgr_removal_acks: u64,
}

/// World construction parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master RNG seed: everything stochastic derives from it.
    pub seed: u64,
    /// The 48-bit IPv6 prefix of the deployment.
    pub prefix: u64,
    /// Samples per stream before the Thing closes it.
    pub stream_samples: u32,
    /// Stream sampling period.
    pub stream_period: SimDuration,
    /// Peripheral-board resistor tolerance used by [`World::plug`].
    pub resistor_tolerance: ToleranceClass,
    /// Expected node count; pre-sizes the network and world indices so a
    /// fleet build does not spend its time reallocating. Zero is fine —
    /// everything still grows on demand.
    pub expected_nodes: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            // The protocol port number doubles as a memorable seed.
            seed: 0x6030,
            prefix: 0x2001_0db8_0000,
            stream_samples: 5,
            stream_period: SimDuration::from_millis(500),
            resistor_tolerance: ToleranceClass::PointOnePercent,
            expected_nodes: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum NodeKind {
    Manager,
    /// The standby Manager replica (anycast takeover target).
    Standby,
    Thing(usize),
    Client(usize),
    Cache(usize),
}

#[derive(Debug, Clone)]
enum WorldEvent {
    StreamTick {
        thing: usize,
        peripheral: u32,
    },
    /// A deferred [`World::plug`] — lets scenarios stagger plug events in
    /// virtual time instead of front-loading them all at t=0.
    Plug {
        thing: usize,
        channel: u8,
        device: DeviceTypeId,
    },
    /// A deferred [`World::unplug`].
    Unplug {
        thing: usize,
        channel: u8,
    },
    /// An edge cache's chunk-retry timer (see
    /// [`upnp_distro::CacheAction::ArmTimer`]).
    CacheTimer {
        cache: usize,
        peripheral: u32,
        gen: u64,
    },
}

/// Trace bookkeeping for one in-flight plug→advertise pipeline: the
/// contexts later hooks parent their spans under. Only populated while
/// tracing is enabled — the disabled path never touches the map.
#[derive(Debug, Clone, Copy)]
struct PipeTrace {
    /// Context under the plug root span (parent of the scan span).
    root: TraceCtx,
    /// Context under the scan/identify chain (parent of the resolve
    /// leg); equals `root` until the scan span is recorded.
    scan: TraceCtx,
    /// The scan span has been recorded (it is derived lazily from the
    /// timeline after the board interrupt is serviced).
    scan_recorded: bool,
}

/// The assembled multi-node world.
///
/// The event loop is engineered so one step costs `O(work due now)`, not
/// `O(nodes)`: board interrupts are tracked in a queue instead of being
/// rediscovered by scanning every Thing, network deliveries drain into a
/// reused buffer, and Thing/manager lookup goes through hash indices.
pub struct World {
    /// The network simulator.
    pub net: Network,
    manager: Option<Manager>,
    /// A standby Manager replica: a second instance of both anycast
    /// addresses with an identical repository, so killing the primary is
    /// a deterministic anycast takeover instead of an outage.
    standby: Option<Manager>,
    /// True while the primary Manager is crashed (deliveries to it are
    /// dropped — the datagrams already in flight when it died).
    manager_down: bool,
    /// True while the standby replica is crashed too: with the primary
    /// also down, the manager anycast has zero live instances and
    /// requests drop — the unserved-Things window the soak detects.
    standby_down: bool,
    things: Vec<Thing>,
    clients: Vec<Client>,
    caches: Vec<EdgeCache>,
    /// Parallel to `caches`: true while that cache is crashed (its
    /// in-flight deliveries and timers are dropped).
    dead_caches: Vec<bool>,
    /// Parallel to `caches`: the gray-failure crawl factor (1 = full
    /// speed). A crawling cache still answers everything — both its
    /// processing legs are just stretched by the factor, the
    /// slow-but-alive failure mode a fail-stop crash can never model.
    cache_crawl: Vec<u32>,
    /// Parallel to `things`: true while that Thing's MCU is crashed. The
    /// node keeps forwarding frames (the radio outlives the MCU
    /// process); driver uploads in flight to it are torn mid-flash.
    dead_things: Vec<bool>,
    catalog: Catalog,
    /// One decoded driver image per distinct upload, shared by the
    /// Things that received it.
    images: ImagePool,
    node_kinds: HashMap<NodeId, NodeKind>,
    thing_by_addr: HashMap<Ipv6Addr, usize>,
    /// Things whose board interrupt may be pending, in raise order.
    interrupts: VecDeque<usize>,
    /// Scratch buffer reused across delivery polls.
    delivery_buf: Vec<Delivery>,
    sched: Scheduler<WorldEvent>,
    now: SimTime,
    /// Per-Thing jitter streams, keyed by the Thing's *node id* rather
    /// than drawn from one sequential world stream. A Thing's sampled
    /// board, runtime seed and per-plug resistor jitter therefore depend
    /// only on `(world seed, node id, its own plug history)` — the
    /// property that lets a sharded world construct each shard's Things
    /// independently and still match the sequential simulator bit for
    /// bit.
    thing_rngs: Vec<SimRng>,
    config: WorldConfig,
    /// Fleet-invariant construction blueprints. The peripheral templates
    /// carry the real win: the per-device resistor solve (an E96 grid
    /// search, formerly the dominant per-plug cost) runs once per
    /// peripheral *type*. The board/runtime templates pin the shared
    /// structure (codec, scan policy, cost model) in one place.
    /// Instantiation draws only per-instance jitter from the world RNG —
    /// the same values, in the same order, as direct sampling, so
    /// fingerprints are preserved.
    board_template: BoardTemplate,
    runtime_template: RuntimeTemplate,
    peripheral_templates: HashMap<DeviceTypeId, PeripheralTemplate>,
    /// Virtual-clock distributed tracing. Disabled by default: every
    /// recording hook is behind a single `trace.enabled` branch, and
    /// the only always-on work is stamping a plug's precomputed trace
    /// id (four integer folds) into its timeline.
    trace: TraceSink,
    /// Pipelines currently being traced, keyed by `(thing index,
    /// peripheral id)`. Empty while tracing is disabled.
    active_traces: HashMap<(usize, u32), PipeTrace>,
    /// The anycast address Things send driver requests to.
    pub manager_anycast: Ipv6Addr,
    /// The anycast address edge caches pull chunked transfers from. Every
    /// Manager replica is an instance, so a mid-transfer primary crash
    /// fails the stop-and-wait cursor over to the standby.
    pub origin_anycast: Ipv6Addr,
}

impl World {
    /// Creates an empty world.
    pub fn new(config: WorldConfig) -> Self {
        World {
            net: Network::with_capacity(config.prefix, config.seed ^ 0x9e37, config.expected_nodes),
            manager: None,
            standby: None,
            manager_down: false,
            standby_down: false,
            things: Vec::with_capacity(config.expected_nodes),
            clients: Vec::new(),
            caches: Vec::new(),
            dead_caches: Vec::new(),
            cache_crawl: Vec::new(),
            dead_things: Vec::with_capacity(config.expected_nodes),
            catalog: Catalog::with_prototypes(),
            images: ImagePool::default(),
            node_kinds: HashMap::with_capacity(config.expected_nodes),
            thing_by_addr: HashMap::with_capacity(config.expected_nodes),
            interrupts: VecDeque::new(),
            delivery_buf: Vec::new(),
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            thing_rngs: Vec::with_capacity(config.expected_nodes),
            board_template: BoardTemplate::default(),
            runtime_template: RuntimeTemplate::default(),
            peripheral_templates: HashMap::new(),
            trace: TraceSink::default(),
            active_traces: HashMap::new(),
            manager_anycast: "2001:db8:aaaa::1".parse().expect("valid anycast"),
            origin_anycast: "2001:db8:aaaa::2".parse().expect("valid anycast"),
            config,
        }
    }

    /// Enables (or disables) virtual-clock distributed tracing. Costs
    /// one branch per hook while disabled; enabling mid-run starts
    /// tracing plugs from the next plug instant (pipelines already in
    /// flight stay untraced).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.enabled = enabled;
        if !enabled {
            self.active_traces.clear();
        }
    }

    /// Whether distributed tracing is recording.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.enabled
    }

    /// Drains every span recorded so far in canonical order (sorted by
    /// start, trace, kind, node — the order is shard-invariant).
    pub fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = self.trace.take_spans();
        upnp_trace::canonical_sort(&mut spans);
        spans
    }

    /// The bounded flight-recorder window of recent spans.
    pub fn flight_recorder(&self) -> &upnp_trace::FlightRecorder {
        self.trace.recorder()
    }

    /// Dumps the flight-recorder window as a self-describing JSON
    /// document (the artifact the soak gate uploads on failure).
    pub fn flight_dump(&self, reason: &str) -> String {
        self.trace.recorder().dump_json(reason)
    }

    /// The decorrelated jitter stream of the Thing on `node`: a pure
    /// function of the world seed and the node id (SplitMix64-finalised),
    /// independent of how many Things were added before it.
    fn thing_stream(seed: u64, node: NodeId) -> SimRng {
        SimRng::seed(upnp_sim::splitmix64(
            seed ^ (node.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The catalog of known peripherals.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Adds the manager node (call once, before things).
    ///
    /// # Panics
    ///
    /// Panics if a manager already exists.
    pub fn add_manager(&mut self) -> NodeId {
        assert!(self.manager.is_none(), "world already has a manager");
        let node = self.net.add_node();
        let address = self.net.addr_of(node);
        self.net.set_anycast(node, self.manager_anycast);
        self.net.set_anycast(node, self.origin_anycast);
        self.manager = Some(Manager::new(
            node,
            address,
            self.manager_anycast,
            &self.catalog,
        ));
        self.node_kinds.insert(node, NodeKind::Manager);
        node
    }

    /// Adds a standby Manager replica: a second instance of both the
    /// manager and origin anycast addresses with an identical repository.
    /// While the primary lives it serves nothing (the primary is nearer
    /// or ties at a lower node id); when [`World::fail_primary`] removes
    /// the primary from the anycast sets, every request — Thing driver
    /// requests and cache chunk fetches alike — deterministically
    /// re-resolves here.
    ///
    /// # Panics
    ///
    /// Panics without a primary, or if a standby already exists. Add it
    /// right after the manager so its node id ties below every cache.
    pub fn add_standby(&mut self) -> NodeId {
        assert!(self.manager.is_some(), "standby needs a primary");
        assert!(self.standby.is_none(), "world already has a standby");
        let node = self.net.add_node();
        let address = self.net.addr_of(node);
        self.net.set_anycast(node, self.manager_anycast);
        self.net.set_anycast(node, self.origin_anycast);
        self.standby = Some(Manager::new(
            node,
            address,
            self.manager_anycast,
            &self.catalog,
        ));
        self.node_kinds.insert(node, NodeKind::Standby);
        node
    }

    /// Adds a µPnP Thing with a realistically sampled control board
    /// (stamped from the world's board/runtime templates; only per-Thing
    /// jitter is drawn from the RNG).
    pub fn add_thing(&mut self) -> ThingId {
        let node = self.net.add_node();
        let address = self.net.addr_of(node);
        let mut rng = Self::thing_stream(self.config.seed, node);
        let board = self.board_template.instantiate(&mut rng);
        let seed = rng.next_u64();
        let thing = Thing::new(
            node,
            address,
            self.config.prefix,
            board,
            self.catalog,
            self.runtime_template.instantiate(seed),
        );
        let mut thing = thing;
        thing.stream_samples = self.config.stream_samples;
        self.things.push(thing);
        self.thing_rngs.push(rng);
        self.dead_things.push(false);
        let id = ThingId(self.things.len() - 1);
        self.node_kinds.insert(node, NodeKind::Thing(id.0));
        self.thing_by_addr.insert(address, id.0);
        id
    }

    /// Adds a node that occupies its slot in the address space but is
    /// simulated elsewhere — a sharded world calls this for Things owned
    /// by other shards so node ids, addresses and wire sizes line up with
    /// the sequential simulator. The node is never linked locally, so no
    /// traffic can reach it.
    pub fn add_remote_node(&mut self) -> NodeId {
        self.net.add_node()
    }

    /// Adds a client; it joins the all-clients group immediately.
    pub fn add_client(&mut self) -> ClientId {
        let node = self.net.add_node();
        let address = self.net.addr_of(node);
        let client = Client::new(node, address, self.config.prefix);
        self.net
            .join_group(node, upnp_net::addr::all_clients_group(self.config.prefix));
        self.clients.push(client);
        let id = ClientId(self.clients.len() - 1);
        self.node_kinds.insert(node, NodeKind::Client(id.0));
        id
    }

    /// Adds an edge cache of the driver-distribution tier with the
    /// default [`CacheConfig`]: a node registered as an additional
    /// instance of the manager's anycast address, serving (4) driver
    /// requests from a bounded LRU and fetching misses from the manager
    /// via chunked transfer. Link it into the tree as an interior router
    /// (Things below it resolve their driver requests to it).
    ///
    /// # Panics
    ///
    /// Panics if no manager was added (the cache needs its origin).
    pub fn add_cache(&mut self) -> CacheId {
        self.add_cache_with(CacheConfig::default())
    }

    /// [`World::add_cache`] with explicit tuning knobs.
    pub fn add_cache_with(&mut self, config: CacheConfig) -> CacheId {
        assert!(self.manager.is_some(), "a cache needs its origin");
        // The cache pulls from the origin *anycast*, not the primary's
        // unicast address: a mid-transfer primary crash then resolves the
        // next chunk request to the standby, and the EdgeCache's
        // same-version/new-server check resumes from its cursor.
        let origin = self.origin_anycast;
        let anycast = self.manager_anycast;
        let node = self.net.add_node();
        let address = self.net.addr_of(node);
        // Subtree-scoped: the cache serves the requesters it routes for,
        // never a sibling subtree across the root — the scoping is what
        // keeps resolution identical at every shard count (a sibling's
        // cache may be another shard's ghost).
        self.net.set_anycast_scoped(node, anycast);
        self.manager_mut().register_cache(address);
        if let Some(standby) = &mut self.standby {
            standby.register_cache(address);
        }
        self.caches
            .push(EdgeCache::new(node, address, origin, config));
        self.dead_caches.push(false);
        self.cache_crawl.push(1);
        let id = CacheId(self.caches.len() - 1);
        self.node_kinds.insert(node, NodeKind::Cache(id.0));
        id
    }

    /// Access an edge cache (inspect its LRU and counters).
    pub fn cache(&self, id: CacheId) -> &EdgeCache {
        &self.caches[id.0]
    }

    /// The network node of an edge cache.
    pub fn cache_node(&self, id: CacheId) -> NodeId {
        self.caches[id.0].node
    }

    /// Aggregate distribution-tier counters (all caches + the origin).
    pub fn distro_stats(&self) -> DistroStats {
        let mut s = DistroStats::default();
        for c in &self.caches {
            s.cache_hits += c.stats.hits;
            s.cache_misses += c.stats.misses;
            s.cache_coalesced += c.stats.coalesced;
            s.cache_uploads += c.stats.uploads_served;
        }
        for m in self.manager.iter().chain(&self.standby) {
            s.origin_uploads += m.uploads_served;
            s.mgr_inventory += m.inventory().len() as u64;
            s.mgr_removal_acks += m.removal_acks_total;
        }
        s
    }

    /// Access a Thing.
    pub fn thing(&self, id: ThingId) -> &Thing {
        &self.things[id.0]
    }

    /// Mutable access to a Thing.
    pub fn thing_mut(&mut self, id: ThingId) -> &mut Thing {
        &mut self.things[id.0]
    }

    /// Access a client.
    pub fn client(&self, id: ClientId) -> &Client {
        &self.clients[id.0]
    }

    /// Mutable client access, for the sharded world to move a replica's
    /// observations into its master client.
    pub(crate) fn client_mut(&mut self, id: ClientId) -> &mut Client {
        &mut self.clients[id.0]
    }

    /// Access the manager.
    ///
    /// # Panics
    ///
    /// Panics if no manager was added.
    pub fn manager(&self) -> &Manager {
        self.manager.as_ref().expect("world has a manager")
    }

    /// Mutable manager access.
    pub fn manager_mut(&mut self) -> &mut Manager {
        self.manager.as_mut().expect("world has a manager")
    }

    /// The network node of a Thing.
    pub fn thing_node(&self, id: ThingId) -> NodeId {
        self.things[id.0].node
    }

    /// The network node of a client.
    pub fn client_node(&self, id: ClientId) -> NodeId {
        self.clients[id.0].node
    }

    /// Injects a pre-built datagram from `from` at virtual time `at` —
    /// the primitive fleet workloads use to stage many requests before
    /// one run of the loop.
    pub fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram) {
        self.net.send(at, from, dgram);
    }

    /// The unicast address of a Thing.
    pub fn thing_addr(&self, id: ThingId) -> Ipv6Addr {
        self.things[id.0].address
    }

    /// Links two nodes with the given quality.
    pub fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        self.net.link(a, b, quality);
    }

    /// Builds the routing tree rooted at `root` (typically the manager).
    pub fn build_tree(&mut self, root: NodeId) {
        self.net.build_tree(root);
    }

    /// Convenience: star topology with every other node one perfect hop
    /// from the manager, tree rooted there.
    pub fn star_topology(&mut self) {
        let root = self.manager().node;
        for i in 0..self.net.len() {
            let n = NodeId(i as u32);
            if n != root {
                self.net.link(root, n, LinkQuality::PERFECT);
            }
        }
        self.net.build_tree(root);
    }

    // ---- Chaos: fault injection and recovery ---------------------------

    /// Crashes an edge cache ungracefully at virtual instant `at`: its
    /// RAM (LRU + in-flight fetches) is gone, it leaves every anycast set
    /// *without* a graceful `unset_anycast` (the network purges the
    /// now-dead memoised resolutions), and each follower parked on an
    /// in-flight fetch re-issues its original (4) driver request from its
    /// own Thing — which re-resolves to the next-nearest live anycast
    /// instance. The node keeps forwarding frames (the router outlives
    /// the cache process); pair with [`World::partition_link`] to model
    /// full node death. Returns the follower count failed over.
    ///
    /// # Panics
    ///
    /// Panics if the cache is already down.
    pub fn crash_cache(&mut self, at: SimTime, id: CacheId) -> usize {
        assert!(!self.dead_caches[id.0], "cache {id:?} is already down");
        self.dead_caches[id.0] = true;
        self.net.fail_node(self.caches[id.0].node);
        let stranded = self.caches[id.0].crash();
        let n = stranded.len();
        let anycast = self.manager_anycast;
        for (peripheral, requester, seq, ctx) in stranded {
            let thing = self.thing_by_addr[&requester];
            let node = self.things[thing].node;
            let mut payload = upnp_net::msg::Payload::from(
                upnp_net::msg::Message {
                    seq,
                    body: upnp_net::msg::MessageBody::DriverRequest { peripheral },
                }
                .encode(),
            )
            .with_trace(ctx);
            // The reissue re-enters the network from the follower's own
            // Thing node — that is where the failover span lives.
            if self.trace.enabled && !ctx.is_none() {
                let span = Span::new(
                    ctx,
                    SpanKind::Failover,
                    node.0 as u64,
                    at.as_nanos(),
                    at.as_nanos(),
                );
                self.trace.record(span);
                payload = payload.with_trace(span.ctx());
            }
            let dgram = Datagram {
                src: requester,
                dst: anycast,
                src_port: upnp_net::addr::MCAST_PORT,
                dst_port: upnp_net::addr::MCAST_PORT,
                payload,
            };
            self.net.send(at, node, dgram);
        }
        n
    }

    /// Restarts a crashed cache cold: it re-registers as a manager
    /// anycast instance (which invalidates the memoised resolutions that
    /// bypassed it) and serves again from an empty LRU.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not down.
    pub fn revive_cache(&mut self, id: CacheId) {
        assert!(self.dead_caches[id.0], "cache {id:?} is not down");
        self.dead_caches[id.0] = false;
        self.net
            .set_anycast_scoped(self.caches[id.0].node, self.manager_anycast);
    }

    /// Crashes the primary Manager: it leaves both anycast sets (memos
    /// purged), and deliveries already in flight to it are dropped. The
    /// standby — same repository, next-lowest node id — takes over every
    /// subsequent driver request and chunked origin fetch.
    ///
    /// # Panics
    ///
    /// Panics without a standby (the fleet would deadlock), or if the
    /// primary is already down.
    pub fn fail_primary(&mut self) {
        assert!(self.standby.is_some(), "failover needs a standby");
        assert!(!self.manager_down, "primary is already down");
        self.manager_down = true;
        self.net.fail_node(self.manager().node);
    }

    /// Restores the crashed primary: it re-registers both anycast
    /// instances (invalidating the takeover memos) and resumes serving.
    /// Its repository state was never lost — the paper's Manager is a
    /// durable server; only the in-flight datagrams died.
    ///
    /// # Panics
    ///
    /// Panics if the primary is not down.
    pub fn restore_primary(&mut self) {
        assert!(self.manager_down, "primary is not down");
        self.manager_down = false;
        let node = self.manager().node;
        self.net.set_anycast(node, self.manager_anycast);
        self.net.set_anycast(node, self.origin_anycast);
    }

    /// Crashes the hot standby replica: it leaves both anycast sets
    /// (memos purged). With the primary also down, the manager anycast
    /// has *zero* live instances — driver requests and origin fetches
    /// drop gracefully at resolution, and the affected Things stay
    /// unserved until either replica returns and the repair wave
    /// refetches.
    ///
    /// # Panics
    ///
    /// Panics without a standby, or if the standby is already down.
    pub fn fail_standby(&mut self) {
        assert!(self.standby.is_some(), "world has no standby");
        assert!(!self.standby_down, "standby is already down");
        self.standby_down = true;
        let node = self.standby.as_ref().expect("checked").node;
        self.net.fail_node(node);
    }

    /// Restores the crashed standby: it re-registers both anycast
    /// instances and resumes serving (durable repository, like the
    /// primary — only its in-flight datagrams died).
    ///
    /// # Panics
    ///
    /// Panics if the standby is not down.
    pub fn restore_standby(&mut self) {
        assert!(self.standby_down, "standby is not down");
        self.standby_down = false;
        let node = self.standby.as_ref().expect("standby exists").node;
        self.net.set_anycast(node, self.manager_anycast);
        self.net.set_anycast(node, self.origin_anycast);
    }

    /// Crashes a Thing's MCU mid-operation: its flash install generation
    /// is fenced, and any (5) driver upload delivered while it is dead
    /// is torn mid-flash write ([`Thing::stage_torn_upload`]). The node
    /// keeps forwarding frames — the radio outlives the MCU process.
    ///
    /// # Panics
    ///
    /// Panics if the Thing is already down.
    pub fn crash_thing(&mut self, id: ThingId) {
        assert!(!self.dead_things[id.0], "thing {id:?} is already down");
        self.dead_things[id.0] = true;
        self.things[id.0].crash_mcu();
    }

    /// Revives a crashed Thing at `at`: the torn flash staging area is
    /// audited (half-written images rejected by `verify()`), and a
    /// driver request is reissued end-to-end for every peripheral still
    /// waiting. Returns `(rejected half-images, refetches issued)`.
    ///
    /// # Panics
    ///
    /// Panics if the Thing is not down.
    pub fn revive_thing(&mut self, at: SimTime, id: ThingId) -> (u64, u64) {
        assert!(self.dead_things[id.0], "thing {id:?} is not down");
        self.dead_things[id.0] = false;
        let anycast = self.manager_anycast;
        let (recovery, out) = self.things[id.0].revive_mcu(at.max(self.now), anycast);
        self.apply_outbound(id.0, out);
        // A plug/unplug that happened during the outage left the board
        // interrupt pending; the revived MCU services it on the next run.
        if self.things[id.0].interrupt_pending() {
            self.interrupts.push_back(id.0);
        }
        (recovery.rejected, recovery.refetches)
    }

    /// Enables (or disables) seeded delay/duplicate link chaos on the
    /// delivery queue (see [`LinkChaos`]).
    pub fn set_link_chaos(&mut self, chaos: Option<LinkChaos>) {
        self.net.set_link_chaos(chaos);
    }

    /// Enables (or disables) the seeded gray-failure link schedule:
    /// directed hops slowed, made lossier, or cut in windows of virtual
    /// time (see [`LinkDegrade`]).
    pub fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>) {
        self.net.set_link_degrade(degrade);
    }

    /// Sets an edge cache's gray-failure crawl factor: every reply's
    /// processing and send-path legs are stretched by `factor` until
    /// reset to 1. The cache stays correct — just slow — so requests
    /// parked behind it are outages the fail-stop faults never create.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero (a zero-speed cache is a crash; use
    /// [`World::crash_cache`]).
    pub fn set_cache_crawl(&mut self, id: CacheId, factor: u32) {
        assert!(factor > 0, "crawl factor must be >= 1");
        self.cache_crawl[id.0] = factor;
    }

    /// The DODAG parent of `node` — the routing edge above an arbitrary
    /// interior node, which [`World::partition_link`] can sever to
    /// orphan its whole subtree.
    pub fn dodag_parent(&self, node: NodeId) -> Option<NodeId> {
        self.net.dodag_parent(node)
    }

    /// Severs the link between two locally simulated nodes, returning the
    /// quality it had so [`World::heal_link`] can restore it — `None` if
    /// no such local link exists (e.g. the endpoints live in another
    /// shard). Routes keep using the severed link until
    /// [`World::rebuild_tree`] reroots, exactly like a real RPL DODAG
    /// limping on a stale parent set.
    pub fn partition_link(&mut self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        let quality = self.net.link_quality(a, b)?;
        self.net.unlink(a, b);
        Some(quality)
    }

    /// Restores a previously partitioned link. No-op unless both
    /// endpoints are simulated locally (a sharded world heals each link
    /// in the one shard that owns it).
    pub fn heal_link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        if self.node_kinds.contains_key(&a) && self.node_kinds.contains_key(&b) {
            self.net.link(a, b, quality);
        }
    }

    /// Reroots the DODAG at the manager — the reroot-storm primitive, and
    /// the repair step that routes around partitions.
    pub fn rebuild_tree(&mut self) {
        let root = self.manager().node;
        self.net.build_tree(root);
    }

    /// Whether every memoised route, SMRF plan and anycast resolution
    /// matches a fresh recomputation (the fresh-build oracle the soak
    /// invariants check continuously).
    pub fn caches_coherent(&self) -> bool {
        self.net.caches_coherent()
    }

    /// Manager replicas constructed in this world (primary + standby) —
    /// the multiplier on the bounded-retention invariant.
    pub fn manager_replicas(&self) -> u64 {
        self.manager.iter().chain(&self.standby).count() as u64
    }

    /// Manufactures a peripheral board for `device_id` and plugs it into
    /// `channel` of the Thing. The identification interrupt fires; run the
    /// world to see the full pipeline.
    ///
    /// # Panics
    ///
    /// Panics for unknown device ids or occupied channels (test misuse).
    pub fn plug(&mut self, thing: ThingId, channel: u8, device_id: DeviceTypeId) {
        let tolerance = self.config.resistor_tolerance;
        let interconnect = self
            .catalog
            .get(device_id)
            .unwrap_or_else(|| panic!("{device_id} not in catalog"))
            .interconnect;
        // The resistor solve runs once per device *type*; each plug only
        // samples this board's jitter from the Thing's own stream, so a
        // Thing's plug pipeline depends only on its own history.
        let template = self
            .peripheral_templates
            .entry(device_id)
            .or_insert_with(|| {
                PeripheralTemplate::new(device_id, interconnect)
                    .expect("catalog ids are realisable")
            });
        let board = template.instantiate(tolerance, &mut self.thing_rngs[thing.0]);
        self.things[thing.0]
            .board_mut()
            .plug(ChannelId(channel), board)
            .expect("channel free");
        self.interrupts.push_back(thing.0);
        // The trace id is a pure function of (seed, node, channel, plug
        // instant) — identical at every shard count. It is stamped even
        // with tracing disabled (four integer folds) so chaos recovery
        // attribution can always name the serving trace.
        let node = self.things[thing.0].node;
        let trace = TraceId::derive(
            self.config.seed,
            node.0 as u64,
            channel as u16,
            self.now.as_nanos(),
        );
        self.things[thing.0]
            .timelines
            .get_or_default(device_id.raw())
            .trace_id = trace.0;
        if self.trace.enabled {
            let now_ns = self.now.as_nanos();
            let plug = Span::new(
                TraceCtx::root(trace),
                SpanKind::Plug,
                node.0 as u64,
                now_ns,
                now_ns,
            );
            self.trace.record(plug);
            self.active_traces.insert(
                (thing.0, device_id.raw()),
                PipeTrace {
                    root: plug.ctx(),
                    scan: plug.ctx(),
                    scan_recorded: false,
                },
            );
        }
    }

    /// Unplugs whatever occupies `channel` of the Thing.
    pub fn unplug(&mut self, thing: ThingId, channel: u8) {
        self.things[thing.0].board_mut().unplug(ChannelId(channel));
        self.interrupts.push_back(thing.0);
    }

    /// Schedules a [`World::plug`] at the absolute virtual instant `at` —
    /// the primitive behind staggered discovery waves and churn storms.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or (when the event fires) under the
    /// same conditions as [`World::plug`].
    pub fn plug_at(&mut self, at: SimTime, thing: ThingId, channel: u8, device_id: DeviceTypeId) {
        self.sched.schedule_at(
            at,
            WorldEvent::Plug {
                thing: thing.0,
                channel,
                device: device_id,
            },
        );
    }

    /// Schedules a [`World::unplug`] at the absolute virtual instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn unplug_at(&mut self, at: SimTime, thing: ThingId, channel: u8) {
        self.sched.schedule_at(
            at,
            WorldEvent::Unplug {
                thing: thing.0,
                channel,
            },
        );
    }

    /// Seeds the interrupt queue by scanning every Thing once.
    ///
    /// [`World::plug`]/[`World::unplug`] enqueue the affected Thing
    /// directly; this entry-time scan only exists to catch tests and
    /// examples that manipulate a board through
    /// [`Thing::board_mut`](crate::thing::Thing::board_mut) behind the
    /// world's back. It runs once per `run_*` call, not once per step, so
    /// the inner loop stays `O(work due now)`.
    fn seed_interrupts(&mut self) {
        for (i, t) in self.things.iter().enumerate() {
            if t.interrupt_pending() {
                self.interrupts.push_back(i);
            }
        }
    }

    /// Runs until no interrupts, deliveries or scheduled events remain.
    pub fn run_until_idle(&mut self) {
        self.seed_interrupts();
        // Bounded by a large iteration budget: a logic bug must fail a
        // test, not hang it.
        for _ in 0..10_000_000 {
            if !self.step() {
                return;
            }
        }
        panic!("world failed to go idle (event loop runaway)");
    }

    /// Runs for at most `duration` of virtual time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.seed_interrupts();
        let deadline = self.now + duration;
        for _ in 0..10_000_000 {
            // Handle interrupts regardless of the deadline (they are
            // immediate), then events up to the deadline.
            if self.service_interrupts() {
                continue;
            }
            let Some(next) = self.next_event_time() else {
                break;
            };
            if next > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the absolute virtual instant `deadline` (no-op if it
    /// has passed) and leaves `now` exactly there — the primitive that
    /// lets the chaos harness pause a wave mid-transfer and inject a
    /// fault at a deterministic instant.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_for(deadline.saturating_since(self.now));
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match (self.net.next_delivery_at(), self.sched.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// One step of the world loop. Returns false when idle.
    fn step(&mut self) -> bool {
        if self.service_interrupts() {
            return true;
        }
        let Some(next) = self.next_event_time() else {
            return false;
        };
        if next > self.now {
            self.now = next;
        }

        // Scheduled world events (stream ticks, deferred plugs) due now.
        while matches!(self.sched.peek_time(), Some(t) if t <= self.now) {
            let entry = self.sched.pop().expect("peeked");
            match entry.event {
                WorldEvent::StreamTick { thing, peripheral } => {
                    let out = self.things[thing].stream_tick(self.now, peripheral);
                    let more = self.things[thing].flush_completions();
                    self.apply_outbound(thing, out);
                    self.apply_outbound(thing, more);
                    // Re-arm unless the stream stopped.
                    if self.things[thing].is_streaming(peripheral) {
                        let at = self.now + self.config.stream_period;
                        self.sched
                            .schedule_at(at, WorldEvent::StreamTick { thing, peripheral });
                    }
                }
                WorldEvent::Plug {
                    thing,
                    channel,
                    device,
                } => self.plug(ThingId(thing), channel, device),
                WorldEvent::Unplug { thing, channel } => self.unplug(ThingId(thing), channel),
                WorldEvent::CacheTimer {
                    cache,
                    peripheral,
                    gen,
                } => {
                    // A crashed cache's pending timers die with it (its
                    // generation counter survives the crash, so they
                    // would be stale no-ops anyway — this just skips the
                    // lookup).
                    if !self.dead_caches[cache] {
                        let reply = self.caches[cache].on_timer(peripheral, gen);
                        self.apply_cache_reply(cache, self.now, reply, true);
                    }
                }
            }
        }

        // Network deliveries due now, drained into the reused buffer.
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        deliveries.clear();
        self.net.poll_into(self.now, &mut deliveries);
        for d in &deliveries {
            match self.node_kinds.get(&d.node).copied() {
                // Datagrams already in flight when the primary crashed
                // die with it.
                Some(NodeKind::Manager) if !self.manager_down => {
                    self.manager_reply(false, d);
                }
                Some(NodeKind::Standby) if !self.standby_down => self.manager_reply(true, d),
                Some(NodeKind::Thing(i)) if !self.dead_things[i] => {
                    let out = self.things[i].on_datagram(d.at, &d.dgram, &mut self.images);
                    if self.trace.enabled
                        && d.dgram.payload.first()
                            == Some(&upnp_net::msg::MessageBody::DRIVER_UPLOAD_TYPE)
                    {
                        self.record_upload_spans(i, &d.dgram, d.at);
                    }
                    self.apply_outbound(i, out);
                }
                // A dead Thing's MCU is off: a (5) driver upload arriving
                // now is a flash write cut mid-stream — stage the torn
                // remnant for the revive audit. Everything else in
                // flight to it simply dies.
                Some(NodeKind::Thing(i)) => self.stage_torn_upload(i, &d.dgram),
                Some(NodeKind::Client(i)) => {
                    let joins = self.clients[i].on_datagram(d.at, &d.dgram);
                    let node = self.clients[i].node;
                    for g in joins {
                        self.net.join_group(node, g);
                    }
                }
                // A crashed cache drops what was in flight to it (chunk
                // replies chiefly — the retry/abandon path of the
                // *origin-side* transfer owns recovery).
                Some(NodeKind::Cache(i)) if !self.dead_caches[i] => {
                    let before = if self.trace.enabled {
                        let s = &self.caches[i].stats;
                        Some((s.hits, s.misses, s.coalesced))
                    } else {
                        None
                    };
                    let reply = self.caches[i].on_datagram(&d.dgram);
                    if let Some(before) = before {
                        self.record_cache_lookup(i, &d.dgram, d.at, before, reply.process);
                    }
                    self.apply_cache_reply(i, d.at, reply, false);
                }
                Some(NodeKind::Manager | NodeKind::Standby | NodeKind::Cache(_)) | None => {}
            }
        }
        self.delivery_buf = deliveries;
        true
    }

    /// Feeds one delivery to a Manager replica (`standby` selects which)
    /// and applies its replies — the upload is "ready" after processing
    /// (end of the request-driver leg); its send path belongs to the
    /// install-driver leg. One body for both replicas, so their
    /// accounting can never drift apart.
    fn manager_reply(&mut self, standby: bool, d: &Delivery) {
        let m = if standby {
            self.standby.as_mut()
        } else {
            self.manager.as_mut()
        }
        .expect("delivery to existing manager replica");
        let node = m.node;
        let (replies, process, send_path) = m.on_datagram(&d.dgram);
        let ready_at = d.at + process;
        let send_at = ready_at + send_path;
        let req_ctx = d.dgram.payload.trace();
        for mut reply in replies {
            self.stitch_upload_sent(&reply, ready_at);
            // A traced (4) request served by the origin: the serve span
            // covers the processing leg, and the upload is re-stamped
            // so the Thing-side verify/install parent under it.
            if self.trace.enabled
                && !req_ctx.is_none()
                && reply.payload.first() == Some(&upnp_net::msg::MessageBody::DRIVER_UPLOAD_TYPE)
            {
                let serve = Span::new(
                    req_ctx,
                    SpanKind::Serve,
                    node.0 as u64,
                    d.at.as_nanos(),
                    ready_at.as_nanos(),
                );
                self.trace.record(serve);
                reply.payload = reply.payload.traced(serve.ctx());
            }
            self.net.send(send_at, node, reply);
        }
    }

    /// Stitches the upload-ready stamp into the requesting Thing's plug
    /// timeline when `dgram` is a (5) driver upload — the shared leg of
    /// origin-served and cache-served replies, so their latency rows can
    /// never drift apart. Only the upload header is read; the image is
    /// never copied.
    fn stitch_upload_sent(&mut self, dgram: &Datagram, ready_at: SimTime) {
        if let Some((peripheral, _)) = upnp_net::msg::Message::peek_upload(&dgram.payload) {
            if let Some(&i) = self.thing_by_addr.get(&dgram.dst) {
                if let Some(tl) = self.things[i].timelines.get_mut(peripheral) {
                    tl.upload_sent = Some(ready_at);
                }
            }
        }
    }

    /// Routes a delivery to a *dead* Thing: only (5) driver uploads
    /// leave a trace — the flash write torn mid-stream — everything
    /// else evaporates with the crashed MCU. The image is read in place
    /// from the frame, not decoded into a copy.
    fn stage_torn_upload(&mut self, thing: usize, dgram: &Datagram) {
        if let Some((peripheral, image)) = upnp_net::msg::Message::peek_upload(&dgram.payload) {
            self.things[thing].stage_torn_upload(peripheral, image);
        }
    }

    /// Applies one edge cache's reply: sends go out after the processing
    /// legs (mirroring the manager's accounting), retry timers enter the
    /// world scheduler, and cache-served (5) uploads stitch the
    /// upload-ready stamp into the requesting Thing's plug timeline just
    /// as origin-served ones do.
    fn apply_cache_reply(
        &mut self,
        cache: usize,
        at: SimTime,
        reply: CacheReply,
        from_timer: bool,
    ) {
        // A crawling cache (gray failure) takes `factor`× as long on
        // both processing legs; its retry timers are armed relative to
        // the stretched ready instant.
        let factor = self.cache_crawl[cache] as u64;
        let ready_at = at + reply.process * factor;
        let send_at = ready_at + reply.send_path * factor;
        let node = self.caches[cache].node;
        for action in reply.actions {
            match action {
                CacheAction::Send(dgram) => {
                    let dgram = if self.trace.enabled {
                        self.record_cache_send(node, dgram, at, ready_at, send_at, from_timer)
                    } else {
                        dgram
                    };
                    self.stitch_upload_sent(&dgram, ready_at);
                    self.net.send(send_at, node, dgram);
                }
                CacheAction::ArmTimer {
                    peripheral,
                    gen,
                    after,
                } => {
                    let fire_at = (ready_at + after).max(self.sched.now());
                    self.sched.schedule_at(
                        fire_at,
                        WorldEvent::CacheTimer {
                            cache,
                            peripheral,
                            gen,
                        },
                    );
                }
            }
        }
    }

    /// Services at most one pending interrupt; returns true if one was
    /// handled. Pops from the interrupt queue instead of scanning every
    /// Thing — `O(1)` per step at any fleet size.
    fn service_interrupts(&mut self) -> bool {
        let anycast = self.manager_anycast;
        while let Some(i) = self.interrupts.pop_front() {
            // A dead MCU cannot service its board interrupt; it stays
            // pending on the board and the revive re-enqueues it.
            if self.dead_things[i] {
                continue;
            }
            // A queue entry may be stale: one service call handles every
            // change on the board, so a Thing plugged twice between steps
            // is fully serviced by its first entry.
            if self.things[i].interrupt_pending() {
                let out = self.things[i].service_interrupt(self.now, anycast);
                if self.trace.enabled {
                    self.record_scan_spans(i);
                }
                self.apply_outbound(i, out);
                return true;
            }
        }
        false
    }

    fn apply_outbound(&mut self, thing: usize, outbound: Vec<Outbound>) {
        let node = self.things[thing].node;
        let send_at = self.things[thing].runtime.now().max(self.now);
        for action in outbound {
            match action {
                Outbound::Send(dgram) => {
                    let dgram = if self.trace.enabled {
                        self.stamp_thing_request(thing, send_at, dgram)
                    } else {
                        dgram
                    };
                    self.net.send(send_at, node, dgram);
                }
                Outbound::JoinGroup(g) => self.net.join_group(node, g),
                Outbound::LeaveGroup(g) => {
                    self.net.leave_group(node, g);
                }
                Outbound::StartStream { peripheral } => {
                    let at = send_at + self.config.stream_period;
                    self.sched.schedule_at(
                        at.max(self.sched.now()),
                        WorldEvent::StreamTick { thing, peripheral },
                    );
                }
                Outbound::StopStream { .. } => {
                    // Tick re-arming stops naturally; nothing to cancel in
                    // the one-shot scheduler.
                }
            }
        }
    }

    // ---- Distributed-tracing span derivation ---------------------------
    //
    // The protocol actors (Thing, Manager, EdgeCache) stay
    // trace-unaware; every span is derived here, at the world seam that
    // already mediates each datagram, from the same timeline stamps and
    // counters the latency tables are built from. All of it is behind
    // `trace.enabled` — the disabled path never reaches these methods.

    /// Derives scan/identify spans for `thing`'s freshly serviced
    /// pipelines from its plug timelines. A driver cached locally on
    /// the Thing installs inside the same board interrupt — no network
    /// legs exist — so such pipelines are closed here too.
    ///
    /// Every traced pipeline has a plug timeline, so the Thing's own
    /// timelines name its candidate pipelines: the lookup costs the
    /// Thing's device types, not the number of pipelines in flight
    /// fleet-wide (a flash crowd holds every plug active at once).
    fn record_scan_spans(&mut self, thing: usize) {
        let node = self.things[thing].node.0 as u64;
        // Timelines iterate in ascending peripheral order.
        let scanned: Vec<(u32, SimTime, SimDuration, Option<SimTime>)> = self.things[thing]
            .timelines
            .iter()
            .filter_map(|(peripheral, tl)| {
                Some((peripheral, tl.scan_started?, tl.scan?, tl.finished))
            })
            .collect();
        for (peripheral, started, scan, finished) in scanned {
            let key = (thing, peripheral);
            let Some(&pt) = self.active_traces.get(&key) else {
                continue;
            };
            if pt.scan_recorded {
                continue;
            }
            let scan_end = started + scan;
            let scan_span = Span::new(
                pt.root,
                SpanKind::Scan,
                node,
                started.as_nanos(),
                scan_end.as_nanos(),
            );
            self.trace.record(scan_span);
            let identify = Span::new(
                scan_span.ctx(),
                SpanKind::Identify,
                node,
                scan_end.as_nanos(),
                scan_end.as_nanos(),
            );
            self.trace.record(identify);
            let entry = self.active_traces.get_mut(&key).expect("key from map");
            entry.scan = identify.ctx();
            entry.scan_recorded = true;
            // `finished >= scan start` distinguishes a locally served
            // pipeline from a stale stamp left by an earlier plug of
            // the same device type.
            if finished.is_some_and(|f| f >= started) {
                self.record_install_spans(thing, peripheral, identify.ctx(), scan_end);
                self.active_traces.remove(&key);
            }
        }
    }

    /// Stamps an outgoing (4) driver request with its pipeline's trace
    /// context, recording the resolve span — the anycast resolution
    /// happens as the frame enters the network.
    fn stamp_thing_request(&mut self, thing: usize, send_at: SimTime, dgram: Datagram) -> Datagram {
        if dgram.payload.first() != Some(&upnp_net::msg::MessageBody::DRIVER_REQUEST_TYPE) {
            return dgram;
        }
        let Some(upnp_net::msg::Message {
            body: upnp_net::msg::MessageBody::DriverRequest { peripheral },
            ..
        }) = upnp_net::msg::Message::decode(&dgram.payload)
        else {
            return dgram;
        };
        let Some(pt) = self.active_traces.get(&(thing, peripheral)) else {
            return dgram;
        };
        let node = self.things[thing].node.0 as u64;
        let ns = send_at.as_nanos();
        let resolve = Span::new(pt.scan, SpanKind::Resolve, node, ns, ns);
        self.trace.record(resolve);
        let payload = dgram.payload.traced(resolve.ctx());
        Datagram { payload, ..dgram }
    }

    /// Classifies a cache's handling of a traced (4) driver request —
    /// hit, miss (upstream fetch started) or coalesce (parked on an
    /// in-flight fetch) — from the stats delta around `on_datagram`.
    fn record_cache_lookup(
        &mut self,
        cache: usize,
        dgram: &Datagram,
        at: SimTime,
        before: (u64, u64, u64),
        process: SimDuration,
    ) {
        let ctx = dgram.payload.trace();
        if ctx.is_none() {
            return;
        }
        let stats = &self.caches[cache].stats;
        let kind = if stats.hits > before.0 {
            SpanKind::CacheHit
        } else if stats.misses > before.1 {
            SpanKind::CacheMiss
        } else if stats.coalesced > before.2 {
            SpanKind::Coalesce
        } else {
            return;
        };
        let factor = self.cache_crawl[cache] as u64;
        let node = self.caches[cache].node.0 as u64;
        let span = Span::new(
            ctx,
            kind,
            node,
            at.as_nanos(),
            (at + process * factor).as_nanos(),
        );
        self.trace.record(span);
    }

    /// Records the span of a traced frame leaving a cache — the
    /// chunk-fetch/retry legs of an upstream transfer, the failover
    /// reissue of an abandoned one, and the served (5) upload, whose
    /// payload is re-stamped so the Thing-side verify/install spans
    /// parent under the serve. Returns the (possibly re-stamped)
    /// datagram.
    fn record_cache_send(
        &mut self,
        node: NodeId,
        dgram: Datagram,
        at: SimTime,
        ready_at: SimTime,
        send_at: SimTime,
        from_timer: bool,
    ) -> Datagram {
        let ctx = dgram.payload.trace();
        if ctx.is_none() {
            return dgram;
        }
        let key = node.0 as u64;
        match dgram.payload.first() {
            Some(&upnp_net::msg::MessageBody::DRIVER_CHUNK_REQUEST_TYPE) => {
                let kind = if from_timer {
                    SpanKind::Retry
                } else {
                    SpanKind::ChunkFetch
                };
                let ns = send_at.as_nanos();
                self.trace.record(Span::new(ctx, kind, key, ns, ns));
                dgram
            }
            Some(&upnp_net::msg::MessageBody::DRIVER_REQUEST_TYPE) => {
                // An abandoned transfer's proxied reissue: the cache
                // fails the parked request over to the next-nearest
                // anycast instance.
                let ns = send_at.as_nanos();
                self.trace
                    .record(Span::new(ctx, SpanKind::Failover, key, ns, ns));
                dgram
            }
            Some(&upnp_net::msg::MessageBody::DRIVER_UPLOAD_TYPE) => {
                let serve = Span::new(
                    ctx,
                    SpanKind::Serve,
                    key,
                    at.as_nanos(),
                    ready_at.as_nanos(),
                );
                self.trace.record(serve);
                let payload = dgram.payload.traced(serve.ctx());
                Datagram { payload, ..dgram }
            }
            _ => dgram,
        }
    }

    /// Closes a traced pipeline when its (5) driver upload is
    /// delivered: a verify span (the DSL safety check) at the delivery
    /// instant, then install/join/advertise from the timeline stamps.
    fn record_upload_spans(&mut self, thing: usize, dgram: &Datagram, at: SimTime) {
        let ctx = dgram.payload.trace();
        if ctx.is_none() {
            return;
        }
        let Some((peripheral, _)) = upnp_net::msg::Message::peek_upload(&dgram.payload) else {
            return;
        };
        let node = self.things[thing].node.0 as u64;
        let Some(tl) = self.things[thing].timelines.get(peripheral) else {
            return;
        };
        if tl.upload_received != Some(at) {
            return; // A duplicate or stale upload this pipeline ignored.
        }
        let verify = Span::new(ctx, SpanKind::Verify, node, at.as_nanos(), at.as_nanos());
        self.trace.record(verify);
        if tl.finished.is_some_and(|f| f >= at) {
            self.record_install_spans(thing, peripheral, ctx, at);
            self.active_traces.remove(&(thing, peripheral));
        }
    }

    /// Derives the install/join/advertise spans of a completed pipeline
    /// from its timeline stamps. `install_start` anchors the install
    /// span: the upload delivery instant, or the scan end for drivers
    /// served from the Thing's local store.
    fn record_install_spans(
        &mut self,
        thing: usize,
        peripheral: u32,
        parent: TraceCtx,
        install_start: SimTime,
    ) {
        let node = self.things[thing].node.0 as u64;
        let Some(tl) = self.things[thing].timelines.get(peripheral) else {
            return;
        };
        let (Some(installed), Some(finished)) = (tl.installed, tl.finished) else {
            return;
        };
        let install = Span::new(
            parent,
            SpanKind::Install,
            node,
            install_start.as_nanos(),
            installed.as_nanos(),
        );
        self.trace.record(install);
        if let (Some(join), Some(adv)) = (tl.join_group, tl.advertise) {
            let adv_start = finished - adv;
            let join_span = Span::new(
                install.ctx(),
                SpanKind::Join,
                node,
                (adv_start - join).as_nanos(),
                adv_start.as_nanos(),
            );
            self.trace.record(join_span);
            let advert = Span::new(
                install.ctx(),
                SpanKind::Advertise,
                node,
                adv_start.as_nanos(),
                finished.as_nanos(),
            );
            self.trace.record(advert);
        }
    }

    // ---- Asynchronous request builders for fleet workloads -------------

    /// Builds a (10) read request from `client` without driving the
    /// world — fleet workloads inject many such datagrams at staggered
    /// virtual instants and run the loop once.
    pub fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.clients[client.0].read(thing, peripheral)
    }

    /// Builds a (12) stream request from `client` without driving the
    /// world.
    pub fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        self.clients[client.0].stream(thing, peripheral)
    }

    // ---- Synchronous conveniences for examples and tests ---------------

    /// Plugs a peripheral and runs the full pipeline to completion;
    /// returns the plug timeline.
    pub fn plug_and_wait(
        &mut self,
        thing: ThingId,
        channel: u8,
        device_id: DeviceTypeId,
    ) -> PlugTimeline {
        self.plug(thing, channel, device_id);
        self.run_until_idle();
        self.things[thing.0]
            .timelines
            .get(device_id.raw())
            .cloned()
            .unwrap_or_default()
    }

    /// Reads a peripheral on a Thing through a client, synchronously.
    pub fn client_read(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
    ) -> Option<Value> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].readings.len();
        let dgram = self.clients[client.0].read(thing_addr, device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0]
            .readings
            .get(before)
            .map(|(_, v, _)| v.clone())
    }

    /// Writes to a peripheral through a client, synchronously; returns the
    /// acknowledgement flag.
    pub fn client_write(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
        value: Value,
    ) -> Option<bool> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].write_acks.len();
        let dgram = self.clients[client.0].write(thing_addr, device_id.raw(), value);
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0]
            .write_acks
            .get(before)
            .map(|(_, ok)| *ok)
    }

    /// Multicasts a discovery and collects solicited advertisements.
    pub fn client_discover(&mut self, client: ClientId, device_id: DeviceTypeId) -> Vec<Ipv6Addr> {
        let dgram = self.clients[client.0].discover(device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0].things_with(device_id.raw())
    }

    /// Location-filtered discovery: only Things tagged with `location`
    /// answer (§9's location-aware discovery).
    pub fn client_discover_at(
        &mut self,
        client: ClientId,
        device_id: DeviceTypeId,
        location: &str,
    ) -> Vec<Ipv6Addr> {
        let before = self.clients[client.0].discovered.len();
        let dgram = self.clients[client.0].discover_at(device_id.raw(), location);
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        let mut out: Vec<Ipv6Addr> = self.clients[client.0].discovered[before..]
            .iter()
            .filter(|d| d.solicited && d.peripheral == device_id.raw())
            .map(|d| d.thing)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Sets a Thing's location tag.
    pub fn set_location(&mut self, thing: ThingId, location: &str) {
        self.things[thing.0].location = Some(location.to_string());
    }

    /// Starts a stream and runs until the Thing closes it; returns the
    /// collected samples.
    pub fn client_stream(
        &mut self,
        client: ClientId,
        thing: ThingId,
        device_id: DeviceTypeId,
    ) -> Vec<Value> {
        let thing_addr = self.thing_addr(thing);
        let before = self.clients[client.0].stream_data.len();
        let dgram = self.clients[client.0].stream(thing_addr, device_id.raw());
        let node = self.clients[client.0].node;
        self.net.send(self.now, node, dgram);
        self.run_until_idle();
        self.clients[client.0].stream_data[before..]
            .iter()
            .filter(|(p, _, _)| *p == device_id.raw())
            .map(|(_, v, _)| v.clone())
            .collect()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("things", &self.things.len())
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

/// The simulation surface the fleet harness drives: everything a
/// scenario needs to build a topology, schedule stimuli, run the event
/// loop and read the observable outcome back.
///
/// Two implementations exist: the sequential [`World`] and the
/// thread-parallel [`ShardedWorld`](crate::shard::ShardedWorld). The
/// differential test harness runs the same seeded scenarios against both
/// and asserts bit-identical fingerprints and virtual metrics.
pub trait SimWorld {
    /// Adds the manager node (once, before Things).
    fn add_manager(&mut self) -> NodeId;
    /// Adds a µPnP Thing.
    fn add_thing(&mut self) -> ThingId;
    /// Adds a client.
    fn add_client(&mut self) -> ClientId;
    /// Adds a standby Manager replica (right after the manager).
    fn add_standby(&mut self) -> NodeId;
    /// Adds an edge cache of the driver-distribution tier (after the
    /// manager — the cache needs its origin).
    fn add_cache(&mut self) -> CacheId;
    /// The network node of an edge cache.
    fn cache_node(&self, id: CacheId) -> NodeId;
    /// Crashes an edge cache at `at`, failing its parked followers over
    /// to the next-nearest anycast instance; returns how many.
    fn crash_cache(&mut self, at: SimTime, id: CacheId) -> usize;
    /// Restarts a crashed cache cold.
    fn revive_cache(&mut self, id: CacheId);
    /// Crashes the primary Manager (the standby takes over).
    fn fail_primary(&mut self);
    /// Restores the crashed primary.
    fn restore_primary(&mut self);
    /// Crashes the hot standby replica (with the primary also down, the
    /// manager anycast goes dark and requests drop).
    fn fail_standby(&mut self);
    /// Restores the crashed standby.
    fn restore_standby(&mut self);
    /// Crashes a Thing's MCU; uploads in flight to it tear mid-flash.
    fn crash_thing(&mut self, id: ThingId);
    /// Revives a crashed Thing at `at`; returns `(rejected half-images,
    /// refetches issued)`.
    fn revive_thing(&mut self, at: SimTime, id: ThingId) -> (u64, u64);
    /// Enables (or disables) seeded delay/duplicate link chaos.
    fn set_link_chaos(&mut self, chaos: Option<LinkChaos>);
    /// Enables (or disables) the seeded gray-failure link schedule
    /// (slow / lossy / one-direction-cut hops; a sharded world installs
    /// the same pure-function schedule in every shard).
    fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>);
    /// Sets an edge cache's gray-failure crawl factor (1 = full speed).
    fn set_cache_crawl(&mut self, id: CacheId, factor: u32);
    /// The DODAG parent of `node` (an interior partition severs this
    /// edge; a sharded world answers from the shard owning the node).
    fn dodag_parent(&self, node: NodeId) -> Option<NodeId>;
    /// Severs a link, returning its quality for the later heal.
    fn partition_link(&mut self, a: NodeId, b: NodeId) -> Option<LinkQuality>;
    /// Restores a previously severed link.
    fn heal_link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality);
    /// Reroots the DODAG at the manager.
    fn rebuild_tree(&mut self);
    /// Whether every memoised route/plan/anycast resolution matches a
    /// fresh recomputation.
    fn caches_coherent(&self) -> bool;
    /// Manager replicas constructed (the bounded-retention multiplier;
    /// a sharded world counts each shard's replicas).
    fn manager_replicas(&self) -> u64;
    /// Runs until the absolute virtual instant `deadline` and leaves
    /// `now` exactly there.
    fn run_until(&mut self, deadline: SimTime);
    /// Aggregate distribution-tier counters (caches + origin).
    fn distro_stats(&self) -> DistroStats;
    /// Links two nodes with the given quality.
    fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality);
    /// Builds the routing tree rooted at `root`.
    fn build_tree(&mut self, root: NodeId);
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// The catalog of known peripherals.
    fn catalog(&self) -> &Catalog;
    /// Access a Thing.
    fn thing(&self, id: ThingId) -> &Thing;
    /// The network node of a Thing.
    fn thing_node(&self, id: ThingId) -> NodeId;
    /// The unicast address of a Thing.
    fn thing_addr(&self, id: ThingId) -> Ipv6Addr;
    /// Access a client's observations.
    fn client(&self, id: ClientId) -> &Client;
    /// The network node of a client.
    fn client_node(&self, id: ClientId) -> NodeId;
    /// Schedules a plug at the absolute virtual instant `at`.
    fn plug_at(&mut self, at: SimTime, thing: ThingId, channel: u8, device_id: DeviceTypeId);
    /// Schedules an unplug at the absolute virtual instant `at`.
    fn unplug_at(&mut self, at: SimTime, thing: ThingId, channel: u8);
    /// Runs until no interrupts, deliveries or scheduled events remain.
    fn run_until_idle(&mut self);
    /// Injects a pre-built datagram from `from` at virtual time `at`.
    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram);
    /// Builds a (10) read request from `client` without driving the loop.
    fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram;
    /// Builds a (12) stream request from `client` without driving the
    /// loop.
    fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram;
    /// Aggregate traffic statistics.
    fn net_stats(&self) -> upnp_net::network::NetStats;
    /// Radio energy consumed by `node` so far, joules.
    fn radio_energy_j(&self, node: NodeId) -> f64;
    /// Total network nodes.
    fn node_count(&self) -> usize;
    /// Enables (or disables) virtual-clock distributed tracing. One
    /// branch per hook while disabled; a sharded world enables it in
    /// every shard.
    fn set_tracing(&mut self, enabled: bool);
    /// Drains every span recorded so far in canonical order — the
    /// span set a sharded world returns is bit-identical to the
    /// sequential one at every shard count.
    fn take_spans(&mut self) -> Vec<Span>;
    /// Dumps the bounded flight-recorder window (merged across shards)
    /// as self-describing JSON.
    fn flight_dump(&self, reason: &str) -> String;
    /// The live unified metrics registry: the network and
    /// distribution-tier stat blocks register their cumulative counters
    /// under group labels, coming back out as one labelled table.
    /// Deterministic, and identical across shard counts.
    fn metrics_registry(&self) -> upnp_trace::MetricsRegistry {
        let mut reg = upnp_trace::MetricsRegistry::new();
        self.net_stats().register_into(&mut reg);
        self.distro_stats().register_into(&mut reg);
        reg
    }
}

impl SimWorld for World {
    fn add_manager(&mut self) -> NodeId {
        World::add_manager(self)
    }

    fn add_thing(&mut self) -> ThingId {
        World::add_thing(self)
    }

    fn add_client(&mut self) -> ClientId {
        World::add_client(self)
    }

    fn add_standby(&mut self) -> NodeId {
        World::add_standby(self)
    }

    fn add_cache(&mut self) -> CacheId {
        World::add_cache(self)
    }

    fn cache_node(&self, id: CacheId) -> NodeId {
        World::cache_node(self, id)
    }

    fn crash_cache(&mut self, at: SimTime, id: CacheId) -> usize {
        World::crash_cache(self, at, id)
    }

    fn revive_cache(&mut self, id: CacheId) {
        World::revive_cache(self, id);
    }

    fn fail_primary(&mut self) {
        World::fail_primary(self);
    }

    fn restore_primary(&mut self) {
        World::restore_primary(self);
    }

    fn fail_standby(&mut self) {
        World::fail_standby(self);
    }

    fn restore_standby(&mut self) {
        World::restore_standby(self);
    }

    fn crash_thing(&mut self, id: ThingId) {
        World::crash_thing(self, id);
    }

    fn revive_thing(&mut self, at: SimTime, id: ThingId) -> (u64, u64) {
        World::revive_thing(self, at, id)
    }

    fn set_link_chaos(&mut self, chaos: Option<LinkChaos>) {
        World::set_link_chaos(self, chaos);
    }

    fn set_link_degrade(&mut self, degrade: Option<LinkDegrade>) {
        World::set_link_degrade(self, degrade);
    }

    fn set_cache_crawl(&mut self, id: CacheId, factor: u32) {
        World::set_cache_crawl(self, id, factor);
    }

    fn dodag_parent(&self, node: NodeId) -> Option<NodeId> {
        World::dodag_parent(self, node)
    }

    fn partition_link(&mut self, a: NodeId, b: NodeId) -> Option<LinkQuality> {
        World::partition_link(self, a, b)
    }

    fn heal_link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        World::heal_link(self, a, b, quality);
    }

    fn rebuild_tree(&mut self) {
        World::rebuild_tree(self);
    }

    fn caches_coherent(&self) -> bool {
        World::caches_coherent(self)
    }

    fn manager_replicas(&self) -> u64 {
        World::manager_replicas(self)
    }

    fn run_until(&mut self, deadline: SimTime) {
        World::run_until(self, deadline);
    }

    fn distro_stats(&self) -> DistroStats {
        World::distro_stats(self)
    }

    fn link(&mut self, a: NodeId, b: NodeId, quality: LinkQuality) {
        World::link(self, a, b, quality);
    }

    fn build_tree(&mut self, root: NodeId) {
        World::build_tree(self, root);
    }

    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn catalog(&self) -> &Catalog {
        World::catalog(self)
    }

    fn thing(&self, id: ThingId) -> &Thing {
        World::thing(self, id)
    }

    fn thing_node(&self, id: ThingId) -> NodeId {
        World::thing_node(self, id)
    }

    fn thing_addr(&self, id: ThingId) -> Ipv6Addr {
        World::thing_addr(self, id)
    }

    fn client(&self, id: ClientId) -> &Client {
        World::client(self, id)
    }

    fn client_node(&self, id: ClientId) -> NodeId {
        World::client_node(self, id)
    }

    fn plug_at(&mut self, at: SimTime, thing: ThingId, channel: u8, device_id: DeviceTypeId) {
        World::plug_at(self, at, thing, channel, device_id);
    }

    fn unplug_at(&mut self, at: SimTime, thing: ThingId, channel: u8) {
        World::unplug_at(self, at, thing, channel);
    }

    fn run_until_idle(&mut self) {
        World::run_until_idle(self);
    }

    fn inject(&mut self, at: SimTime, from: NodeId, dgram: Datagram) {
        World::inject(self, at, from, dgram);
    }

    fn client_request_read(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        World::client_request_read(self, client, thing, peripheral)
    }

    fn client_request_stream(
        &mut self,
        client: ClientId,
        thing: Ipv6Addr,
        peripheral: u32,
    ) -> Datagram {
        World::client_request_stream(self, client, thing, peripheral)
    }

    fn net_stats(&self) -> upnp_net::network::NetStats {
        self.net.stats()
    }

    fn radio_energy_j(&self, node: NodeId) -> f64 {
        self.net.radio_energy_j(node)
    }

    fn node_count(&self) -> usize {
        self.net.len()
    }

    fn set_tracing(&mut self, enabled: bool) {
        World::set_tracing(self, enabled);
    }

    fn take_spans(&mut self) -> Vec<Span> {
        World::take_spans(self)
    }

    fn flight_dump(&self, reason: &str) -> String {
        World::flight_dump(self, reason)
    }
}

impl DistroStats {
    /// Registers every counter into a unified metrics registry under
    /// the `distro` group.
    pub fn register_into(&self, reg: &mut upnp_trace::MetricsRegistry) {
        reg.register("distro", "cache_hits", self.cache_hits);
        reg.register("distro", "cache_misses", self.cache_misses);
        reg.register("distro", "cache_coalesced", self.cache_coalesced);
        reg.register("distro", "cache_uploads", self.cache_uploads);
        reg.register("distro", "origin_uploads", self.origin_uploads);
        reg.register("distro", "mgr_inventory", self.mgr_inventory);
        reg.register("distro", "mgr_removal_acks", self.mgr_removal_acks);
    }
}
