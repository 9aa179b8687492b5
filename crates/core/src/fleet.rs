//! Fleet-scale simulation scenarios: thousands of Things on one virtual
//! network.
//!
//! The paper evaluates µPnP on a handful of physical nodes; this module
//! turns the same [`World`] into a load generator for fleet experiments —
//! N Things × M peripheral types, staggered discovery waves, plug/unplug
//! churn storms and mixed read/stream steady-state workloads, all
//! deterministically seeded through [`SimRng`] so a single `u64` pins
//! down an entire fleet run. The `fleet` benchmark binary drives these
//! scenarios at 100/1k/5k/25k/100k nodes and the CI pipeline gates on the
//! resulting `BENCH_fleet.json`.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use upnp_hw::id::DeviceTypeId;
use upnp_hw::peripheral::Interconnect;
use upnp_net::link::LinkQuality;
use upnp_net::NodeId;
use upnp_sim::{SimDuration, SimRng, SimTime};

use crate::catalog::Catalog;
use crate::shard::ShardedWorld;
use crate::world::{CacheId, ClientId, DistroStats, SimWorld, ThingId, World, WorldConfig};

/// How the fleet's nodes are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTopology {
    /// Every node one hop from the manager (the paper's testbed shape).
    Star,
    /// A `fanout`-ary tree rooted at the manager — multihop forwarding at
    /// depth `log_fanout(n)`.
    Tree {
        /// Children per interior node (≥ 1).
        fanout: usize,
    },
}

/// Parameters of a fleet build.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of Things.
    pub things: usize,
    /// Number of observing clients (attached next to the manager).
    pub clients: usize,
    /// Peripheral types assigned round-robin across Things.
    pub device_pool: Vec<DeviceTypeId>,
    /// Physical topology.
    pub topology: FleetTopology,
    /// Edge caches of the driver-distribution tier. Zero (the default)
    /// reproduces the paper's single-origin deployment. With `k > 0`
    /// the caches become the DODAG-interior routers below the manager:
    /// Things are spread round-robin across them (each cache heads a
    /// subtree shaped by `topology`), and their driver requests
    /// anycast-resolve to the cache above them instead of the origin.
    pub caches: usize,
    /// Provision a hot-standby Manager replica next to the primary. The
    /// standby shares both anycast addresses, hears every multicast the
    /// primary hears, and takes over deterministically when the chaos
    /// harness kills the primary (see [`crate::chaos`]).
    pub standby: bool,
    /// Quality of every link.
    pub link_prr: f64,
    /// Master seed; every stochastic choice in the fleet derives from it.
    pub seed: u64,
    /// Virtual-time spacing between consecutive scenario events
    /// (plug arrivals in a wave, churn events, workload requests).
    pub stagger: SimDuration,
}

impl FleetConfig {
    /// A fleet of `things` Things with the full catalog as device pool,
    /// a star topology, perfect links and 20 ms event stagger.
    pub fn new(things: usize) -> Self {
        FleetConfig {
            things,
            clients: 4.min(things.max(1)),
            device_pool: Catalog::with_prototypes()
                .entries()
                .iter()
                .map(|e| e.device_id)
                .collect(),
            topology: FleetTopology::Star,
            caches: 0,
            standby: false,
            link_prr: 1.0,
            seed: 0x6030,
            stagger: SimDuration::from_millis(20),
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the topology (builder style).
    pub fn with_topology(mut self, topology: FleetTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Places `caches` edge caches between manager and Things (builder
    /// style).
    pub fn with_caches(mut self, caches: usize) -> Self {
        self.caches = caches;
        self
    }

    /// Adds a hot-standby Manager replica (builder style).
    pub fn with_standby(mut self) -> Self {
        self.standby = true;
        self
    }
}

/// Latency distribution over a scenario's virtual-time samples.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub samples: usize,
    /// Mean, milliseconds of virtual time.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst case.
    pub max_ms: f64,
}

impl LatencyStats {
    fn from_durations(mut samples: Vec<SimDuration>) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let at = |q: f64| samples[((n - 1) as f64 * q).round() as usize].as_millis_f64();
        let sum: f64 = samples.iter().map(|d| d.as_millis_f64()).sum();
        LatencyStats {
            samples: n,
            mean_ms: sum / n as f64,
            p50_ms: at(0.50),
            p90_ms: at(0.90),
            p99_ms: at(0.99),
            max_ms: samples[n - 1].as_millis_f64(),
        }
    }
}

/// Measured outcome of one fleet scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    /// Scenario name (`discovery`, `churn`, `steady`).
    pub scenario: String,
    /// Total network nodes (manager + Things + clients).
    pub nodes: usize,
    /// Scenario events driven (plugs, churn events, client requests).
    pub events: usize,
    /// Events that completed as expected (drivers installed, replies
    /// received, …) — scenario-specific; equals `events` on clean runs.
    pub completed: usize,
    /// Virtual time the scenario spanned, milliseconds.
    pub virtual_ms: f64,
    /// Host wall-clock the scenario took, milliseconds.
    pub wall_ms: f64,
    /// Scenario events per wall-clock second (throughput).
    pub events_per_wall_s: f64,
    /// Virtual-time latency distribution (per-event end-to-end).
    pub latency: LatencyStats,
    /// Radio frames transmitted during the scenario.
    pub frames_tx: u64,
    /// MAC payload bytes transmitted.
    pub bytes_tx: u64,
    /// Permanently dropped deliveries.
    pub drops: u64,
    /// Mean radio energy drawn per Thing during the scenario, joules.
    pub joules_per_thing: f64,
    /// Payload buffers materialised (heap allocations) in the scenario.
    /// Deterministic — CI gates on it so the data plane stays zero-copy.
    pub payload_allocs: u64,
    /// Cheap refcounted payload shares (multicast fan-out, no bytes
    /// copied).
    pub payload_clones: u64,
    /// Edge-cache LRU hits during the scenario.
    pub cache_hits: u64,
    /// Edge-cache misses (upstream fetches started).
    pub cache_misses: u64,
    /// Requests coalesced onto in-flight fetches (singleflight).
    pub cache_coalesced: u64,
    /// (5) driver uploads served by edge caches.
    pub cache_uploads: u64,
    /// Driver uploads served by the origin Manager (direct (5) uploads
    /// plus chunked fetch sessions).
    pub origin_uploads: u64,
    /// Things tracked in the Manager's bounded inventory at scenario end
    /// (a level, not a delta — the satellite observability for the
    /// retention caps).
    pub mgr_inventory: u64,
    /// (9) removal acks received during the scenario.
    pub mgr_removal_acks: u64,
}

impl ScenarioMetrics {
    /// Everything deterministic about the outcome in one comparable
    /// string — wall-clock and throughput fields deliberately excluded.
    /// The differential and determinism test suites compare these, so a
    /// new deterministic column belongs here to be covered by both.
    ///
    /// `mgr_inventory` is also excluded: it is a *level* of the
    /// replicated Manager, and the per-replica
    /// [`crate::manager::MAX_INVENTORY`] cap means the summed level only
    /// decomposes across shards while every replica is under its cap —
    /// beyond that, sequential and sharded runs legitimately retain
    /// different sets. Counters (acks, uploads) are additive deltas and
    /// decompose exactly, so they stay in.
    pub fn deterministic_summary(&self) -> String {
        format!(
            "{} nodes={} events={} completed={} virtual={} frames={} bytes={} drops={} \
             lat=({},{},{},{},{},{}) joules={} \
             cache=({},{},{},{}) origin={} racks={}",
            self.scenario,
            self.nodes,
            self.events,
            self.completed,
            self.virtual_ms,
            self.frames_tx,
            self.bytes_tx,
            self.drops,
            self.latency.samples,
            self.latency.mean_ms,
            self.latency.p50_ms,
            self.latency.p90_ms,
            self.latency.p99_ms,
            self.latency.max_ms,
            self.joules_per_thing,
            self.cache_hits,
            self.cache_misses,
            self.cache_coalesced,
            self.cache_uploads,
            self.origin_uploads,
            self.mgr_removal_acks,
        )
    }

    /// Registers every deterministic counter into one unified
    /// [`upnp_trace::MetricsRegistry`] — the scenario, network-traffic,
    /// payload and distribution-tier groups a bench row emits as a
    /// single labelled table. Wall-side fields (throughput, wall
    /// milliseconds) are deliberately left out, as is the
    /// shard-dependent `mgr_inventory` level, so the registry digest is
    /// comparable across backends like the summary string.
    pub fn registry(&self) -> upnp_trace::MetricsRegistry {
        let mut reg = upnp_trace::MetricsRegistry::new();
        reg.register("scenario", "nodes", self.nodes as u64);
        reg.register("scenario", "events", self.events as u64);
        reg.register("scenario", "completed", self.completed as u64);
        reg.register("scenario", "latency_samples", self.latency.samples as u64);
        reg.register("net", "frames_tx", self.frames_tx);
        reg.register("net", "bytes_tx", self.bytes_tx);
        reg.register("net", "drops", self.drops);
        reg.register("payload", "allocs", self.payload_allocs);
        reg.register("payload", "clones", self.payload_clones);
        reg.register("distro", "cache_hits", self.cache_hits);
        reg.register("distro", "cache_misses", self.cache_misses);
        reg.register("distro", "cache_coalesced", self.cache_coalesced);
        reg.register("distro", "cache_uploads", self.cache_uploads);
        reg.register("distro", "origin_uploads", self.origin_uploads);
        reg.register("distro", "mgr_removal_acks", self.mgr_removal_acks);
        reg
    }
}

/// A built fleet, ready to run scenarios.
///
/// Scenarios mutate the underlying world; run them on a fresh fleet
/// when isolation matters (the benchmark binary does). `W` is the
/// simulator backend: the sequential [`World`] (the default) or the
/// thread-parallel [`ShardedWorld`] — the differential test harness runs
/// the same seeded scenarios on both and asserts bit-identical
/// fingerprints.
pub struct Fleet<W: SimWorld = World> {
    /// The underlying world (public for inspection in tests).
    pub world: W,
    /// All Thing handles, in creation order.
    pub things: Vec<ThingId>,
    /// All client handles.
    pub clients: Vec<ClientId>,
    /// All edge-cache handles (empty unless [`FleetConfig::caches`] > 0).
    pub caches: Vec<CacheId>,
    pub(crate) config: FleetConfig,
    /// Scenario-level randomness, forked off the world seed.
    pub(crate) rng: SimRng,
    /// Shadow of channel-0 occupancy per Thing, used when scheduling
    /// churn so plug/unplug alternate consistently.
    pub(crate) occupancy: Vec<Option<DeviceTypeId>>,
}

/// A fleet running on the thread-parallel sharded simulator.
pub type ShardedFleet = Fleet<ShardedWorld>;

impl Fleet<World> {
    /// Builds the world: manager, Things, clients, topology, routing
    /// tree.
    pub fn build(config: FleetConfig) -> Fleet {
        let world_config = Self::world_config(&config);
        Fleet::build_in(World::new(world_config), config)
    }
}

impl Fleet<ShardedWorld> {
    /// Builds the same fleet as [`Fleet::build`], partitioned across
    /// `shards` worker threads along DODAG subtree boundaries.
    pub fn build_sharded(config: FleetConfig, shards: usize) -> ShardedFleet {
        let world_config = Fleet::<ShardedWorld>::world_config(&config);
        Fleet::build_in(ShardedWorld::new(world_config, shards), config)
    }
}

impl<W: SimWorld> Fleet<W> {
    /// The world configuration a fleet of this shape wants.
    fn world_config(config: &FleetConfig) -> WorldConfig {
        WorldConfig {
            seed: config.seed,
            expected_nodes: 1
                + usize::from(config.standby)
                + config.caches
                + config.things
                + config.clients,
            ..WorldConfig::default()
        }
    }

    /// Assembles manager, Things, clients, topology and routing tree in
    /// the supplied (empty) world.
    pub fn build_in(mut world: W, config: FleetConfig) -> Fleet<W> {
        assert!(config.things > 0, "a fleet needs at least one Thing");
        assert!(
            !config.device_pool.is_empty(),
            "a fleet needs at least one peripheral type"
        );
        let manager = world.add_manager();
        // The standby must be node 1 — right after the manager, before
        // every cache — so its NodeId wins the anycast tiebreak at equal
        // root distance in every shard alike (takeover determinism).
        if config.standby {
            let sb = world.add_standby();
            world.link(manager, sb, LinkQuality::PERFECT);
        }
        let caches: Vec<CacheId> = (0..config.caches).map(|_| world.add_cache()).collect();
        let things: Vec<ThingId> = (0..config.things).map(|_| world.add_thing()).collect();
        let clients: Vec<ClientId> = (0..config.clients).map(|_| world.add_client()).collect();

        let quality = LinkQuality::new(config.link_prr);
        // Subtree heads below the border router: the edge caches when
        // the distribution tier is present (each one a DODAG-interior
        // router heading every k-th Thing — a natural shard boundary, so
        // the sharded simulator keeps every cache with its requesters),
        // or the manager itself in the paper's cacheless shape. Things
        // are spread round-robin across the heads, and each head's
        // subtree takes the requested shape: a star under the head, or a
        // fanout-ary heap rooted at it.
        let heads: Vec<NodeId> = if caches.is_empty() {
            vec![manager]
        } else {
            caches.iter().map(|&c| world.cache_node(c)).collect()
        };
        for &h in &heads {
            if h != manager {
                world.link(manager, h, quality);
            }
        }
        let k = heads.len();
        for (c, &head) in heads.iter().enumerate() {
            let group: Vec<usize> = (c..things.len()).step_by(k).collect();
            match config.topology {
                FleetTopology::Star => {
                    for &i in &group {
                        world.link(head, world.thing_node(things[i]), quality);
                    }
                }
                FleetTopology::Tree { fanout } => {
                    assert!(fanout >= 1, "tree fanout must be at least 1");
                    // Heap layout over [head, member 0, member 1, …]: the
                    // parent of overall position p is (p - 1) / fanout.
                    for (j, &i) in group.iter().enumerate() {
                        let parent_pos = j / fanout;
                        let parent = if parent_pos == 0 {
                            head
                        } else {
                            world.thing_node(things[group[parent_pos - 1]])
                        };
                        world.link(parent, world.thing_node(things[i]), quality);
                    }
                }
            }
        }
        // Clients sit next to the border router in both shapes.
        for &c in &clients {
            let node = world.client_node(c);
            world.link(manager, node, quality);
        }
        world.build_tree(manager);

        let mut seed_rng = SimRng::seed(config.seed ^ 0xf1ee7);
        let rng = seed_rng.fork(config.things as u64);
        Fleet {
            world,
            things,
            clients,
            caches,
            occupancy: vec![None; config.things],
            config,
            rng,
        }
    }

    /// The device assigned to Thing `i` by the round-robin pool.
    pub fn assigned_device(&self, i: usize) -> DeviceTypeId {
        self.config.device_pool[i % self.config.device_pool.len()]
    }

    /// Staggered discovery wave: every Thing gets its pool peripheral
    /// plugged, arrivals spaced by the configured stagger; the run ends
    /// when every driver is fetched, installed and advertised.
    ///
    /// Latency samples are the per-Thing plug-to-advertised totals
    /// (the paper's §8 number, here at fleet scale).
    pub fn discovery_wave(&mut self) -> ScenarioMetrics {
        let mut probe = self.start_scenario();
        let base = self.world.now();
        for i in 0..self.things.len() {
            let at = base + self.config.stagger.saturating_mul(i as u64);
            let device = self.assigned_device(i);
            self.world.plug_at(at, self.things[i], 0, device);
            self.occupancy[i] = Some(device);
        }
        self.world.run_until_idle();

        let (completed, latencies) = self.wave_outcomes();
        self.finish_scenario(
            &mut probe,
            "discovery",
            self.things.len(),
            completed,
            latencies,
        )
    }

    /// Flash crowd: every Thing cold-plugs its pool peripheral at the
    /// *same* virtual instant — the worst case for driver distribution,
    /// and the scenario the edge-cache tier exists for. With `k` caches
    /// the tier absorbs the wave: each cache fetches one image per
    /// distinct device type behind it (singleflight) and serves everyone
    /// else from the in-flight entry or the LRU, so the origin sees at
    /// most `k × |device pool|` fetch sessions instead of N uploads.
    pub fn flash_crowd(&mut self) -> ScenarioMetrics {
        let mut probe = self.start_scenario();
        let base = self.world.now();
        for i in 0..self.things.len() {
            let device = self.assigned_device(i);
            self.world.plug_at(base, self.things[i], 0, device);
            self.occupancy[i] = Some(device);
        }
        self.world.run_until_idle();

        let (completed, latencies) = self.wave_outcomes();
        self.finish_scenario(&mut probe, "flash", self.things.len(), completed, latencies)
    }

    /// Per-Thing outcome of a plug wave: how many Things ended up served
    /// by their pool driver, and the plug-to-advertised latency samples.
    fn wave_outcomes(&self) -> (usize, Vec<SimDuration>) {
        let mut latencies = Vec::with_capacity(self.things.len());
        let mut completed = 0;
        for (i, &t) in self.things.iter().enumerate() {
            let device = self.assigned_device(i);
            let thing = self.world.thing(t);
            if thing.serves(device.raw()) {
                completed += 1;
            }
            if let Some(total) = thing.timelines.get(device.raw()).and_then(|tl| tl.total()) {
                latencies.push(total);
            }
        }
        (completed, latencies)
    }

    /// Churn storm: `events` staggered plug/unplug operations against
    /// random Things (alternating per Thing), exercising driver cache
    /// hits, group leave/join and advertisement traffic.
    pub fn churn_storm(&mut self, events: usize) -> ScenarioMetrics {
        let mut probe = self.start_scenario();
        let base = self.world.now();
        let mut latencies = Vec::new();
        for e in 0..events {
            let at = base + self.config.stagger.saturating_mul(e as u64);
            let i = self.rng.index(self.things.len());
            let t = self.things[i];
            match self.occupancy[i] {
                Some(_) => {
                    self.world.unplug_at(at, t, 0);
                    self.occupancy[i] = None;
                }
                None => {
                    let device = self.assigned_device(i);
                    self.world.plug_at(at, t, 0, device);
                    self.occupancy[i] = Some(device);
                }
            }
        }
        self.world.run_until_idle();
        // Latency samples: plug pipelines that completed during the storm
        // (timelines surviving from earlier waves are excluded by their
        // finish stamp).
        for (i, &t) in self.things.iter().enumerate() {
            let device = self.assigned_device(i);
            if let Some(tl) = self.world.thing(t).timelines.get(device.raw()) {
                if tl.finished.is_some_and(|f| f >= base) {
                    if let Some(total) = tl.total() {
                        latencies.push(total);
                    }
                }
            }
        }
        // Completion: the fleet's final driver state must agree with the
        // scheduled plug/unplug sequence. On lossy links a dropped
        // upload leaves a Thing without its driver; each such mismatch
        // counts one event as incomplete.
        let mismatches = (0..self.things.len())
            .filter(|&i| {
                let served = self
                    .world
                    .thing(self.things[i])
                    .serves(self.assigned_device(i).raw());
                served != self.occupancy[i].is_some()
            })
            .count();
        let completed = events.saturating_sub(mismatches);
        self.finish_scenario(&mut probe, "churn", events, completed, latencies)
    }

    /// Steady-state workload: `reads` staggered client reads against
    /// random (already plugged) Things, plus one streaming session per
    /// client. Call after [`Fleet::discovery_wave`].
    pub fn steady_state(&mut self, reads: usize) -> ScenarioMetrics {
        assert!(
            self.occupancy.iter().any(Option::is_some),
            "steady_state needs plugged Things (run discovery_wave first)"
        );
        let mut probe = self.start_scenario();
        let base = self.world.now();
        // Read targets: plugged Things whose peripheral answers a read
        // unprompted. The ID-20LA RFID reader only returns data once a
        // card is presented, so reads against it would dangle and skew
        // the request/reply latency matching below.
        let plugged: Vec<usize> = (0..self.things.len())
            .filter(|&i| {
                self.occupancy[i].is_some_and(|device| {
                    self.world
                        .catalog()
                        .get(device)
                        .is_some_and(|e| e.interconnect != Interconnect::Uart)
                })
            })
            .collect();
        assert!(
            !plugged.is_empty(),
            "steady_state needs at least one plugged non-UART peripheral \
             (the device pool is all RFID readers?)"
        );

        let read_counts_before: Vec<usize> = self
            .clients
            .iter()
            .map(|&c| self.world.client(c).readings.len())
            .collect();
        let closed_streams_before: usize = self
            .clients
            .iter()
            .map(|&c| self.world.client(c).closed_streams.len())
            .sum();

        let mut expected = Vec::with_capacity(reads);
        for e in 0..reads {
            let at = base + self.config.stagger.saturating_mul(e as u64);
            let i = plugged[self.rng.index(plugged.len())];
            let c = self.clients[self.rng.index(self.clients.len())];
            let device = self.occupancy[i].expect("picked from plugged set");
            let thing_addr = self.world.thing_addr(self.things[i]);
            let dgram = self.world.client_request_read(c, thing_addr, device.raw());
            let node = self.world.client_node(c);
            self.world.inject(at, node, dgram);
            expected.push((c, at));
        }
        // One streaming session per client against a random plugged Thing.
        let streams = self.clients.len().min(plugged.len());
        for s in 0..streams {
            let at = base + self.config.stagger.saturating_mul((reads + s) as u64);
            let i = plugged[self.rng.index(plugged.len())];
            let c = self.clients[s];
            let device = self.occupancy[i].expect("picked from plugged set");
            let thing_addr = self.world.thing_addr(self.things[i]);
            let dgram = self
                .world
                .client_request_stream(c, thing_addr, device.raw());
            let node = self.world.client_node(c);
            self.world.inject(at, node, dgram);
        }
        self.world.run_until_idle();

        // Latency: request injection → reply arrival, matched per client
        // in issue order (replies to one client arrive in issue order on
        // perfect links; on lossy links unmatched requests count as
        // incomplete rather than mismatched).
        let mut latencies = Vec::with_capacity(reads);
        let mut cursors = read_counts_before;
        let mut completed = 0;
        for (c, sent_at) in expected {
            let idx = self.clients.iter().position(|&x| x == c).expect("known");
            let readings = &self.world.client(c).readings;
            if let Some((_, _, at)) = readings.get(cursors[idx]) {
                latencies.push(at.saturating_since(sent_at));
                cursors[idx] += 1;
                completed += 1;
            }
        }
        // A stream session completes when the Thing closes it and the
        // client hears the close. Closes are multicast to the stream
        // group, so clients sharing a group each hear every close —
        // cap at the number of sessions actually opened.
        let closed_streams_after: usize = self
            .clients
            .iter()
            .map(|&c| self.world.client(c).closed_streams.len())
            .sum();
        completed += (closed_streams_after - closed_streams_before).min(streams);
        self.finish_scenario(&mut probe, "steady", reads + streams, completed, latencies)
    }

    /// A stable digest of the fleet's observable virtual state — virtual
    /// clock, traffic counters, per-Thing drivers and timelines, client
    /// observations. Two runs with the same seed must produce identical
    /// fingerprints; wall-clock never participates.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.world.now().as_nanos());
        let stats = self.world.net_stats();
        h.write_u64(stats.frames_tx);
        h.write_u64(stats.bytes_tx);
        h.write_u64(stats.drops);
        for &t in &self.things {
            let thing = self.world.thing(t);
            let mut served = thing.served_peripherals();
            served.sort_unstable();
            for p in served {
                h.write_u64(p as u64);
            }
            for (p, tl) in thing.timelines.iter() {
                h.write_u64(p as u64);
                h.write_u64(tl.finished.map_or(u64::MAX, |t| t.as_nanos()));
            }
            h.write_u64(self.world.radio_energy_j(thing.node).to_bits());
        }
        for &c in &self.clients {
            let client = self.world.client(c);
            h.write_u64(client.discovered.len() as u64);
            h.write_u64(client.readings.len() as u64);
            h.write_u64(client.stream_data.len() as u64);
            for (p, _, at) in &client.readings {
                h.write_u64(*p as u64);
                h.write_u64(at.as_nanos());
            }
        }
        h.finish()
    }

    pub(crate) fn start_scenario(&self) -> ScenarioProbe {
        ScenarioProbe {
            wall: Instant::now(),
            virtual_start: self.world.now(),
            stats: self.world.net_stats(),
            payload: upnp_net::msg::payload_stats(),
            joules: self.total_thing_joules(),
            distro: self.world.distro_stats(),
        }
    }

    pub(crate) fn finish_scenario(
        &self,
        probe: &mut ScenarioProbe,
        scenario: &str,
        events: usize,
        completed: usize,
        latencies: Vec<SimDuration>,
    ) -> ScenarioMetrics {
        let wall_ms = probe.wall.elapsed().as_secs_f64() * 1e3;
        let stats = self.world.net_stats();
        let payload = upnp_net::msg::payload_stats();
        let joules = self.total_thing_joules() - probe.joules;
        let distro = self.world.distro_stats();
        ScenarioMetrics {
            scenario: scenario.to_string(),
            nodes: self.world.node_count(),
            events,
            completed,
            virtual_ms: self
                .world
                .now()
                .saturating_since(probe.virtual_start)
                .as_millis_f64(),
            wall_ms,
            events_per_wall_s: if wall_ms > 0.0 {
                events as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            latency: LatencyStats::from_durations(latencies),
            frames_tx: stats.frames_tx - probe.stats.frames_tx,
            bytes_tx: stats.bytes_tx - probe.stats.bytes_tx,
            drops: stats.drops - probe.stats.drops,
            joules_per_thing: joules / self.things.len() as f64,
            payload_allocs: payload.allocs - probe.payload.allocs,
            payload_clones: payload.clones - probe.payload.clones,
            cache_hits: distro.cache_hits - probe.distro.cache_hits,
            cache_misses: distro.cache_misses - probe.distro.cache_misses,
            cache_coalesced: distro.cache_coalesced - probe.distro.cache_coalesced,
            cache_uploads: distro.cache_uploads - probe.distro.cache_uploads,
            origin_uploads: distro.origin_uploads - probe.distro.origin_uploads,
            mgr_inventory: distro.mgr_inventory,
            mgr_removal_acks: distro.mgr_removal_acks - probe.distro.mgr_removal_acks,
        }
    }

    fn total_thing_joules(&self) -> f64 {
        self.things
            .iter()
            .map(|&t| self.world.radio_energy_j(self.world.thing_node(t)))
            .sum()
    }
}

pub(crate) struct ScenarioProbe {
    wall: Instant,
    virtual_start: SimTime,
    stats: upnp_net::network::NetStats,
    payload: upnp_net::msg::PayloadStats,
    joules: f64,
    distro: DistroStats,
}

/// FNV-1a, 64-bit — a dependency-free stable hash for fingerprints
/// (std's `DefaultHasher` is explicitly not stable across releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_wave_completes() {
        let mut fleet = Fleet::build(FleetConfig::new(8));
        let m = fleet.discovery_wave();
        assert_eq!(m.events, 8);
        assert_eq!(m.completed, 8);
        assert_eq!(m.latency.samples, 8);
        assert!(m.latency.p50_ms > 0.0);
        assert!(m.frames_tx > 0);
    }

    #[test]
    fn tree_topology_routes_multihop() {
        let config = FleetConfig::new(12).with_topology(FleetTopology::Tree { fanout: 2 });
        let mut fleet = Fleet::build(config);
        let m = fleet.discovery_wave();
        assert_eq!(m.completed, 12);
        // Deeper Things forward through intermediates: strictly more
        // frames than one perfect-link hop per leg would need.
        assert!(m.frames_tx > 12 * 4);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let run = |seed| {
            let mut fleet = Fleet::build(FleetConfig::new(16).with_seed(seed));
            fleet.discovery_wave();
            fleet.steady_state(24);
            fleet.fingerprint()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds must diverge");
    }

    #[test]
    fn churn_alternates_plug_unplug() {
        let mut fleet = Fleet::build(FleetConfig::new(6));
        fleet.discovery_wave();
        let m = fleet.churn_storm(30);
        assert_eq!(m.events, 30);
        assert!(m.frames_tx > 0);
    }

    #[test]
    fn flash_crowd_through_caches_coalesces_origin_fetches() {
        let things = 64;
        let caches = 4;
        let mut fleet = Fleet::build(FleetConfig::new(things).with_caches(caches));
        let m = fleet.flash_crowd();
        assert_eq!(m.completed, things, "every Thing must end up served");
        // Every upload came from a cache — the anycast always resolves to
        // the interior router above the Thing, never the origin.
        assert_eq!(m.cache_uploads, things as u64);
        assert_eq!(
            m.cache_hits + m.cache_misses + m.cache_coalesced,
            things as u64,
            "every request classified exactly once"
        );
        // Coalescing: the origin serves at most one fetch session per
        // (cache, distinct device type) pair.
        let mut types: Vec<u32> = (0..things)
            .map(|i| fleet.assigned_device(i).raw())
            .collect();
        types.sort_unstable();
        types.dedup();
        let bound = (caches * types.len()) as u64;
        assert!(
            m.origin_uploads <= bound,
            "origin saw {} fetch sessions, coalescing bound is {bound}",
            m.origin_uploads
        );
        assert_eq!(
            m.cache_misses, m.origin_uploads,
            "one origin fetch session per cold miss"
        );
    }

    #[test]
    fn cache_tier_cuts_origin_load_ten_fold() {
        // The ISSUE 5 acceptance shape at test scale: ≥ 90 % of uploads
        // served by caches, origin load down ≥ 10× versus cacheless.
        let things = 500;
        let mut cached = Fleet::build(FleetConfig::new(things).with_caches(8));
        let with = cached.flash_crowd();
        let mut single_origin = Fleet::build(FleetConfig::new(things));
        let without = single_origin.flash_crowd();
        assert_eq!(with.completed, things);
        assert_eq!(without.completed, things);
        assert_eq!(without.origin_uploads, things as u64);
        assert!(
            with.origin_uploads * 10 <= without.origin_uploads,
            "origin load must drop >= 10x: {} vs {}",
            with.origin_uploads,
            without.origin_uploads
        );
        let served = with.cache_uploads as f64 / (with.cache_uploads + with.origin_uploads) as f64;
        assert!(served >= 0.9, "cache-served ratio {served:.3} < 0.9");
    }

    #[test]
    fn flash_crowd_leaves_caches_warm() {
        let mut fleet = Fleet::build(FleetConfig::new(24).with_caches(2));
        let first = fleet.flash_crowd();
        assert!(first.cache_misses > 0);
        // Every cold miss left an image behind in some cache's LRU, ready
        // to serve the next wave as pure hits.
        let cached: usize = fleet
            .caches
            .iter()
            .map(|&c| fleet.world.cache(c).len())
            .sum();
        assert_eq!(cached as u64, first.cache_misses);
        assert!(fleet
            .caches
            .iter()
            .all(|&c| !fleet.world.cache(c).is_empty()));
    }

    #[test]
    fn flash_crowd_on_tree_under_caches_completes() {
        let config = FleetConfig::new(60)
            .with_caches(3)
            .with_topology(FleetTopology::Tree { fanout: 4 });
        let mut fleet = Fleet::build(config);
        let m = fleet.flash_crowd();
        assert_eq!(m.completed, 60);
        assert_eq!(m.cache_uploads, 60);
    }

    #[test]
    fn unplug_racing_driver_upload_leaves_no_driver() {
        // Plug-to-advertised takes hundreds of virtual milliseconds; an
        // unplug a few milliseconds after the plug therefore races the
        // in-flight driver upload. The upload must not activate a driver
        // for the now-absent peripheral.
        let mut fleet = Fleet::build(FleetConfig::new(2));
        let t = fleet.things[0];
        let device = fleet.assigned_device(0);
        let base = fleet.world.now();
        fleet
            .world
            .plug_at(base + SimDuration::from_millis(1), t, 0, device);
        fleet
            .world
            .unplug_at(base + SimDuration::from_millis(5), t, 0);
        fleet.world.run_until_idle();
        assert!(
            fleet.world.thing(t).served_peripherals().is_empty(),
            "a cancelled plug must not leave a driver serving an absent peripheral"
        );
    }

    #[test]
    fn payload_counts_ignore_threads_outside_the_scenario() {
        // A thread that is not the scenario's (a concurrently running
        // test, say) makes payloads and exits inside the probe window:
        // its counts must not land in the scenario's.
        let fleet = Fleet::build(FleetConfig::new(2));
        let mut probe = fleet.start_scenario();
        std::thread::spawn(|| {
            let p = upnp_net::msg::Payload::new(vec![1, 2, 3]);
            drop(p.clone());
        })
        .join()
        .expect("bystander thread");
        let m = fleet.finish_scenario(&mut probe, "idle", 0, 0, Vec::new());
        assert_eq!((m.payload_allocs, m.payload_clones), (0, 0));
    }

    #[test]
    fn churn_storm_with_inflight_uploads_stays_consistent() {
        // A fresh fleet (no discovery wave, so driver caches are cold)
        // churned at 1 ms stagger: every plug starts a driver round-trip
        // that the next unplug of the same Thing may race. The final
        // driver state must still agree with the scheduled sequence.
        let mut config = FleetConfig::new(12);
        config.stagger = SimDuration::from_millis(1);
        let mut fleet = Fleet::build(config);
        let m = fleet.churn_storm(80);
        assert_eq!(
            m.completed, m.events,
            "racing unplugs must cancel in-flight driver uploads"
        );
    }
}
