//! Differential harness: the thread-parallel [`ShardedWorld`] must be
//! indistinguishable from the sequential [`World`] — bit-identical
//! fingerprints and virtual metrics — at K = 1 and at every other shard
//! count, on star and tree topologies (ISSUE 4's equivalence bar).
//!
//! Wall-clock and throughput fields are excluded (they measure the host,
//! not the simulation). Payload counters are also excluded *here*: they
//! are process-global and other tests allocate payloads concurrently;
//! the single-process `fleet` benchmark asserts their equality instead.

use std::collections::BTreeMap;

use upnp_core::fleet::{Fleet, FleetConfig, FleetTopology, ScenarioMetrics, ShardedFleet};
use upnp_core::world::SimWorld;
use upnp_sim::SimDuration;

/// Everything deterministic about a scenario outcome (shared with the
/// determinism suite via the product API, so a new metric column is
/// covered by both).
fn virtual_summary(m: &ScenarioMetrics) -> String {
    m.deterministic_summary()
}

fn config(things: usize, topology: FleetTopology) -> FleetConfig {
    FleetConfig::new(things)
        .with_seed(0x6030)
        .with_topology(topology)
}

/// Runs the full scenario suite (discovery wave, churn storm, steady
/// state) on any backend and returns `(fingerprint, deterministic
/// summary)` — one body for both simulators, so the comparison cannot
/// drift.
fn run_suite<W: SimWorld>(mut fleet: Fleet<W>, things: usize) -> (u64, String) {
    run_suite_in_place(&mut fleet, things)
}

fn run_suite_in_place<W: SimWorld>(fleet: &mut Fleet<W>, things: usize) -> (u64, String) {
    let d = fleet.discovery_wave();
    let c = fleet.churn_storm(things / 4);
    let s = fleet.steady_state(things / 4);
    let summary = format!(
        "{}\n{}\n{}",
        virtual_summary(&d),
        virtual_summary(&c),
        virtual_summary(&s)
    );
    (fleet.fingerprint(), summary)
}

fn run_sequential(things: usize, topology: FleetTopology) -> (u64, String) {
    run_suite(Fleet::build(config(things, topology)), things)
}

fn run_sharded(things: usize, topology: FleetTopology, shards: usize) -> (u64, String) {
    run_suite(
        ShardedFleet::build_sharded(config(things, topology), shards),
        things,
    )
}

fn assert_equivalent(things: usize, topology: FleetTopology, shard_counts: &[usize]) {
    let (seq_fp, seq_summary) = run_sequential(things, topology);
    for &k in shard_counts {
        let (fp, summary) = run_sharded(things, topology, k);
        assert_eq!(
            seq_summary, summary,
            "virtual metrics diverged at {things} things, {topology:?}, K={k}"
        );
        assert_eq!(
            seq_fp, fp,
            "fingerprint diverged at {things} things, {topology:?}, K={k}"
        );
    }
}

/// Every client's full observation log after the suite, element for
/// element (the keyed stream-group map in key order).
fn client_logs<W: SimWorld>(fleet: &Fleet<W>) -> Vec<String> {
    fleet
        .clients
        .iter()
        .map(|&c| {
            let client = fleet.world.client(c);
            let groups: BTreeMap<_, _> = client.stream_groups.iter().collect();
            format!(
                "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{groups:?}",
                client.discovered,
                client.readings,
                client.stream_data,
                client.closed_streams,
                client.write_acks,
            )
        })
        .collect()
}

#[test]
fn master_client_logs_match_the_sequential_world() {
    // The master clients receive each replica's observations by move
    // after every round; the merged logs must be the sequential
    // world's logs in the same order, not merely the same counts the
    // fingerprint hashes.
    for topology in [FleetTopology::Star, FleetTopology::Tree { fanout: 4 }] {
        let mut seq = Fleet::build(config(400, topology));
        run_suite_in_place(&mut seq, 400);
        let want = client_logs(&seq);
        assert!(want.iter().all(|l| l.len() > 100), "the suite observed");
        for k in [1, 2, 4] {
            let mut sharded = ShardedFleet::build_sharded(config(400, topology), k);
            run_suite_in_place(&mut sharded, 400);
            assert_eq!(
                client_logs(&sharded),
                want,
                "master client logs diverged, {topology:?}, K={k}"
            );
        }
    }
}

#[test]
fn star_500_matches_at_every_shard_count() {
    assert_equivalent(500, FleetTopology::Star, &[1, 2, 4, 8]);
}

#[test]
fn tree_500_matches_at_every_shard_count() {
    assert_equivalent(500, FleetTopology::Tree { fanout: 8 }, &[1, 2, 4, 8]);
}

#[test]
fn star_2k_matches_at_every_shard_count() {
    assert_equivalent(2000, FleetTopology::Star, &[1, 2, 4, 8]);
}

#[test]
fn tree_2k_matches_at_every_shard_count() {
    assert_equivalent(2000, FleetTopology::Tree { fanout: 8 }, &[1, 2, 4, 8]);
}

#[test]
fn lossy_star_matches_at_every_shard_count() {
    // Imperfect links exercise the radio-loss paths: per-(link, time)
    // keyed draws, multicast uplink failures (whose drops must be
    // accounted for remote-shard members via the lost-frame exchange)
    // and incomplete scenario events. Equality must still be bitwise.
    let mut config = config(120, FleetTopology::Star);
    config.link_prr = 0.35;
    let (seq_fp, seq_summary) = {
        let mut fleet = Fleet::build(config.clone());
        let d = fleet.discovery_wave();
        let s = fleet.steady_state(30);
        (
            fleet.fingerprint(),
            format!("{}\n{}", virtual_summary(&d), virtual_summary(&s)),
        )
    };
    for k in [1, 2, 4] {
        let mut fleet = ShardedFleet::build_sharded(config.clone(), k);
        let d = fleet.discovery_wave();
        let s = fleet.steady_state(30);
        let summary = format!("{}\n{}", virtual_summary(&d), virtual_summary(&s));
        assert_eq!(
            seq_summary, summary,
            "lossy virtual metrics diverged at K={k}"
        );
        assert_eq!(
            seq_fp,
            fleet.fingerprint(),
            "lossy fingerprint diverged at K={k}"
        );
    }
}

#[test]
fn lossy_tree_matches_at_every_shard_count() {
    let mut config = config(120, FleetTopology::Tree { fanout: 6 });
    config.link_prr = 0.5;
    let (seq_fp, seq_summary) = {
        let mut fleet = Fleet::build(config.clone());
        let d = fleet.discovery_wave();
        (fleet.fingerprint(), virtual_summary(&d))
    };
    for k in [1, 2, 4] {
        let mut fleet = ShardedFleet::build_sharded(config.clone(), k);
        let d = fleet.discovery_wave();
        assert_eq!(seq_summary, virtual_summary(&d), "K={k}");
        assert_eq!(seq_fp, fleet.fingerprint(), "K={k}");
    }
}

// ---- Driver-distribution tier (ISSUE 5: every distro scenario must be
// bit-identical sequential vs sharded) ----------------------------------

#[test]
fn flash_crowd_through_caches_matches_at_every_shard_count() {
    // Each edge cache heads a DODAG subtree, so the subtree partition
    // keeps every cache with its requesters: hit/miss/coalescing
    // classification, chunk traffic and upload timing must all decompose
    // exactly.
    let config = FleetConfig::new(500).with_seed(0x6030).with_caches(8);
    let (seq_fp, seq_summary) = {
        let mut fleet = Fleet::build(config.clone());
        let m = fleet.flash_crowd();
        (fleet.fingerprint(), virtual_summary(&m))
    };
    for k in [1, 2, 4, 8] {
        let mut fleet = ShardedFleet::build_sharded(config.clone(), k);
        let m = fleet.flash_crowd();
        assert_eq!(seq_summary, virtual_summary(&m), "K={k}");
        assert_eq!(seq_fp, fleet.fingerprint(), "K={k}");
    }
}

#[test]
fn cached_tree_full_suite_matches_at_every_shard_count() {
    // Caches under a fanout tree, full scenario suite on top: discovery
    // re-uses warm caches, churn races in-flight fetches, steady state
    // runs reads through the cache-headed subtrees.
    let config = FleetConfig::new(240)
        .with_seed(0x6030)
        .with_topology(FleetTopology::Tree { fanout: 5 })
        .with_caches(4);
    let (seq_fp, seq_summary) = run_suite(Fleet::build(config.clone()), 240);
    for k in [1, 2, 4] {
        let (fp, summary) = run_suite(ShardedFleet::build_sharded(config.clone(), k), 240);
        assert_eq!(seq_summary, summary, "K={k}");
        assert_eq!(seq_fp, fp, "K={k}");
    }
}

#[test]
fn lossy_flash_crowd_with_caches_matches_at_every_shard_count() {
    // Lossy links exercise the per-chunk recovery path: lost chunk
    // requests/replies, retry timers and abandoned fetches must all
    // decompose across shards (every leg of a cache's traffic stays
    // inside its own subtree + the replicated origin).
    let mut config = FleetConfig::new(120).with_seed(0x6030).with_caches(4);
    config.link_prr = 0.5;
    let (seq_fp, seq_summary) = {
        let mut fleet = Fleet::build(config.clone());
        let m = fleet.flash_crowd();
        (fleet.fingerprint(), virtual_summary(&m))
    };
    for k in [1, 2, 4] {
        let mut fleet = ShardedFleet::build_sharded(config.clone(), k);
        let m = fleet.flash_crowd();
        assert_eq!(seq_summary, virtual_summary(&m), "lossy K={k}");
        assert_eq!(seq_fp, fleet.fingerprint(), "lossy K={k}");
    }
}

#[test]
fn sharded_runs_are_reproducible() {
    let run = || run_sharded(200, FleetTopology::Star, 4).0;
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_diverge_under_sharding() {
    let run = |seed: u64| {
        let mut fleet = ShardedFleet::build_sharded(FleetConfig::new(100).with_seed(seed), 4);
        fleet.discovery_wave();
        fleet.fingerprint()
    };
    assert_ne!(run(1), run(2));
}

// ---- Churn-race regressions under sharding (PR 3's awaiting_driver
// cancellation fix must not be single-thread-only) ----------------------

#[test]
fn sharded_unplug_racing_driver_upload_leaves_no_driver() {
    // Plug-to-advertised takes hundreds of virtual milliseconds; an
    // unplug a few milliseconds after the plug races the in-flight
    // driver upload — on whichever shard thread owns the Thing.
    let mut fleet = ShardedFleet::build_sharded(FleetConfig::new(8), 4);
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
fn sharded_churn_storm_with_inflight_uploads_stays_consistent() {
    // A cold fleet churned at 1 ms stagger: every plug starts a driver
    // round-trip that the next unplug of the same Thing may race, now
    // with the races spread across four shard threads.
    let mut config = FleetConfig::new(12);
    config.stagger = SimDuration::from_millis(1);
    let mut fleet = ShardedFleet::build_sharded(config, 4);
    let m = fleet.churn_storm(80);
    assert_eq!(
        m.completed, m.events,
        "racing unplugs must cancel in-flight driver uploads"
    );
}

#[test]
fn sharded_churn_matches_sequential_under_racing_stagger() {
    // The same racing schedule must also produce identical fingerprints,
    // not merely consistent final state.
    let build_config = || {
        let mut c = FleetConfig::new(24);
        c.stagger = SimDuration::from_millis(1);
        c
    };
    let mut seq = Fleet::build(build_config());
    let seq_m = seq.churn_storm(120);
    for k in [1, 2, 4] {
        let mut sharded = ShardedFleet::build_sharded(build_config(), k);
        let m = sharded.churn_storm(120);
        assert_eq!(virtual_summary(&seq_m), virtual_summary(&m), "K={k}");
        assert_eq!(seq.fingerprint(), sharded.fingerprint(), "K={k}");
    }
}

#[test]
fn lossy_cross_shard_probes_account_drops_identically() {
    // Typed discovery probes on lossy links hit the one path where a
    // shard cannot see the whole failure: a multicast uplink that dies
    // before the root must charge drops for *every* group member,
    // including the ones simulated in other shards (exchanged as lost
    // rooted frames). Inject a burst of probes and require the stats
    // and fingerprints to stay bitwise equal.
    let mut config = config(60, FleetTopology::Star);
    config.link_prr = 0.5;
    let run = |world: &mut dyn SimWorld, clients: &[upnp_core::world::ClientId], device: u32| {
        let base = world.now();
        let group = upnp_net::addr::peripheral_group(0x2001_0db8_0000, device);
        for i in 0..20u64 {
            let c = clients[i as usize % clients.len()];
            let node = world.client_node(c);
            let addr = world.client(c).address;
            let dgram = upnp_net::Datagram {
                src: addr,
                dst: group,
                src_port: upnp_net::addr::MCAST_PORT,
                dst_port: upnp_net::addr::MCAST_PORT,
                payload: upnp_net::msg::Message {
                    seq: 0x6100 + i as u16,
                    body: upnp_net::msg::MessageBody::Discovery(Vec::new()),
                }
                .encode()
                .into(),
            };
            world.inject(base + SimDuration::from_millis(10 * (i + 1)), node, dgram);
        }
        world.run_until_idle();
    };

    let mut seq = Fleet::build(config.clone());
    seq.discovery_wave();
    let device = seq.assigned_device(0).raw();
    run(&mut seq.world, &seq.clients, device);
    let seq_stats = {
        use upnp_core::world::SimWorld as _;
        seq.world.net_stats()
    };

    for k in [2, 4] {
        let mut sharded = ShardedFleet::build_sharded(config.clone(), k);
        sharded.discovery_wave();
        run(&mut sharded.world, &sharded.clients, device);
        assert_eq!(
            seq_stats,
            sharded.world.net_stats(),
            "drops/frames diverged at K={k}"
        );
        assert_eq!(seq.fingerprint(), sharded.fingerprint(), "K={k}");
    }
}

// ---- Chaos soak (ISSUE 6: day-scale fault injection must decompose
// bit-identically — crashes, partitions, failover, battery churn) --------

use upnp_core::chaos::ChaosConfig;

fn chaos_config(things: usize, topology: FleetTopology) -> FleetConfig {
    FleetConfig::new(things)
        .with_seed(0x6030)
        .with_topology(topology)
        .with_caches(4)
        .with_standby()
}

/// Runs the smoke soak on any backend and returns `(fingerprint, soak
/// summary)` — one body for both simulators.
fn run_soak<W: SimWorld>(mut fleet: Fleet<W>, seed: u64) -> (u64, String) {
    let report = fleet.chaos_soak(&ChaosConfig::smoke(seed));
    assert!(
        report.invariants_held(),
        "soak invariants violated: {report:?}"
    );
    (fleet.fingerprint(), report.deterministic_summary())
}

#[test]
fn chaos_soak_matches_at_every_shard_count() {
    // Cache crashes mid-chunk-transfer, root↔cache partitions, primary
    // failover to the standby and battery churn — the whole fault
    // schedule replayed on both backends must leave bit-identical
    // worlds: same faults land in the same shard-local subtrees, same
    // followers drain, same repairs run.
    let config = chaos_config(96, FleetTopology::Star);
    let (seq_fp, seq_summary) = run_soak(Fleet::build(config.clone()), 0xdead);
    for k in [1, 2, 4, 8] {
        let (fp, summary) = run_soak(ShardedFleet::build_sharded(config.clone(), k), 0xdead);
        assert_eq!(seq_summary, summary, "soak summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "soak fingerprint diverged at K={k}");
    }
}

#[test]
fn chaos_soak_on_tree_matches_at_every_shard_count() {
    let config = chaos_config(72, FleetTopology::Tree { fanout: 4 });
    let (seq_fp, seq_summary) = run_soak(Fleet::build(config.clone()), 0xbeef);
    for k in [2, 4] {
        let (fp, summary) = run_soak(ShardedFleet::build_sharded(config.clone(), k), 0xbeef);
        assert_eq!(seq_summary, summary, "tree soak summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "tree soak fingerprint diverged at K={k}");
    }
}

#[test]
fn lossy_chaos_soak_matches_at_every_shard_count() {
    // Faults on top of lossy links: dropped chunks force retries and
    // abandons while caches die and links partition — the harshest
    // decomposition test the harness has.
    let mut config = chaos_config(48, FleetTopology::Star);
    config.link_prr = 0.6;
    let (seq_fp, seq_summary) = run_soak(Fleet::build(config.clone()), 0xfa11);
    for k in [2, 4] {
        let (fp, summary) = run_soak(ShardedFleet::build_sharded(config.clone(), k), 0xfa11);
        assert_eq!(seq_summary, summary, "lossy soak summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "lossy soak fingerprint diverged at K={k}");
    }
}

// ---- Deep chaos (ISSUE 8: interior partitions, mid-install MCU
// crashes, delay/duplicate links and standby blackouts must decompose
// bit-identically too) ---------------------------------------------------

/// Runs the deep smoke soak on any backend — every ISSUE-8 fault family
/// active, including the seeded delay/duplicate link schedule — and
/// returns `(fingerprint, soak summary)`.
fn run_deep_soak<W: SimWorld>(mut fleet: Fleet<W>, seed: u64) -> (u64, String) {
    let report = fleet.chaos_soak(&ChaosConfig::deep_smoke(seed));
    assert!(
        report.invariants_held(),
        "deep soak invariants violated: {report:?}"
    );
    assert!(
        report.frames_delayed > 0,
        "link chaos must perturb deliveries: {report:?}"
    );
    (fleet.fingerprint(), report.deterministic_summary())
}

#[test]
fn deep_chaos_soak_matches_at_every_shard_count() {
    // The widened fault surface is the hardest decomposition test yet:
    // interior cuts land on shard-local thing↔parent edges, crashed
    // MCUs stage torn uploads in their home shard, blackout windows
    // drop anycast resolutions everywhere, and every delivery — local
    // or exchanged across the shard boundary as a rooted frame — must
    // carry the same chaos-perturbed timestamp on both backends.
    let config = chaos_config(96, FleetTopology::Star);
    let (seq_fp, seq_summary) = run_deep_soak(Fleet::build(config.clone()), 0xd33d);
    for k in [1, 2, 4, 8] {
        let (fp, summary) = run_deep_soak(ShardedFleet::build_sharded(config.clone(), k), 0xd33d);
        assert_eq!(seq_summary, summary, "deep soak summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "deep soak fingerprint diverged at K={k}");
    }
}

#[test]
fn deep_chaos_soak_on_tree_matches_at_every_shard_count() {
    // On a fanout tree the interior cuts orphan real multi-hop
    // subtrees (thing↔thing edges, not just root spokes).
    let config = chaos_config(72, FleetTopology::Tree { fanout: 4 });
    let (seq_fp, seq_summary) = run_deep_soak(Fleet::build(config.clone()), 0xb00f);
    for k in [2, 4] {
        let (fp, summary) = run_deep_soak(ShardedFleet::build_sharded(config.clone(), k), 0xb00f);
        assert_eq!(seq_summary, summary, "deep tree summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "deep tree fingerprint diverged at K={k}");
    }
}

// ---- Gray failures (ISSUE 9: degraded/asymmetric links, a crawling
// cache, and per-family recovery-latency histograms must decompose
// bit-identically too) ---------------------------------------------------

use upnp_core::chaos::RecoveryLatencies;

/// Runs the gray smoke soak on any backend — links slowed, lossied and
/// asymmetrically cut by the pure-function degrade schedule, one cache
/// crawling — and returns everything deterministic: fingerprint, soak
/// summary, the full recovery histograms and the per-epoch degraded-hop
/// breakdown.
fn run_gray_soak<W: SimWorld>(
    mut fleet: Fleet<W>,
    seed: u64,
) -> (u64, String, RecoveryLatencies, Vec<u64>) {
    let report = fleet.chaos_soak(&ChaosConfig::gray_smoke(seed));
    assert!(
        report.invariants_held(),
        "gray soak invariants violated: {report:?}"
    );
    assert!(
        report.frames_degraded > 0,
        "gray schedule must degrade deliveries: {report:?}"
    );
    (
        fleet.fingerprint(),
        report.deterministic_summary(),
        report.recovery,
        report.degraded_by_epoch,
    )
}

#[test]
fn gray_soak_matches_at_every_shard_count() {
    // The degrade schedule is a pure function of (seed, directed edge,
    // window index), so a hop degraded in the sequential world must be
    // degraded identically in whichever shard executes it — and the
    // recovery clocks those degraded paths feed must fill the same
    // histogram buckets with the same counts AND the same latency sums.
    let config = chaos_config(96, FleetTopology::Star);
    let (seq_fp, seq_summary, seq_recovery, seq_degraded) =
        run_gray_soak(Fleet::build(config.clone()), 0x6a71);
    let recovered: u64 = seq_recovery.families().iter().map(|(_, h)| h.count).sum();
    assert!(
        recovered > 0,
        "the histogram comparison must not be vacuous: {seq_recovery:?}"
    );
    for k in [1, 2, 4, 8] {
        let (fp, summary, recovery, degraded) =
            run_gray_soak(ShardedFleet::build_sharded(config.clone(), k), 0x6a71);
        assert_eq!(seq_summary, summary, "gray soak summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "gray soak fingerprint diverged at K={k}");
        // Struct equality covers every bucket count and bucket sum of
        // every family — stronger than the digest in the summary.
        assert_eq!(
            seq_recovery, recovery,
            "recovery histograms diverged at K={k}"
        );
        assert_eq!(
            seq_degraded, degraded,
            "per-epoch degraded hops diverged at K={k}"
        );
    }
}

#[test]
fn gray_soak_on_tree_matches_at_every_shard_count() {
    // Multi-hop routes cross shard boundaries on a fanout tree, so a
    // single datagram's hops may evaluate the degrade schedule in
    // different shards — each must see the same pure-function verdicts.
    let config = chaos_config(72, FleetTopology::Tree { fanout: 4 });
    let (seq_fp, seq_summary, seq_recovery, seq_degraded) =
        run_gray_soak(Fleet::build(config.clone()), 0x6a72);
    for k in [2, 4] {
        let (fp, summary, recovery, degraded) =
            run_gray_soak(ShardedFleet::build_sharded(config.clone(), k), 0x6a72);
        assert_eq!(seq_summary, summary, "gray tree summary diverged at K={k}");
        assert_eq!(seq_fp, fp, "gray tree fingerprint diverged at K={k}");
        assert_eq!(seq_recovery, recovery, "K={k}");
        assert_eq!(seq_degraded, degraded, "K={k}");
    }
}

// ---- Distributed tracing (ISSUE 10: the span sets — ids, parentage,
// virtual timestamps — must be bit-identical sequential vs sharded at
// every shard count, soaks included) -------------------------------------

use upnp_trace::{span_digest, Span, SpanKind};

/// Runs discovery + churn with tracing enabled and returns the
/// canonically sorted span set, its digest and the metric summaries
/// (which must be unchanged by tracing).
fn run_traced<W: SimWorld>(mut fleet: Fleet<W>, things: usize) -> (Vec<Span>, u64, String) {
    fleet.world.set_tracing(true);
    let d = fleet.discovery_wave();
    let c = fleet.churn_storm(things / 4);
    let spans = fleet.world.take_spans();
    let digest = span_digest(&spans);
    // The unified metrics registry (net + distro counters under group
    // labels) rides along in the summary: its digest must be as
    // shard-invariant as the metrics themselves.
    let summary = format!(
        "{}\n{}\nregistry={:016x}",
        virtual_summary(&d),
        virtual_summary(&c),
        fleet.world.metrics_registry().digest()
    );
    (spans, digest, summary)
}

fn assert_spans_equivalent(config: FleetConfig, things: usize, shard_counts: &[usize]) {
    let (seq_spans, seq_digest, seq_summary) = run_traced(Fleet::build(config.clone()), things);
    assert!(
        !seq_spans.is_empty(),
        "a traced discovery wave must record spans"
    );
    for &k in shard_counts {
        let (spans, digest, summary) =
            run_traced(ShardedFleet::build_sharded(config.clone(), k), things);
        // Element-wise equality covers every field of every span: ids,
        // trace membership, parentage and both virtual timestamps.
        assert_eq!(seq_spans, spans, "span sets diverged at K={k}");
        assert_eq!(seq_digest, digest, "span digest diverged at K={k}");
        assert_eq!(
            seq_summary, summary,
            "tracing perturbed the virtual metrics at K={k}"
        );
    }
}

#[test]
fn traced_star_span_sets_identical_at_every_shard_count() {
    assert_spans_equivalent(config(200, FleetTopology::Star), 200, &[1, 2, 4, 8]);
}

#[test]
fn traced_cached_tree_span_sets_identical_at_every_shard_count() {
    // Caches add the hit/miss/coalesce, chunk-fetch and cache-serve
    // span kinds; each cache lives in exactly one shard, so its spans
    // must decompose with it.
    let config = FleetConfig::new(160)
        .with_seed(0x6030)
        .with_topology(FleetTopology::Tree { fanout: 5 })
        .with_caches(4);
    assert_spans_equivalent(config, 160, &[1, 2, 4, 8]);
}

#[test]
fn traced_span_taxonomy_covers_the_pipeline() {
    // One cached fleet's discovery wave must produce the full
    // plug→scan→identify→resolve→serve→verify→install→join→advertise
    // chain plus cache classification spans, with coherent parentage.
    let config = FleetConfig::new(64).with_seed(0x6030).with_caches(2);
    let (spans, _, _) = run_traced(Fleet::build(config), 64);
    let count = |kind: SpanKind| spans.iter().filter(|s| s.kind == kind).count();
    for kind in [
        SpanKind::Plug,
        SpanKind::Scan,
        SpanKind::Identify,
        SpanKind::Resolve,
        SpanKind::Serve,
        SpanKind::Verify,
        SpanKind::Install,
        SpanKind::Join,
        SpanKind::Advertise,
    ] {
        assert!(count(kind) > 0, "no {} spans recorded", kind.name());
    }
    assert!(
        count(SpanKind::CacheHit) + count(SpanKind::CacheMiss) + count(SpanKind::Coalesce) > 0,
        "cache classification spans missing"
    );
    // Every non-root span's parent must exist in the same trace.
    use std::collections::HashSet;
    let ids: HashSet<(u64, u64)> = spans.iter().map(|s| (s.trace.0, s.id.0)).collect();
    for s in &spans {
        if s.parent.0 != 0 {
            assert!(
                ids.contains(&(s.trace.0, s.parent.0)),
                "span {:?} has a dangling parent",
                s
            );
        }
        assert!(s.end_ns >= s.start_ns, "span {s:?} ends before it starts");
    }
}

#[test]
fn traced_gray_soak_span_sets_identical_at_every_shard_count() {
    // Tracing through a gray chaos soak: retries, failovers and repair
    // replugs all record spans, and the merged sharded set must still
    // be bit-identical — including the flight-recorder window the soak
    // would dump on a gate failure.
    let config = chaos_config(48, FleetTopology::Star);
    fn run<W: SimWorld>(mut fleet: Fleet<W>) -> (Vec<Span>, upnp_core::chaos::SoakReport) {
        fleet.world.set_tracing(true);
        let report = fleet.chaos_soak(&ChaosConfig::gray_smoke(0x6a71));
        assert!(report.invariants_held(), "soak invariants: {report:?}");
        let spans = fleet.world.take_spans();
        (spans, report)
    }
    let (seq_spans, seq_report) = run(Fleet::build(config.clone()));
    assert!(!seq_spans.is_empty());
    assert!(
        !seq_report.recovery_exemplars.is_empty(),
        "a gray soak with recoveries must surface exemplar traces"
    );
    // Exemplar trace ids must point at spans that actually exist.
    for x in &seq_report.recovery_exemplars {
        let keep = [upnp_trace::TraceId(x.trace_id)];
        assert!(
            !upnp_trace::filter_traces(&seq_spans, &keep).is_empty(),
            "exemplar {x:?} names a trace with no spans"
        );
    }
    for k in [2, 4] {
        let (spans, report) = run(ShardedFleet::build_sharded(config.clone(), k));
        assert_eq!(seq_spans, spans, "soak span sets diverged at K={k}");
        assert_eq!(
            seq_report.recovery_exemplars, report.recovery_exemplars,
            "exemplars diverged at K={k}"
        );
        assert_eq!(
            seq_report.attribution_mismatches, 0,
            "attribution mismatches at K={k}"
        );
    }
}

#[test]
fn sharded_flight_dump_merges_all_shards() {
    let mut fleet = ShardedFleet::build_sharded(config(80, FleetTopology::Star), 4);
    fleet.world.set_tracing(true);
    fleet.discovery_wave();
    let dump = fleet.world.flight_dump("shard_diff smoke");
    assert!(dump.contains("\"reason\":\"shard_diff smoke\""));
    assert!(
        dump.contains("\"kind\":\"plug\""),
        "merged dump must contain recorded spans: {}",
        &dump[..dump.len().min(200)]
    );
}

// ---- Cross-shard multicast (typed discovery probes) --------------------

#[test]
fn cross_shard_discovery_probe_reaches_every_shard() {
    // A typed discovery multicast originates in the clients' home shard
    // but its group members (Things of that type) live in every shard:
    // the rooted-frame exchange must deliver it across shard boundaries
    // and the solicited replies must merge back into the master client.
    let things = 40;
    let mut seq = Fleet::build(FleetConfig::new(things));
    let mut sharded = ShardedFleet::build_sharded(FleetConfig::new(things), 4);
    seq.discovery_wave();
    sharded.discovery_wave();

    let device = seq.assigned_device(0);
    let expect: Vec<_> = (0..things)
        .filter(|&i| seq.assigned_device(i) == device)
        .map(|i| seq.world.thing_addr(seq.things[i]))
        .collect();

    for (label, world, client) in [
        (
            "sequential",
            &mut seq.world as &mut dyn SimWorld,
            seq.clients[0],
        ),
        (
            "sharded",
            &mut sharded.world as &mut dyn SimWorld,
            sharded.clients[0],
        ),
    ] {
        let dgram = {
            // A typed discovery to the peripheral group of `device`.
            let group = upnp_net::addr::peripheral_group(0x2001_0db8_0000, device.raw());
            let mut d = world.client_request_read(client, group, device.raw());
            // Rebuild as a proper discovery message.
            d.payload = upnp_net::msg::Message {
                seq: 0x7777,
                body: upnp_net::msg::MessageBody::Discovery(Vec::new()),
            }
            .encode()
            .into();
            d.dst = group;
            d
        };
        let node = world.client_node(client);
        let at = world.now();
        world.inject(at, node, dgram);
        world.run_until_idle();
        let mut found = world.client(client).things_with(device.raw());
        found.sort();
        let mut want = expect.clone();
        want.sort();
        assert_eq!(found, want, "{label} discovery must reach every shard");
    }
}
