//! The four fleet workloads, driven only through the public
//! `upnp_core::fleet` API.
//!
//! Every workload is a closed batch: the whole input is scheduled up
//! front by one scenario call, then the world runs to idle. The seed a
//! run takes is the fleet seed, so it picks every stochastic input
//! (resistor jitter, radio backoff, churn and read targets).

use std::time::Instant;

use upnp_core::fleet::{Fleet, FleetConfig, ScenarioMetrics};
use upnp_core::world::SimWorld;
use upnp_trace::Span;

/// Edge caches behind the border router in `flash`.
pub const FLASH_CACHES: usize = 8;
/// Shard count of `flash`: the sizes target a 2-CPU host, where more
/// threads would only time-slice.
pub const FLASH_SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Discovery,
    Flash,
    Steady,
    Churn,
}

/// How big one iteration of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Things in the fleet.
    pub things: usize,
    /// Client reads (`steady`) or plug/unplug events (`churn`).
    pub ops: usize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Discovery,
        Workload::Flash,
        Workload::Steady,
        Workload::Churn,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Discovery => "discovery",
            Workload::Flash => "flash",
            Workload::Steady => "steady",
            Workload::Churn => "churn",
        }
    }

    /// The benchmark's size: 25k cold plugs is where per-Thing discovery
    /// cost turns super-linear; flash doubles the fleet because the
    /// cache tier makes it cheaper per Thing; steady and churn run their
    /// 100k operations against a 5k fleet discovered during set-up.
    pub fn full_size(self) -> Size {
        match self {
            Workload::Discovery => Size {
                things: 25_000,
                ops: 0,
            },
            Workload::Flash => Size {
                things: 50_000,
                ops: 0,
            },
            Workload::Steady | Workload::Churn => Size {
                things: 5_000,
                ops: 100_000,
            },
        }
    }

    fn config(self, size: Size, seed: u64) -> FleetConfig {
        let config = FleetConfig::new(size.things).with_seed(seed);
        match self {
            Workload::Flash => config.with_caches(FLASH_CACHES),
            _ => config,
        }
    }

    /// Whether set-up includes a warm-up discovery wave.
    fn warms_up(self) -> bool {
        matches!(self, Workload::Steady | Workload::Churn)
    }
}

/// What one iteration produced.
pub struct Outcome {
    /// Host seconds for the fleet build plus any warm-up wave.
    pub setup_s: f64,
    /// Host seconds for the scenario call alone.
    pub run_s: f64,
    pub metrics: ScenarioMetrics,
    pub fingerprint: u64,
    /// Spans of the scenario (empty unless traced).
    pub spans: Vec<Span>,
    /// Stream samples the clients received during the scenario.
    pub stream_samples: usize,
}

/// Builds a fresh fleet and runs one iteration of `workload`. `shards`
/// applies to `flash` only; every other workload runs the sequential
/// `World`.
pub fn run_once(workload: Workload, size: Size, seed: u64, shards: usize, trace: bool) -> Outcome {
    let config = workload.config(size, seed);
    let started = Instant::now();
    if workload == Workload::Flash {
        drive(
            Fleet::build_sharded(config, shards),
            workload,
            size,
            trace,
            started,
        )
    } else {
        drive(Fleet::build(config), workload, size, trace, started)
    }
}

fn drive<W: SimWorld>(
    mut fleet: Fleet<W>,
    workload: Workload,
    size: Size,
    trace: bool,
    started: Instant,
) -> Outcome {
    if workload.warms_up() {
        fleet.discovery_wave();
    }
    let setup_s = started.elapsed().as_secs_f64();
    fleet.world.set_tracing(trace);
    let streams_before = stream_samples(&fleet);
    let run = Instant::now();
    let metrics = match workload {
        Workload::Discovery => fleet.discovery_wave(),
        Workload::Flash => fleet.flash_crowd(),
        Workload::Steady => fleet.steady_state(size.ops),
        Workload::Churn => fleet.churn_storm(size.ops),
    };
    let run_s = run.elapsed().as_secs_f64();
    let spans = if trace {
        fleet.world.take_spans()
    } else {
        Vec::new()
    };
    Outcome {
        setup_s,
        run_s,
        stream_samples: stream_samples(&fleet) - streams_before,
        fingerprint: fleet.fingerprint(),
        metrics,
        spans,
    }
}

fn stream_samples<W: SimWorld>(fleet: &Fleet<W>) -> usize {
    fleet
        .clients
        .iter()
        .map(|&c| fleet.world.client(c).stream_data.len())
        .sum()
}

/// FNV-1a over the scenario's deterministic summary: one number that
/// parent and change must agree on exactly.
pub fn summary_digest(metrics: &ScenarioMetrics) -> u64 {
    metrics
        .deterministic_summary()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The outside-in correctness checks of one outcome; each failure is one
/// line of the returned list.
pub fn check(workload: Workload, outcome: &Outcome) -> Vec<String> {
    let m = &outcome.metrics;
    let mut failures = Vec::new();
    if m.events == 0 {
        failures.push("no scenario events were driven".to_string());
    }
    if m.completed != m.events {
        failures.push(format!(
            "fail_share > 0: {} of {} events did not complete",
            m.events - m.completed,
            m.events
        ));
    }
    if m.drops != 0 {
        failures.push(format!("{} deliveries dropped on perfect links", m.drops));
    }
    if m.latency.samples == 0 {
        failures.push("no latency samples".to_string());
    }
    if workload == Workload::Flash {
        let uploads = m.cache_uploads + m.origin_uploads;
        if (m.cache_uploads as f64) < 0.9 * uploads as f64 {
            failures.push(format!(
                "cache tier served {} of {} uploads, below the 90% floor",
                m.cache_uploads, uploads
            ));
        }
        let device_types = FleetConfig::new(1).device_pool.len();
        let ceiling = (FLASH_CACHES * device_types) as u64;
        if m.origin_uploads > ceiling {
            failures.push(format!(
                "origin served {} fetches, above caches x device types = {}",
                m.origin_uploads, ceiling
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Size = Size {
        things: 400,
        ops: 2_000,
    };

    /// The payload counters are process-wide, so tests that run fleets
    /// take turns instead of running on parallel test threads.
    static FLEETS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        FLEETS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn flash_at_two_shards_matches_one_shard() {
        let _turn = exclusive();
        let k1 = run_once(Workload::Flash, SMALL, 11, 1, false);
        let k2 = run_once(Workload::Flash, SMALL, 11, 2, false);
        assert_eq!(k1.fingerprint, k2.fingerprint);
        assert_eq!(
            k1.metrics.deterministic_summary(),
            k2.metrics.deterministic_summary()
        );
        assert!(check(Workload::Flash, &k2).is_empty());
    }

    #[test]
    fn same_seed_gives_identical_simulated_outcomes() {
        let _turn = exclusive();
        for w in Workload::ALL {
            let a = run_once(w, SMALL, 5, FLASH_SHARDS, true);
            let b = run_once(w, SMALL, 5, FLASH_SHARDS, true);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
            assert_eq!(summary_digest(&a.metrics), summary_digest(&b.metrics));
            assert_eq!(a.metrics.registry().digest(), b.metrics.registry().digest());
            assert_eq!(
                upnp_trace::span_digest(&a.spans),
                upnp_trace::span_digest(&b.spans)
            );
            assert_eq!(a.stream_samples, b.stream_samples);
            assert!(check(w, &a).is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_changes_the_fingerprint() {
        let _turn = exclusive();
        for w in Workload::ALL {
            let a = run_once(w, SMALL, 5, FLASH_SHARDS, false);
            let b = run_once(w, SMALL, 6, FLASH_SHARDS, false);
            assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
        }
    }
}
