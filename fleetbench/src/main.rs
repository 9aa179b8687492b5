//! Outside-in benchmark of the µPnP fleet simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path fleetbench/Cargo.toml -- \
//!     --workload discovery --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats untraced iterations of the workload for
//! `--seconds` host seconds and reports the end-to-end metrics (medians
//! over iterations for host times). `--trace 1` alternates untraced and
//! traced iterations for the same time, then probes each layer, and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object; every outcome is checked, and a failed check
//! sets `"correct": false` and the exit code to 1. `fleetbench/README.md`
//! says why each workload and metric was chosen.

mod layers;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use upnp_trace::SpanKind;

use layers::{probes, shares, span_counts, LAYERS};
use workload::{check, run_once, summary_digest, Outcome, Workload, FLASH_SHARDS};

/// The paper's single-node plug-to-serve latency (§8: 300 ms
/// identification + 188.53 ms network), the virtual-time model's only
/// hardware reference.
const PAPER_PLUG_TO_SERVE_MS: f64 = 488.53;

/// Iterations a run makes even when `--seconds` has run out, so every
/// reported host time is a median of at least this many.
const MIN_ITERATIONS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            eprintln!(
                "usage: fleetbench --workload discovery|flash|steady|churn \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer_run(&args)
    } else {
        end_to_end_run(&args)
    };
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("fleetbench: check failed: {f}");
        }
        ExitCode::FAILURE
    }
}

/// What a run prints as its last line.
#[derive(Default)]
struct Report {
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Checks one outcome and counts its events.
    fn account(&mut self, workload: Workload, outcome: &Outcome, reference: &Outcome) {
        let m = &outcome.metrics;
        self.attempted += m.events;
        self.failed += m.events - m.completed.min(m.events);
        self.failures.extend(check(workload, outcome));
        // Every iteration of one seed must reproduce the first exactly.
        if outcome.fingerprint != reference.fingerprint
            || summary_digest(m) != summary_digest(&reference.metrics)
        {
            self.failures
                .push("an iteration diverged from the first one of the same seed".to_string());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite value is a bug
                // in the benchmark and reads as 0 with the check failed.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end_run(args: &Args) -> Report {
    let size = args.workload.full_size();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<Outcome> = None;
    while setups.len() < MIN_ITERATIONS || started.elapsed() < budget {
        let outcome = run_once(args.workload, size, args.seed, FLASH_SHARDS, false);
        report.account(args.workload, &outcome, first.as_ref().unwrap_or(&outcome));
        setups.push(outcome.setup_s);
        rates.push(outcome.metrics.events as f64 / outcome.run_s);
        first.get_or_insert(outcome);
    }
    let o = first.expect("at least one iteration");
    let m = &o.metrics;
    println!("events_per_s by iteration: {rates:.1?}");
    println!("setup_s by iteration: {setups:.4?}");
    println!(
        "workload={} seed={} host_cpus={} iterations={} fingerprint={:016x} summary_digest={:016x}",
        args.workload.name(),
        args.seed,
        host_cpus(),
        setups.len(),
        o.fingerprint,
        summary_digest(m)
    );
    println!(
        "virt_p50_ms={} virt_p99_ms={} over {} samples{}",
        m.latency.p50_ms,
        m.latency.p99_ms,
        m.latency.samples,
        if args.workload == Workload::Discovery {
            format!(" (paper single-node plug-to-serve: {PAPER_PLUG_TO_SERVE_MS} ms)")
        } else {
            String::new()
        }
    );
    println!(
        "events={} completed={} frames={} bytes={} things={}",
        m.events, m.completed, m.frames_tx, m.bytes_tx, size.things
    );
    report.metric("events_per_s", median(rates), "1/s");
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("virt_p50_ms", m.latency.p50_ms, "virt_ms");
    report.metric("virt_p99_ms", m.latency.p99_ms, "virt_ms");
    report.metric("done_share", m.completed as f64 / m.events as f64, "share");
    report.metric(
        "frames_per_event",
        m.frames_tx as f64 / m.events as f64,
        "frames/event",
    );
    report.metric(
        "bytes_per_event",
        m.bytes_tx as f64 / m.events as f64,
        "B/event",
    );
    report.metric("joules_per_thing", m.joules_per_thing, "J");
    report
}

fn per_layer_run(args: &Args) -> Report {
    let w = args.workload;
    let size = w.full_size();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut report = Report::default();
    let mut untraced = Vec::new();
    let mut traced_walls = Vec::new();
    let mut reference: Option<Outcome> = None;
    let mut traced: Option<Outcome> = None;
    while traced_walls.len() < 2 || started.elapsed() < budget {
        let plain = run_once(w, size, args.seed, FLASH_SHARDS, false);
        report.account(w, &plain, reference.as_ref().unwrap_or(&plain));
        untraced.push(plain.run_s);
        reference.get_or_insert(plain);
        let t = run_once(w, size, args.seed, FLASH_SHARDS, true);
        report.account(w, &t, reference.as_ref().expect("set above"));
        traced_walls.push(t.run_s);
        if let Some(prev) = &traced {
            if upnp_trace::span_digest(&prev.spans) != upnp_trace::span_digest(&t.spans) {
                report
                    .failures
                    .push("traced iterations recorded different spans".to_string());
            }
        }
        traced = Some(t);
    }
    let iterations = traced_walls.len();
    let untraced_s = median(untraced);
    let mut traced = traced.expect("at least one traced iteration");
    traced.run_s = median(traced_walls);
    let m = &traced.metrics;

    report.metric("host.cpus", host_cpus() as f64, "count");
    report.metric("untraced_wall_s", untraced_s, "s");
    report.metric("traced_wall_s", traced.run_s, "s");
    report.metric(
        "trace.overhead_share",
        traced.run_s / untraced_s - 1.0,
        "share",
    );

    if w == Workload::Flash {
        let k1: Vec<f64> = (0..MIN_ITERATIONS)
            .map(|_| {
                let o = run_once(w, size, args.seed, 1, false);
                report.account(w, &o, reference.as_ref().expect("set above"));
                o.run_s
            })
            .collect();
        let k1 = median(k1);
        report.metric("core.shard.wall_k1_s", k1, "s");
        report.metric("core.shard.wall_k2_s", untraced_s, "s");
        report.metric("core.shard.speedup_k2", k1 / untraced_s, "ratio");
    } else {
        // Only flash runs the sharded backend; 0 marks "not measured".
        report.metric("core.shard.wall_k1_s", 0.0, "s");
        report.metric("core.shard.wall_k2_s", 0.0, "s");
        report.metric("core.shard.speedup_k2", 0.0, "ratio");
    }

    report.metric("sim.sched.peak_depth", m.events as f64, "count");
    let probes = probes(w, size, args.seed, &traced);
    for p in &probes {
        report.metric(p.ns_metric, p.ns, "ns");
        report.metric(p.calls_metric, p.calls, "count");
    }
    let threads = if w == Workload::Flash {
        FLASH_SHARDS
    } else {
        1
    };
    let shares = shares(&probes, traced.run_s, threads);
    for (layer, share) in &shares {
        report.metric(format!("{layer}.busy_share"), *share, "share");
    }
    let attributed: f64 = shares.iter().map(|s| s.1).sum();
    report.metric("unattributed_share", 1.0 - attributed, "share");

    report.metric("net.bytes", m.bytes_tx as f64, "count");
    report.metric("net.drops", m.drops as f64, "count");
    report.metric("net.payload_allocs", m.payload_allocs as f64, "count");
    report.metric("net.payload_clones", m.payload_clones as f64, "count");
    report.metric("distro.cache_hits", m.cache_hits as f64, "count");
    report.metric("distro.cache_misses", m.cache_misses as f64, "count");
    report.metric("distro.coalesced", m.cache_coalesced as f64, "count");
    report.metric("distro.cache_uploads", m.cache_uploads as f64, "count");
    report.metric("distro.origin_uploads", m.origin_uploads as f64, "count");
    let uploads = m.cache_uploads + m.origin_uploads;
    report.metric(
        "distro.served_share",
        if uploads == 0 {
            0.0
        } else {
            m.cache_uploads as f64 / uploads as f64
        },
        "share",
    );
    report.metric("distro.uploads", uploads as f64, "count");
    report.metric(
        "core.manager.removal_acks",
        m.mgr_removal_acks as f64,
        "count",
    );
    report.metric("scenario.events", m.events as f64, "count");

    let spans = span_counts(&traced.spans);
    for kind in SpanKind::ALL {
        let (count, virt_ns) = spans.get(&kind).copied().unwrap_or((0, 0));
        report.metric(format!("span.{}.count", kind.name()), count as f64, "count");
        if INTERVAL_KINDS.contains(&kind) {
            let mean_ms = if count == 0 {
                0.0
            } else {
                virt_ns as f64 / count as f64 / 1e6
            };
            report.metric(format!("span.{}.virt_ms", kind.name()), mean_ms, "virt_ms");
        }
    }
    println!(
        "workload={} seed={} host_cpus={} traced_iterations={} fingerprint={:016x} \
         summary_digest={:016x} layers={}",
        w.name(),
        args.seed,
        host_cpus(),
        iterations,
        traced.fingerprint,
        summary_digest(m),
        LAYERS.join(",")
    );
    report
}

/// Span kinds the program records over an interval of virtual time; the
/// others mark an instant.
const INTERVAL_KINDS: [SpanKind; 8] = [
    SpanKind::Scan,
    SpanKind::CacheHit,
    SpanKind::CacheMiss,
    SpanKind::Coalesce,
    SpanKind::Serve,
    SpanKind::Install,
    SpanKind::Join,
    SpanKind::Advertise,
];
