//! The ring workloads: an 8-node SSRmin ring over loopback UDP, no HTTP.
//!
//! * `ring-lap` — clean links, 200 µs dwell. Each hop is three rule
//!   firings, each a dwell plus a runner poll plus a sendto/recvfrom pair.
//! * `ring-lossy` — 1 ms dwell and 10% loss on all 16 directed links, so
//!   every datagram crosses a chaos-proxy thread and handovers wait on the
//!   retransmit timer and its backoff.
//!
//! The untraced run goes through `run_cluster`. The traced run builds the
//! same ring from the public pieces `run_cluster` uses, with every
//! transport wrapped in a [`TimedTransport`].

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ssr_core::{Replica, RingParams, SsrMin, SsrState};
use ssr_net::{
    decode, encode_tenant, run_cluster, ChaosConfig, ChaosProxy, ClusterConfig, Inbound,
    MetricsRegistry, NodeConfig, NodeControl, Transport, UdpTransport,
};
use ssr_runtime::activity::{analyze, ActivityEvent, CoverageReport};

use crate::procfs::Window;
use crate::stats::{median, pct_us, ratio, Latency};
use crate::trace::{now_ns, Span};
use crate::{Metric, Opts, Outcome};

/// Ring size; K is the minimal n + 1.
const N: usize = 8;
/// Base retransmit period.
const TICK: Duration = Duration::from_millis(5);
/// Cluster runs per untraced run; `setup_s` is the median of their
/// set-up and teardown time. All but the last are this short.
const SETUP_REPS: usize = 7;
const SETUP_RUN: Duration = Duration::from_millis(50);

/// Which ring workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Links {
    /// Clean loopback.
    Clean,
    /// 10% i.i.d. loss on every directed link.
    Lossy,
}

impl Links {
    fn config(self, seed: u64, warmup: Duration, duration: Duration) -> ClusterConfig {
        let (dwell, chaos) = match self {
            Links::Clean => (Duration::from_micros(200), None),
            Links::Lossy => (
                Duration::from_millis(1),
                Some(ChaosConfig { loss: 0.1, ..ChaosConfig::default() }),
            ),
        };
        ClusterConfig { seed, duration, warmup, tick: TICK, exec_delay: dwell, chaos }
    }
}

/// Handover times in ns: from a node's most recent activation to the next
/// activation of a different node, for activations at or after `warmup`.
pub fn handovers(events: &[ActivityEvent], warmup: Duration) -> Vec<u64> {
    let mut out = Vec::new();
    let mut last: Option<&ActivityEvent> = None;
    for ev in events.iter().filter(|e| e.active) {
        if let Some(prev) = last {
            if prev.node != ev.node && ev.at >= warmup {
                out.push((ev.at - prev.at).as_nanos() as u64);
            }
        }
        last = Some(ev);
    }
    out
}

/// Lap times in ns: between consecutive activations of node 0, for laps
/// ending at or after `warmup`.
pub fn laps(events: &[ActivityEvent], warmup: Duration) -> Vec<u64> {
    let starts: Vec<Duration> =
        events.iter().filter(|e| e.active && e.node == 0).map(|e| e.at).collect();
    starts.windows(2).filter(|w| w[1] >= warmup).map(|w| (w[1] - w[0]).as_nanos() as u64).collect()
}

/// Correctness gates: never more than two privileged nodes, and the
/// token-count invariant never broken.
fn check(problems: &mut Vec<String>, max_active: usize, broken_until: Option<Duration>) {
    if max_active > 2 {
        problems.push(format!("{max_active} nodes privileged at once"));
    }
    if let Some(at) = broken_until {
        problems.push(format!("token-count invariant broken until {at:?}"));
    }
}

fn algo() -> Result<SsrMin, String> {
    Ok(SsrMin::new(RingParams::minimal(N).map_err(|e| e.to_string())?))
}

/// The end-to-end numbers shared by both runs.
fn outcome(
    events: &[ActivityEvent],
    coverage: &CoverageReport,
    measured: Duration,
    warmup: Duration,
    setup: &[Duration],
    window: crate::procfs::WindowStats,
) -> Result<Outcome, String> {
    let handover = handovers(events, warmup);
    let count = handover.len();
    let latency = Latency::of(handover).ok_or("no handover after warmup")?;
    let lap = laps(events, warmup);
    let mut out = Outcome::new(
        "handover",
        latency,
        Metric::new("handovers_per_s", "1/s", count as f64 / measured.as_secs_f64(), count as u64),
        median(setup),
        setup.len(),
        window,
    );
    out.extra.push(Metric::new("lap_p50_us", "us", pct_us(&lap, 50.0), lap.len() as u64));
    out.extra.push(Metric::new("lap_p95_us", "us", pct_us(&lap, 95.0), lap.len() as u64));
    out.attempted = coverage.activations as u64;
    out.failed = coverage.gaps as u64;
    Ok(out)
}

/// The untraced run: `run_cluster`, with set-up timed as its wall time
/// minus its configured duration.
fn untraced(links: Links, opts: &Opts) -> Result<Outcome, String> {
    let algo = algo()?;
    let warmup = opts.warmup();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut problems = Vec::new();
    for rep in 1..SETUP_REPS {
        let cfg = links.config(opts.seed.wrapping_add(rep as u64), Duration::ZERO, SETUP_RUN);
        let began = Instant::now();
        let report =
            run_cluster(algo, algo.legitimate_anchor(0), cfg).map_err(|e| e.to_string())?;
        setup.push(began.elapsed().saturating_sub(cfg.duration));
        check(&mut problems, report.coverage.max_active, report.stabilized_at);
    }
    let cfg = links.config(opts.seed, warmup, warmup + opts.seconds);
    let window = Window::open();
    let began = Instant::now();
    let report = run_cluster(algo, algo.legitimate_anchor(0), cfg).map_err(|e| e.to_string())?;
    setup.push(began.elapsed().saturating_sub(cfg.duration));
    let window = window.close();
    check(&mut problems, report.coverage.max_active, report.stabilized_at);

    let measured = report.observed.saturating_sub(warmup);
    let mut out = outcome(&report.events, &report.coverage, measured, warmup, &setup, window)?;
    out.problems = problems;
    Ok(out)
}

/// Calls into one node's UDP transport, as seen by a [`TimedTransport`].
#[derive(Debug, Default)]
struct Calls {
    recv: u64,
    recv_hits: u64,
    recv_ns: u64,
    pump: u64,
    spans: Vec<Span>,
}

/// A [`Transport`] that times every call the node runner makes into the
/// transport it wraps: a span per publish and per accepted receive, and
/// counts of polls that found nothing (each one an idle-sleep of the
/// runner).
struct TimedTransport<T> {
    inner: T,
    calls: Calls,
}

impl<S, T: Transport<S>> Transport<S> for TimedTransport<T> {
    fn publish(&mut self, state: &S) -> io::Result<()> {
        let start = now_ns();
        let result = self.inner.publish(state);
        self.calls.spans.push(Span::until_now("transport.publish", start, None));
        result
    }

    fn pump(&mut self) -> io::Result<()> {
        self.calls.pump += 1;
        self.inner.pump()
    }

    fn try_recv(&mut self) -> Option<Inbound<S>> {
        let start = now_ns();
        let got = self.inner.try_recv();
        let span = Span::until_now("transport.recv", start, None);
        self.calls.recv += 1;
        self.calls.recv_ns += span.ns();
        if got.is_some() {
            self.calls.recv_hits += 1;
            self.calls.spans.push(span);
        }
        got
    }

    fn bump_generation(&mut self, bump: u32) {
        self.inner.bump_generation(bump);
    }
}

/// Mean ns of one v2 frame encode and decode of an SSRmin state.
fn codec_ns() -> (f64, f64) {
    const REPS: u32 = 20_000;
    let state = SsrState::new(3, 1, 0);
    let began = Instant::now();
    for generation in 0..REPS {
        std::hint::black_box(encode_tenant(1, 2, generation, std::hint::black_box(&state)));
    }
    let encode_ns = began.elapsed().as_nanos() as f64 / f64::from(REPS);
    let frame = encode_tenant(1, 2, 7, &state);
    let began = Instant::now();
    for _ in 0..REPS {
        let decoded = decode::<SsrState>(std::hint::black_box(&frame));
        std::hint::black_box(decoded.is_ok());
    }
    (encode_ns, began.elapsed().as_nanos() as f64 / f64::from(REPS))
}

/// The traced run: bind, wire (through chaos proxies when lossy) and run
/// the ring exactly as `run_cluster` does, over timed transports.
fn traced(links: Links, opts: &Opts) -> Result<Outcome, String> {
    let algo = algo()?;
    let warmup = opts.warmup();
    let cfg = links.config(opts.seed, warmup, warmup + opts.seconds);
    let began = Instant::now();
    let metrics = MetricsRegistry::new(N);
    let mut transports = (0..N)
        .map(|i| {
            let (pred, succ) = ((i + N - 1) % N, (i + 1) % N);
            let seed = cfg.seed.wrapping_add(i as u64);
            UdpTransport::<SsrState>::bind(
                i as u16,
                pred as u16,
                succ as u16,
                cfg.tick,
                seed,
                metrics.arc_node(i),
            )
        })
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let addrs = transports
        .iter()
        .map(|t| t.local_addrs())
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let mut proxies = Vec::new();
    for (i, transport) in transports.iter_mut().enumerate() {
        let (pred, succ) = ((i + N - 1) % N, (i + 1) % N);
        let mut to_succ = addrs[succ].pred;
        let mut to_pred = addrs[pred].succ;
        if let Some(chaos) = cfg.chaos {
            for (link, to) in [(2 * i, &mut to_succ), (2 * i + 1, &mut to_pred)] {
                let seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(link as u64);
                let proxy = ChaosProxy::spawn(*to, ChaosConfig { seed, ..chaos })
                    .map_err(|e| e.to_string())?;
                *to = proxy.addr();
                proxies.push(proxy);
            }
        }
        transport.wire(to_pred, to_succ);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let log = Arc::new(parking_lot::Mutex::new(Vec::<ActivityEvent>::new()));
    let start = Instant::now();
    let node_cfg = NodeConfig { exec_delay: cfg.exec_delay, ..NodeConfig::default() };
    let initial = algo.legitimate_anchor(0);
    let mut initial_active = Vec::with_capacity(N);
    let mut nodes = Vec::with_capacity(N);
    for (i, transport) in transports.into_iter().enumerate() {
        let (pred, succ) = ((i + N - 1) % N, (i + 1) % N);
        let replica = Replica::coherent(initial[i], initial[pred], initial[succ]);
        initial_active.push(replica.is_privileged(&algo, i));
        let control = NodeControl::new(Arc::clone(&stop));
        let log = Arc::clone(&log);
        let node_metrics = metrics.arc_node(i);
        let transport = TimedTransport { inner: transport, calls: Calls::default() };
        nodes.push(thread::spawn(move || {
            ssr_net::run_node(
                algo,
                i,
                replica,
                transport,
                node_cfg,
                control,
                log,
                start,
                node_metrics,
            )
        }));
    }
    let setup = began.elapsed();

    thread::sleep(warmup);
    let window = Window::open();
    thread::sleep(opts.seconds);
    let window = window.close();
    stop.store(true, Ordering::Relaxed);
    let mut calls = Calls::default();
    for node in nodes {
        let (_, transport) = node.join().map_err(|_| "node thread panicked".to_string())?;
        let c = transport.calls;
        calls.recv += c.recv;
        calls.recv_hits += c.recv_hits;
        calls.recv_ns += c.recv_ns;
        calls.pump += c.pump;
        calls.spans.extend(c.spans);
    }
    let observed = start.elapsed();
    let (mut forwarded, mut dropped) = (0, 0);
    for proxy in proxies {
        let stats = proxy.shutdown().counters();
        forwarded += stats.forwarded;
        dropped += stats.dropped;
    }
    let mut events = Arc::try_unwrap(log).expect("all node threads joined").into_inner();
    events.sort_by_key(|e| e.at);

    let coverage = analyze(&initial_active, &events, observed, warmup);
    let whole_run = analyze(&initial_active, &events, observed, Duration::ZERO);
    let mut problems = Vec::new();
    check(&mut problems, whole_run.max_active, (whole_run.min_active == 0).then_some(observed));
    let mut out = outcome(&events, &coverage, window.wall, warmup, &[setup], window)?;
    out.problems = problems;

    let rows = metrics.snapshot().rows;
    let sum = |f: fn(&ssr_net::NodeMetricsRow) -> u64| rows.iter().map(f).sum::<u64>() as f64;
    let (sends, receives, stale) = (sum(|r| r.sends), sum(|r| r.receives), sum(|r| r.stale_drops));
    let all_handovers = handovers(&events, Duration::ZERO).len() as f64;
    out.layer("net.sends_per_handover", ratio(sends, all_handovers));
    out.layer("net.rules_per_handover", ratio(sum(|r| r.rule_firings), all_handovers));
    out.layer("net.retransmit_ratio", ratio(sum(|r| r.retransmits), sends));
    out.layer("net.stale_ratio", ratio(stale, receives + stale));
    out.layer("transport.recv_calls", calls.recv as f64);
    out.layer("transport.pump_calls", calls.pump as f64);
    out.layer("transport.recv_ns_mean", ratio(calls.recv_ns as f64, calls.recv as f64));
    let publish_ns: Vec<u64> =
        calls.spans.iter().filter(|s| s.name == "transport.publish").map(Span::ns).collect();
    out.layer("transport.publish_ns_p50", pct_us(&publish_ns, 50.0) * 1e3);
    out.layer("transport.recv_hit_ratio", ratio(calls.recv_hits as f64, calls.recv as f64));
    out.layer("chaos.forwarded", forwarded as f64);
    out.layer("chaos.dropped", dropped as f64);
    let (encode_ns, decode_ns) = codec_ns();
    out.layer("codec.encode_v2_ns", encode_ns);
    out.layer("codec.decode_v2_ns", decode_ns);
    calls.spans.sort_by_key(|s| s.start_ns);
    out.spans = calls.spans;
    Ok(out)
}

/// Run one ring workload.
pub fn run(links: Links, opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        traced(links, opts)
    } else {
        untraced(links, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: usize, at_ms: u64, active: bool) -> ActivityEvent {
        ActivityEvent { node, at: Duration::from_millis(at_ms), active }
    }

    #[test]
    fn handovers_and_laps_come_from_activations() {
        // A 3-node ring: 0 → 1 → 2 → 0 → 1, with overlapping privilege and
        // one re-activation of node 1 before node 2 takes over.
        let events = vec![
            ev(0, 0, true),
            ev(1, 4, true),
            ev(0, 5, false),
            ev(1, 9, false),
            ev(1, 10, true),
            ev(2, 13, true),
            ev(1, 14, false),
            ev(0, 20, true),
            ev(2, 21, false),
            ev(1, 26, true),
        ];
        let ms = |v: &[u64]| v.iter().map(|&ns| ns / 1_000_000).collect::<Vec<_>>();
        assert_eq!(ms(&handovers(&events, Duration::ZERO)), vec![4, 3, 7, 6]);
        assert_eq!(ms(&handovers(&events, Duration::from_millis(13))), vec![3, 7, 6]);
        assert_eq!(ms(&laps(&events, Duration::ZERO)), vec![20]);
        assert!(laps(&events, Duration::from_millis(21)).is_empty());
        assert!(handovers(&[], Duration::ZERO).is_empty());
    }

    #[test]
    fn gates_flag_three_holders_and_broken_invariants() {
        let mut problems = Vec::new();
        check(&mut problems, 2, None);
        assert!(problems.is_empty());
        check(&mut problems, 3, Some(Duration::from_millis(7)));
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
