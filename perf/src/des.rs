//! The simulator workloads: `CstSim<SsrMin>` episodes, each run from a
//! legitimate start to a fixed simulated horizon in 100 equal slices.
//!
//! * `des-wide` — n = 4096 on clean links. Every rule firing re-checks
//!   legitimacy of the whole ring, so each event costs O(n) and the event
//!   queue holds about 3n entries.
//! * `des-long` — n = 16 with 20% loss under Gilbert–Elliott bursts over a
//!   long horizon: the same event loop at small n, where the recorded
//!   timeline, which grows with simulated time, sets the memory.
//!
//! Episodes repeat, each from its own seed drawn from `--seed`, until the
//! run's time is up; the last one stops at the slice boundary where time
//! runs out. The horizon is fixed, so the work of a whole episode, and the
//! memory its timeline takes, does not depend on how fast the machine is.
//!
//! Slice latency and events per second are timed on the CPU clock of the
//! simulating thread: the simulator is single-threaded and never waits, so
//! the only thing wall time adds is other processes holding the core.

use std::time::Instant;

use ssr_core::{RingParams, SsrMin};
use ssr_mpnet::{CstSim, DelayModel, GilbertElliott, SimConfig, SimStats, Time};

use crate::procfs::{thread_cpu_ns, Window};
use crate::stats::{median, ratio, Latency, SplitMix64};
use crate::trace::{now_ns, Span};
use crate::{Metric, Opts, Outcome};

/// Slices per episode: one latency sample (and span) each.
const SLICES: u64 = 100;
/// Set-ups per run; `setup_s` is their median. A set-up builds a simulator
/// and runs it through the first tenth of the horizon, the transient the
/// correctness gate skips. Building alone takes under a microsecond for
/// the 16-node ring and reads differently from one process to the next.
const SETUP_REPS: usize = 5;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Wide ring, short horizon.
    Wide,
    /// Small lossy ring, long horizon.
    Long,
}

impl Shape {
    fn n(self) -> usize {
        match self {
            Shape::Wide => 4096,
            Shape::Long => 16,
        }
    }

    /// Simulated horizon of one episode. The long horizon records ~680k
    /// timeline samples, so the timeline's buffer ends above the 32 MiB at
    /// which the C allocator always maps memory directly; below that, where
    /// it grew would depend on what earlier episodes freed, and so would
    /// the peak resident set.
    fn horizon(self) -> Time {
        match self {
            Shape::Wide => 3_000,
            Shape::Long => 6_000_000,
        }
    }

    fn config(self, seed: u64) -> SimConfig {
        let (loss, burst) = match self {
            Shape::Wide => (0.0, None),
            Shape::Long => (0.2, Some(GilbertElliott::default())),
        };
        SimConfig {
            seed,
            delay: DelayModel::Uniform { min: 2, max: 9 },
            loss,
            burst,
            timer_interval: 40,
            send_on_receipt: true,
            exec_delay: 4,
        }
    }
}

/// Correctness gate over one episode: after the first tenth of the
/// horizon, never zero and never more than two privileged nodes. An
/// episode cut off before then has nothing to check.
fn check<A: ssr_core::RingAlgorithm>(sim: &CstSim<A>, horizon: Time) -> Option<String> {
    let Some(summary) = sim.timeline().summary(transient(horizon)) else {
        return (sim.now() > transient(horizon)).then(|| "empty timeline".to_string());
    };
    if summary.zero_privileged_time > 0 || summary.max_privileged > 2 {
        return Some(format!(
            "{} ticks without a privileged node, up to {} privileged at once",
            summary.zero_privileged_time, summary.max_privileged
        ));
    }
    None
}

/// The start of an episode that the gate skips and set-up covers.
fn transient(horizon: Time) -> Time {
    horizon / 10
}

/// Run one simulator workload.
pub fn run(shape: Shape, opts: &Opts) -> Result<Outcome, String> {
    let algo = SsrMin::new(RingParams::minimal(shape.n()).map_err(|e| e.to_string())?);
    let horizon = shape.horizon();
    let mut seeds = SplitMix64::new(opts.seed);
    let build = |seed: u64| -> Result<CstSim<SsrMin>, String> {
        CstSim::new(algo, algo.legitimate_anchor(0), shape.config(seed)).map_err(|e| e.to_string())
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let seed = seeds.next_u64();
        let began = Instant::now();
        let mut sim = build(seed)?;
        sim.run_until(transient(horizon));
        setup.push(began.elapsed());
        drop(std::hint::black_box(sim));
    }

    let window = Window::open();
    let cpu_start = thread_cpu_ns();
    let deadline = Instant::now() + opts.seconds;
    let mut slice_ns = Vec::new();
    let mut spans = Vec::new();
    let mut problems = Vec::new();
    let mut events = 0u64;
    let mut first: Option<(SimStats, usize)> = None;
    let mut episodes = 0u64;
    while slice_ns.is_empty() || Instant::now() < deadline {
        let mut sim = build(seeds.next_u64())?;
        let episode_span = spans.len();
        if opts.trace {
            let req = Some(episodes);
            spans.push(Span {
                name: "des.episode",
                start_ns: now_ns(),
                end_ns: 0,
                parent: None,
                req,
            });
        }
        for slice in 1..=SLICES {
            let start = now_ns();
            let cpu = thread_cpu_ns();
            sim.run_until(horizon * slice / SLICES);
            slice_ns.push(thread_cpu_ns() - cpu);
            if opts.trace {
                let span = Span::until_now("des.slice", start, Some(episodes));
                spans.push(Span { parent: Some(episode_span), ..span });
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        if opts.trace {
            spans[episode_span].end_ns = now_ns();
        }
        if let Some(problem) = check(&sim, horizon) {
            problems.push(format!("episode {episodes}: {problem}"));
        }
        let stats = sim.stats();
        first.get_or_insert((stats, sim.timeline().samples().len()));
        events += stats.events;
        episodes += 1;
    }
    let window = window.close();
    let cpu_ns = (thread_cpu_ns() - cpu_start) as f64;

    let latency = Latency::of(slice_ns).expect("at least one episode ran");
    let mut out = Outcome::new(
        "des_slice",
        latency,
        Metric::new("des_events_per_s", "1/s", events as f64 / cpu_ns * 1e9, events),
        median(&setup),
        setup.len(),
        window,
    );
    out.attempted = episodes;
    out.problems = problems;
    out.extra.push(Metric::new("des_episodes", "count", episodes as f64, episodes));

    // The first episode's counts repeat exactly for a given seed.
    let (stats, samples) = first.expect("at least one episode ran");
    out.layer("des.events", stats.events as f64);
    out.layer("des.rules_executed", stats.rules_executed as f64);
    out.layer("des.events_per_rule", ratio(stats.events as f64, stats.rules_executed as f64));
    out.layer("des.transmissions", stats.transmissions as f64);
    out.layer("des.losses", stats.losses as f64);
    out.layer("des.timeline_samples", samples as f64);
    out.layer("des.ns_per_event", ratio(cpu_ns, events as f64));
    out.spans = spans;
    Ok(out)
}
