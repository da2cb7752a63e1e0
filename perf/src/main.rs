//! `ssr-perf`: one seeded benchmark for the lease service, the live UDP
//! ring and the CST simulator, with a per-layer trace.
//!
//! ```text
//! ssr-perf --workload W [--seed S] [--seconds X] [--trace 0|1] [--out DIR]
//! ssr-perf run [--seed S] [--seconds X] [--trace] [--workloads a,b] [--out DIR]
//! ssr-perf compare --parent BIN --change BIN [--pairs P] [--seed S] [--seconds X]
//!                  [--workloads a,b] [--spec BENCHMARK.json] [--json FILE]
//! ```
//!
//! The first form runs one workload in this process and prints every
//! metric by name, unit and sample count, then one JSON result line: the
//! end-to-end metrics of `BENCHMARK.json` untraced, its per-layer metrics
//! traced (with the spans written to `DIR/trace-<workload>.json`). `run`
//! runs each workload in its own child process so CPU, memory and thread
//! counts belong to one workload. `compare` alternates runs of two builds.
//! See `perf/README.md` for the workloads and the metric glossary.

#![deny(unsafe_code)]
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("ssr-perf reads /proc and the thread CPU clock of 64-bit Linux");

mod compare;
mod des;
mod lease;
mod procfs;
mod ring;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::str::FromStr;
use std::time::Duration;

use ssr_ctl::Json;

use crate::procfs::WindowStats;
use crate::stats::Latency;
use crate::trace::Span;

/// Every per-layer metric of a traced run, with its unit. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("loadgen.late_p99_us", "us"),
    ("loadgen.attempts_per_op", "ratio"),
    ("ctl.requests", "count"),
    ("ctl.roundtrip_p50_us", "us"),
    ("ctl.roundtrip_p99_us", "us"),
    ("ctl.self_p50_us", "us"),
    ("serve.handle_p50_us", "us"),
    ("serve.handle_p99_us", "us"),
    ("serve.lease.grants", "count"),
    ("serve.lease.conflicts", "count"),
    ("serve.lease.unavailable", "count"),
    ("serve.lease.revocations", "count"),
    ("serve.lease.expirations", "count"),
    ("serve.lease.grant_ratio", "ratio"),
    ("serve.ring.sends_per_s", "1/s"),
    ("net.sends_per_handover", "ratio"),
    ("net.rules_per_handover", "ratio"),
    ("net.retransmit_ratio", "ratio"),
    ("net.stale_ratio", "ratio"),
    ("transport.recv_calls", "count"),
    ("transport.pump_calls", "count"),
    ("transport.recv_ns_mean", "ns"),
    ("transport.publish_ns_p50", "ns"),
    ("transport.recv_hit_ratio", "ratio"),
    ("chaos.forwarded", "count"),
    ("chaos.dropped", "count"),
    ("codec.encode_v2_ns", "ns"),
    ("codec.decode_v2_ns", "ns"),
    ("des.events", "count"),
    ("des.rules_executed", "count"),
    ("des.events_per_rule", "ratio"),
    ("des.transmissions", "count"),
    ("des.losses", "count"),
    ("des.ns_per_event", "ns"),
    ("des.timeline_samples", "count"),
    ("proc.cpu_cores", "cores"),
    ("proc.threads", "count"),
    ("proc.cpu_sys_share", "ratio"),
    ("trace.op_p50_us", "us"),
    ("trace.spans", "count"),
];

/// How far a traced run's `op_p50_us` may stray from the untraced run's
/// before `run --trace` flags the trace as not representative: the bound
/// `BENCHMARK.json` fixes for that metric.
const TRACE_TOLERANCE: f64 = 0.2;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LeaseSpread,
    LeaseHot,
    RingLap,
    RingLossy,
    DesWide,
    DesLong,
}

impl Workload {
    /// Every workload, in the order `run` executes them.
    pub const ALL: [Workload; 6] = [
        Workload::LeaseSpread,
        Workload::LeaseHot,
        Workload::RingLap,
        Workload::RingLossy,
        Workload::DesWide,
        Workload::DesLong,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LeaseSpread => "lease-spread",
            Workload::LeaseHot => "lease-hot",
            Workload::RingLap => "ring-lap",
            Workload::RingLossy => "ring-lossy",
            Workload::DesWide => "des-wide",
            Workload::DesLong => "des-long",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (one of {})", names.join(", "))
        })
    }

    fn run(self, opts: &Opts) -> Result<Outcome, String> {
        let mut out = match self {
            Workload::LeaseSpread => lease::run(lease::Load::Spread, opts),
            Workload::LeaseHot => lease::run(lease::Load::Hot, opts),
            Workload::RingLap => ring::run(ring::Links::Clean, opts),
            Workload::RingLossy => ring::run(ring::Links::Lossy, opts),
            Workload::DesWide => des::run(des::Shape::Wide, opts),
            Workload::DesLong => des::run(des::Shape::Long, opts),
        }?;
        out.peak_rss_mb = procfs::peak_rss_mb();
        out.layer("proc.cpu_cores", out.window.cpu_cores);
        out.layer("proc.threads", out.window.threads as f64);
        out.layer("proc.cpu_sys_share", out.window.cpu_sys_share);
        out.layer("trace.op_p50_us", out.latency.p50_us);
        out.layer("trace.spans", out.spans.len() as f64);
        Ok(out)
    }
}

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Opts {
    /// Untimed run-in before the window: a second, or a fifth of a short
    /// window.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs(1).min(self.seconds / 5)
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric { name: name.into(), unit, value, samples }
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// What one operation is (`lease_acquire`, `handover`, `des_slice`).
    pub op: &'static str,
    /// Operation latency.
    pub latency: Latency,
    /// Completed work per second.
    pub throughput: Metric,
    /// Median set-up time and how many set-ups it is the median of.
    pub setup: Duration,
    pub setup_reps: usize,
    /// The measurement window.
    pub window: WindowStats,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Workload-specific end-to-end metrics.
    pub extra: Vec<Metric>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; empty when every output was correct.
    pub problems: Vec<String>,
    /// Lines worth printing that are not metrics.
    pub notes: Vec<String>,
    /// Per-layer numbers by name (see [`PER_LAYER`]).
    pub layers: HashMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new(
        op: &'static str,
        latency: Latency,
        throughput: Metric,
        setup: Duration,
        setup_reps: usize,
        window: WindowStats,
    ) -> Outcome {
        Outcome {
            op,
            latency,
            attempted: throughput.samples,
            throughput,
            setup,
            setup_reps,
            window,
            peak_rss_mb: 0.0,
            extra: Vec::new(),
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            layers: HashMap::new(),
            spans: Vec::new(),
        }
    }

    /// Record a per-layer number.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name), "undeclared layer metric {name}");
        self.layers.insert(name, value);
    }

    /// The end-to-end metrics of `BENCHMARK.json`: workload-independent
    /// names over this workload's own operation.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("op_p50_us", "us", self.latency.p50_us, self.latency.n as u64),
            Metric::new("ops_per_s", "1/s", self.throughput.value, self.throughput.samples),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb, 1),
            Metric::new("setup_s", "s", self.setup.as_secs_f64(), self.setup_reps as u64),
        ]
    }

    /// Every end-to-end metric under its workload-specific name.
    pub fn detail(&self) -> Vec<Metric> {
        let lat = self.latency;
        let n = lat.n as u64;
        let mut out = vec![
            Metric::new(format!("{}_p50_us", self.op), "us", lat.p50_us, n),
            Metric::new(format!("{}_p95_us", self.op), "us", lat.p95_us, n),
        ];
        if lat.tail_pct > 95.0 {
            out.push(Metric::new(
                format!("{}_p{}_us", self.op, lat.tail_pct),
                "us",
                lat.tail_us,
                n,
            ));
        }
        out.push(self.throughput.clone());
        out.extend(self.extra.iter().cloned());
        out.push(Metric::new("cpu_cores", "cores", self.window.cpu_cores, 1));
        out.extend(self.end_to_end().into_iter().skip(2));
        let failed = stats::ratio(self.failed as f64, self.attempted as f64);
        out.push(Metric::new("failed_ratio", "ratio", failed, self.attempted));
        out
    }

    /// Every per-layer metric, 0 where the layer was not exercised.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                Metric::new(name, unit, self.layers.get(name).copied().unwrap_or(0.0), 1)
            })
            .collect()
    }

    /// The result line: correctness, counts and the metrics runs are
    /// compared on.
    fn result_json(&self, trace: bool) -> String {
        let metrics = if trace { self.per_layer() } else { self.end_to_end() };
        let metrics = metrics
            .into_iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (m.name, Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(m.unit))]))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let value = if m.value != 0.0 && m.value.abs() < 0.01 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.4}", m.value)
        };
        println!("  {:<28} {value:>16} {:<6} n={}", m.name, m.unit, m.samples);
    }
}

/// `--key value` flags and bare `--switch`es.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key =
                arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{arg}'"))?;
            let value = if switches.contains(&key) {
                "1".to_string()
            } else if valued.contains(&key) {
                args.next().ok_or_else(|| format!("--{key} needs a value"))?.clone()
            } else {
                return Err(format!("unknown flag --{key}"));
            };
            map.insert(key.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.str(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for --{key}")),
        }
    }

    fn seconds(&self) -> Result<Duration, String> {
        let seconds: f64 = self.get("seconds", 10.0)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        Ok(Duration::from_secs_f64(seconds))
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.str("workloads") {
            None => Ok(Workload::ALL.to_vec()),
            Some(list) => list.split(',').map(|w| Workload::parse(w.trim())).collect(),
        }
    }
}

/// One workload in this process: the form `BENCHMARK.json` and `run`
/// invoke.
fn one(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"], &[])?;
    let workload = Workload::parse(flags.str("workload").ok_or("--workload is required")?)?;
    let trace = match flags.str("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let opts = Opts { seed: flags.get("seed", 1u64)?, seconds: flags.seconds()?, trace };
    let out_dir = PathBuf::from(flags.str("out").unwrap_or("target/perf"));

    let outcome = workload.run(&opts)?;
    println!(
        "{} seed={} seconds={} {} cores={}",
        workload.name(),
        opts.seed,
        opts.seconds.as_secs_f64(),
        if trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print_metrics(&outcome.detail());
    if outcome.latency.tail_pct < 95.0 {
        println!("  (only {} samples: fewer than the 200 a p95 needs)", outcome.latency.n);
    }
    if trace {
        println!("per layer:");
        print_metrics(&outcome.per_layer());
        let path = out_dir.join(format!("trace-{}.json", workload.name()));
        trace::write(&path, &outcome.spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans in {}", outcome.spans.len(), path.display());
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for problem in &outcome.problems {
        println!("INCORRECT: {problem}");
    }
    println!("{}", outcome.result_json(trace));
    Ok(outcome.problems.is_empty())
}

/// A child run's result line.
pub struct ChildResult {
    pub ok: bool,
    pub correct: bool,
    pub metrics: HashMap<String, f64>,
}

/// Run `exe --workload ...` and parse its result line. Its output is
/// echoed when `echo` is set.
pub fn child(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out_dir: &str,
    echo: bool,
) -> Result<ChildResult, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.as_secs_f64().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", out_dir])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{} {}: no result line ({e}); exit {}",
            exe.display(),
            workload.name(),
            output.status
        )
    })?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => {
            pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?))).collect()
        }
        _ => HashMap::new(),
    };
    Ok(ChildResult {
        ok: output.status.success(),
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        metrics,
    })
}

/// `ssr-perf run`: every workload, each in its own child process; with
/// `--trace`, a traced child after each untraced one and the tracing
/// overhead between them.
fn run_all(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "workloads", "out"], &["trace"])?;
    let seed = flags.get("seed", 1u64)?;
    let seconds = flags.seconds()?;
    let trace = flags.str("trace").is_some();
    let out_dir = flags.str("out").unwrap_or("target/perf");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut overheads = Vec::new();
    for workload in flags.workloads()? {
        let plain = child(&exe, workload, seed, seconds, false, out_dir, true)?;
        ok &= plain.ok && plain.correct;
        if trace {
            let traced = child(&exe, workload, seed, seconds, true, out_dir, true)?;
            ok &= traced.ok && traced.correct;
            let untraced_p50 = plain.metrics.get("op_p50_us").copied().unwrap_or(0.0);
            let traced_p50 = traced.metrics.get("trace.op_p50_us").copied().unwrap_or(0.0);
            overheads.push((workload, untraced_p50, traced_p50));
        }
    }
    for (workload, untraced, traced) in overheads {
        let overhead = stats::ratio(traced - untraced, untraced);
        let verdict = if overhead.abs() > TRACE_TOLERANCE { "  NOT REPRESENTATIVE" } else { "" };
        println!(
            "tracing overhead {:<13} op_p50_us {untraced:.1} us untraced, {traced:.1} us traced \
             ({:+.1}%){verdict}",
            workload.name(),
            overhead * 100.0
        );
    }
    println!("{}", if ok { "all workloads correct" } else { "SOME WORKLOAD FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => one(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ssr-perf: {e}");
            ExitCode::from(2)
        }
    }
}
