//! The lease workloads: `ssr-serve` tenants behind the `ssr-ctl` HTTP
//! listener, driven over loopback TCP with `ssr_ctl::post`.
//!
//! * `lease-spread` — an open loop from one generator thread: Poisson
//!   arrivals over 8 tenants, so the lease is never contended and the
//!   per-request cost of the ctl path dominates while 40 ring threads poll
//!   in the background. Latency is timed from each request's due time.
//! * `lease-hot` — a closed loop: two clients contend for one tenant's
//!   lease, so 409s, revocation by handover and retries do the work.
//!   Latency is timed from each operation's first attempt.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ssr_ctl::http::Request;
use ssr_ctl::{ChaosCmd, ControlPlane, CtlListener, CtlServer, Family, Json, RingStatus};
use ssr_mpnet::FaultKind;
use ssr_net::NodeMetrics;
use ssr_serve::{first_overlap, LeaseCounters, ServeHost, ServePlane, TenantSpec};

use crate::procfs::Window;
use crate::stats::{arrivals, median, pct_us, ratio, Latency};
use crate::trace::{match_requests, now_ns, Span};
use crate::{Metric, Opts, Outcome};

/// Ring size of every tenant.
const NODES: usize = 5;
/// Lease TTL, retransmit tick and critical-section dwell of every tenant.
const TTL: Duration = Duration::from_millis(100);
const TICK: Duration = Duration::from_millis(5);
const DWELL: Duration = Duration::from_millis(1);
/// An operation that has no grant this long after it started has failed.
const GRANT_TIMEOUT: Duration = Duration::from_secs(1);
/// Host bring-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Which lease workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Open loop over many tenants.
    Spread,
    /// Closed loop, two clients on one tenant.
    Hot,
}

impl Load {
    fn tenants(self) -> usize {
        match self {
            Load::Spread => 8,
            Load::Hot => 1,
        }
    }
}

/// `lease-spread`: open-loop arrival rate (acquires per second) and the
/// pause before retrying an acquire answered 409 or 503.
const SPREAD_RATE: f64 = 150.0;
const SPREAD_RETRY: Duration = Duration::from_micros(200);
/// `lease-hot`: closed-loop clients, retry pause, and how long a granted
/// lease is held before release.
const HOT_CLIENTS: u64 = 2;
const HOT_RETRY: Duration = Duration::from_micros(250);
const HOT_HOLD: Duration = Duration::from_micros(500);

/// A `ServePlane` that records a `serve.handle` span around every routed
/// request, keyed by the request id the client put in the acquire body (and
/// for releases, by the lease id that acquire was granted).
struct TracedPlane {
    inner: ServePlane,
    spans: Mutex<Vec<Span>>,
    /// `(tenant, lease id)` → request id of the acquire that got it.
    leases: Mutex<HashMap<(String, u64), u64>>,
}

impl TracedPlane {
    fn request_id(&self, request: &Request, reply: Option<&(u16, &str, String)>) -> Option<u64> {
        let parts: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let body = request.body_str();
        match parts.as_slice() {
            ["tenants", tenant, "acquire"] => {
                let req = body.trim().strip_prefix('r')?.parse().ok()?;
                if let Some((200, _, doc)) = reply {
                    let lease = Json::parse(doc).ok()?.get("lease")?.as_u64()?;
                    self.leases
                        .lock()
                        .expect("lease map poisoned")
                        .insert((tenant.to_string(), lease), req);
                }
                Some(req)
            }
            ["tenants", tenant, "release"] => {
                let lease = body.trim().parse().ok()?;
                self.leases.lock().expect("lease map poisoned").remove(&(tenant.to_string(), lease))
            }
            _ => None,
        }
    }
}

impl ControlPlane for TracedPlane {
    fn status(&self) -> RingStatus {
        self.inner.status()
    }
    fn metrics(&self) -> Vec<Family> {
        self.inner.metrics()
    }
    fn chaos(&self, cmd: ChaosCmd) -> Result<String, String> {
        self.inner.chaos(cmd)
    }
    fn inject(&self, fault: FaultKind) -> Result<String, String> {
        self.inner.inject(fault)
    }
    fn handle(&self, request: &Request) -> Option<(u16, &'static str, String)> {
        let start = now_ns();
        let reply = self.inner.handle(request);
        let mut span = Span::until_now("serve.handle", start, None);
        span.req = self.request_id(request, reply.as_ref());
        self.spans.lock().expect("span log poisoned").push(span);
        reply
    }
}

/// A running host with its HTTP listener.
struct Service {
    host: Arc<ServeHost>,
    server: CtlServer,
    url: String,
    traced: Option<Arc<TracedPlane>>,
}

impl Service {
    /// Spawn the host and its tenants and start serving them.
    fn start(load: Load, seed: u64, traced: bool) -> Result<Service, String> {
        let host = ServeHost::spawn();
        for t in 0..load.tenants() {
            host.create(TenantSpec {
                nodes: NODES,
                seed: seed.wrapping_add(t as u64 * 1_000),
                tick: TICK,
                exec_delay: DWELL,
                lease_ttl: TTL,
                ..TenantSpec::named(format!("t{t}"))
            })?;
        }
        let listener = CtlListener::bind("127.0.0.1:0".parse().expect("loopback address"))
            .map_err(|e| format!("ctl bind: {e}"))?;
        let url = listener.local_addr().to_string();
        let inner = ServePlane::new(Arc::clone(&host));
        let (server, traced) = if traced {
            let plane = Arc::new(TracedPlane {
                inner,
                spans: Mutex::new(Vec::new()),
                leases: Mutex::new(HashMap::new()),
            });
            (listener.serve(Arc::clone(&plane) as Arc<dyn ControlPlane>), Some(plane))
        } else {
            (listener.serve(Arc::new(inner)), None)
        };
        Ok(Service { host, server, url, traced })
    }

    /// Wait until `GET /tenants` answers 200.
    fn ready(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ssr_ctl::get(&self.url, "/tenants") {
                Ok(reply) if reply.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => {
                    return Err("GET /tenants never answered 200".into())
                }
                _ => thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    fn stop(mut self) {
        self.server.shutdown();
        self.host.shutdown();
    }

    /// Lease counters and ring datagrams sent, summed over tenants.
    fn counters(&self) -> (LeaseCounters, u64) {
        let mut sum = LeaseCounters::default();
        let mut sends = 0;
        for entry in self.host.list() {
            let c = entry.lease.counters();
            sum.grants += c.grants;
            sum.conflicts += c.conflicts;
            sum.unavailable += c.unavailable;
            sum.parked += c.parked;
            sum.revocations += c.revocations;
            sum.expirations += c.expirations;
            let ring = entry.ring.lock();
            sends += (0..ring.slot_count())
                .map(|i| NodeMetrics::get(&ring.metrics().node(i).sends))
                .sum::<u64>();
        }
        (sum, sends)
    }

    /// Correctness gates: no two leases of one tenant overlap, and the
    /// trace auditor found no critical-section violation.
    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for entry in self.host.list() {
            if let Some((a, b)) = first_overlap(&entry.lease.history()) {
                problems.push(format!(
                    "tenant {}: lease {} granted at {}us before lease {} ended at {}us",
                    entry.spec.name, b.id, b.granted_us, a.id, a.ended_us
                ));
            }
            let audit = entry.audit();
            if audit.violations > 0 {
                problems.push(format!(
                    "tenant {}: {} critical-section violations",
                    entry.spec.name, audit.violations
                ));
            }
        }
        problems
    }
}

/// A granted lease and when it was granted, or why there was none.
type Grant = Result<(u64, Instant), String>;

/// One load-generator thread's HTTP side, with its `ctl.request` spans
/// when traced.
struct Client<'a> {
    url: &'a str,
    spans: Option<Vec<Span>>,
}

impl Client<'_> {
    fn post(&mut self, path: &str, body: &str, req: u64) -> std::io::Result<ssr_ctl::HttpReply> {
        let start = now_ns();
        let reply = ssr_ctl::post(self.url, path, body);
        if let Some(spans) = &mut self.spans {
            spans.push(Span::until_now("ctl.request", start, Some(req)));
        }
        reply
    }

    /// POST acquire for request `req` until granted, retrying 409 and 503
    /// after `retry` until `deadline`. Also returns the requests sent.
    fn acquire(
        &mut self,
        tenant: usize,
        req: u64,
        retry: Duration,
        deadline: Instant,
    ) -> (Grant, u32) {
        let path = format!("/tenants/{}/acquire", tenant + 1); // registry ids start at 1
        let mut attempts = 0;
        loop {
            attempts += 1;
            let grant = match self.post(&path, &format!("r{req}"), req) {
                Ok(reply) if reply.status == 200 => {
                    let granted = Instant::now();
                    Json::parse(&reply.body)
                        .ok()
                        .and_then(|d| d.get("lease")?.as_u64())
                        .map(|lease| (lease, granted))
                        .ok_or_else(|| format!("grant without a lease id: {}", reply.body))
                }
                Ok(reply) if reply.status == 409 || reply.status == 503 => {
                    if Instant::now() + retry > deadline {
                        Err("no grant within 1 s".to_string())
                    } else {
                        thread::sleep(retry);
                        continue;
                    }
                }
                Ok(reply) => Err(format!("acquire answered {}", reply.status)),
                Err(e) => Err(format!("acquire: {e}")),
            };
            return (grant, attempts);
        }
    }

    /// POST release; whether it was answered 200, i.e. the lease was still
    /// held and not revoked by a handover or expired first.
    fn release(&mut self, tenant: usize, lease: u64, req: u64) -> Result<bool, String> {
        let path = format!("/tenants/{}/release", tenant + 1);
        match self.post(&path, &lease.to_string(), req) {
            Ok(reply) => Ok(reply.status == 200),
            Err(e) => Err(format!("release: {e}")),
        }
    }
}

/// What the load generator saw in the measurement window.
#[derive(Default)]
struct Tally {
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
    /// Acquire requests sent.
    attempts: u64,
    /// Operations started.
    ops: u64,
    granted: u64,
    /// Releases answered with something other than 200.
    lost: u64,
    /// Operations with a transport error, an unexpected status or no grant
    /// within [`GRANT_TIMEOUT`].
    failed: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

impl Tally {
    fn acquired(&mut self, grant: &Grant, attempts: u32, began: Instant) {
        self.ops += 1;
        self.attempts += u64::from(attempts);
        match grant {
            Ok((_, at)) => {
                self.granted += 1;
                self.latency_ns.push((*at - began).as_nanos() as u64);
            }
            Err(e) => self.fail(e),
        }
    }

    fn released(&mut self, released: Result<bool, String>) {
        match released {
            Ok(ok) => self.lost += u64::from(!ok),
            Err(e) => self.fail(&e),
        }
    }

    fn fail(&mut self, error: &str) {
        self.failed += 1;
        self.first_error.get_or_insert_with(|| error.to_string());
    }

    fn absorb(&mut self, other: Tally) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.attempts += other.attempts;
        self.ops += other.ops;
        self.granted += other.granted;
        self.lost += other.lost;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.spans.extend(other.spans);
    }
}

/// Process and service counters at the start of the measurement window.
struct Mark {
    window: Window,
    lease: LeaseCounters,
    sends: u64,
}

impl Service {
    fn mark(&self) -> Mark {
        let (lease, sends) = self.counters();
        Mark { window: Window::open(), lease, sends }
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        thread::sleep(wait);
    }
}

/// Open loop. One generator thread walks the arrival schedule and sends
/// each acquire at its due time; a second thread releases every granted
/// lease at once, so releases never hold up the next arrival. An acquire
/// due while the previous one is still in flight starts late, and its
/// latency, timed from the due time, counts the wait.
fn spread(service: &Service, opts: &Opts) -> (Tally, Mark) {
    let warmup = opts.warmup();
    let schedule = arrivals(opts.seed, SPREAD_RATE, warmup + opts.seconds, Load::Spread.tenants());
    let url = service.url.as_str();
    // (tenant, lease, request id, op start, measured)
    let (to_releaser, grants) = mpsc::channel::<(usize, u64, u64, u64, bool)>();
    thread::scope(|s| {
        let releaser = s.spawn(move || {
            let mut client = Client { url, spans: opts.trace.then(Vec::new) };
            let mut tally = Tally::default();
            for (tenant, lease, req, op_start, measured) in grants {
                let released = client.release(tenant, lease, req);
                if measured {
                    tally.released(released);
                    if let Some(spans) = &mut client.spans {
                        spans.push(Span::until_now("loadgen.op", op_start, Some(req)));
                    }
                }
            }
            tally.spans = client.spans.unwrap_or_default();
            tally
        });

        let mut client = Client { url, spans: opts.trace.then(Vec::new) };
        let mut tally = Tally::default();
        let mut mark = None;
        let start = Instant::now();
        for (req, (offset, tenant)) in schedule.into_iter().enumerate() {
            let req = req as u64;
            if offset >= warmup && mark.is_none() {
                sleep_until(start + warmup);
                mark = Some(service.mark());
            }
            let due = start + offset;
            sleep_until(due);
            let late = Instant::now() - due;
            let op_start = now_ns();
            let (grant, attempts) = client.acquire(tenant, req, SPREAD_RETRY, due + GRANT_TIMEOUT);
            let measured = mark.is_some();
            if measured {
                tally.late_ns.push(late.as_nanos() as u64);
                tally.acquired(&grant, attempts, due);
            }
            match grant {
                Ok((lease, _)) => {
                    to_releaser
                        .send((tenant, lease, req, op_start, measured))
                        .expect("releaser runs");
                }
                Err(_) if measured => {
                    if let Some(spans) = &mut client.spans {
                        spans.push(Span::until_now("loadgen.op", op_start, Some(req)));
                    }
                }
                Err(_) => {}
            }
        }
        drop(to_releaser);
        tally.spans = client.spans.take().unwrap_or_default();
        tally.absorb(releaser.join().expect("lease releaser panicked"));
        (tally, mark.unwrap_or_else(|| service.mark()))
    })
}

/// Closed loop: each client holds a granted lease, releases it, and starts
/// its next op at once.
fn hot(service: &Service, opts: &Opts) -> (Tally, Mark) {
    let measure_from = Instant::now() + opts.warmup();
    let end = measure_from + opts.seconds;
    let next_req = AtomicU64::new(0);
    let url = service.url.as_str();
    thread::scope(|s| {
        let clients: Vec<_> = (0..HOT_CLIENTS)
            .map(|_| {
                let next_req = &next_req;
                s.spawn(move || {
                    let mut client = Client { url, spans: opts.trace.then(Vec::new) };
                    let mut tally = Tally::default();
                    while Instant::now() < end {
                        let req = next_req.fetch_add(1, Ordering::Relaxed);
                        let began = Instant::now();
                        let op_start = now_ns();
                        let (grant, attempts) =
                            client.acquire(0, req, HOT_RETRY, began + GRANT_TIMEOUT);
                        let measured = began >= measure_from;
                        if measured {
                            tally.acquired(&grant, attempts, began);
                        }
                        if let Ok((lease, _)) = grant {
                            thread::sleep(HOT_HOLD);
                            let released = client.release(0, lease, req);
                            if measured {
                                tally.released(released);
                            }
                        }
                        if let (true, Some(spans)) = (measured, &mut client.spans) {
                            spans.push(Span::until_now("loadgen.op", op_start, Some(req)));
                        }
                    }
                    tally.spans = client.spans.unwrap_or_default();
                    tally
                })
            })
            .collect();
        sleep_until(measure_from);
        let mark = service.mark();
        let mut tally = Tally::default();
        for client in clients {
            tally.absorb(client.join().expect("lease client panicked"));
        }
        (tally, mark)
    })
}

/// Link the measured `loadgen.op` spans, their `ctl.request` spans and the
/// plane's `serve.handle` spans into one trace, and derive the ctl and
/// serve layer numbers from it. Requests and handles of warmup ops find no
/// parent and are left out.
fn ctl_layers(out: &mut Outcome, generator: Vec<Span>, handles: Vec<Span>) {
    let (ops, requests): (Vec<Span>, Vec<Span>) =
        generator.into_iter().partition(|s| s.name == "loadgen.op");
    let request_parent = match_requests(&ops, &requests);
    let requests: Vec<Span> = requests
        .into_iter()
        .zip(request_parent)
        .filter_map(|(s, parent)| parent.map(|p| Span { parent: Some(p), ..s }))
        .collect();
    let handle_parent = match_requests(&requests, &handles);
    let handles: Vec<(Span, usize)> =
        handles.into_iter().zip(handle_parent).filter_map(|(s, p)| Some((s, p?))).collect();

    let roundtrip: Vec<u64> = requests.iter().map(Span::ns).collect();
    let handle_ns: Vec<u64> = handles.iter().map(|(h, _)| h.ns()).collect();
    let self_ns: Vec<u64> =
        handles.iter().map(|(h, p)| requests[*p].ns().saturating_sub(h.ns())).collect();
    out.layer("ctl.requests", requests.len() as f64);
    out.layer("ctl.roundtrip_p50_us", pct_us(&roundtrip, 50.0));
    out.layer("ctl.roundtrip_p99_us", pct_us(&roundtrip, 99.0));
    out.layer("ctl.self_p50_us", pct_us(&self_ns, 50.0));
    out.layer("serve.handle_p50_us", pct_us(&handle_ns, 50.0));
    out.layer("serve.handle_p99_us", pct_us(&handle_ns, 99.0));

    let mut spans = ops;
    let base = spans.len();
    spans.extend(requests);
    let handle_base = spans.len();
    spans.extend(handles.into_iter().map(|(s, p)| Span { parent: Some(base + p), ..s }));
    debug_assert!(spans[base..handle_base].iter().all(|s| s.parent.is_some_and(|p| p < base)));
    out.spans = spans;
}

/// Run one lease workload.
pub fn run(load: Load, opts: &Opts) -> Result<Outcome, String> {
    // Bring the host up SETUP_REPS times, keeping the last one. The wait
    // for the first 200 is left out of the timing: the listener polls for
    // connections every 2 ms, so it would add a 0-or-2 ms coin flip.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut service: Option<Service> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = service.take() {
            previous.stop();
        }
        let began = Instant::now();
        let started = Service::start(load, opts.seed, opts.trace)?;
        setup.push(began.elapsed());
        started.ready()?;
        service = Some(started);
    }
    let service = service.expect("SETUP_REPS > 0");

    let (tally, mark) = match load {
        Load::Spread => spread(&service, opts),
        Load::Hot => hot(&service, opts),
    };
    let window = mark.window.close();
    let (lease, sends) = service.counters();
    let problems = service.problems();
    let handles = service
        .traced
        .as_ref()
        .map(|plane| std::mem::take(&mut *plane.spans.lock().expect("span log poisoned")))
        .unwrap_or_default();
    service.stop();

    let latency = Latency::of(tally.latency_ns.clone()).ok_or_else(|| {
        format!("no lease granted in the window: {}", tally.first_error.as_deref().unwrap_or("-"))
    })?;
    let secs = window.wall.as_secs_f64();
    let completed = tally.ops - tally.failed;
    let mut out = Outcome::new(
        "lease_acquire",
        latency,
        Metric::new("lease_ops_per_s", "1/s", completed as f64 / secs, completed),
        median(&setup),
        setup.len(),
        window,
    );
    out.attempted = tally.ops;
    out.failed = tally.failed;
    out.problems = problems;
    if let Some(e) = &tally.first_error {
        out.notes.push(format!("first failed op: {e}"));
    }
    out.extra.push(Metric::new(
        "lease_lost_ratio",
        "ratio",
        ratio(tally.lost as f64, tally.granted as f64),
        tally.granted,
    ));

    let delta = |now: u64, then: u64| now.saturating_sub(then) as f64;
    let attempts = delta(
        lease.grants + lease.conflicts + lease.unavailable + lease.parked,
        mark.lease.grants + mark.lease.conflicts + mark.lease.unavailable + mark.lease.parked,
    );
    let grants = delta(lease.grants, mark.lease.grants);
    let late_p99 = pct_us(&tally.late_ns, 99.0);
    if late_p99 > latency.p50_us / 2.0 {
        out.notes.push(format!(
            "generator lateness p99 {late_p99:.0} us is not well below the acquire median: \
             that much of the tail is queueing behind the generator's previous acquire"
        ));
    }
    out.layer("loadgen.late_p99_us", late_p99);
    out.layer("loadgen.attempts_per_op", ratio(tally.attempts as f64, tally.ops as f64));
    out.layer("serve.lease.grants", grants);
    out.layer("serve.lease.conflicts", delta(lease.conflicts, mark.lease.conflicts));
    out.layer("serve.lease.unavailable", delta(lease.unavailable, mark.lease.unavailable));
    out.layer("serve.lease.revocations", delta(lease.revocations, mark.lease.revocations));
    out.layer("serve.lease.expirations", delta(lease.expirations, mark.lease.expirations));
    out.layer("serve.lease.grant_ratio", ratio(grants, attempts));
    out.layer("serve.ring.sends_per_s", delta(sends, mark.sends) / secs);
    if opts.trace {
        ctl_layers(&mut out, tally.spans, handles);
    }
    Ok(out)
}
