//! The CST node runner: one thread driving a shared-core [`Replica`] over a
//! [`Transport`].
//!
//! This is Algorithm 4 against real sockets: on receipt refresh the cache,
//! log any privilege change, dwell `exec_delay` in the critical section,
//! execute one enabled rule and republish; the transport's own jittered
//! timer handles the periodic rebroadcast (line 11).
//!
//! The runner exits on either of two flags in its [`NodeControl`]: the
//! shared `stop` (graceful end of the whole run) or the per-node `kill`
//! (fault injection — the supervisor in [`crate::supervisor`] flips it to
//! simulate a process crash). Either way it hands back both the final
//! replica and the transport, so a restarted incarnation can reuse the same
//! sockets and the ring needs no re-wiring.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use ssr_core::{Replica, RingAlgorithm, WireState};
use ssr_runtime::activity::ActivityEvent;

use crate::metrics::NodeMetrics;
use crate::transport::{Inbound, Neighbor, Transport};

/// Per-node runner parameters.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// Critical-section dwell before handing the token on. Keep this well
    /// above the OS scheduling quantum on single-core hosts so activity
    /// logs show the true privilege overlap.
    pub exec_delay: Duration,
    /// Sleep when the sockets are idle (bounds busy-waiting; also the
    /// granularity of the retransmit timer).
    pub idle_sleep: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig { exec_delay: Duration::from_millis(1), idle_sleep: Duration::from_micros(300) }
    }
}

/// One escalation of a node's convergence watchdog, reported through the
/// [`Watchdog::outbox`] so the supervisor can turn it into a recovery row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogEvent {
    /// Ring index of the escalating node.
    pub node: usize,
    /// False: stage-1 resync (republish). True: stage-2 amnesia
    /// self-restart with a generation bump.
    pub restart: bool,
    /// Wall-clock offset from run start.
    pub at: Duration,
}

/// A starvation budget that tracks the *live* ring size instead of
/// capturing `n` at spawn. The Lemma-5 bound the budget derives from is
/// `3n` steps, so the correct budget is a function of the ring size — and
/// since a membership re-splice changes `n` mid-run, every node re-reads
/// the shared size on each watchdog check. Whoever performs the re-splice
/// (the supervisor, a [`crate::membership::RingMembership`], a hosted
/// tenant) updates the shared counter and every node's watchdog rescales
/// on its next check, with no restart and no channel.
#[derive(Debug, Clone)]
pub struct SharedBudget {
    /// Live ring size; shared with the component that performs re-splices.
    ring_size: Arc<AtomicUsize>,
    /// Base retransmit period of the cluster's transports.
    tick: Duration,
    /// Multiplier on the `3n`-step Lemma 5 bound.
    scale: u32,
    /// Lower bound protecting small rings from scheduler noise.
    floor: Duration,
}

impl SharedBudget {
    /// A budget reading the live ring size from `ring_size`.
    pub fn new(ring_size: Arc<AtomicUsize>, tick: Duration, scale: u32, floor: Duration) -> Self {
        SharedBudget { ring_size, tick, scale, floor }
    }

    /// A budget over a ring whose size never changes (no membership layer).
    pub fn fixed(n: usize, tick: Duration, scale: u32, floor: Duration) -> Self {
        SharedBudget::new(Arc::new(AtomicUsize::new(n)), tick, scale, floor)
    }

    /// The shared size counter, for the component that re-splices the ring.
    pub fn ring_size_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.ring_size)
    }

    /// Record a new ring size; every node's next watchdog check uses it.
    pub fn set_ring_size(&self, n: usize) {
        self.ring_size.store(n, Ordering::Relaxed);
    }

    /// The budget for the ring size as of *now*:
    /// `max(tick · 3n · scale, floor)`.
    pub fn current(&self) -> Duration {
        let n = self.ring_size.load(Ordering::Relaxed).max(1);
        let steps = (3 * n as u64).saturating_mul(u64::from(self.scale));
        (self.tick * u32::try_from(steps).unwrap_or(u32::MAX)).max(self.floor)
    }
}

/// Per-node convergence watchdog: the node-local half of the Bernard et al.
/// reloading-wave idea. If the node's rule engine starves — no rule firing
/// — for longer than `budget` (derived from the paper's 3n-step bound,
/// Lemma 5, scaled by the retransmit period), the node escalates locally:
/// first a resync (republish its state to both neighbours), then — if the
/// starvation persists for another budget — an amnesia self-restart: forget
/// both caches, jump the wire generation by `generation_bump` so neighbours'
/// staleness filters accept the reborn sender, republish. No supervisor
/// involvement; the ring heals itself.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// Starvation budget before each escalation stage, re-read on every
    /// check so it rescales when a re-splice changes the ring size.
    pub budget: SharedBudget,
    /// Generation jump applied by a stage-2 self-restart (mirrors the
    /// supervisor's incarnation-scaled rebind floor).
    pub generation_bump: u32,
    /// Escalation reports, drained by the supervisor's polling loop.
    pub outbox: Arc<Mutex<Vec<WatchdogEvent>>>,
}

/// Control surface of one running node: how the outside world stops it,
/// hurts it, and where it persists its state.
#[derive(Debug, Clone)]
pub struct NodeControl {
    /// Graceful end of the whole run (shared by every node).
    pub stop: Arc<AtomicBool>,
    /// Crash this node now (per-node; set by the fault supervisor).
    pub kill: Arc<AtomicBool>,
    /// When present, the node writes an [`ssr_core::wire`] snapshot of its
    /// replica here after every state change — the persisted state a
    /// snapshot-mode restart recovers from.
    pub snapshot: Option<Arc<Mutex<Vec<u8>>>>,
    /// Adversarial state injection: a replica snapshot deposited here is
    /// swallowed whole on the next loop iteration — the live replica is
    /// overwritten in place ([`ssr_mpnet::FaultKind::CorruptState`]).
    pub poison: Arc<Mutex<Option<Vec<u8>>>>,
    /// While set, the rule engine is suspended: the node keeps receiving,
    /// caching and retransmitting (a stuck daemon still ACKs) but never
    /// executes a rule ([`ssr_mpnet::FaultKind::FreezeNode`]). Cleared by a
    /// supervisor restart or a stage-2 watchdog self-restart.
    pub frozen: Arc<AtomicBool>,
    /// Degraded-mode suspension, usually ring-wide (one flag shared by
    /// every node): while set, the handshake's rule engine must not grant
    /// or hand over privileges because a random-walk fallback token is
    /// circulating instead (see `crate::membership`). Unlike [`frozen`],
    /// this also pauses the watchdog — a suspended engine is not starving
    /// — and a stage-2 self-restart never clears it.
    ///
    /// [`frozen`]: NodeControl::frozen
    pub suspended: Arc<AtomicBool>,
    /// Optional convergence watchdog (None: never escalate).
    pub watchdog: Option<Watchdog>,
}

impl NodeControl {
    /// A control that only answers to the shared `stop` flag.
    pub fn new(stop: Arc<AtomicBool>) -> Self {
        NodeControl {
            stop,
            kill: Arc::new(AtomicBool::new(false)),
            snapshot: None,
            poison: Arc::new(Mutex::new(None)),
            frozen: Arc::new(AtomicBool::new(false)),
            suspended: Arc::new(AtomicBool::new(false)),
            watchdog: None,
        }
    }

    /// True iff the node should exit its main loop.
    pub fn should_exit(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.kill.load(Ordering::Relaxed)
    }
}

/// Run one node until its [`NodeControl`] tells it to exit; returns the
/// final replica together with the transport (reused across restarts).
///
/// `log` collects privilege transitions with wall-clock offsets from
/// `start`, in the exact format `ssr_runtime::activity::analyze` consumes.
#[allow(clippy::too_many_arguments)]
pub fn run_node<A, T>(
    algo: A,
    i: usize,
    mut replica: Replica<A::State>,
    mut transport: T,
    cfg: NodeConfig,
    control: NodeControl,
    log: Arc<Mutex<Vec<ActivityEvent>>>,
    start: Instant,
    metrics: Arc<NodeMetrics>,
) -> (Replica<A::State>, T)
where
    A: RingAlgorithm,
    A::State: WireState + Clone,
    T: Transport<A::State>,
{
    let mut last_privileged = replica.is_privileged(&algo, i);
    // Watchdog bookkeeping: when the rule engine last made progress, and
    // whether the stage-1 resync already ran for the current starvation.
    let mut last_progress = Instant::now();
    let mut resynced = false;
    let mut was_suspended = false;

    // Live-introspection gauges: locally-evaluated privilege and token
    // holdings, refreshed on every replica change. Relaxed stores on the hot
    // path — no scrape, no lock, no extra cost beyond two atomic writes.
    let set_gauges = |replica: &Replica<A::State>, metrics: &NodeMetrics| {
        let tokens = replica.tokens(&algo, i);
        NodeMetrics::set(&metrics.privileged, u64::from(tokens.any()));
        NodeMetrics::set(&metrics.token_primary, u64::from(tokens.primary));
        NodeMetrics::set(&metrics.token_secondary, u64::from(tokens.secondary));
    };

    let log_transition = |replica: &Replica<A::State>, last: &mut bool, metrics: &NodeMetrics| {
        set_gauges(replica, metrics);
        let now_privileged = replica.is_privileged(&algo, i);
        if now_privileged != *last {
            *last = now_privileged;
            if now_privileged {
                NodeMetrics::inc(&metrics.activations);
            }
            log.lock().push(ActivityEvent { node: i, at: start.elapsed(), active: now_privileged });
        }
    };

    let persist = |replica: &Replica<A::State>| {
        if let Some(store) = &control.snapshot {
            *store.lock() = replica.snapshot();
        }
    };

    // Announce the initial state so coherent peers stay coherent and
    // incoherent ones converge; persist it so a crash before the first rule
    // firing still leaves a restorable snapshot.
    set_gauges(&replica, &metrics);
    let _ = transport.publish(&replica.own);
    persist(&replica);

    while !control.should_exit() {
        // Adversarial state injection: swallow a deposited poison snapshot
        // whole — own state, both caches — and keep running on it. The
        // replica announces its poisoned state like any other change;
        // self-stabilization must absorb it.
        if let Some(bytes) = control.poison.lock().take() {
            if let Ok(poisoned) = Replica::from_snapshot(&bytes) {
                replica = poisoned;
                log_transition(&replica, &mut last_privileged, &metrics);
                let _ = transport.publish(&replica.own);
                persist(&replica);
            }
        }

        let _ = transport.pump();
        match transport.try_recv() {
            Some(Inbound { from, state }) => {
                match from {
                    Neighbor::Pred => replica.cache_pred = state,
                    Neighbor::Succ => replica.cache_succ = state,
                }
                replica.messages_received += 1;
                // Privilege may change on a pure cache refresh (e.g. the
                // primary token arriving) — log before any dwell.
                log_transition(&replica, &mut last_privileged, &metrics);
                // A frozen rule engine (stuck daemon) still caches and
                // retransmits — only execution is suspended. A degraded-mode
                // suspension behaves the same at this point: the handshake
                // must not fire while the fallback walker is circulating.
                let frozen = control.frozen.load(Ordering::Relaxed)
                    || control.suspended.load(Ordering::Relaxed);
                if !frozen && replica.enabled_rule(&algo, i).is_some() {
                    if !cfg.exec_delay.is_zero() {
                        // Critical-section dwell: the node stays privileged
                        // while it does its work.
                        thread::sleep(cfg.exec_delay);
                    }
                    let fired = replica.execute_one(&algo, i).is_some();
                    // Stamp the privilege change before the publish that
                    // reveals it: a neighbour reacting to the new state must
                    // log after us, or the log shows a gap that never was.
                    log_transition(&replica, &mut last_privileged, &metrics);
                    if fired {
                        NodeMetrics::inc(&metrics.rule_firings);
                        let _ = transport.publish(&replica.own);
                        last_progress = Instant::now();
                        resynced = false;
                    }
                }
                persist(&replica);
            }
            None => thread::sleep(cfg.idle_sleep),
        }

        // Convergence watchdog: escalate locally when the rule engine has
        // starved past its budget — resync first, self-restart second. A
        // degraded-mode suspension pauses the clock: the engine is idle by
        // design, not starving, and a stage-2 amnesia restart mid-fallback
        // would mint handshake privileges against the walker's exclusivity.
        let suspended_now = control.suspended.load(Ordering::Relaxed);
        if suspended_now {
            last_progress = Instant::now();
            resynced = false;
            if !was_suspended {
                NodeMetrics::inc(&metrics.suspensions);
            }
        }
        was_suspended = suspended_now;
        if let Some(wd) = &control.watchdog {
            if last_progress.elapsed() >= wd.budget.current() {
                if !resynced {
                    // Stage 1: resync. Re-offer our state to both
                    // neighbours in case the stall is a lost-message wedge.
                    let _ = transport.publish(&replica.own);
                    NodeMetrics::inc(&metrics.watchdog_resyncs);
                    wd.outbox.lock().push(WatchdogEvent {
                        node: i,
                        restart: false,
                        at: start.elapsed(),
                    });
                    resynced = true;
                } else {
                    // Stage 2: amnesia self-restart. Forget everything we
                    // believed about the neighbours, clear a stuck-daemon
                    // freeze, and rebind past the staleness filters.
                    control.frozen.store(false, Ordering::Relaxed);
                    replica.cache_pred = replica.own.clone();
                    replica.cache_succ = replica.own.clone();
                    log_transition(&replica, &mut last_privileged, &metrics);
                    transport.bump_generation(wd.generation_bump);
                    let _ = transport.publish(&replica.own);
                    persist(&replica);
                    NodeMetrics::inc(&metrics.watchdog_restarts);
                    wd.outbox.lock().push(WatchdogEvent {
                        node: i,
                        restart: true,
                        at: start.elapsed(),
                    });
                    resynced = false;
                }
                last_progress = Instant::now();
            }
        }
    }
    (replica, transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::UdpTransport;
    use ssr_core::{RingParams, SsrMin, SsrState};
    use ssr_runtime::activity::analyze;
    use std::io;

    /// A transport that pauses after publishing a state with `tra` set — the
    /// Rule 3 firing by which a node takes the secondary token — as if the
    /// node were preempted right after handing that state to the wire.
    struct SlowTakeover<T> {
        inner: T,
        pause: Duration,
    }

    impl<T: Transport<SsrState>> Transport<SsrState> for SlowTakeover<T> {
        fn publish(&mut self, state: &SsrState) -> io::Result<()> {
            let sent = self.inner.publish(state);
            if state.tra {
                thread::sleep(self.pause);
            }
            sent
        }
        fn pump(&mut self) -> io::Result<()> {
            self.inner.pump()
        }
        fn try_recv(&mut self) -> Option<Inbound<SsrState>> {
            self.inner.try_recv()
        }
    }

    /// The old holder sees the taken secondary and gives the token up after
    /// its 1 ms dwell, long before the new holder's 5 ms pause ends. The
    /// activity log must still show a privileged node at every instant: the
    /// new holder stamped its privilege before the publish revealed it.
    #[test]
    fn privilege_is_stamped_before_the_publish_that_reveals_it() {
        let n = 4;
        let algo = SsrMin::new(RingParams::new(n, n as u32 + 1).unwrap());
        let initial = algo.legitimate_anchor(0);
        let tick = Duration::from_millis(5);
        let mut transports = (0..n)
            .map(|i| {
                let metrics = Arc::new(NodeMetrics::default());
                let (pred, succ) = ((i + n - 1) % n, (i + 1) % n);
                UdpTransport::bind(i as u16, pred as u16, succ as u16, tick, i as u64, metrics)
            })
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        let addrs: Vec<_> = transports.iter().map(|t| t.local_addrs().unwrap()).collect();
        for (i, transport) in transports.iter_mut().enumerate() {
            transport.wire(addrs[(i + n - 1) % n].succ, addrs[(i + 1) % n].pred);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        let cfg = NodeConfig { exec_delay: Duration::from_millis(1), ..NodeConfig::default() };
        let mut initial_active = Vec::with_capacity(n);
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(i, inner)| {
                let (pred, succ) = ((i + n - 1) % n, (i + 1) % n);
                let replica = Replica::coherent(initial[i], initial[pred], initial[succ]);
                initial_active.push(replica.is_privileged(&algo, i));
                let transport = SlowTakeover { inner, pause: Duration::from_millis(5) };
                let control = NodeControl::new(Arc::clone(&stop));
                let log = Arc::clone(&log);
                let metrics = Arc::new(NodeMetrics::default());
                thread::spawn(move || {
                    run_node(algo, i, replica, transport, cfg, control, log, start, metrics)
                })
            })
            .collect();

        thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            handle.join().unwrap();
        }
        let observed = start.elapsed();
        let mut events = log.lock().clone();
        events.sort_by_key(|e| e.at);

        let coverage = analyze(&initial_active, &events, observed, Duration::ZERO);
        assert!(coverage.activations >= 8, "the token barely moved: {coverage:?}");
        assert!(
            coverage.uncovered.is_zero(),
            "log shows zero privileged nodes for {:?} (longest gap {:?}, {} gaps)",
            coverage.uncovered,
            coverage.longest_gap,
            coverage.gaps
        );
    }
}
