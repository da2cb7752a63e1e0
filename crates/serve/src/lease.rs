//! TTL'd token leases: an application-facing claim on a tenant's token.
//!
//! SSRmin guarantees each tenant ring always has one primary token holder
//! (P9) and at most two privileged nodes ((1,2)-CS). The lease layer turns
//! that protocol-level privilege into an application-level contract: at
//! most one *client* of a tenant holds a lease at any instant. A lease is
//! granted against the node currently holding the primary token, lives for
//! a TTL, and dies early if the client releases it or the ring hands the
//! token to another node (graceful handover revokes the lease — the claim
//! was on *that* node's privilege).
//!
//! All grant/close decisions happen under one mutex and the closed-lease
//! history records microsecond windows, so exclusivity is provable after
//! the fact: sort the windows by grant time and no window may open before
//! the previous one ended.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// How a lease ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseEnd {
    /// The client released it.
    Released,
    /// The TTL ran out before the client released.
    Expired,
    /// The ring handed the token to another node while the lease lived.
    Revoked,
}

/// A currently granted lease.
#[derive(Debug, Clone)]
pub struct Lease {
    /// Unique (per tenant) lease id, also the release capability.
    pub id: u64,
    /// Client-supplied name (diagnostics only; the id is the capability).
    pub client: String,
    /// Ring node whose token privilege backs this lease.
    pub node: usize,
    /// When the lease was granted.
    pub granted_at: Instant,
    /// When it expires unless released first.
    pub expires_at: Instant,
}

/// One closed lease, as microsecond offsets from the manager's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseWindow {
    /// Lease id.
    pub id: u64,
    /// Backing node.
    pub node: usize,
    /// Grant time, µs since the manager's epoch.
    pub granted_us: u64,
    /// End time, µs since the manager's epoch.
    pub ended_us: u64,
    /// Why it ended.
    pub end: LeaseEnd,
}

/// Monotonic counters of lease traffic (mirrored into `/metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseCounters {
    /// Leases granted.
    pub grants: u64,
    /// Leases released by their client.
    pub releases: u64,
    /// Leases that hit their TTL.
    pub expirations: u64,
    /// Leases revoked by a token handover.
    pub revocations: u64,
    /// Acquire attempts refused because a lease was held (HTTP 409).
    pub conflicts: u64,
    /// Acquire attempts refused because no node held the primary token at
    /// that instant (transient, e.g. mid-handover or mid-fault).
    pub unavailable: u64,
    /// Park events: a held lease carried across a re-splice (its TTL clock
    /// stopped) plus acquire attempts refused with HTTP 503 while the
    /// tenant's ring was mid-splice.
    pub parked: u64,
    /// Park windows *saved* by scheduling: membership operations that
    /// would each have parked the lease on their own but rode an already
    /// open park instead (batched K renegotiation, segment-scoped splice
    /// parking). Each saved window is one fewer 503 storm for clients.
    pub park_saves: u64,
}

/// Outcome of an acquire attempt.
#[derive(Debug, Clone)]
pub enum Acquire {
    /// Lease granted.
    Granted(Lease),
    /// Another client holds the lease until (at the latest) its TTL.
    Held {
        /// Remaining TTL of the blocking lease.
        retry_in: Duration,
    },
    /// No node currently reports holding the primary token.
    NoHolder,
    /// The tenant's ring is mid-splice; the lease authority is parked.
    /// Retry once the splice completes (HTTP 503 + retry-after).
    Parked {
        /// Expected remaining splice time (the parker's hint).
        retry_in: Duration,
    },
}

/// While a re-splice rebuilds the ring, the lease authority is parked: the
/// TTL clock stops for a held lease (it is re-validated at unpark instead
/// of silently expiring mid-splice) and acquires are refused with a
/// retry-after hint. Parks nest — overlapping membership operations each
/// take a depth — and the earliest `since` wins for clock arithmetic.
struct ParkState {
    since: Instant,
    hint: Duration,
    depth: u32,
}

struct LeaseInner {
    next_id: u64,
    current: Option<Lease>,
    counters: LeaseCounters,
    /// Shared with every [`LeaseManager::history`] snapshot; a push copies
    /// it only while a snapshot is still alive.
    history: Arc<Vec<LeaseWindow>>,
    park: Option<ParkState>,
    /// xorshift64 state behind the parked retry-hint jitter; per-manager
    /// and advanced per refusal, so concurrent clients draw different
    /// offsets without any global randomness source.
    jitter: u64,
}

/// The per-tenant lease authority.
pub struct LeaseManager {
    epoch: Instant,
    ttl: Duration,
    inner: Mutex<LeaseInner>,
}

impl LeaseManager {
    /// A manager granting leases of `ttl` with window timestamps relative
    /// to `epoch` (the tenant ring's start).
    pub fn new(epoch: Instant, ttl: Duration) -> Self {
        LeaseManager {
            epoch,
            ttl,
            inner: Mutex::new(LeaseInner {
                next_id: 1,
                current: None,
                counters: LeaseCounters::default(),
                history: Arc::new(Vec::new()),
                park: None,
                jitter: 0x9E37_79B9_7F4A_7C15,
            }),
        }
    }

    /// The configured TTL.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Close the current lease if it expired, or if the token moved off the
    /// leased node (`holder` is the node currently holding the primary
    /// token, if visible). Called under the lock before every decision and
    /// periodically by the host's refresh loop.
    fn refresh_locked(&self, inner: &mut LeaseInner, holder: Option<usize>, now: Instant) {
        // A parked authority makes no expiry or revocation decisions: the
        // TTL clock is stopped and the holder view is mid-splice noise.
        if inner.park.is_some() {
            return;
        }
        let Some(lease) = inner.current.as_ref() else { return };
        if now >= lease.expires_at {
            // The TTL ran out at expires_at, not when we noticed.
            let window = LeaseWindow {
                id: lease.id,
                node: lease.node,
                granted_us: self.us(lease.granted_at),
                ended_us: self.us(lease.expires_at),
                end: LeaseEnd::Expired,
            };
            Arc::make_mut(&mut inner.history).push(window);
            inner.counters.expirations += 1;
            inner.current = None;
        } else if holder.is_some() && holder != Some(lease.node) {
            let window = LeaseWindow {
                id: lease.id,
                node: lease.node,
                granted_us: self.us(lease.granted_at),
                ended_us: self.us(now),
                end: LeaseEnd::Revoked,
            };
            Arc::make_mut(&mut inner.history).push(window);
            inner.counters.revocations += 1;
            inner.current = None;
        }
    }

    /// Periodic maintenance: expire / revoke the current lease against the
    /// ring's current primary holder.
    pub fn refresh(&self, holder: Option<usize>) {
        let mut inner = self.inner.lock();
        self.refresh_locked(&mut inner, holder, Instant::now());
    }

    /// Try to acquire the tenant's lease for `client`. `holder` is the node
    /// currently holding the primary token (the grant target).
    pub fn acquire(&self, client: &str, holder: Option<usize>) -> Acquire {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        if let Some(park) = &inner.park {
            let base = park.hint.saturating_sub(park.since.elapsed()).max(Duration::from_millis(5));
            // Bounded jitter past the unpark instant: every refused client
            // gets a distinct retry offset within a quarter of the park
            // hint, so they do not thundering-herd the exact moment the
            // splice is expected to finish.
            let spread_us = (park.hint.as_micros() as u64 / 4).max(1_000);
            let mut x = inner.jitter;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            inner.jitter = x;
            let retry_in = base + Duration::from_micros(x % spread_us);
            inner.counters.parked += 1;
            return Acquire::Parked { retry_in };
        }
        self.refresh_locked(&mut inner, holder, now);
        if let Some(expires_at) = inner.current.as_ref().map(|l| l.expires_at) {
            inner.counters.conflicts += 1;
            return Acquire::Held { retry_in: expires_at.saturating_duration_since(now) };
        }
        let Some(node) = holder else {
            inner.counters.unavailable += 1;
            return Acquire::NoHolder;
        };
        let lease = Lease {
            id: inner.next_id,
            client: client.to_string(),
            node,
            granted_at: now,
            expires_at: now + self.ttl,
        };
        inner.next_id += 1;
        inner.counters.grants += 1;
        inner.current = Some(lease.clone());
        Acquire::Granted(lease)
    }

    /// Release lease `id`. Err if the id does not name the live lease (it
    /// never existed, already expired, or was revoked — the client's claim
    /// is gone either way).
    pub fn release(&self, id: u64, holder: Option<usize>) -> Result<(), String> {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        self.refresh_locked(&mut inner, holder, now);
        match inner.current.as_ref() {
            Some(lease) if lease.id == id => {
                let window = LeaseWindow {
                    id: lease.id,
                    node: lease.node,
                    granted_us: self.us(lease.granted_at),
                    ended_us: self.us(now),
                    end: LeaseEnd::Released,
                };
                Arc::make_mut(&mut inner.history).push(window);
                inner.counters.releases += 1;
                inner.current = None;
                Ok(())
            }
            Some(lease) => Err(format!("lease {id} is not held (current is {})", lease.id)),
            None => Err(format!("lease {id} is not held")),
        }
    }

    /// The live lease, if any (after expiry maintenance).
    pub fn current(&self) -> Option<Lease> {
        let mut inner = self.inner.lock();
        self.refresh_locked(&mut inner, None, Instant::now());
        inner.current.clone()
    }

    /// Whether the lease authority is currently parked (ring mid-splice).
    pub fn is_parked(&self) -> bool {
        self.inner.lock().park.is_some()
    }

    /// Park the lease authority for the duration of a re-splice. `hint` is
    /// the expected splice time, returned to clients as the retry-after.
    /// A held lease survives: its TTL clock stops until [`unpark`] instead
    /// of silently expiring mid-splice. Parks nest.
    ///
    /// [`unpark`]: LeaseManager::unpark
    pub fn park(&self, hint: Duration) {
        let mut inner = self.inner.lock();
        match &mut inner.park {
            Some(park) => {
                park.depth += 1;
                park.hint = park.hint.max(hint);
            }
            None => {
                inner.park = Some(ParkState { since: Instant::now(), hint, depth: 1 });
                if inner.current.is_some() {
                    inner.counters.parked += 1;
                }
            }
        }
    }

    /// Release one park depth. Dropping the last park re-validates a held
    /// lease against the post-splice ring: its expiry is pushed out by the
    /// parked duration (the stopped clock), then the ordinary refresh rules
    /// apply — if the token moved to another node during the splice the
    /// lease is revoked, not TTL-expired.
    pub fn unpark(&self, holder: Option<usize>) {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let Some(park) = &mut inner.park else { return };
        park.depth -= 1;
        if park.depth > 0 {
            return;
        }
        let parked_for = park.since.elapsed();
        inner.park = None;
        if let Some(lease) = inner.current.as_mut() {
            lease.expires_at += parked_for;
        }
        self.refresh_locked(&mut inner, holder, now);
    }

    /// Record a park window *saved* by scheduling: a membership operation
    /// that rode an already open park (or skipped parking entirely because
    /// its splice touched a different segment) instead of opening a park
    /// window of its own.
    pub fn note_park_saved(&self) {
        self.inner.lock().counters.park_saves += 1;
    }

    /// Snapshot of the traffic counters.
    pub fn counters(&self) -> LeaseCounters {
        self.inner.lock().counters
    }

    /// Closed-lease windows so far (grant order), as a shared snapshot:
    /// later grants do not change it, and taking it copies nothing.
    pub fn history(&self) -> Arc<Vec<LeaseWindow>> {
        Arc::clone(&self.inner.lock().history)
    }
}

/// Check that a closed-lease history proves mutual exclusion: sorted by
/// grant time, every window must start at or after the previous one ended.
/// Returns the first overlapping pair if any. A history already in grant
/// order (as [`LeaseManager::history`] returns it) is scanned in place.
pub fn first_overlap(history: &[LeaseWindow]) -> Option<(LeaseWindow, LeaseWindow)> {
    let overlap = |pairs: &[LeaseWindow]| {
        pairs.windows(2).find(|p| p[1].granted_us < p[0].ended_us).map(|p| (p[0], p[1]))
    };
    if history.windows(2).all(|p| p[0].granted_us <= p[1].granted_us) {
        return overlap(history);
    }
    let mut sorted = history.to_vec();
    sorted.sort_by_key(|w| w.granted_us);
    overlap(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(ttl_ms: u64) -> LeaseManager {
        LeaseManager::new(Instant::now(), Duration::from_millis(ttl_ms))
    }

    #[test]
    fn grants_are_exclusive_until_released() {
        let m = manager(10_000);
        let lease = match m.acquire("alice", Some(2)) {
            Acquire::Granted(l) => l,
            other => panic!("expected grant, got {other:?}"),
        };
        assert_eq!(lease.node, 2);
        assert!(matches!(m.acquire("bob", Some(2)), Acquire::Held { .. }));
        assert!(m.release(lease.id + 1, Some(2)).is_err(), "wrong id");
        m.release(lease.id, Some(2)).unwrap();
        assert!(m.release(lease.id, Some(2)).is_err(), "double release");
        assert!(matches!(m.acquire("bob", Some(2)), Acquire::Granted(_)));
        let c = m.counters();
        assert_eq!((c.grants, c.releases, c.conflicts), (2, 1, 1));
        assert!(first_overlap(&m.history()).is_none());
    }

    #[test]
    fn no_holder_means_no_grant() {
        let m = manager(10_000);
        assert!(matches!(m.acquire("alice", None), Acquire::NoHolder));
        assert_eq!(m.counters().unavailable, 1);
    }

    #[test]
    fn expiry_frees_the_lease_and_backdates_the_window() {
        let m = manager(15);
        let lease = match m.acquire("alice", Some(0)) {
            Acquire::Granted(l) => l,
            other => panic!("expected grant, got {other:?}"),
        };
        std::thread::sleep(Duration::from_millis(40));
        // Nobody refreshed in between: the next acquire both expires the
        // old lease and grants the new one, atomically.
        assert!(matches!(m.acquire("bob", Some(1)), Acquire::Granted(_)));
        let history = m.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].end, LeaseEnd::Expired);
        assert_eq!(history[0].id, lease.id);
        // The window closed at TTL, not at detection ~40ms later.
        assert!(history[0].ended_us - history[0].granted_us < 30_000);
        assert!(m.release(lease.id, Some(1)).is_err(), "expired lease cannot be released");
        assert!(first_overlap(&m.history()).is_none());
    }

    #[test]
    fn handover_revokes_the_lease() {
        let m = manager(10_000);
        let lease = match m.acquire("alice", Some(0)) {
            Acquire::Granted(l) => l,
            other => panic!("expected grant, got {other:?}"),
        };
        m.refresh(Some(0)); // same holder: nothing happens
        assert!(m.current().is_some());
        m.refresh(None); // holder invisible (mid-handover): keep waiting
        assert!(m.current().is_some());
        m.refresh(Some(1)); // token moved: revoke
        assert!(m.current().is_none());
        let history = m.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].end, LeaseEnd::Revoked);
        assert_eq!(history[0].id, lease.id);
        assert_eq!(m.counters().revocations, 1);
    }

    #[test]
    fn parking_stops_the_ttl_clock_across_a_resplice() {
        let m = manager(40);
        let lease = match m.acquire("alice", Some(0)) {
            Acquire::Granted(l) => l,
            other => panic!("expected grant, got {other:?}"),
        };
        m.park(Duration::from_millis(100));
        assert!(m.is_parked());
        // Acquire during the splice: parked, not a silent expiry.
        assert!(matches!(m.acquire("bob", Some(0)), Acquire::Parked { .. }));
        // Outlive the TTL while parked: the clock is stopped.
        std::thread::sleep(Duration::from_millis(60));
        m.refresh(Some(3)); // mid-splice holder noise must not revoke
        m.unpark(Some(0));
        assert!(!m.is_parked());
        let live = m.current().expect("lease survived the re-splice");
        assert_eq!(live.id, lease.id);
        m.release(lease.id, Some(0)).unwrap();
        let c = m.counters();
        assert_eq!(c.expirations, 0);
        assert_eq!(c.revocations, 0);
        assert_eq!(c.parked, 2, "one held-lease park + one refused acquire");
        assert!(first_overlap(&m.history()).is_none());
    }

    #[test]
    fn unpark_revokes_if_the_token_moved_during_the_splice() {
        let m = manager(10_000);
        let lease = match m.acquire("alice", Some(0)) {
            Acquire::Granted(l) => l,
            other => panic!("expected grant, got {other:?}"),
        };
        m.park(Duration::from_millis(50));
        m.unpark(Some(4)); // token landed elsewhere after the splice
        assert!(m.current().is_none());
        let history = m.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].end, LeaseEnd::Revoked);
        assert_eq!(history[0].id, lease.id);
    }

    #[test]
    fn parks_nest() {
        let m = manager(10_000);
        m.park(Duration::from_millis(10));
        m.park(Duration::from_millis(30));
        m.unpark(None);
        assert!(m.is_parked(), "inner unpark keeps the outer park");
        m.unpark(None);
        assert!(!m.is_parked());
    }

    #[test]
    fn parked_retry_hints_carry_bounded_jitter() {
        let m = manager(10_000);
        let hint = Duration::from_millis(100);
        m.park(hint);
        let hints: Vec<Duration> = (0..16)
            .map(|_| match m.acquire("client", Some(0)) {
                Acquire::Parked { retry_in } => retry_in,
                other => panic!("expected parked, got {other:?}"),
            })
            .collect();
        for &h in &hints {
            assert!(h >= Duration::from_millis(5), "floor breached: {h:?}");
            // base (≤ hint) + jitter (< hint / 4): the herd spreads over a
            // bounded window after the expected unpark, never unboundedly.
            assert!(h < hint + hint / 4, "jitter unbounded: {h:?}");
        }
        assert!(hints.iter().any(|&h| h != hints[0]), "all retry hints identical: {hints:?}");
        m.unpark(None);
        assert_eq!(m.counters().parked, 16);
    }

    #[test]
    fn saved_park_windows_are_counted() {
        let m = manager(10_000);
        assert_eq!(m.counters().park_saves, 0);
        m.note_park_saved();
        m.note_park_saved();
        assert_eq!(m.counters().park_saves, 2);
    }

    #[test]
    fn overlap_detector_catches_bad_histories() {
        let w = |granted_us, ended_us| LeaseWindow {
            id: 0,
            node: 0,
            granted_us,
            ended_us,
            end: LeaseEnd::Released,
        };
        assert!(first_overlap(&[w(0, 10), w(10, 20), w(25, 30)]).is_none());
        let bad = first_overlap(&[w(0, 10), w(9, 20)]).unwrap();
        assert_eq!((bad.0.ended_us, bad.1.granted_us), (10, 9));
        // Out of grant order: sorted before the scan.
        assert!(first_overlap(&[w(25, 30), w(0, 10), w(10, 20)]).is_none());
        let bad = first_overlap(&[w(30, 40), w(9, 20), w(0, 10)]).unwrap();
        assert_eq!((bad.0.ended_us, bad.1.granted_us), (10, 9));
    }

    #[test]
    fn history_snapshot_is_unchanged_by_later_grants() {
        let m = manager(10_000);
        let grant = |m: &LeaseManager| match m.acquire("alice", Some(0)) {
            Acquire::Granted(lease) => lease,
            other => panic!("expected grant, got {other:?}"),
        };
        let first = grant(&m);
        m.release(first.id, Some(0)).unwrap();
        let snapshot = m.history();
        for _ in 0..3 {
            let lease = grant(&m);
            m.release(lease.id, Some(0)).unwrap();
        }
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].id, first.id);
        let now = m.history();
        assert_eq!(now.len(), 4);
        assert_eq!(now[0], snapshot[0]);
        assert!(first_overlap(&now).is_none());
    }
}
