//! Single-flight request coalescing: in-flight deduplication keyed on
//! the compilation fingerprint.
//!
//! The content-addressed cache only dedups *completed* work: N
//! concurrent identical requests all miss, each burns a worker, and the
//! queue sheds unrelated traffic — the classic cache stampede, and the
//! worst possible failure mode for a server whose unit of work is a
//! ladder of SAT probes. This module closes the window: the first
//! request for a fingerprint becomes the **leader** and occupies a
//! worker; concurrent duplicates become **followers** that subscribe to
//! the leader's result without consuming a worker or a queue slot.
//!
//! The pinned semantics (tested here and in `tests/stampede.rs`):
//!
//! * A leader delivers its outcome — success, degradation, or error —
//!   to every follower via [`LeaderGuard::complete`]; followers replay
//!   the exact body bytes. Whether the outcome is *cached* is the
//!   server's decision, not this module's (degraded and error outcomes
//!   never are).
//! * A follower whose own deadline expires before the leader finishes
//!   gets [`Wait::Expired`] and answers with its own degraded program
//!   rather than waiting past its deadline.
//! * A leader that vanishes without an outcome (a panicking pipeline
//!   unwinds the [`LeaderGuard`]) orphans the flight; one waiting
//!   follower is **promoted** ([`Wait::Promoted`]) and re-executes
//!   rather than wasting the queued demand, and a later request for the
//!   same key can claim an orphan with no waiters.
//!
//! Completion removes the key from the in-flight map *before* waking
//! followers, and the server populates the cache *before* completing —
//! so at every instant a duplicate request either hits the cache, joins
//! the flight, or becomes a fresh leader that immediately hits the
//! cache. "Exactly one pipeline execution per stampede" is therefore an
//! invariant, not a race that usually goes well.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use denali_metrics::{Gauge, Registry};

/// A leader's outcome, as delivered to followers: the rendered response
/// body (everything after the echoed id — follower responses differ
/// only in the id they echo) plus the outcome tag for stats/logging.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Outcome tag: `ok`, `degraded`, `error`, or `shed`.
    pub outcome: &'static str,
    /// The rendered response body followers replay byte-for-byte.
    pub body: String,
}

enum FlightState {
    /// A leader owns the flight and will complete or orphan it.
    Running,
    /// The leader delivered; followers replay the body.
    Done(Delivery),
    /// The leader vanished without an outcome (panic/unwind); the next
    /// waiter or joiner claims leadership.
    Orphaned,
}

struct Flight {
    state: Mutex<FlightState>,
    wake: Condvar,
}

struct Inner {
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// `inflight.len()`, set under the map lock on every change.
    inflight_gauge: Arc<Gauge>,
    /// Followers currently blocked in [`FollowerHandle::wait`].
    waiting: Arc<Gauge>,
}

/// A point-in-time read of the coalescer's gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceSnapshot {
    /// Fingerprints with a flight currently in the map.
    pub inflight: u64,
    /// Followers currently waiting on a leader.
    pub waiting: u64,
}

/// The in-flight request table. One per server, shared by every
/// transport and connection — coalescing is a server-wide property,
/// like the cache, not a per-connection one.
pub struct Coalescer {
    inner: Arc<Inner>,
}

/// The result of [`Coalescer::join`].
pub enum Join {
    /// First request for this key (or claimant of an orphaned flight):
    /// execute the work and [`LeaderGuard::complete`] it.
    Leader(LeaderGuard),
    /// A duplicate of an in-flight request: [`FollowerHandle::wait`]
    /// for the leader's outcome.
    Follower(FollowerHandle),
}

impl Coalescer {
    /// Creates an empty coalescer whose gauges are the
    /// `denali_serve_coalesce_*` families of `registry`.
    pub fn new(registry: &Registry) -> Coalescer {
        Coalescer {
            inner: Arc::new(Inner {
                inflight: Mutex::new(HashMap::new()),
                inflight_gauge: registry.gauge(
                    "denali_serve_coalesce_inflight",
                    "Flights currently executing",
                ),
                waiting: registry.gauge(
                    "denali_serve_coalesce_waiting",
                    "Followers waiting on an in-flight leader",
                ),
            }),
        }
    }

    /// Joins the flight for `key`, creating it if absent. An orphaned
    /// flight (leader died, no follower promoted yet) is claimed — the
    /// caller becomes its new leader.
    pub fn join(&self, key: &str) -> Join {
        let mut map = self.inner.inflight.lock().unwrap();
        if let Some(flight) = map.get(key) {
            let flight = Arc::clone(flight);
            drop(map);
            {
                let mut state = flight.state.lock().unwrap();
                if matches!(*state, FlightState::Orphaned) {
                    *state = FlightState::Running;
                    drop(state);
                    return Join::Leader(self.guard(key, flight));
                }
            }
            self.inner.waiting.add(1);
            Join::Follower(FollowerHandle {
                inner: Arc::clone(&self.inner),
                key: key.to_owned(),
                flight,
            })
        } else {
            let flight = Arc::new(Flight {
                state: Mutex::new(FlightState::Running),
                wake: Condvar::new(),
            });
            map.insert(key.to_owned(), Arc::clone(&flight));
            self.inner.inflight_gauge.set(map.len() as u64);
            drop(map);
            Join::Leader(self.guard(key, flight))
        }
    }

    fn guard(&self, key: &str, flight: Arc<Flight>) -> LeaderGuard {
        LeaderGuard {
            inner: Arc::clone(&self.inner),
            key: key.to_owned(),
            flight,
            completed: false,
        }
    }

    /// Reads the gauges (for the `stats` request).
    pub fn snapshot(&self) -> CoalesceSnapshot {
        CoalesceSnapshot {
            inflight: self.inner.inflight_gauge.get(),
            waiting: self.inner.waiting.get(),
        }
    }
}

/// Proof of flight leadership. [`LeaderGuard::complete`] delivers an
/// outcome to every follower; dropping the guard without completing
/// (the panic/unwind path) orphans the flight so a follower can be
/// promoted instead of hanging forever.
pub struct LeaderGuard {
    inner: Arc<Inner>,
    key: String,
    flight: Arc<Flight>,
    completed: bool,
}

impl LeaderGuard {
    /// The flight's key (the compilation fingerprint).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Delivers `delivery` to every follower and retires the flight.
    /// The key is removed from the in-flight map *before* the state
    /// flips to done, so a new request can never join a completed
    /// flight — it either hits the (already-populated) cache or starts
    /// a fresh leader.
    pub fn complete(mut self, delivery: Delivery) {
        self.completed = true;
        self.remove_from_map();
        let mut state = self.flight.state.lock().unwrap();
        *state = FlightState::Done(delivery);
        self.flight.wake.notify_all();
    }

    fn remove_from_map(&self) {
        let mut map = self.inner.inflight.lock().unwrap();
        // Guard against removing a *successor* flight: only remove the
        // entry if it is still this guard's flight.
        if map
            .get(&self.key)
            .is_some_and(|f| Arc::ptr_eq(f, &self.flight))
        {
            map.remove(&self.key);
            self.inner.inflight_gauge.set(map.len() as u64);
        }
    }
}

impl Drop for LeaderGuard {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        // The leader unwound without an outcome. Orphan the flight (the
        // key stays in the map so joiners can also claim it) and wake
        // the followers so one promotes itself.
        let mut state = self.flight.state.lock().unwrap();
        *state = FlightState::Orphaned;
        self.flight.wake.notify_all();
    }
}

/// The outcome of [`FollowerHandle::wait`].
pub enum Wait {
    /// The leader finished; replay the delivered body.
    Delivered(Delivery),
    /// The follower's own deadline passed first; answer with its own
    /// degraded program.
    Expired,
    /// The leader vanished; this follower is now the leader and must
    /// execute the work itself.
    Promoted(LeaderGuard),
}

/// A follower's subscription to a flight. Must be consumed by
/// [`FollowerHandle::wait`].
pub struct FollowerHandle {
    inner: Arc<Inner>,
    key: String,
    flight: Arc<Flight>,
}

impl FollowerHandle {
    /// Blocks until the leader delivers, the follower's `deadline`
    /// passes, or the leader vanishes and this follower is promoted.
    pub fn wait(self, deadline: Option<Instant>) -> Wait {
        let done = |inner: &Inner| inner.waiting.sub(1);
        let mut state = self.flight.state.lock().unwrap();
        loop {
            match &*state {
                FlightState::Done(delivery) => {
                    let delivery = delivery.clone();
                    drop(state);
                    done(&self.inner);
                    return Wait::Delivered(delivery);
                }
                FlightState::Orphaned => {
                    *state = FlightState::Running;
                    drop(state);
                    done(&self.inner);
                    return Wait::Promoted(LeaderGuard {
                        inner: Arc::clone(&self.inner),
                        key: self.key.clone(),
                        flight: Arc::clone(&self.flight),
                        completed: false,
                    });
                }
                FlightState::Running => {}
            }
            state = match deadline {
                None => self.flight.wake.wait(state).unwrap(),
                Some(at) => {
                    let now = Instant::now();
                    if at <= now {
                        drop(state);
                        done(&self.inner);
                        return Wait::Expired;
                    }
                    self.flight.wake.wait_timeout(state, at - now).unwrap().0
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ok(body: &str) -> Delivery {
        Delivery {
            outcome: "ok",
            body: body.to_owned(),
        }
    }

    #[test]
    fn leader_then_followers_replay_the_delivery() {
        let c = Coalescer::new(&Registry::new());
        let Join::Leader(leader) = c.join("aa") else {
            panic!("first join must lead");
        };
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let Join::Follower(f) = c.join("aa") else {
                    panic!("duplicate join must follow");
                };
                f
            })
            .collect();
        assert_eq!(c.snapshot().waiting, 4);
        let waits: Vec<_> = followers
            .into_iter()
            .map(|f| std::thread::spawn(move || f.wait(None)))
            .collect();
        leader.complete(ok("body"));
        for wait in waits {
            match wait.join().unwrap() {
                Wait::Delivered(d) => assert_eq!((d.outcome, d.body.as_str()), ("ok", "body")),
                _ => panic!("follower must be delivered"),
            }
        }
        let snap = c.snapshot();
        assert_eq!((snap.inflight, snap.waiting), (0, 0));
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let c = Coalescer::new(&Registry::new());
        let Join::Leader(a) = c.join("aa") else {
            panic!();
        };
        let Join::Leader(b) = c.join("bb") else {
            panic!("distinct key must lead its own flight");
        };
        assert_eq!(c.snapshot().inflight, 2);
        a.complete(ok("a"));
        b.complete(ok("b"));
        assert_eq!(c.snapshot().inflight, 0);
    }

    #[test]
    fn follower_deadline_expires_independently_of_the_leader() {
        let c = Coalescer::new(&Registry::new());
        let Join::Leader(leader) = c.join("aa") else {
            panic!();
        };
        let Join::Follower(f) = c.join("aa") else {
            panic!();
        };
        // The leader never completes within the follower's deadline.
        let wait = f.wait(Some(Instant::now() + Duration::from_millis(10)));
        assert!(matches!(wait, Wait::Expired));
        assert_eq!(c.snapshot().waiting, 0);
        // The flight is unaffected: a late follower still gets the body.
        let Join::Follower(late) = c.join("aa") else {
            panic!();
        };
        leader.complete(ok("body"));
        assert!(matches!(late.wait(None), Wait::Delivered(_)));
    }

    #[test]
    fn dropped_leader_promotes_exactly_one_follower() {
        let c = Coalescer::new(&Registry::new());
        let Join::Leader(leader) = c.join("aa") else {
            panic!();
        };
        // Waiters report through a channel: which thread wins promotion
        // is the scheduler's pick, so outcomes must be collected in
        // completion order, not spawn order.
        let (tx, rx) = std::sync::mpsc::channel();
        let waits: Vec<_> = (0..3)
            .map(|_| {
                let Join::Follower(f) = c.join("aa") else {
                    panic!();
                };
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(f.wait(None)).unwrap())
            })
            .collect();
        // Give the followers time to block, then unwind the leader
        // without an outcome (the panic path).
        std::thread::sleep(Duration::from_millis(20));
        drop(leader);
        // Exactly one follower is promoted, and it unblocks first: the
        // other two can only be delivered once the promoted guard
        // completes, which happens below.
        let timeout = Duration::from_secs(10);
        let Wait::Promoted(guard) = rx.recv_timeout(timeout).unwrap() else {
            panic!("the first unblocked follower must be the promotion");
        };
        guard.complete(ok("recovered"));
        for _ in 0..2 {
            match rx.recv_timeout(timeout).unwrap() {
                Wait::Delivered(d) => assert_eq!(d.body, "recovered"),
                Wait::Promoted(_) => panic!("only one follower may be promoted"),
                Wait::Expired => panic!("no deadline set"),
            }
        }
        for wait in waits {
            wait.join().unwrap();
        }
        assert_eq!(c.snapshot().inflight, 0);
    }

    #[test]
    fn orphan_with_no_waiters_is_claimed_by_the_next_joiner() {
        let c = Coalescer::new(&Registry::new());
        let Join::Leader(leader) = c.join("aa") else {
            panic!();
        };
        drop(leader); // orphaned, nobody waiting
        assert_eq!(c.snapshot().inflight, 1);
        let Join::Leader(claimed) = c.join("aa") else {
            panic!("joiner must claim the orphan, not wait on it");
        };
        claimed.complete(ok("body"));
        assert_eq!(c.snapshot().inflight, 0);
    }

    #[test]
    fn completion_races_are_first_writer_wins() {
        // A leader completing while a fresh join happens concurrently
        // must never hang the joiner: it either follows (and is
        // delivered) or leads a fresh flight.
        for _ in 0..50 {
            let c = Arc::new(Coalescer::new(&Registry::new()));
            let Join::Leader(leader) = c.join("aa") else {
                panic!();
            };
            let c2 = Arc::clone(&c);
            let joiner = std::thread::spawn(move || match c2.join("aa") {
                Join::Follower(f) => match f.wait(None) {
                    Wait::Delivered(d) => d.body,
                    _ => panic!("follower of a completing flight is delivered"),
                },
                Join::Leader(g) => {
                    g.complete(ok("fresh"));
                    "fresh".to_owned()
                }
            });
            leader.complete(ok("led"));
            let got = joiner.join().unwrap();
            assert!(got == "led" || got == "fresh", "{got}");
            assert_eq!(c.snapshot().inflight, 0);
        }
    }
}
