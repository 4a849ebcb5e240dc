#![warn(missing_docs)]

//! Deterministic scoped fork-join helpers.
//!
//! Denali's matching phase has a natural read-only fan-out shape:
//! every axiom is e-matched against a frozen e-graph, and the collected
//! instances are then applied serially. The e-graph is only *read*
//! during matching, so axioms can match on any number of threads as
//! long as results are recombined in axiom order.
//!
//! That demands *determinism*: the caller must observe results that
//! are byte-identical to the serial execution regardless of thread
//! count. [`map_indexed`] guarantees this by assigning work items to
//! threads dynamically but returning results in input order. The
//! parallelism is pure fork-join over [`std::thread::scope`]; there is
//! no long-lived pool, which keeps the code dependency-free and makes a
//! thread count of 1 exactly the serial path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Resolves a user-facing thread-count knob: `0` means "one thread per
/// available CPU", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Applies `f` to every item, fanning out over at most `threads`
/// OS threads, and returns the results **in input order**.
///
/// `f` must be a pure read-only function of its inputs for the
/// parallelism to be sound; the type system enforces `Fn + Sync` but
/// interior mutability is the caller's responsibility. With
/// `threads <= 1` (or one item) the items are processed serially on the
/// caller's thread — no spawning, identical behavior.
///
/// Work is distributed dynamically (an atomic cursor), so uneven item
/// costs balance across threads, but the output vector is always
/// `[f(0, &items[0]), f(1, &items[1]), ...]` — scheduling can never
/// change what the caller sees.
///
/// # Panics
///
/// Propagates the first panic raised by `f`.
pub fn map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index visited")
        })
        .collect()
}

/// Splits `0..len` into contiguous ranges of at most `chunk` items, in
/// order. Used to turn one large work item (e.g. "match axiom A against
/// 10 000 candidate classes") into several, so [`map_indexed`]'s dynamic
/// scheduler can balance it across threads; concatenating the per-range
/// results in range order reproduces the unchunked output exactly.
///
/// `chunk == 0` is treated as "one range" (no splitting). An empty input
/// yields no ranges.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    if chunk == 0 {
        // One range covering everything (not a collect-from-range typo).
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..len];
    }
    (0..len)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(len))
        .collect()
}

/// A shared cancellation flag for work that may become moot.
///
/// Request deadlines and server shutdown raise one of these; the
/// pipeline checks it at phase boundaries, and the SAT solver polls its
/// [`CancelToken::handle`] so a raised flag abandons the current probe at
/// the solver's next checkpoint.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates an unraised token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for handing to code that polls an
    /// [`AtomicBool`] directly (e.g. a SAT solver's interrupt hook).
    pub fn handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_serially() {
        let items: Vec<usize> = (0..16).collect();
        let out = map_indexed(1, &items, |i, &x| i * 100 + x);
        assert_eq!(out, (0..16).map(|i| i * 101).collect::<Vec<_>>());
    }

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 4, 8, 64, 200] {
            let out = map_indexed(threads, &items, |_, &x| x * x);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_indexed::<u32, u32, _>(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map_indexed(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_lands_in_order() {
        // Make early items slow so later items finish first.
        let items: Vec<u64> = (0..12).collect();
        let out = map_indexed(4, &items, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 2
        });
        assert_eq!(out, (0..12).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_propagates_panics() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            map_indexed(2, &items, |_, &x| {
                if x == 5 {
                    panic!("item 5 exploded");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn cancel_token_round_trip() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn chunk_ranges_partition_the_input() {
        assert!(chunk_ranges(0, 4).is_empty());
        assert_eq!(chunk_ranges(10, 0), vec![0..10]);
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 4), vec![0..3]);
        // Ranges tile 0..len exactly, in order.
        let ranges = chunk_ranges(97, 13);
        let flat: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(flat, (0..97).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
