#![warn(missing_docs)]

//! Concurrency primitives shared by the pipeline and the server.
//!
//! The compilation pipeline itself is serial: matching, search and the
//! stochastic chain each run on the caller's thread. Concurrency lives
//! in the server, which runs independent requests on a pool of workers
//! and needs two things from the pipeline: a way to size that pool
//! ([`resolve_threads`]) and a way to stop a compile whose deadline has
//! passed ([`CancelToken`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Resolves a user-facing thread-count knob: `0` means "one thread per
/// available CPU", anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
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
    fn cancel_token_round_trip() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
