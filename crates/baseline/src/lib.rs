#![warn(missing_docs)]

//! The comparison baselines from the paper's evaluation.
//!
//! * [`brute`] — a Massalin-style brute-force superoptimizer ("an
//!   exhaustive enumeration of all possible code sequences in order of
//!   increasing length", §1.1), the approach of the GNU superoptimizer
//!   the paper compares against in §8. Candidate sequences are executed
//!   against a suite of tests; survivors are verified on many more
//!   random vectors (the paper's caveat that "passing tests is not the
//!   same as being correct" applies, which is why its output must be
//!   checked — exactly as §1.1 says).
//! * [`rewrite`] — a conventional code generator: deterministic
//!   bottom-up strength-reduction rewriting followed by greedy list
//!   scheduling on the same machine model. This stands in for the
//!   production C compiler the paper coaxes into tying byteswap4
//!   (`-fast -arch ev6` plus "helpful input"). It runs no search, so it
//!   is also the server's answer when a request's deadline expires and
//!   the stochastic engine's starting program.

pub mod brute;
pub mod rewrite;

pub use brute::{brute_search, BruteConfig, BruteProgram, BruteStats};
pub use rewrite::{rewrite_compile, RewriteError};
