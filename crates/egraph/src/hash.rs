//! A seeded multiply hasher for the e-graph's hot maps.
//!
//! Congruence repair, the hashcons and the match dedup hash small keys
//! of a few machine words — `(Op, SliceId)`, class-id pairs, numbered
//! substitutions — millions of times per compile. std's SipHash spends
//! most of its time on setup and finalization for keys that short. This
//! hasher mixes each word with one 64×64→128-bit multiply folded back
//! to 64 bits, which spreads every input bit, high bits included, over
//! the whole result.
//!
//! The state starts from a per-process random seed, taken once from
//! std's [`RandomState`]. `Op::Const` values reach these maps from
//! request sources, so with a fixed, public starting state a client
//! could pick constants that all land in one bucket. Every map in a
//! process shares the seed, so equal keys hash equally in all of them.
//! Iteration order varies between processes, as with std's default
//! hasher, and no output depends on it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A [`HashMap`] hashed with [`SeededState`].
pub type SeededMap<K, V> = HashMap<K, V, SeededState>;

/// A [`HashSet`] hashed with [`SeededState`].
pub type SeededSet<K> = HashSet<K, SeededState>;

/// The fold multiplier: the first 64 fractional bits of π, odd and
/// with no structure a key could line up with.
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// Builds [`SeededHasher`]s that start from the process's seed.
#[derive(Clone, Copy, Debug)]
pub struct SeededState {
    seed: u64,
}

impl Default for SeededState {
    fn default() -> SeededState {
        static SEED: OnceLock<u64> = OnceLock::new();
        SeededState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(MULTIPLIER)),
        }
    }
}

impl BuildHasher for SeededState {
    type Hasher = SeededHasher;

    fn build_hasher(&self) -> SeededHasher {
        SeededHasher { hash: self.seed }
    }
}

/// The hasher of [`SeededState`]: one folded multiply per word written.
#[derive(Clone, Copy, Debug)]
pub struct SeededHasher {
    hash: u64,
}

impl SeededHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(MULTIPLIER);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for SeededHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}
