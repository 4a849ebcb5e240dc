//! Content-addressed compilation fingerprints.
//!
//! A fingerprint is a stable 128-bit hex digest over everything that
//! determines a compilation's *output*: the lowered GMAs, the full
//! axiom set, and the output-affecting subset of [`Options`]. Knobs
//! that only change wall-clock or observability — `trace`,
//! `dump_dimacs`, the cancellation token and the anytime slot — are
//! deliberately excluded, as are the no-op hints `threads`,
//! `incremental` and `portfolio`: the pipeline's determinism contract
//! guarantees byte-identical results across all of them, so requests
//! differing only in those knobs may share one cached result. The
//! stochastic chain's seed and budget (`stoke`) are excluded too: no
//! request, flag or environment variable sets them.
//!
//! The key starts with a version field (`v=2`); a change to what is
//! hashed bumps it, so every key changes at once and no old entry can
//! answer a request it was not computed for.
//!
//! The hash is two independent FNV-1a-64 lanes over a canonical text
//! serialization. It is *not* cryptographic; it keys a trusted local
//! cache, where 128 bits of a well-dispersed hash make accidental
//! collisions negligible.

use denali_axioms::AxiomSet;
use denali_lang::Gma;

use crate::facade::Options;

/// Two-lane FNV-1a-64 accumulator (128 bits total). The lanes use the
/// standard FNV prime with distinct offset bases, so they disperse the
/// same byte stream independently.
struct Fp {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane's offset: the standard basis folded with an arbitrary
/// odd constant so the lanes start decorrelated.
const FNV_OFFSET_B: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;

impl Fp {
    fn new() -> Fp {
        Fp {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Writes a labeled field with unambiguous framing (label, `=`,
    /// value, `;`). The labels keep adjacent fields from running
    /// together under concatenation.
    fn field(&mut self, label: &str, value: &str) {
        self.write(label.as_bytes());
        self.write(b"=");
        self.write(value.as_bytes());
        self.write(b";");
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

/// Computes the canonical fingerprint for compiling `gmas` under
/// `axioms` with `options`. See the module docs for what is and is not
/// part of the key.
pub fn fingerprint(gmas: &[Gma], axioms: &AxiomSet, options: &Options) -> String {
    let mut fp = Fp::new();
    fp.field("v", "2");

    // Output-affecting options. `machine` is identified by name: the
    // constructors are the only way to build one, so the name pins the
    // full description.
    fp.field("machine", options.machine.name());
    fp.field("solver", options.solver.as_str());
    // The engine determines *which* optimizer answers, so two requests
    // differing only in `engine` must never share a cached result. The
    // stochastic knobs (`stoke.seed`, `stoke.iterations`) are excluded
    // deliberately: no request sets them, so they are fixed for the
    // lifetime of any cache keyed by this fingerprint;
    // deadline-harvested anytime candidates bypass the cache entirely
    // (see the serve crate).
    fp.field("engine", options.engine.as_str());
    fp.field("max_cycles", &options.max_cycles.to_string());
    let load_latency = match options.load_latency {
        Some(l) => l.to_string(),
        None => "default".to_owned(),
    };
    fp.field("load_latency", &load_latency);
    fp.field("miss_latency", &options.miss_latency.to_string());
    fp.field(
        "speculate_loads",
        &options.encode.speculate_loads.to_string(),
    );
    // Saturation budgets shape the e-graph and therefore the output.
    let s = &options.saturation;
    fp.field("sat.max_iterations", &s.max_iterations.to_string());
    fp.field("sat.max_nodes", &s.max_nodes.to_string());
    fp.field(
        "sat.max_instances_per_round",
        &s.max_instances_per_round.to_string(),
    );
    fp.field(
        "sat.max_structural_per_round",
        &s.max_structural_per_round.to_string(),
    );
    fp.field(
        "sat.max_structural_growth",
        &s.max_structural_growth.to_string(),
    );
    // `max_classes` gates whether a compilation succeeds at all, so it
    // must key the cache even though it never alters a *successful*
    // program.
    fp.field("sat.max_classes", &s.max_classes.to_string());

    // The lowered GMAs. `pipeline_loads` and `extra_axioms` need no
    // separate fields: the former rewrites the GMAs before
    // fingerprinting and the latter lands in `axioms`.
    fp.field("gmas", &gmas.len().to_string());
    for gma in gmas {
        hash_gma(&mut fp, gma);
    }

    // The axioms' text is rendered once, when the set is built.
    fp.field("axioms", &axioms.len().to_string());
    fp.write(axioms.key_text().as_bytes());

    fp.hex()
}

fn hash_gma(fp: &mut Fp, gma: &Gma) {
    fp.field("gma", &gma.name);
    match &gma.guard {
        Some(g) => fp.field("guard", &g.to_string()),
        None => fp.field("guard", "-"),
    }
    for (target, value) in &gma.assigns {
        fp.field("assign", target.as_str());
        fp.field("value", &value.to_string());
    }
    match &gma.mem {
        Some(m) => fp.field("mem", &m.to_string()),
        None => fp.field("mem", "-"),
    }
    for addr in &gma.miss_addrs {
        fp.field("miss", &addr.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_lang::{lower_proc, parse_program};

    fn figure2_gmas() -> Vec<Gma> {
        let p = parse_program("(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))")
            .unwrap();
        lower_proc(&p.procs[0]).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_hex() {
        let gmas = figure2_gmas();
        let axioms = denali_axioms::axioms_for("ev6");
        let opts = Options::default();
        let a = fingerprint(&gmas, &axioms, &opts);
        let b = fingerprint(&gmas, &axioms, &opts);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fingerprint_ignores_execution_knobs() {
        let gmas = figure2_gmas();
        let axioms = denali_axioms::axioms_for("ev6");
        let base = Options::default();
        let key = fingerprint(&gmas, &axioms, &base);
        let mut other = base.clone();
        other.threads = 8;
        other.incremental = !base.incremental;
        other.trace = true;
        other.dump_dimacs = Some(std::path::PathBuf::from("/tmp/nowhere"));
        other.cancel = Some(denali_par::CancelToken::default());
        other.anytime = Some(crate::engine::AnytimeSlot::new());
        // Stochastic effort knobs are not request-visible; they stay
        // out of the key.
        other.stoke.seed = base.stoke.seed.wrapping_add(1);
        other.stoke.iterations = base.stoke.iterations + 1;
        assert_eq!(key, fingerprint(&gmas, &axioms, &other));
    }

    #[test]
    fn fingerprint_tracks_output_affecting_knobs() {
        let gmas = figure2_gmas();
        let axioms = denali_axioms::axioms_for("ev6");
        let base = Options::default();
        let key = fingerprint(&gmas, &axioms, &base);
        let mut cycles = base.clone();
        cycles.max_cycles = 7;
        assert_ne!(key, fingerprint(&gmas, &axioms, &cycles));
        let mut latency = base.clone();
        latency.miss_latency = 3;
        assert_ne!(key, fingerprint(&gmas, &axioms, &latency));
        let mut classes = base.clone();
        classes.saturation.max_classes = 1_000;
        assert_ne!(key, fingerprint(&gmas, &axioms, &classes));
        // The engine selects which optimizer produces the program.
        let mut engine = base.clone();
        engine.engine = crate::engine::EngineChoice::Stochastic;
        assert_ne!(key, fingerprint(&gmas, &axioms, &engine));
        // Dropping an axiom changes the key.
        let fewer = AxiomSet::new(axioms.axioms()[1..].to_vec()).unwrap();
        assert_ne!(key, fingerprint(&gmas, &fewer, &base));
        // A different GMA changes the key.
        assert_ne!(key, fingerprint(&gmas[..0], &axioms, &base));
    }

    /// A program with an axiom form of its own, so its set is the
    /// machine's built-ins followed by that axiom.
    const CARRY: &str = "(\\axiom (forall (a b) (pats (carry a b))
                           (eq (carry a b) (\\cmpult (\\add64 a b) a))))
                         (\\procdecl f ((a long) (b long)) long (:= (\\res (carry a b))))";

    const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";

    /// The key of `source` as the server computes it: preparation and
    /// then [`Denali::fingerprint`](crate::Denali::fingerprint).
    fn served_key(source: &str, machine: denali_arch::Machine) -> String {
        let denali = crate::Denali::new(Options {
            machine,
            engine: crate::engine::EngineChoice::Sat,
            ..Options::default()
        });
        denali.fingerprint(&denali.prepare_source(source).unwrap())
    }

    #[test]
    fn keys_are_pinned() {
        // Literal `v=2` keys: a change to what is hashed, or to how the
        // axiom set is assembled and rendered, fails here. A stored
        // `--cache-dir` entry is only found again under the same key.
        use denali_arch::Machine;
        assert_eq!(
            served_key(FIGURE2, Machine::ev6()),
            "eebd048f5a677e03c1f9ee74b739da96",
            "figure2 on ev6"
        );
        assert_eq!(
            served_key(FIGURE2, Machine::ia64like()),
            "1c9a7e74e8cd82b58e2818805f045cea",
            "figure2 on ia64like"
        );
        assert_eq!(
            served_key(CARRY, Machine::ev6()),
            "795c5fd0a833eb8ba252a2159016b1b2",
            "a program with its own axiom on ev6"
        );
    }
}
