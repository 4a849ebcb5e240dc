//! The benchmark's fixed input programs.
//!
//! Every source is a file under `corpus/`, compiled into the binary, so
//! no change outside the benchmark's directory can alter what is
//! measured. Each file's first line says why it was chosen.

/// One input program.
#[derive(Clone, Copy, Debug)]
pub struct Fixture {
    /// Procedure name as written in the source.
    pub name: &'static str,
    pub source: &'static str,
}

macro_rules! fixture {
    ($name:literal) => {
        Fixture {
            name: $name,
            source: include_str!(concat!("corpus/", $name, ".dnl")),
        }
    };
}

pub const FIGURE2: Fixture = fixture!("figure2");
pub const BYTESWAP4: Fixture = fixture!("byteswap4");
pub const BYTESWAP5: Fixture = fixture!("byteswap5");
pub const CHECKSUM: Fixture = fixture!("checksum");
pub const ROWOP: Fixture = fixture!("rowop");
pub const LCP2: Fixture = fixture!("lcp2");
pub const ROWOP4: Fixture = fixture!("rowop4");
pub const DOT4: Fixture = fixture!("dot4");
pub const WIDE: Fixture = fixture!("wide");
pub const SEL: Fixture = fixture!("sel");
pub const MEMCOPY2_ZERO: Fixture = fixture!("memcopy2_zero");
pub const MEMCOPY5: Fixture = fixture!("memcopy5");
pub const MEMCOPY6: Fixture = fixture!("memcopy6");
pub const MEMCOPY7: Fixture = fixture!("memcopy7");

/// A program shaped like Figure 2 with the constant `k` (1..=255, so
/// the whole sum stays one `s4addq` with a literal): the serve
/// workload's stream of distinct cheap requests.
pub fn figure2_shaped(name: &str, k: u64) -> String {
    format!("(\\procdecl {name} ((reg6 long)) long (:= (\\res (+ (* reg6 4) {k}))))")
}

impl Fixture {
    /// The source with its procedure renamed to `<name>_<salt>`. Only
    /// GMA names change, so the compiled programs do not.
    pub fn salted(&self, salt: &str) -> String {
        let from = format!("(\\procdecl {} ", self.name);
        assert!(
            self.source.contains(&from),
            "corpus file {} must declare procedure {}",
            self.name,
            self.name
        );
        self.source
            .replacen(&from, &format!("(\\procdecl {}_{salt} ", self.name), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use denali_core::{Denali, EngineChoice};

    const ALL: [Fixture; 14] = [
        FIGURE2,
        BYTESWAP4,
        BYTESWAP5,
        CHECKSUM,
        ROWOP,
        LCP2,
        ROWOP4,
        DOT4,
        WIDE,
        SEL,
        MEMCOPY2_ZERO,
        MEMCOPY5,
        MEMCOPY6,
        MEMCOPY7,
    ];

    #[test]
    fn every_corpus_file_parses_and_lowers() {
        let denali = Denali::new(crate::options(EngineChoice::Sat));
        for fixture in ALL {
            assert!(
                fixture.source.starts_with("; "),
                "{}: the first line must give the reason the file was chosen",
                fixture.name
            );
            let prepared = denali
                .prepare_source(&fixture.salted("s1"))
                .unwrap_or_else(|e| panic!("{}: {e}", fixture.name));
            assert!(!prepared.gmas.is_empty(), "{}", fixture.name);
            let salted = format!("{}_s1_", fixture.name);
            assert!(prepared.gmas.iter().all(|g| g.name.starts_with(&salted)));
        }
        assert!(denali.prepare_source(&figure2_shaped("u1", 255)).is_ok());
    }
}
