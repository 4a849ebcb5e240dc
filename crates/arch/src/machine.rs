//! The architectural description: functional units, clusters, issue
//! width, and the per-opcode unit/latency table.

use std::collections::HashMap;

use denali_term::Symbol;

/// A functional unit of the EV6-like target.
///
/// `U0`/`U1` are the upper (integer + byte-manipulation + shift) pipes;
/// `L0`/`L1` are the lower (load/store + simple integer) pipes. Units
/// `U0`/`L0` form cluster 0 and `U1`/`L1` cluster 1; results produced on
/// one cluster reach the other a cycle later (the paper's "extra delays
/// for moving values between banks").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Unit {
    /// Upper pipe, cluster 0.
    U0,
    /// Upper pipe, cluster 1.
    U1,
    /// Lower pipe, cluster 0.
    L0,
    /// Lower pipe, cluster 1.
    L1,
}

impl Unit {
    /// All units, in display order.
    pub const ALL: [Unit; 4] = [Unit::U0, Unit::U1, Unit::L0, Unit::L1];

    /// The cluster (register bank) this unit belongs to.
    pub fn cluster(self) -> usize {
        match self {
            Unit::U0 | Unit::L0 => 0,
            Unit::U1 | Unit::L1 => 1,
        }
    }

    /// Display name (`U0`, `L1`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Unit::U0 => "U0",
            Unit::U1 => "U1",
            Unit::L0 => "L0",
            Unit::L1 => "L1",
        }
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling facts for one opcode.
#[derive(Clone, Debug)]
pub struct InstrInfo {
    /// Units that can execute the opcode.
    pub units: Vec<Unit>,
    /// Result latency in cycles (≥ 1).
    pub latency: u32,
}

/// The machine description consumed by the constraint generator.
///
/// # Example
///
/// ```
/// use denali_arch::Machine;
/// use denali_term::Symbol;
///
/// let ev6 = Machine::ev6();
/// let mul = ev6.info(Symbol::intern("mulq")).unwrap();
/// assert_eq!(mul.latency, 7);
/// assert_eq!(ev6.issue_width(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    name: String,
    issue_width: usize,
    units: Vec<Unit>,
    cluster_delay: u32,
    table: HashMap<Symbol, InstrInfo>,
    /// Overrides of load latency for annotated (cache-missing) loads are
    /// handled by the encoder; this is the default load latency.
    load_latency: u32,
}

const ALL_UNITS: [Unit; 4] = Unit::ALL;
const UPPER: [Unit; 2] = [Unit::U0, Unit::U1];
const LOWER: [Unit; 2] = [Unit::L0, Unit::L1];

impl Machine {
    /// The EV6-like quad-issue, two-cluster description used by all the
    /// paper-reproduction experiments.
    pub fn ev6() -> Machine {
        let mut table = HashMap::new();
        let mut add = |names: &[&str], units: &[Unit], latency: u32| {
            for name in names {
                table.insert(
                    Symbol::intern(name),
                    InstrInfo {
                        units: units.to_vec(),
                        latency,
                    },
                );
            }
        };
        // Simple integer ops run anywhere, single-cycle.
        add(
            &[
                "addq", "subq", "addl", "subl", "s4addq", "s8addq", "s4subq", "s8subq", "and",
                "bis", "xor", "bic", "ornot", "eqv", "cmpeq", "cmplt", "cmple", "cmpult", "cmpule",
                "cmoveq", "cmovne", "ldiq", "mov",
            ],
            &ALL_UNITS,
            1,
        );
        // Shifts and the byte-manipulation unit live on the upper pipes.
        add(
            &[
                "sll", "srl", "sra", "extbl", "extwl", "extll", "extql", "insbl", "inswl", "insll",
                "insql", "mskbl", "mskwl", "mskll", "mskql", "zapnot", "zap", "sextb", "sextw",
            ],
            &UPPER,
            1,
        );
        // Multiply: one pipe, long latency.
        add(&["mulq", "umulh"], &[Unit::U1], 7);
        // Memory: lower pipes; loads have a 3-cycle dcache-hit latency.
        add(&["ldq"], &LOWER, 3);
        add(&["stq"], &LOWER, 1);
        Machine {
            name: "ev6".to_owned(),
            issue_width: 4,
            units: ALL_UNITS.to_vec(),
            cluster_delay: 1,
            table,
            load_latency: 3,
        }
    }

    /// An Itanium-flavored description (the paper's in-progress port:
    /// "It appears that this shift will not require any radical changes
    /// (and the changes will mostly be to the axioms)"). Simplified to
    /// this crate's four-unit frame: two integer units (`U0`/`U1`, which
    /// also run the extract/deposit/shift ops), two memory units
    /// (`L0`/`L1`, which also run simple ALU ops), no clusters, 2-cycle
    /// loads, and the IA-64 idiom instructions `shladd`, `extr_u`,
    /// `dep_z`, `andcm` in place of the Alpha byte ops.
    pub fn ia64like() -> Machine {
        let mut table = HashMap::new();
        let mut add = |names: &[&str], units: &[Unit], latency: u32| {
            for name in names {
                table.insert(
                    Symbol::intern(name),
                    InstrInfo {
                        units: units.to_vec(),
                        latency,
                    },
                );
            }
        };
        add(
            &[
                "addq", "subq", "and", "bis", "xor", "andcm", "ornot", "cmpeq", "cmplt", "cmple",
                "cmpult", "cmpule", "cmoveq", "cmovne", "ldiq", "mov", "shladd",
            ],
            &ALL_UNITS,
            1,
        );
        add(
            &["sll", "srl", "sra", "extr_u", "dep_z", "sextb", "sextw"],
            &UPPER,
            1,
        );
        // Integer multiply goes through the FP unit on Itanium: slow and
        // single-ported.
        add(&["mulq", "umulh"], &[Unit::U1], 9);
        add(&["ldq"], &LOWER, 2);
        add(&["stq"], &LOWER, 1);
        Machine {
            name: "ia64like".to_owned(),
            issue_width: 4,
            units: ALL_UNITS.to_vec(),
            cluster_delay: 0,
            table,
            load_latency: 2,
        }
    }

    /// EV6 without the cross-cluster penalty (ablation target).
    pub fn ev6_unclustered() -> Machine {
        let mut m = Machine::ev6();
        m.name = "ev6-unclustered".to_owned();
        m.cluster_delay = 0;
        m
    }

    /// A single-issue variant of the same ISA (the simplification used
    /// to present the constraints in §6, and an ablation target).
    pub fn single_issue() -> Machine {
        let mut m = Machine::ev6();
        m.name = "single-issue".to_owned();
        m.issue_width = 1;
        m.cluster_delay = 0;
        m.units = vec![Unit::U0];
        // Every opcode runs on the one unit.
        for info in m.table.values_mut() {
            info.units = vec![Unit::U0];
        }
        m
    }

    /// The machine called `name`: `ev6`, `ia64like`, `ev6-unclustered`
    /// or `single-issue` (the names [`Machine::name`] reports).
    ///
    /// # Errors
    ///
    /// Fails on unknown names, listing the known ones.
    pub fn by_name(name: &str) -> Result<Machine, String> {
        match name {
            "ev6" => Ok(Machine::ev6()),
            "ia64like" => Ok(Machine::ia64like()),
            "ev6-unclustered" => Ok(Machine::ev6_unclustered()),
            "single-issue" => Ok(Machine::single_issue()),
            other => Err(format!(
                "unknown machine {other:?} (known: ev6, ia64like, ev6-unclustered, single-issue)"
            )),
        }
    }

    /// Machine name for reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions issued per cycle at most.
    pub fn issue_width(&self) -> usize {
        self.issue_width
    }

    /// The functional units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Extra cycles before a result produced on one cluster is usable on
    /// the other (0 = unclustered).
    pub fn cluster_delay(&self) -> u32 {
        self.cluster_delay
    }

    /// Number of clusters (derived from the unit set).
    pub fn num_clusters(&self) -> usize {
        if self.cluster_delay == 0 {
            1
        } else {
            self.units.iter().map(|u| u.cluster()).max().unwrap_or(0) + 1
        }
    }

    /// Scheduling facts for an opcode, if it is an instruction of this
    /// machine.
    pub fn info(&self, op: Symbol) -> Option<&InstrInfo> {
        self.table.get(&op)
    }

    /// True if the opcode is an instruction of this machine.
    pub fn is_instruction(&self, op: Symbol) -> bool {
        self.table.contains_key(&op)
    }

    /// Default load latency (for annotated loads the encoder substitutes
    /// the programmer-provided value; see §6's discussion of memory
    /// latency annotations).
    pub fn load_latency(&self) -> u32 {
        self.load_latency
    }

    /// True if `value` can be used as a literal second operand of an
    /// ordinary ALU instruction (Alpha's 8-bit zero-extended literal
    /// field).
    pub fn fits_alu_literal(&self, value: u64) -> bool {
        value <= 255
    }

    /// True if `value` fits the 16-bit signed displacement field of a
    /// load/store (or an `lda`-style immediate).
    pub fn fits_displacement(&self, value: u64) -> bool {
        let v = value as i64;
        (-32768..=32767).contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn by_name_resolves_every_reported_name() {
        for m in [
            Machine::ev6(),
            Machine::ia64like(),
            Machine::ev6_unclustered(),
            Machine::single_issue(),
        ] {
            assert_eq!(Machine::by_name(m.name()).unwrap().name(), m.name());
        }
        let err = Machine::by_name("EV6").unwrap_err();
        assert!(err.contains("known: ev6, ia64like"), "{err}");
    }

    #[test]
    fn ev6_shape() {
        let m = Machine::ev6();
        assert_eq!(m.issue_width(), 4);
        assert_eq!(m.units().len(), 4);
        assert_eq!(m.cluster_delay(), 1);
        assert_eq!(m.num_clusters(), 2);
    }

    #[test]
    fn byte_ops_are_upper_only() {
        let m = Machine::ev6();
        for op in ["extbl", "insbl", "mskbl", "sll", "zapnot"] {
            let info = m.info(sym(op)).unwrap();
            assert_eq!(info.units, vec![Unit::U0, Unit::U1], "{op}");
            assert_eq!(info.latency, 1);
        }
    }

    #[test]
    fn loads_are_lower_with_latency() {
        let m = Machine::ev6();
        let ld = m.info(sym("ldq")).unwrap();
        assert_eq!(ld.units, vec![Unit::L0, Unit::L1]);
        assert_eq!(ld.latency, 3);
        assert_eq!(m.load_latency(), 3);
    }

    #[test]
    fn multiply_is_slow_and_unit_restricted() {
        let m = Machine::ev6();
        let mul = m.info(sym("mulq")).unwrap();
        assert_eq!(mul.units, vec![Unit::U1]);
        assert_eq!(mul.latency, 7);
    }

    #[test]
    fn math_ops_are_not_instructions() {
        let m = Machine::ev6();
        assert!(!m.is_instruction(sym("add64")));
        assert!(!m.is_instruction(sym("pow")));
        assert!(!m.is_instruction(sym("selectb")));
        assert!(m.is_instruction(sym("addq")));
    }

    #[test]
    fn clusters_partition_units() {
        assert_eq!(Unit::U0.cluster(), 0);
        assert_eq!(Unit::L0.cluster(), 0);
        assert_eq!(Unit::U1.cluster(), 1);
        assert_eq!(Unit::L1.cluster(), 1);
    }

    #[test]
    fn variants() {
        let u = Machine::ev6_unclustered();
        assert_eq!(u.cluster_delay(), 0);
        assert_eq!(u.num_clusters(), 1);
        let s = Machine::single_issue();
        assert_eq!(s.issue_width(), 1);
        assert_eq!(s.units().len(), 1);
        assert!(s.info(sym("ldq")).unwrap().units.contains(&Unit::U0));
    }

    #[test]
    fn literal_ranges() {
        let m = Machine::ev6();
        assert!(m.fits_alu_literal(0));
        assert!(m.fits_alu_literal(255));
        assert!(!m.fits_alu_literal(256));
        assert!(m.fits_displacement(32767));
        assert!(m.fits_displacement((-32768i64) as u64));
        assert!(!m.fits_displacement(32768));
    }
}
