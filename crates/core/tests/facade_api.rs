//! Coverage for the `Denali` façade API surface: procedure selection,
//! error stages, options plumbing, DIMACS dumps, and result accessors.

use denali_core::{CompileError, CompileResult, Denali, Options, Prepared, SolverChoice};

const TWO_PROCS: &str = "
(\\procdecl first ((a long)) long (:= (\\res (+ a 1))))
(\\procdecl second ((a long)) long (:= (\\res (+ (+ a 1) 2))))";

#[test]
fn compile_proc_selects_by_name() {
    let denali = Denali::new(Options::default());
    let program = denali::parse(TWO_PROCS);
    let first = denali.compile_proc(&program, "first").unwrap();
    assert_eq!(first.gmas[0].program.len(), 1);
    let second = denali.compile_proc(&program, "second").unwrap();
    // a+1+2 folds to a+3 via associativity... the matcher finds a+3 as
    // one addq.
    assert_eq!(
        second.gmas[0].cycles,
        1,
        "{}",
        second.gmas[0].program.listing(4)
    );
}

/// Helper namespace to keep the test body readable.
mod denali {
    pub fn parse(source: &str) -> denali_lang::SourceProgram {
        denali_lang::parse_program(source).unwrap()
    }
}

#[test]
fn unknown_procedure_is_a_parse_stage_error() {
    let pipeline = Denali::new(Options::default());
    let program = denali::parse(TWO_PROCS);
    let err = pipeline.compile_proc(&program, "third").unwrap_err();
    assert_eq!(err.stage, "parse");
    assert!(err.to_string().contains("third"));
}

#[test]
fn error_stages_are_reported() {
    let pipeline = Denali::new(Options::default());
    // Syntax error.
    assert_eq!(
        pipeline.compile_source("(procdecl").unwrap_err().stage,
        "parse"
    );
    // Unknown statement -> parse.
    assert_eq!(
        pipeline
            .compile_source("(procdecl f ((a long)) long (nonsense))")
            .unwrap_err()
            .stage,
        "parse"
    );
    // Malformed program axiom -> axiom.
    assert_eq!(
        pipeline
            .compile_source("(axiom (zzz a b))\n(procdecl f ((a long)) long (:= (res a)))")
            .unwrap_err()
            .stage,
        "axiom"
    );
    // Nested loops -> lower.
    assert_eq!(
        pipeline
            .compile_source(
                "(procdecl f ((x long)) long
                   (do (-> (<u x 9) (do (-> (<u x 5) (:= (x (+ x 1))))))))"
            )
            .unwrap_err()
            .stage,
        "lower"
    );
    // Uninterpreted op -> enumerate.
    assert_eq!(
        pipeline
            .compile_source("(procdecl f ((a long)) long (:= (res (mystery a))))")
            .unwrap_err()
            .stage,
        "enumerate"
    );
    // Impossible budget -> search.
    let tiny = Denali::new(Options {
        max_cycles: 1,
        ..Options::default()
    });
    assert_eq!(
        tiny.compile_source("(procdecl f ((a long)) long (:= (res (* a a))))")
            .unwrap_err()
            .stage,
        "search"
    );
}

#[test]
fn dimacs_dump_writes_probe_files() {
    let dir = std::env::temp_dir().join(format!("denali_dimacs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = Denali::new(Options {
        dump_dimacs: Some(dir.clone()),
        ..Options::default()
    });
    pipeline
        .compile_source("(\\procdecl f ((a long)) long (:= (\\res (+ (+ a 1) (* a 8)))))")
        .unwrap();
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(!files.is_empty());
    assert!(files.iter().all(|f| f.ends_with(".cnf")), "{files:?}");
    // The dumps are valid DIMACS and agree with the internal solver.
    for f in &files {
        let text = std::fs::read_to_string(dir.join(f)).unwrap();
        let cnf = denali_sat::dimacs::parse(&text).unwrap();
        let _ = cnf.to_solver().solve();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn main_accessor_picks_the_largest_gma() {
    let pipeline = Denali::new(Options::default());
    let result = pipeline
        .compile_source(
            "(\\procdecl f ((p long*) (n long*)) long
               (\\var (s long 0)
                 (\\semi
                   (\\do (-> (<u p n)
                     (\\semi (:= (s (+ s (\\deref p)))) (:= (p (+ p 8))))))
                   (:= (\\res s)))))",
        )
        .unwrap();
    assert!(result.gmas.len() >= 2);
    let main = result.main();
    assert!(result
        .gmas
        .iter()
        .all(|g| g.program.len() <= main.program.len()));
}

/// The serve crate shares pipeline configuration across worker threads
/// and moves per-request pipelines into pool jobs, which requires the
/// façade types to be `Send + Sync`. Pinning this at compile time turns
/// an accidental `Rc`/raw-pointer/`Cell` regression deep inside the
/// pipeline into an error here, instead of a cryptic one inside the
/// server's closures.
#[test]
fn facade_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Denali>();
    assert_send_sync::<Options>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<CompileResult>();
    assert_send_sync::<CompileError>();
}

/// The façade split (prepare → fingerprint → compile) must be
/// observationally identical to the one-shot entry point.
#[test]
fn prepare_then_compile_matches_compile_source() {
    let source = r"(\procdecl f ((reg6 long)) long (:= (\res (+ (* reg6 4) 1))))";
    let denali = Denali::new(Options::default());
    let one_shot = denali.compile_source(source).unwrap();
    let prepared = denali.prepare_source(source).unwrap();
    let split = denali.compile_prepared(&prepared).unwrap();
    assert_eq!(one_shot.gmas.len(), split.gmas.len());
    for (a, b) in one_shot.gmas.iter().zip(&split.gmas) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.program.listing(4), b.program.listing(4));
    }
    // And the fingerprint is stable across prepares of the same source.
    assert_eq!(
        denali.fingerprint(&prepared),
        denali.fingerprint(&denali.prepare_source(source).unwrap())
    );
}

/// Procedures without axioms of their own share the machine's one
/// built-in set; a procedure with some gets a set of its own: the
/// built-ins, then its axioms in source order.
#[test]
fn prepared_procedures_share_the_built_in_axiom_set() {
    use std::sync::Arc;
    let denali = Denali::new(Options::default());
    let program = denali::parse(TWO_PROCS);
    let first = denali.prepare_proc(&program, "first").unwrap();
    let second = denali.prepare_proc(&program, "second").unwrap();
    let builtins = denali_axioms::axioms_for("ev6");
    assert!(Arc::ptr_eq(&first.axioms, &second.axioms));
    assert!(Arc::ptr_eq(&first.axioms, &builtins));

    let own = denali
        .prepare_source(
            "(\\axiom (forall (a b) (pats (carry a b)) (eq (carry a b) (\\cmpult (\\add64 a b) a))))
             (\\axiom (forall (a b) (pats (carry a b)) (eq (carry a b) (\\cmpult (\\add64 a b) b))))
             (\\procdecl f ((a long) (b long)) long (:= (\\res (carry a b))))",
        )
        .unwrap();
    assert!(!Arc::ptr_eq(&own.axioms, &builtins));
    let names = |axioms: &[denali_axioms::Axiom]| -> Vec<String> {
        axioms.iter().map(|a| a.name.clone()).collect()
    };
    let mut want = names(builtins.axioms());
    want.extend(["f-axiom-0".to_owned(), "f-axiom-1".to_owned()]);
    assert_eq!(names(own.axioms.axioms()), want);
}

#[test]
fn solver_stats_and_times_are_recorded() {
    let pipeline = Denali::new(Options {
        solver: SolverChoice::Cdcl,
        ..Options::default()
    });
    let result = pipeline
        .compile_source("(\\procdecl f ((a long)) long (:= (\\res (* a 4))))")
        .unwrap();
    let compiled = &result.gmas[0];
    assert!(!compiled.probes.is_empty());
    assert!(compiled.match_ms >= 0.0);
    assert!(compiled.search_ms >= 0.0);
    assert!(compiled.solver_ms() <= compiled.search_ms + 1.0);
    assert!(compiled.matcher.nodes > 0);
}
