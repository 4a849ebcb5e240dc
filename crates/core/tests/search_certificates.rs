//! Regression tests for the cycle-budget search's results: the
//! `refuted_below` certificate semantics, the per-probe CDCL solver
//! stats, and DIMACS dumps (one standalone CNF per probe, and a hard
//! error when the dump cannot be written).

use denali_core::encode::{encode, Rules};
use denali_core::machine_terms::enumerate_with_misses;
use denali_core::matcher::match_gma;
use denali_core::{Denali, Options};

const BYTESWAP4: &str = "
(\\procdecl byteswap4 ((a long)) long
  (\\var (r long 0)
    (\\semi
      (:= ((\\selectb r 0) (\\selectb a 3)))
      (:= ((\\selectb r 1) (\\selectb a 2)))
      (:= ((\\selectb r 2) (\\selectb a 1)))
      (:= ((\\selectb r 3) (\\selectb a 0)))
      (:= (\\res r)))))";

const FIGURE2: &str = "(\\procdecl f ((reg6 long)) long (:= (\\res (+ (* reg6 4) 1))))";

#[test]
fn identity_claims_no_refutation_certificate() {
    // The zero-launch path performs no UNSAT probe, so it must not
    // claim that "cycles - 1" was refuted.
    let denali = Denali::new(Options::default());
    let result = denali
        .compile_source("(\\procdecl id ((a long)) long (:= (\\res a)))")
        .unwrap();
    let compiled = &result.gmas[0];
    assert_eq!(compiled.cycles, 0);
    assert!(compiled.probes.is_empty());
    assert!(!compiled.refuted_below);
}

#[test]
fn one_cycle_result_is_vacuously_refuted() {
    // figure2 needs a launch, so zero cycles is infeasible without any
    // probe: the certificate holds even though the first probe is SAT.
    let denali = Denali::new(Options::default());
    let result = denali.compile_source(FIGURE2).unwrap();
    let compiled = &result.gmas[0];
    assert_eq!(compiled.cycles, 1);
    assert!(compiled.refuted_below);
    assert!(compiled.probes.iter().all(|p| p.satisfiable));
}

#[test]
fn unsat_neighbor_backs_the_certificate() {
    // byteswap4's certificate must rest on an actual UNSAT probe at
    // cycles - 1, not on bookkeeping.
    let denali = Denali::new(Options::default());
    let result = denali.compile_source(BYTESWAP4).unwrap();
    let compiled = &result.gmas[0];
    assert!(compiled.refuted_below);
    assert!(compiled
        .probes
        .iter()
        .any(|p| p.k + 1 == compiled.cycles && !p.satisfiable));
}

#[test]
fn cdcl_probes_surface_solver_stats() {
    let denali = Denali::new(Options::default());
    let result = denali.compile_source(BYTESWAP4).unwrap();
    let compiled = &result.gmas[0];
    assert!(!compiled.probes.is_empty());
    for probe in &compiled.probes {
        let stats = probe.solver.expect("CDCL probes carry solver stats");
        assert_eq!(stats.vars as usize, probe.vars);
    }
}

#[test]
fn unwritable_dump_directory_is_a_hard_error() {
    // Point the dump "directory" underneath a regular file: creating
    // it must fail, and the search must report that instead of
    // silently skipping the dump.
    let base = std::env::temp_dir().join("denali_dump_blocker");
    std::fs::write(&base, b"not a directory").unwrap();
    let denali = Denali::new(Options {
        dump_dimacs: Some(base.join("sub")),
        ..Options::default()
    });
    let err = denali
        .compile_source(FIGURE2)
        .expect_err("dump into a non-directory must fail");
    assert_eq!(err.stage, "search");
    assert!(
        err.message.contains("DIMACS"),
        "error should name the dump: {}",
        err.message
    );
    let _ = std::fs::remove_file(&base);
}

#[test]
fn dump_writes_one_cnf_per_probe() {
    let dir = std::env::temp_dir().join("denali_dump_ok_test");
    let _ = std::fs::remove_dir_all(&dir);
    let denali = Denali::new(Options {
        dump_dimacs: Some(dir.clone()),
        ..Options::default()
    });
    let result = denali.compile_source(BYTESWAP4).unwrap();
    let compiled = &result.gmas[0];
    let mut dumped: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    dumped.sort();
    let mut expected: Vec<String> = compiled
        .probes
        .iter()
        .map(|p| format!("{}_k{}.cnf", compiled.gma.name, p.k))
        .collect();
    expected.sort();
    assert_eq!(dumped, expected);

    // Each file is the standalone formula of its budget.
    let o = denali.options();
    let prepared = denali.prepare_source(BYTESWAP4).unwrap();
    let gma = &prepared.gmas[0];
    let matched = match_gma(gma, &prepared.axioms, &o.saturation).unwrap();
    let candidates = enumerate_with_misses(
        &matched,
        &o.machine,
        &gma.inputs(),
        o.load_latency,
        &gma.miss_addrs,
        o.miss_latency,
    )
    .unwrap();
    let rules = Rules::new(&matched, &candidates, &o.machine, &o.encode);
    for p in &compiled.probes {
        let path = dir.join(format!("{}_k{}.cnf", compiled.gma.name, p.k));
        let bytes = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            bytes,
            encode(&rules, p.k).cnf.to_dimacs(),
            "dump for K={}",
            p.k
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
