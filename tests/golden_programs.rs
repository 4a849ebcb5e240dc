//! Golden program text for every program of the pipeline benchmark's
//! corpus and for `examples/figure2.dnl`, on `ev6` and on `ia64like`
//! (which saturates with its own axiom set), and the stochastic
//! engine's text for `examples/figure2.dnl`, `dot4`, `wide` and `sel`
//! on all four machines.
//!
//! The pinned text is the stdout of `denali FILE --machine M` from the
//! real binary, with the engine chosen by `DENALI_ENGINE`:
//! the header line and the listing of every GMA, including the
//! `; class cN` comments. Class ids are allocated in e-graph order, so
//! those comments pin the order of unions and constant folds as well as
//! the emitted instructions: a change to saturation or congruence repair
//! that renumbers classes shows up here even when the program is
//! otherwise the same. A change to the CLI's output format shows up too.
//! The sources are read with `include_str!`, so the goldens follow the
//! benchmark's corpus files without copying them.
//!
//! Regenerate with `DENALI_REGEN_GOLDEN=1 cargo test --test
//! golden_programs` only when a change is meant to alter the output.

/// Compiles `source` with `denali FILE --machine MACHINE` under
/// `DENALI_ENGINE=ENGINE` and returns its stdout.
fn cli_stdout(name: &str, machine: &str, engine: &str, source: &str) -> String {
    let dir = std::env::temp_dir().join(format!("denali-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!("{name}.dnl"));
    std::fs::write(&src, source).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_denali"))
        .arg(&src)
        .args(["--machine", machine])
        // Pin the env-driven knobs so CI matrix legs cannot change the
        // output. The engine comes from the environment, not from
        // `--engine`, so the goldens also cover reading it there.
        .env_remove("DENALI_TRACE")
        .env("DENALI_ENGINE", engine)
        .output()
        .expect("denali binary runs");
    std::fs::remove_file(&src).ok();
    assert!(
        out.status.success(),
        "denali {name}.dnl failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn check_golden(name: &str, machine: &str, engine: &str, source: &str) {
    let text = cli_stdout(name, machine, engine, source);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("DENALI_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; regenerate with DENALI_REGEN_GOLDEN=1");
    assert_eq!(
        text, golden,
        "{name}: emitted program drifted from tests/golden/{name}.txt; \
         if the change is intentional, regenerate with DENALI_REGEN_GOLDEN=1"
    );
}

/// One test per source file and machine under one engine: `engine:`
/// then `test_name => golden name, machine, source path;` per test.
macro_rules! golden_programs {
    ($engine:literal: $($test:ident => $name:literal, $machine:literal, $path:literal;)*) => {
        $(
            #[test]
            fn $test() {
                check_golden($name, $machine, $engine, include_str!($path));
            }
        )*
    };
}

golden_programs! { "sat":
    byteswap4_program_matches_golden => "byteswap4", "ev6", "../pipeline_bench/src/corpus/byteswap4.dnl";
    byteswap5_program_matches_golden => "byteswap5", "ev6", "../pipeline_bench/src/corpus/byteswap5.dnl";
    checksum_program_matches_golden => "checksum", "ev6", "../pipeline_bench/src/corpus/checksum.dnl";
    dot4_program_matches_golden => "dot4", "ev6", "../pipeline_bench/src/corpus/dot4.dnl";
    figure2_program_matches_golden => "figure2", "ev6", "../pipeline_bench/src/corpus/figure2.dnl";
    lcp2_program_matches_golden => "lcp2", "ev6", "../pipeline_bench/src/corpus/lcp2.dnl";
    memcopy2_zero_program_matches_golden => "memcopy2_zero", "ev6", "../pipeline_bench/src/corpus/memcopy2_zero.dnl";
    memcopy5_program_matches_golden => "memcopy5", "ev6", "../pipeline_bench/src/corpus/memcopy5.dnl";
    memcopy6_program_matches_golden => "memcopy6", "ev6", "../pipeline_bench/src/corpus/memcopy6.dnl";
    memcopy7_program_matches_golden => "memcopy7", "ev6", "../pipeline_bench/src/corpus/memcopy7.dnl";
    rowop_program_matches_golden => "rowop", "ev6", "../pipeline_bench/src/corpus/rowop.dnl";
    rowop4_program_matches_golden => "rowop4", "ev6", "../pipeline_bench/src/corpus/rowop4.dnl";
    sel_program_matches_golden => "sel", "ev6", "../pipeline_bench/src/corpus/sel.dnl";
    wide_program_matches_golden => "wide", "ev6", "../pipeline_bench/src/corpus/wide.dnl";
    example_figure2_program_matches_golden => "example_figure2", "ev6", "../examples/figure2.dnl";
    byteswap4_ia64like_program_matches_golden => "byteswap4_ia64like", "ia64like", "../pipeline_bench/src/corpus/byteswap4.dnl";
    byteswap5_ia64like_program_matches_golden => "byteswap5_ia64like", "ia64like", "../pipeline_bench/src/corpus/byteswap5.dnl";
    checksum_ia64like_program_matches_golden => "checksum_ia64like", "ia64like", "../pipeline_bench/src/corpus/checksum.dnl";
    dot4_ia64like_program_matches_golden => "dot4_ia64like", "ia64like", "../pipeline_bench/src/corpus/dot4.dnl";
    figure2_ia64like_program_matches_golden => "figure2_ia64like", "ia64like", "../pipeline_bench/src/corpus/figure2.dnl";
    lcp2_ia64like_program_matches_golden => "lcp2_ia64like", "ia64like", "../pipeline_bench/src/corpus/lcp2.dnl";
    memcopy2_zero_ia64like_program_matches_golden => "memcopy2_zero_ia64like", "ia64like", "../pipeline_bench/src/corpus/memcopy2_zero.dnl";
    memcopy5_ia64like_program_matches_golden => "memcopy5_ia64like", "ia64like", "../pipeline_bench/src/corpus/memcopy5.dnl";
    memcopy6_ia64like_program_matches_golden => "memcopy6_ia64like", "ia64like", "../pipeline_bench/src/corpus/memcopy6.dnl";
    memcopy7_ia64like_program_matches_golden => "memcopy7_ia64like", "ia64like", "../pipeline_bench/src/corpus/memcopy7.dnl";
    rowop_ia64like_program_matches_golden => "rowop_ia64like", "ia64like", "../pipeline_bench/src/corpus/rowop.dnl";
    rowop4_ia64like_program_matches_golden => "rowop4_ia64like", "ia64like", "../pipeline_bench/src/corpus/rowop4.dnl";
    sel_ia64like_program_matches_golden => "sel_ia64like", "ia64like", "../pipeline_bench/src/corpus/sel.dnl";
    wide_ia64like_program_matches_golden => "wide_ia64like", "ia64like", "../pipeline_bench/src/corpus/wide.dnl";
    example_figure2_ia64like_program_matches_golden => "example_figure2_ia64like", "ia64like", "../examples/figure2.dnl";
}

// The stochastic benchmark workload's programs and Figure 2: the chain is
// a pure function of (machine, sketch, rules, seed), so its output is as
// fixed as the SAT search's.
golden_programs! { "stochastic":
    example_figure2_stochastic_ev6_program_matches_golden => "example_figure2_stochastic_ev6", "ev6", "../examples/figure2.dnl";
    example_figure2_stochastic_ev6_unclustered_program_matches_golden => "example_figure2_stochastic_ev6-unclustered", "ev6-unclustered", "../examples/figure2.dnl";
    example_figure2_stochastic_ia64like_program_matches_golden => "example_figure2_stochastic_ia64like", "ia64like", "../examples/figure2.dnl";
    example_figure2_stochastic_single_issue_program_matches_golden => "example_figure2_stochastic_single-issue", "single-issue", "../examples/figure2.dnl";
    dot4_stochastic_ev6_program_matches_golden => "dot4_stochastic_ev6", "ev6", "../pipeline_bench/src/corpus/dot4.dnl";
    dot4_stochastic_ev6_unclustered_program_matches_golden => "dot4_stochastic_ev6-unclustered", "ev6-unclustered", "../pipeline_bench/src/corpus/dot4.dnl";
    dot4_stochastic_ia64like_program_matches_golden => "dot4_stochastic_ia64like", "ia64like", "../pipeline_bench/src/corpus/dot4.dnl";
    dot4_stochastic_single_issue_program_matches_golden => "dot4_stochastic_single-issue", "single-issue", "../pipeline_bench/src/corpus/dot4.dnl";
    wide_stochastic_ev6_program_matches_golden => "wide_stochastic_ev6", "ev6", "../pipeline_bench/src/corpus/wide.dnl";
    wide_stochastic_ev6_unclustered_program_matches_golden => "wide_stochastic_ev6-unclustered", "ev6-unclustered", "../pipeline_bench/src/corpus/wide.dnl";
    wide_stochastic_ia64like_program_matches_golden => "wide_stochastic_ia64like", "ia64like", "../pipeline_bench/src/corpus/wide.dnl";
    wide_stochastic_single_issue_program_matches_golden => "wide_stochastic_single-issue", "single-issue", "../pipeline_bench/src/corpus/wide.dnl";
    sel_stochastic_ev6_program_matches_golden => "sel_stochastic_ev6", "ev6", "../pipeline_bench/src/corpus/sel.dnl";
    sel_stochastic_ev6_unclustered_program_matches_golden => "sel_stochastic_ev6-unclustered", "ev6-unclustered", "../pipeline_bench/src/corpus/sel.dnl";
    sel_stochastic_ia64like_program_matches_golden => "sel_stochastic_ia64like", "ia64like", "../pipeline_bench/src/corpus/sel.dnl";
    sel_stochastic_single_issue_program_matches_golden => "sel_stochastic_single-issue", "single-issue", "../pipeline_bench/src/corpus/sel.dnl";
}
