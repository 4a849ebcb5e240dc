//! Workspace-level integration tests: the façade crate driving all the
//! component crates together, cross-checked against both baselines.

use std::collections::HashMap;

use denali::arch::{validate, Machine, Simulator};
use denali::baseline::{brute_search, rewrite_compile, BruteConfig};
use denali::core::{Denali, Options, SolverChoice};
use denali::lang::{lower_proc, parse_program};
use denali::term::Symbol;
use denali_bench::programs;

#[test]
fn figure2_whole_stack() {
    let denali = Denali::new(Options::default());
    let result = denali.compile_source(programs::FIGURE2).unwrap();
    let compiled = &result.gmas[0];
    assert_eq!(compiled.cycles, 1);
    assert_eq!(compiled.program.instrs[0].op.as_str(), "s4addq");
    validate(&compiled.program, &denali.options().machine).unwrap();
}

#[test]
fn denali_never_loses_to_the_rewriting_baseline() {
    // On every fixture both can compile, Denali's cycle count is at
    // most the baseline's (it explores a superset of the baseline's
    // single rewrite).
    let denali = Denali::new(Options::default());
    let machine = Machine::ev6();
    for (name, source) in [
        ("figure2", programs::FIGURE2),
        ("lcp2", programs::LCP2),
        ("rowop", programs::ROWOP),
    ] {
        let result = denali.compile_source(source).unwrap();
        let program = parse_program(source).unwrap();
        for (compiled, gma) in result
            .gmas
            .iter()
            .zip(lower_proc(&program.procs[0]).unwrap())
        {
            let baseline = rewrite_compile(&gma, &machine)
                .unwrap_or_else(|e| panic!("{name}: baseline failed: {e}"));
            assert!(
                compiled.cycles <= baseline.cycles(),
                "{name}/{}: Denali {} cycles vs baseline {}",
                gma.name,
                compiled.cycles,
                baseline.cycles()
            );
        }
    }
}

#[test]
fn brute_force_agrees_with_denali_on_small_goals() {
    // (a & 0xff) << 8 is a single insbl; both engines must find a
    // one-instruction program, and the programs must agree pointwise.
    let config = BruteConfig {
        max_len: 2,
        verify: 2_000,
        ..BruteConfig::default()
    };
    let target = |i: &[u64]| (i[0] & 0xff) << 8;
    let (found, _) = brute_search(&target, 1, &config);
    let brute = found.expect("brute force finds the byte insert");
    assert_eq!(brute.len(), 1);

    let denali = Denali::new(Options::default());
    let result = denali
        .compile_source("(\\procdecl f ((a long)) long (:= (\\res (<< (& a 255) 8))))")
        .unwrap();
    let compiled = &result.gmas[0];
    assert_eq!(compiled.program.len(), 1, "{}", compiled.program.listing(4));
    assert_eq!(compiled.program.instrs[0].op.as_str(), "insbl");

    let sim = Simulator::new(&denali.options().machine);
    let res = compiled.program.output_reg(Symbol::intern("res")).unwrap();
    for a in [0u64, 0xab, 0x1234, u64::MAX] {
        let outcome = sim
            .run_named(&compiled.program, &[("a", a)], HashMap::new())
            .unwrap();
        assert_eq!(outcome.regs[&res], target(&[a]));
        assert_eq!(brute.eval(&[a]), target(&[a]));
    }
}

#[test]
fn solver_substitution_preserves_results() {
    // The paper swapped SAT solvers freely; CDCL and DPLL must agree on
    // optimal cycle counts.
    let cdcl = Denali::new(Options::default());
    let dpll = Denali::new(Options {
        solver: SolverChoice::Dpll,
        ..Options::default()
    });
    for source in [programs::FIGURE2, programs::LCP2] {
        let a = cdcl.compile_source(source).unwrap();
        let b = dpll.compile_source(source).unwrap();
        assert_eq!(a.gmas[0].cycles, b.gmas[0].cycles);
    }
}

#[test]
fn machine_variants_order_sensibly() {
    // Removing the cluster penalty can only help; single issue can only
    // hurt.
    let quad = Denali::new(Options::default());
    let flat = Denali::new(Options {
        machine: Machine::ev6_unclustered(),
        ..Options::default()
    });
    let single = Denali::new(Options {
        machine: Machine::single_issue(),
        ..Options::default()
    });
    for source in [programs::LCP2, programs::FIGURE2] {
        let q = quad.compile_source(source).unwrap().gmas[0].cycles;
        let f = flat.compile_source(source).unwrap().gmas[0].cycles;
        let s = single.compile_source(source).unwrap().gmas[0].cycles;
        assert!(f <= q, "unclustered {f} > clustered {q}");
        assert!(s >= q, "single-issue {s} < quad {q}");
    }
}

#[test]
fn load_latency_annotation_changes_the_schedule() {
    // The paper's §6: memory latency annotations from profiling. A
    // cache-missing load (latency 12) must stretch the schedule.
    let fast = Denali::new(Options::default());
    let slow = Denali::new(Options {
        load_latency: Some(12),
        ..Options::default()
    });
    let source = "(\\procdecl f ((p long*)) long (:= (\\res (+ (\\deref p) 1))))";
    let f = fast.compile_source(source).unwrap().gmas[0].cycles;
    let s = slow.compile_source(source).unwrap().gmas[0].cycles;
    assert_eq!(f, 4); // ldq(3) + addq(1)
    assert_eq!(s, 13); // ldq(12) + addq(1)
}

#[test]
fn rowop_stores_through_the_loop() {
    let denali = Denali::new(Options::default());
    let result = denali.compile_source(programs::ROWOP).unwrap();
    let body = result.main();
    let sim = Simulator::new(&denali.options().machine);
    let memory: HashMap<u64, u64> = HashMap::from([(64, 10), (128, 5)]);
    let outcome = sim
        .run_named(
            &body.program,
            &[("p", 64), ("q", 128), ("r", 1024), ("c", 3)],
            memory,
        )
        .unwrap();
    // *p += c * *q -> 10 + 3*5 = 25.
    assert_eq!(outcome.memory[&64], 25);
    let p_out = body.program.output_reg(Symbol::intern("p")).unwrap();
    assert_eq!(outcome.regs[&p_out], 72);
}

#[test]
fn every_fixture_is_correct_by_simulation() {
    // The umbrella differential test: every experiment fixture, every
    // GMA, checked against the reference semantics.
    let denali = Denali::new(Options::default());
    let memory: HashMap<u64, u64> = (0..16u64).map(|i| (64 + 8 * i, 0x2222 * (i + 3))).collect();
    for source in [
        programs::FIGURE2,
        programs::LCP2,
        programs::ROWOP,
        programs::CHECKSUM_SERIAL,
    ] {
        denali_bench::compile_checked(
            &denali,
            source,
            &[
                ("reg6", 9),
                ("a", 0x3141_5926_5358_9793),
                ("b", 0x2718_2818_2845_9045),
                ("p", 64),
                ("q", 96),
                ("r", 160),
                ("c", 7),
                ("ptr", 64),
                ("ptrend", 128),
            ],
            &memory,
        );
    }
}

#[test]
fn cli_trace_round_trip() {
    // End-to-end through the real binary: --trace-out must not change
    // the compiler's stdout, the JSONL must parse back into records
    // with the expected span vocabulary, the Chrome export must be
    // valid JSON with properly nested spans, and `trace-report` must
    // summarize the JSONL.
    let exe = env!("CARGO_BIN_EXE_denali");
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure2.dnl");
    let dir = std::env::temp_dir().join(format!("denali-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl_path = dir.join("figure2.jsonl");
    let chrome_path = dir.join("figure2.chrome.json");

    let run = |args: &[&str]| -> String {
        let out = std::process::Command::new(exe)
            .args(args)
            // Pin the env-driven knobs so CI matrix legs cannot skew
            // the comparison.
            .env_remove("DENALI_TRACE")
            .output()
            .expect("denali binary runs");
        assert!(
            out.status.success(),
            "denali {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };

    let plain = run(&[src]);
    let traced = run(&[src, "--trace-out", jsonl_path.to_str().unwrap()]);
    assert_eq!(plain, traced, "tracing changed the compiler's output");

    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let records = denali::trace::jsonl::parse_records(&text).expect("JSONL parses");
    for name in [
        "gma",
        "match",
        "saturate.round",
        "search",
        "probe",
        "encode",
        "solve",
    ] {
        assert!(
            records.iter().any(|r| r.name() == Some(name)),
            "JSONL trace is missing {name}"
        );
    }

    run(&[
        src,
        "--trace-out",
        chrome_path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    let chrome_text = std::fs::read_to_string(&chrome_path).unwrap();
    let json = denali::trace::json::parse(&chrome_text).expect("Chrome trace is valid JSON");
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let complete = |name: &str| -> (u64, u64) {
        let e = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("name").and_then(|n| n.as_str()) == Some(name)
            })
            .unwrap_or_else(|| panic!("no complete event named {name}"));
        (
            e.get("ts").and_then(|v| v.as_u64()).expect("ts"),
            e.get("dur").and_then(|v| v.as_u64()).expect("dur"),
        )
    };
    // The phases nest in the GMA span, and the live probe span (a
    // complete event like every other span) in the search.
    for (outer, inner) in [("gma", "match"), ("gma", "search"), ("search", "probe")] {
        let (o_ts, o_dur) = complete(outer);
        let (ts, dur) = complete(inner);
        assert!(
            o_ts <= ts && ts + dur <= o_ts + o_dur,
            "{inner} span [{ts}, {}] not nested in {outer} [{o_ts}, {}]",
            ts + dur,
            o_ts + o_dur
        );
    }

    let report = std::process::Command::new(exe)
        .args(["trace-report", jsonl_path.to_str().unwrap()])
        .output()
        .expect("trace-report runs");
    assert!(report.status.success());
    let report = String::from_utf8(report.stdout).unwrap();
    assert!(report.contains("phases:"), "{report}");
    assert!(report.contains("1 probes,"), "{report}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_probes_prints_a_phase_line_from_the_trace() {
    // `--probes` renders its `phases:` line from the trace spans; the
    // in-memory tracer it turns on must not change the program.
    let exe = env!("CARGO_BIN_EXE_denali");
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/figure2.dnl");
    let run = |args: &[&str]| -> String {
        let out = std::process::Command::new(exe)
            .args(args)
            .env_remove("DENALI_TRACE")
            .output()
            .expect("denali binary runs");
        assert!(out.status.success(), "denali {args:?} failed");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let program = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("//"))
            .map(str::to_owned)
            .collect()
    };
    let plain = run(&[src]);
    let probed = run(&[src, "--probes"]);
    assert_eq!(
        program(&plain),
        program(&probed),
        "--probes changed the program"
    );
    let phases: Vec<&str> = probed
        .lines()
        .filter(|l| l.starts_with("//   phases: "))
        .collect();
    assert_eq!(phases.len(), 1, "one phase line per GMA:\n{probed}");
    let line = phases[0];
    assert!(
        line.starts_with("//   phases: match ")
            && line.contains(" ms, enumerate ")
            && line.contains(" ms, search ")
            && line.ends_with(" ms"),
        "{line}"
    );
}
