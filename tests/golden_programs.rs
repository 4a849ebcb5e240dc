//! Golden program text for the fixtures whose structural saturation
//! phase does the most merging and folding.
//!
//! The pinned text is the stdout of `denali FILE` from the real binary:
//! the header line and the listing of every GMA, including the
//! `; class cN` comments. Class ids are allocated in e-graph order, so
//! those comments pin the order of unions and constant folds as well as
//! the emitted instructions: a change to saturation or congruence repair
//! that renumbers classes shows up here even when the program is
//! otherwise the same. A change to the CLI's output format shows up too.
//!
//! Regenerate with `DENALI_REGEN_GOLDEN=1 cargo test --test
//! golden_programs` only when a change is meant to alter the output.

/// The `memcopy2_zero` fixture of the pipeline benchmark's corpus: a
/// 2-wide copy loop that addresses its first word as `(+ p 0)`.
const MEMCOPY2_ZERO: &str = "
(\\procdecl memcopy2_zero ((p long*) (q long*) (r long*)) long
  (\\do (-> (<u p r)
    (:= ((\\deref (+ p 0)) (\\deref (+ q 0))) ((\\deref (+ p 8)) (\\deref (+ q 8))) (p (+ p 16)) (q (+ q 16))))))";

/// Compiles `source` with `denali FILE` and returns its stdout.
fn cli_stdout(name: &str, source: &str) -> String {
    let dir = std::env::temp_dir().join(format!("denali-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!("{name}.dnl"));
    std::fs::write(&src, source).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_denali"))
        .arg(&src)
        // Pin the env-driven knobs so CI matrix legs cannot change the
        // output.
        .env_remove("DENALI_TRACE")
        .env("DENALI_ENGINE", "sat")
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

fn check_golden(name: &str, source: &str) {
    let text = cli_stdout(name, source);
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

#[test]
fn lcp2_program_matches_golden() {
    check_golden("lcp2", denali_bench::programs::LCP2);
}

#[test]
fn memcopy2_zero_program_matches_golden() {
    check_golden("memcopy2_zero", MEMCOPY2_ZERO);
}
