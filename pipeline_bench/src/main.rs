//! `pipeline_bench`: one end-to-end benchmark of the Denali compile and
//! serve pipeline, with a layer-by-layer traced run.
//!
//! ```text
//! pipeline_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! pipeline_bench compare A.jsonl B.jsonl
//! ```
//!
//! With `--workload`, one run of that workload in this process: the last
//! line of standard output is the result object, with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Without
//! it, every workload runs in its own child process (plus a traced run
//! each with `--trace 1` or `--trace-out`), and one record line per run
//! is printed for `compare`. See `README.md` in this directory.

mod check;
mod compare;
mod compile;
mod corpus;
mod metrics;
mod mixed;
mod serve;
mod speed;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use denali_arch::Machine;
use denali_axioms::SaturationLimits;
use denali_core::encode::EncodeOptions;
use denali_core::{EngineChoice, Options, SolverChoice, StokeKnobs};
use denali_trace::{jsonl, Tracer, Value};

use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::speed::Speedometer;
use crate::stats::{median, Rng};

/// How long a phase waits for missing responses after its last send.
pub const DRAIN: Duration = Duration::from_secs(10);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

const SALT_TAG: u64 = 0x300;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MatchHeavy,
    SearchHeavy,
    Stochastic,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatchHeavy,
        Workload::SearchHeavy,
        Workload::Stochastic,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatchHeavy => "match-heavy",
            Workload::SearchHeavy => "search-heavy",
            Workload::Stochastic => "stochastic",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn compile_spec(self) -> Option<compile::Spec> {
        use corpus::*;
        let (fixtures, engine): (&'static [corpus::Fixture], EngineChoice) = match self {
            Workload::MatchHeavy => (
                &[BYTESWAP4, BYTESWAP5, LCP2, CHECKSUM, MEMCOPY2_ZERO],
                EngineChoice::Sat,
            ),
            Workload::SearchHeavy => (
                &[FIGURE2, ROWOP, ROWOP4, DOT4, MEMCOPY5, MEMCOPY6, MEMCOPY7],
                EngineChoice::Sat,
            ),
            Workload::Stochastic => (&[FIGURE2, DOT4, WIDE, SEL], EngineChoice::Stochastic),
            Workload::ServeMixed => return None,
        };
        Some(compile::Spec { fixtures, engine })
    }
}

/// The pipeline configuration every workload measures, with every field
/// given: one thread, incremental probing, no portfolio, no tracing,
/// and default saturation, machine and stochastic settings.
pub fn options(engine: EngineChoice) -> Options {
    Options {
        machine: Machine::ev6(),
        saturation: SaturationLimits::default(),
        encode: EncodeOptions::default(),
        solver: SolverChoice::Cdcl,
        max_cycles: 48,
        extra_axioms: Vec::new(),
        load_latency: None,
        miss_latency: 20,
        dump_dimacs: None,
        pipeline_loads: false,
        threads: 1,
        incremental: true,
        portfolio: 0,
        trace: false,
        cancel: None,
        engine,
        stoke: StokeKnobs::default(),
        anytime: None,
    }
}

/// The suffix appended to procedure names in this run.
pub fn salt(seed: u64) -> String {
    format!("s{:04x}", Rng::stream(seed, SALT_TAG).next_u64() & 0xffff)
}

/// Runs `set_up` [`SETUP_REPEATS`] times, dropping each result before
/// the next, and returns the last result with the median duration in
/// seconds at the reference speed. The median wall time goes to `notes`.
pub fn timed_setup<T>(
    meter: &mut Speedometer,
    notes: &mut Vec<String>,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (mut scaled, mut wall) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let timed = meter.time(&mut set_up);
        last = Some(timed.value?);
        scaled.push(timed.ms / 1e3);
        wall.push(timed.wall_ms / 1e3);
    }
    notes.push(format!(
        "set-up median {:.6} s wall, {:.6} s at the reference speed, over {SETUP_REPEATS}",
        median(&wall),
        median(&scaled)
    ));
    Ok((last.expect("at least one set-up"), median(&scaled)))
}

/// This process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 25,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => usage("compare takes two files"),
        };
    }
    // `Options::default()`, `SaturationLimits::default()` and
    // `StokeKnobs::default()` read these, which would silently change
    // what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DENALI_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "pipeline_bench: refusing to run with {} set",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("pipeline_bench: {message}");
    eprintln!(
        "usage: pipeline_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n       \
         pipeline_bench compare A.jsonl B.jsonl"
    );
    ExitCode::from(2)
}

/// One run of one workload in this process.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let seconds = Duration::from_secs(args.seconds);
    let traced = args.trace || args.trace_out.is_some();
    let tracer = Tracer::when(traced);
    let outcome = match (workload.compile_spec(), traced) {
        (Some(spec), false) => compile::run(&spec, args.seed, seconds),
        (Some(spec), true) => compile::run_traced(&spec, args.seed, seconds, &tracer),
        (None, false) => mixed::run(args.seed, seconds),
        (None, true) => mixed::run_traced(args.seed, seconds, &tracer),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pipeline_bench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.trace_out {
        let meta = [
            ("source", Value::Str("pipeline_bench".to_owned())),
            ("workload", Value::Str(workload.name().to_owned())),
            ("seed", Value::U64(args.seed)),
        ];
        if let Err(e) = std::fs::write(path, jsonl::to_string(&meta, &tracer.take_records())) {
            eprintln!("pipeline_bench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let defs = if traced { PER_LAYER } else { END_TO_END };
    report(workload, &outcome, defs);
    let record = format!(
        "\"workload\":\"{}\",\"seed\":{},\"trace\":{},",
        workload.name(),
        args.seed,
        u8::from(traced)
    );
    println!("{}", metrics::render_result(&outcome, defs, &record));
    println!("{}", metrics::render_result(&outcome, defs, ""));
    ExitCode::SUCCESS
}

fn report(workload: Workload, outcome: &Outcome, defs: &[metrics::MetricDef]) {
    for note in &outcome.notes {
        println!("{:<12} {note}", workload.name());
    }
    for problem in &outcome.problems {
        println!("{:<12} FAILED: {problem}", workload.name());
    }
    println!(
        "{:<12} {} attempted, {} failed",
        workload.name(),
        outcome.attempted,
        outcome.failed
    );
    print!("{}", metrics::render_table(workload.name(), outcome, defs));
}

/// `FILE` with the workload's name before its extension.
fn trace_path(path: &Path, workload: Workload) -> PathBuf {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy())
        .unwrap_or_default();
    let name = match path.extension() {
        Some(ext) => format!("{stem}.{}.{}", workload.name(), ext.to_string_lossy()),
        None => format!("{stem}.{}", workload.name()),
    };
    path.with_file_name(name)
}

/// Every workload, each run in its own child process so its peak memory
/// is its own.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("pipeline_bench: cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let traced = args.trace || args.trace_out.is_some();
    let mut records = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child.args([
                "--workload",
                workload.name(),
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if let (true, Some(path)) = (trace, &args.trace_out) {
                child.arg("--trace-out").arg(trace_path(path, workload));
            }
            let output = match child.stderr(Stdio::inherit()).output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("pipeline_bench: {}: {e}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            // The child's last two lines are its record and its result.
            let cut = lines.len().saturating_sub(2);
            for line in &lines[..cut] {
                println!("{line}");
            }
            match lines.get(cut) {
                Some(record) if output.status.success() => {
                    ok &= record.contains("\"correct\":true");
                    records.push(record.to_string());
                }
                _ => {
                    eprintln!(
                        "pipeline_bench: {} exited with {}",
                        workload.name(),
                        output.status
                    );
                    ok = false;
                }
            }
        }
    }
    for record in &records {
        println!("{record}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
