//! The `denali` command-line superoptimizer.
//!
//! ```text
//! denali FILE.dnl [--proc NAME] [--machine ev6|ev6-unclustered|single-issue|ia64like]
//!                 [--solver cdcl|dpll] [--engine sat|stochastic|auto]
//!                 [--load-latency N] [--max-cycles N]
//!                 [--probes] [-v|--verbose] [--trace] [--trace-out FILE]
//!                 [--trace-format jsonl|chrome] [--dump-dimacs DIR]
//!                 [--simulate name=value ...]
//! denali trace-report TRACE.jsonl
//! denali metrics-check EXPOSITION.txt
//! denali serve (--stdio | --listen ADDR) [--workers N] [--queue N]
//!              [--cache-bytes N] [--cache-dir DIR] [--machine M] [--solver S]
//!              [--engine sat|stochastic|auto]
//!              [--max-cycles N] [--trace] [-v|--verbose]
//!              [--metrics-addr ADDR] [--slow-ms T --spool-dir DIR]
//!              [--trace-sample N] [--flight-capacity N]
//! ```
//!
//! Compiles a Denali source file, prints a Figure-4-style listing per
//! generated GMA, and optionally executes the result on the simulator.
//! `trace-report` renders the per-phase / per-axiom / per-probe summary
//! of a JSONL trace written by `--trace-out`. `serve` runs the
//! long-lived compilation server (framed JSONL protocol, see
//! `docs/SERVER.md`).

use std::collections::HashMap;
use std::process::ExitCode;

use denali::arch::{Machine, Simulator};
use denali::core::{Denali, EngineChoice, Options, SolverChoice};
use denali::trace::{chrome, jsonl, report, Tracer, Value};

#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

struct Cli {
    file: String,
    proc_name: Option<String>,
    options: Options,
    show_probes: bool,
    verbose: bool,
    allocate: bool,
    simulate: Vec<(String, u64)>,
    trace_out: Option<std::path::PathBuf>,
    trace_format: TraceFormat,
}

fn usage() -> ! {
    eprintln!(
        "usage: denali FILE.dnl [--proc NAME] [--machine ev6|ev6-unclustered|single-issue|ia64like]\n\
         \x20                   [--solver cdcl|dpll] [--engine sat|stochastic|auto]\n\
         \x20                   [--load-latency N] [--max-cycles N]\n\
         \x20                   [--probes] [-v|--verbose] [--trace] [--trace-out FILE]\n\
         \x20                   [--trace-format jsonl|chrome] [--allocate] [--dump-dimacs DIR]\n\
         \x20                   [--simulate name=value ...]\n\
         \x20      denali trace-report TRACE.jsonl\n\
         \x20      denali metrics-check EXPOSITION.txt\n\
         \x20      denali serve (--stdio | --listen ADDR) [--workers N] [--queue N]\n\
         \x20                   [--cache-bytes N] [--cache-dir DIR] [--machine M] [--solver S]\n\
         \x20                   [--engine sat|stochastic|auto] [--max-cycles N]\n\
         \x20                   [--trace] [-v|--verbose]\n\
         \x20                   [--metrics-addr ADDR] [--slow-ms T --spool-dir DIR]\n\
         \x20                   [--trace-sample N] [--flight-capacity N]\n\
         \x20 --engine E        optimizer engine: sat (goal-directed search, default), stochastic\n\
         \x20                   (MCMC over instruction sketches), or auto (SAT with stochastic\n\
         \x20                   fallback + anytime candidates under deadlines; also DENALI_ENGINE)\n\
         \x20 --trace           collect a structured trace (also DENALI_TRACE=1)\n\
         \x20 --trace-out FILE  write the trace to FILE (implies --trace; jsonl unless --trace-format chrome)\n\
         \x20 -v, --verbose     per-round matcher detail + probe log (implies --trace and --probes)\n\
         \x20 trace-report      summarize a JSONL trace (phases, axioms, probes, serve requests)\n\
         \x20 metrics-check     validate a saved Prometheus text exposition (a /metrics scrape)\n\
         \x20 serve             run the compilation server (JSONL protocol, docs/SERVER.md)\n\
         \x20 --metrics-addr    serve: expose Prometheus text metrics at http://ADDR/metrics\n\
         \x20 --slow-ms T       serve: spool full traces of requests slower than T ms to\n\
         \x20                   --spool-dir DIR (works even with --trace off)\n\
         \x20 --trace-sample N  serve: keep a full trace for 1 in N requests in the flight\n\
         \x20                   recorder ring (read back with a `flight` request; 0 = off)"
    );
    std::process::exit(2);
}

/// The `--machine` value, or the usage text after naming the known
/// machines.
fn machine_arg(name: &str) -> Machine {
    Machine::by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

/// The `--solver` value, or the usage text after naming the known
/// solvers.
fn solver_arg(name: &str) -> SolverChoice {
    SolverChoice::parse(name).unwrap_or_else(|| {
        eprintln!("unknown solver {name:?} (known: cdcl, dpll)");
        usage();
    })
}

/// The `--engine` value, or the usage text after naming the known
/// engines.
fn engine_arg(name: &str) -> EngineChoice {
    EngineChoice::parse(name).unwrap_or_else(|| {
        eprintln!("unknown engine {name:?} (known: sat, stochastic, auto)");
        usage();
    })
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let mut cli = Cli {
        file: String::new(),
        proc_name: None,
        options: Options::default(),
        show_probes: false,
        verbose: false,
        allocate: false,
        simulate: Vec::new(),
        trace_out: None,
        trace_format: TraceFormat::Jsonl,
    };
    let need = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--proc" => cli.proc_name = Some(need(&mut args, "--proc")),
            "--machine" => cli.options.machine = machine_arg(&need(&mut args, "--machine")),
            "--solver" => cli.options.solver = solver_arg(&need(&mut args, "--solver")),
            "--engine" => cli.options.engine = engine_arg(&need(&mut args, "--engine")),
            "--load-latency" => {
                cli.options.load_latency = Some(
                    need(&mut args, "--load-latency")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--max-cycles" => {
                cli.options.max_cycles = need(&mut args, "--max-cycles")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--probes" => cli.show_probes = true,
            "-v" | "--verbose" => cli.verbose = true,
            "--trace" => cli.options.trace = true,
            "--trace-out" => {
                cli.trace_out = Some(need(&mut args, "--trace-out").into());
                cli.options.trace = true;
            }
            "--trace-format" => {
                cli.trace_format = match need(&mut args, "--trace-format").as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        eprintln!("unknown trace format {other}");
                        usage();
                    }
                }
            }
            "--allocate" => cli.allocate = true,
            "--pipeline" => cli.options.pipeline_loads = true,
            "--dump-dimacs" => {
                cli.options.dump_dimacs = Some(need(&mut args, "--dump-dimacs").into())
            }
            "--simulate" => {
                let binding = need(&mut args, "--simulate");
                let Some((name, value)) = binding.split_once('=') else {
                    eprintln!("--simulate expects name=value");
                    usage();
                };
                let value = denali::term::term::parse_integer(value).unwrap_or_else(|| {
                    eprintln!("bad value in {binding}");
                    usage();
                });
                cli.simulate.push((name.to_owned(), value));
            }
            "--help" | "-h" => usage(),
            _ if cli.file.is_empty() && !arg.starts_with('-') => cli.file = arg,
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    if cli.file.is_empty() {
        usage();
    }
    if cli.verbose {
        cli.show_probes = true;
    }
    // The `// phases:` lines are rendered from the trace.
    if cli.show_probes {
        cli.options.trace = true;
    }
    cli
}

/// Writes the collected trace to `--trace-out` in the chosen format.
/// Called on every exit path (success, refutation, pipeline error) so a
/// failed compilation still leaves its trace behind.
fn flush_trace(cli: &Cli, tracer: &Tracer) -> Result<(), String> {
    let Some(path) = &cli.trace_out else {
        return Ok(());
    };
    let records = tracer.records();
    let text = match cli.trace_format {
        TraceFormat::Jsonl => {
            jsonl::to_string(&[("source", Value::from(cli.file.as_str()))], &records)
        }
        TraceFormat::Chrome => chrome::to_string(&records),
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write trace {}: {e}", path.display()))
}

/// The `denali trace-report FILE.jsonl` subcommand: parse a JSONL trace
/// and render its summary tables.
fn trace_report(path: &str) -> ExitCode {
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match jsonl::parse_records(&input) {
        Ok(records) => {
            print!("{}", report::render(&records));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path} is not a JSONL trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `denali metrics-check` subcommand: validate a saved Prometheus
/// text exposition (e.g. a scrape of `GET /metrics`) against the
/// grammar. Keeps CI honest without a network-installed linter.
fn metrics_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match denali::metrics::validate_exposition(&text) {
        Ok(()) => {
            let families = text
                .lines()
                .filter(|line| line.starts_with("# TYPE "))
                .count();
            println!("{path}: ok ({families} metric families)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `denali serve` subcommand: the long-lived compilation server.
fn serve(args: &[String]) -> ExitCode {
    use denali::serve::{serve_stdio, serve_tcp, Server, ServerConfig};

    let mut config = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut stdio = false;
    let mut args = args.iter();
    let need = |args: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
        args.next().cloned().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage();
        })
    };
    let parse = |value: String, flag: &str| -> usize {
        value.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {flag}");
            usage();
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => listen = Some(need(&mut args, "--listen")),
            "--workers" => config.workers = parse(need(&mut args, "--workers"), "--workers"),
            "--queue" => config.queue = parse(need(&mut args, "--queue"), "--queue"),
            "--cache-bytes" => {
                config.cache_bytes = parse(need(&mut args, "--cache-bytes"), "--cache-bytes")
            }
            "--cache-dir" => config.cache_dir = Some(need(&mut args, "--cache-dir").into()),
            "--machine" => config.base.machine = machine_arg(&need(&mut args, "--machine")),
            "--solver" => config.base.solver = solver_arg(&need(&mut args, "--solver")),
            "--engine" => config.base.engine = engine_arg(&need(&mut args, "--engine")),
            "--max-cycles" => {
                config.base.max_cycles =
                    parse(need(&mut args, "--max-cycles"), "--max-cycles") as u32
            }
            "--trace" => config.base.trace = true,
            "--metrics-addr" => metrics_addr = Some(need(&mut args, "--metrics-addr")),
            "--slow-ms" => {
                config.slow_ms = Some(parse(need(&mut args, "--slow-ms"), "--slow-ms") as u64)
            }
            "--spool-dir" => config.spool_dir = Some(need(&mut args, "--spool-dir").into()),
            "--trace-sample" => {
                config.trace_sample =
                    parse(need(&mut args, "--trace-sample"), "--trace-sample") as u64
            }
            "--flight-capacity" => {
                config.flight_capacity =
                    parse(need(&mut args, "--flight-capacity"), "--flight-capacity")
            }
            "-v" | "--verbose" => config.verbose = true,
            other => {
                eprintln!("unknown serve argument {other}");
                usage();
            }
        }
    }
    if stdio == listen.is_some() {
        eprintln!("serve needs exactly one of --stdio or --listen ADDR");
        usage();
    }
    if config.slow_ms.is_some() && config.spool_dir.is_none() {
        eprintln!("--slow-ms needs --spool-dir DIR (nowhere to spool slow traces)");
        usage();
    }
    let server = match Server::new(config) {
        Ok(server) => std::sync::Arc::new(server),
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = metrics_addr {
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("error: cannot bind metrics address {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Printed unconditionally (unlike the verbose-gated serve
        // banner): with `--metrics-addr 127.0.0.1:0` this line is the
        // only way for a harness to learn the bound port.
        match listener.local_addr() {
            Ok(local) => eprintln!("serve: metrics on {local}"),
            Err(_) => eprintln!("serve: metrics on {addr}"),
        }
        let scrape = std::sync::Arc::clone(&server);
        std::thread::Builder::new()
            .name("serve-metrics".to_owned())
            .spawn(move || {
                if let Err(e) =
                    denali::metrics::serve_exposition(&listener, || scrape.metrics_text())
                {
                    eprintln!("error: metrics endpoint: {e}");
                }
            })
            .expect("spawn metrics thread");
    }
    let result = match listen {
        None => serve_stdio(&server),
        Some(addr) => serve_tcp(&server, &addr),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.first().map(String::as_str) == Some("trace-report") {
            match args.get(1) {
                Some(path) if args.len() == 2 => return trace_report(path),
                _ => {
                    eprintln!("trace-report expects exactly one JSONL file");
                    usage();
                }
            }
        }
        if args.first().map(String::as_str) == Some("serve") {
            return serve(&args[1..]);
        }
        if args.first().map(String::as_str) == Some("metrics-check") {
            match args.get(1) {
                Some(path) if args.len() == 2 => return metrics_check(path),
                _ => {
                    eprintln!("metrics-check expects exactly one exposition file");
                    usage();
                }
            }
        }
    }
    let cli = parse_cli();
    let source = match std::fs::read_to_string(&cli.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", cli.file);
            return ExitCode::FAILURE;
        }
    };
    let denali = Denali::new(cli.options.clone());
    let result = match &cli.proc_name {
        None => denali.compile_source(&source),
        Some(name) => match denali::lang::parse_program(&source) {
            Ok(program) => denali.compile_proc(&program, name),
            Err(e) => {
                eprintln!("error: parse: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            // Refutations ("no schedule within N cycles") and pipeline
            // errors land here: still report the phases reached and
            // flush the trace, so failed runs are diagnosable.
            eprintln!("error: {e}");
            if denali.tracer().is_enabled() {
                eprintln!(
                    "// phases: {}",
                    report::phase_line(&denali.tracer().records())
                );
            }
            if let Err(msg) = flush_trace(&cli, denali.tracer()) {
                eprintln!("error: {msg}");
            }
            return ExitCode::FAILURE;
        }
    };

    let phase_lines = if cli.show_probes {
        report::gma_phase_lines(&denali.tracer().records())
    } else {
        Vec::new()
    };
    for (i, compiled) in result.gmas.iter().enumerate() {
        println!(
            "// {}: {} cycles ({} instructions){}",
            compiled.gma.name,
            compiled.cycles,
            compiled.program.len(),
            if compiled.refuted_below {
                format!(", {} cycles refuted", compiled.cycles.saturating_sub(1))
            } else {
                String::new()
            }
        );
        if cli.show_probes {
            for probe in &compiled.probes {
                println!("//   {probe}");
            }
            println!(
                "//   matching: {:.1} ms ({} nodes, {} classes); SAT total {:.1} ms",
                compiled.match_ms,
                compiled.matcher.nodes,
                compiled.matcher.classes,
                compiled.solver_ms()
            );
            if let Some(line) = phase_lines.get(i) {
                println!("//   phases: {line}");
            }
        }
        if cli.verbose {
            for (i, round) in compiled.matcher.rounds.iter().enumerate() {
                println!(
                    "//   round {i}: scanned {}, instances {}, {:.1} ms",
                    round.scanned, round.instances, round.ms
                );
            }
        }
        if cli.allocate {
            match denali::arch::allocate(
                &compiled.program,
                &denali.options().machine,
                &denali::arch::alpha_temp_pool(),
            ) {
                Ok(allocated) => {
                    println!(
                        "{}",
                        allocated.listing(denali.options().machine.issue_width())
                    )
                }
                Err(e) => {
                    eprintln!("// register allocation failed: {e}");
                    println!(
                        "{}",
                        compiled
                            .program
                            .listing(denali.options().machine.issue_width())
                    );
                }
            }
        } else {
            println!(
                "{}",
                compiled
                    .program
                    .listing(denali.options().machine.issue_width())
            );
        }
    }

    if !cli.simulate.is_empty() {
        let sim = Simulator::new(&denali.options().machine);
        for compiled in &result.gmas {
            let inputs: Vec<(&str, u64)> = cli
                .simulate
                .iter()
                .map(|(n, v)| (n.as_str(), *v))
                .filter(|(n, _)| {
                    compiled
                        .program
                        .input_reg(denali::term::Symbol::intern(n))
                        .is_some()
                })
                .collect();
            match sim.run_named(&compiled.program, &inputs, HashMap::new()) {
                Ok(outcome) => {
                    for (name, reg) in &compiled.program.outputs {
                        println!(
                            "// {}: {name} = {:#x}",
                            compiled.gma.name, outcome.regs[reg]
                        );
                    }
                }
                Err(e) => {
                    eprintln!(
                        "// {}: simulation needs more inputs ({e})",
                        compiled.gma.name
                    );
                }
            }
        }
    }

    if let Err(msg) = flush_trace(&cli, denali.tracer()) {
        eprintln!("error: {msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
