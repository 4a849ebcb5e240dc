//! The `serve-mixed` workload: open-loop traffic against an in-process
//! server at a nominal rate, and a closed loop that keeps the server at
//! capacity.
//!
//! The run is six rounds. Each times direct compiles of the program
//! shapes (a sixth of the round), sends a slice of the nominal traffic
//! (a third), and runs the closed loop (a half). Interleaving them
//! spreads every metric's samples over the whole run, so a disturbance
//! of a few seconds on the host moves none of them by much.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

use denali_core::{CompileError, CompileResult, Denali, EngineChoice};
use denali_trace::Tracer;

use crate::check::check_program;
use crate::compile::{quality, traced_passes};
use crate::corpus::{figure2_shaped, Fixture, DOT4, FIGURE2, ROWOP, SEL, WIDE};
use crate::metrics::Outcome;
use crate::serve::{
    self, compile_line, parse_response, poisson_arrivals, Harness, Pace, Phase, Refusal, Reply,
    Request,
};
use crate::speed::Speedometer;
use crate::stats::{geomean, median, percentile, Rng};
use crate::{options, peak_rss_mb, salt, timed_setup, DRAIN};

const NOMINAL_RPS: f64 = 400.0;
/// Rounds per run.
const ROUNDS: u32 = 6;
/// Requests the closed loop keeps unanswered: enough to keep the
/// reader thread and both workers busy, well below the admission
/// queue's 64, so nothing is shed.
const WINDOW: usize = 16;
/// The closed loop's requests are drawn as if they arrived at this rate,
/// above the server's capacity, so that it does not run out of them.
const CLOSED_DRAW_RPS: f64 = 6000.0;
/// How long the host's speed is measured just before a closed loop.
const CALIBRATION: Duration = Duration::from_millis(50);

/// Repeated programs: cheap compiles, so after the first miss each is a
/// cache hit.
const HOT: [Fixture; 4] = [DOT4, WIDE, SEL, ROWOP];
const UNIQUE_SHARE: f64 = 0.70;
const HOT_SHARE: f64 = 0.25;
/// The remaining arrivals are bursts: this many identical new requests
/// sent at one instant, for the coalescer.
const BURST: usize = 8;
/// Procedure name of the direct compiles of figure2-shaped programs.
const REFERENCE_PROC: &str = "reference";

const PHASE_TAG: u64 = 0x1000;
const MIX_TAG: u64 = 0x2000;
const CLOSED_TAG: u64 = 0x100;

/// What a request asks to compile.
#[derive(Clone, Debug)]
enum Program {
    Unique { proc_name: String, k: u64 },
    Hot(usize),
}

/// The seeded request mix.
struct Traffic {
    seed: u64,
    salt: String,
    hot: Vec<String>,
    next_id: u64,
    next_unique: u64,
}

impl Traffic {
    fn new(seed: u64) -> Traffic {
        let salt = salt(seed);
        Traffic {
            seed,
            hot: HOT.iter().map(|f| f.salted(&salt)).collect(),
            salt,
            next_id: 0,
            next_unique: 0,
        }
    }

    fn request(&mut self, at: Duration, source: &str) -> Request {
        let id = self.next_id;
        self.next_id += 1;
        Request {
            at,
            id,
            line: compile_line(id, source),
        }
    }

    fn unique(&mut self, rng: &mut Rng) -> (Program, String) {
        let proc_name = format!("u{}_{}", self.salt, self.next_unique);
        self.next_unique += 1;
        let k = 1 + rng.below(255);
        let source = figure2_shaped(&proc_name, k);
        (Program::Unique { proc_name, k }, source)
    }

    /// The requests of one phase: Poisson arrivals whose mix averages
    /// `rate` requests per second.
    fn phase(&mut self, tag: u64, rate: f64, duration: Duration) -> Vec<(Program, Request)> {
        let burst_share = 1.0 - UNIQUE_SHARE - HOT_SHARE;
        let per_arrival = UNIQUE_SHARE + HOT_SHARE + burst_share * BURST as f64;
        let arrivals = poisson_arrivals(self.seed, PHASE_TAG + tag, rate / per_arrival, duration);
        let mut rng = Rng::stream(self.seed, MIX_TAG + tag);
        let mut out = Vec::new();
        for at in arrivals {
            let draw = rng.unit();
            if draw < UNIQUE_SHARE {
                let (program, source) = self.unique(&mut rng);
                out.push((program, self.request(at, &source)));
            } else if draw < UNIQUE_SHARE + HOT_SHARE {
                let j = rng.below(HOT.len() as u64) as usize;
                let source = self.hot[j].clone();
                out.push((Program::Hot(j), self.request(at, &source)));
            } else {
                let (program, source) = self.unique(&mut rng);
                for _ in 0..BURST {
                    out.push((program.clone(), self.request(at, &source)));
                }
            }
        }
        out
    }

    /// The distinct program shapes the traffic draws from, labelled:
    /// the figure2-shaped template, then the hot set.
    fn shapes(&self) -> Vec<(&'static str, String)> {
        let mut shapes = vec![(
            "figure2-shaped",
            figure2_shaped(&format!("u{}", self.salt), 1),
        )];
        shapes.extend(HOT.iter().map(|f| f.name).zip(self.hot.iter().cloned()));
        shapes
    }
}

struct Setup {
    traffic: Traffic,
    /// One slice of nominal traffic per round.
    nominal: Vec<Vec<(Program, Request)>>,
    harness: Harness,
}

/// Draws the nominal traffic, starts the server, and sends one warm-up
/// compile through it.
fn set_up(seed: u64, slice: Duration) -> Result<Setup, String> {
    let mut traffic = Traffic::new(seed);
    let nominal = (0..ROUNDS)
        .map(|round| traffic.phase(u64::from(round), NOMINAL_RPS, slice))
        .collect();
    let harness =
        Harness::start(options(EngineChoice::Sat)).map_err(|e| format!("server start: {e}"))?;
    let warm_up = traffic.request(Duration::ZERO, &FIGURE2.salted(&traffic.salt));
    let phase = serve::run_phase(&harness.client, &[warm_up], Pace::Open, DRAIN)
        .map_err(|e| e.to_string())?;
    match phase.replies[0].body.as_deref().map(parse_response) {
        Some(Ok(_)) => Ok(Setup {
            traffic,
            nominal,
            harness,
        }),
        other => Err(format!("warm-up request failed: {other:?}")),
    }
}

fn send<S>(connection: &S, drawn: &[(Program, Request)], pace: Pace) -> Result<Phase, String>
where
    S: Sync,
    for<'a> &'a S: Read + Write,
{
    let requests: Vec<Request> = drawn.iter().map(|(_, r)| r.clone()).collect();
    serve::run_phase(connection, &requests, pace, DRAIN).map_err(|e| format!("serve phase: {e}"))
}

/// A reply waiting to be checked against a direct compile.
struct Pending {
    program: Program,
    reply: Reply,
}

/// The replies of a phase with the programs they answer.
fn pending(drawn: Vec<(Program, Request)>, phase: Phase) -> impl Iterator<Item = Pending> {
    drawn
        .into_iter()
        .zip(phase.replies)
        .map(|((program, _), reply)| Pending { program, reply })
}

/// A reply is correct when it is ok, not degraded, and every GMA has
/// the name, cycles and instruction count of a direct compile of the
/// same program (GMA names compared after the procedure name).
fn judge(
    p: &Pending,
    expected: Option<&CompileResult>,
    proc_name: &str,
    expected_proc: &str,
) -> Result<(), String> {
    let expected = expected.ok_or_else(|| format!("{proc_name}: no direct compile"))?;
    let body = p
        .reply
        .body
        .as_deref()
        .ok_or_else(|| format!("{proc_name}: no response"))?;
    let served = match parse_response(body) {
        Ok(served) => served,
        Err(Refusal::Shed) => return Err(format!("{proc_name}: shed")),
        Err(Refusal::Other(e)) => return Err(e),
    };
    let same = served.len() == expected.gmas.len()
        && served.iter().zip(&expected.gmas).all(|(s, e)| {
            s.name.strip_prefix(proc_name) == e.gma.name.strip_prefix(expected_proc)
                && s.cycles == u64::from(e.cycles)
                && s.instructions == e.program.len() as u64
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "{proc_name}: served program differs from a direct compile"
        ))
    }
}

/// Checked direct compiles: the reference every reply is held to.
struct Direct {
    denali: Denali,
    seed: u64,
}

impl Direct {
    fn compile(&self, source: &str, out: &mut Outcome) -> Option<CompileResult> {
        self.checked(self.denali.compile_source(source), out)
    }

    /// The result if it compiled and passed the check.
    fn checked(
        &self,
        result: Result<CompileResult, CompileError>,
        out: &mut Outcome,
    ) -> Option<CompileResult> {
        let machine = &self.denali.options().machine;
        let result = result.map_err(|e| e.to_string()).and_then(|result| {
            result
                .gmas
                .iter()
                .try_for_each(|g| check_program(machine, &g.gma, &g.program, self.seed))
                .map(|()| result)
        });
        result
            .map_err(|e| out.problem(format!("direct compile: {e}")))
            .ok()
    }
}

/// Direct compiles of each program shape, timed a slice at a time.
struct ShapeTimes {
    shapes: Vec<(&'static str, String)>,
    results: Vec<Option<CompileResult>>,
    /// Milliseconds per shape, at the reference speed and in wall time.
    times: Vec<Vec<f64>>,
    wall: Vec<Vec<f64>>,
}

impl ShapeTimes {
    fn new(traffic: &Traffic) -> ShapeTimes {
        let shapes = traffic.shapes();
        ShapeTimes {
            results: vec![None; shapes.len()],
            times: vec![Vec::new(); shapes.len()],
            wall: vec![Vec::new(); shapes.len()],
            shapes,
        }
    }

    /// Compiles every shape in turn until `budget` has passed (at least
    /// once each).
    fn slice(
        &mut self,
        direct: &Direct,
        meter: &mut Speedometer,
        budget: Duration,
        out: &mut Outcome,
    ) {
        let deadline = Instant::now() + budget;
        loop {
            for (i, (_, source)) in self.shapes.iter().enumerate() {
                let timed = meter.time(|| direct.denali.compile_source(source));
                self.times[i].push(timed.ms);
                self.wall[i].push(timed.wall_ms);
                self.results[i] = direct.checked(timed.value, out);
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Each shape's median compile time, noted with its sample count.
    fn medians(&self, out: &mut Outcome) -> Vec<f64> {
        let medians: Vec<f64> = self.times.iter().map(|t| median(t)).collect();
        let wall: Vec<f64> = self.wall.iter().map(|t| median(t)).collect();
        let scaled: f64 = self.times.iter().flatten().sum();
        out.notes.push(format!(
            "direct compiles: host at {:.3}x the reference speed; in wall time: compile_ms_geomean {:.4}",
            scaled / self.wall.iter().flatten().sum::<f64>(),
            geomean(&wall)
        ));
        for ((label, _), ((t, m), w)) in self
            .shapes
            .iter()
            .zip(self.times.iter().zip(&medians).zip(&wall))
        {
            out.notes.push(format!(
                "{label:<14} median {m:>10.3} ms ({w:>10.3} ms wall) over {:>4} direct compiles",
                t.len()
            ));
        }
        medians
    }
}

/// Checks every pending reply against a direct compile of its program.
fn check_replies(
    direct: &Direct,
    traffic: &Traffic,
    shapes: &[Option<CompileResult>],
    replies: &[Pending],
    out: &mut Outcome,
) {
    let mut by_k: HashMap<u64, Option<CompileResult>> = HashMap::new();
    for p in replies {
        let verdict = match &p.program {
            Program::Unique { proc_name, k } => {
                let expected = by_k
                    .entry(*k)
                    .or_insert_with(|| direct.compile(&figure2_shaped(REFERENCE_PROC, *k), out));
                judge(p, expected.as_ref(), proc_name, REFERENCE_PROC)
            }
            Program::Hot(j) => {
                let proc_name = format!("{}_{}", HOT[*j].name, traffic.salt);
                judge(p, shapes[1 + j].as_ref(), &proc_name, &proc_name)
            }
        };
        out.attempt(verdict);
    }
}

/// The untraced run: [`ROUNDS`] rounds of direct compiles, nominal
/// traffic and a closed loop at capacity.
pub fn run(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let round = seconds / ROUNDS;
    let mut out = Outcome::default();
    let mut meter = Speedometer::new();
    let (setup, setup_s) = timed_setup(&mut meter, &mut out.notes, || set_up(seed, round / 3))?;
    let Setup {
        mut traffic,
        nominal,
        harness,
    } = setup;
    let direct = Direct {
        denali: Denali::new(options(EngineChoice::Sat)),
        seed,
    };
    let mut shapes = ShapeTimes::new(&traffic);
    let mut latencies: Vec<f64> = Vec::new();
    // Ok responses of the closed loops, and their wall time.
    let (mut ok_total, mut closed_s) = (0, 0.0);
    let mut replies: Vec<Pending> = Vec::new();
    let mut rss_mb = 0.0;
    for (step, drawn) in (0..ROUNDS).zip(nominal) {
        shapes.slice(&direct, &mut meter, round / 6, &mut out);

        let phase = send(&harness.client, &drawn, Pace::Open)?;
        latencies.extend(phase.replies.iter().filter_map(|r| r.latency_ms));
        replies.extend(pending(drawn, phase));
        if step == 0 {
            // Memory after the first nominal slice, whose requests are
            // fixed by the seed; how many requests the closed loop gets
            // through, and so how many results the cache holds, depends
            // on the host's speed.
            rss_mb = peak_rss_mb();
        }

        let drawn = traffic.phase(CLOSED_TAG + u64::from(step), CLOSED_DRAW_RPS, round / 2);
        let pace = Pace::Closed {
            window: WINDOW,
            for_: round / 2,
        };
        meter.calibrate(CALIBRATION);
        let timed = meter.time(|| send(&harness.local, &drawn, pace));
        let phase = timed.value?;
        let ok = phase
            .replies
            .iter()
            .filter(|r| {
                r.body
                    .as_deref()
                    .map(parse_response)
                    .is_some_and(|p| p.is_ok())
            })
            .count();
        let rate = ok as f64 / phase.seconds;
        out.notes.push(format!(
            "closed loop: {ok} ok of {} sent in {:.3} s, {rate:.1} req/s; host at {:.3}x the reference speed",
            phase.replies.len(),
            phase.seconds,
            timed.ms / timed.wall_ms
        ));
        ok_total += ok;
        closed_s += phase.seconds;
        replies.extend(pending(drawn, phase));
    }
    drop(harness);
    // At the reference speed: the rate of one round follows the host's
    // speed only loosely (the server runs on both CPUs, the kernel on
    // one), so the whole run's speed scales the rate of all rounds.
    let rate = ok_total as f64 / closed_s;
    let throughput = rate / meter.relative_speed();
    out.notes.push(format!(
        "closed loop: {rate:.1} req/s in wall time over all rounds; host at {:.3}x the reference speed over the run",
        meter.relative_speed()
    ));
    out.notes.push(format!(
        "nominal {NOMINAL_RPS} req/s: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms over {} responses",
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
        latencies.len()
    ));

    let medians = shapes.medians(&mut out);
    check_replies(&direct, &traffic, &shapes.results, &replies, &mut out);
    let results: Vec<CompileResult> = shapes.results.into_iter().flatten().collect();
    quality(&results, None, &mut out);
    out.set("setup_s", setup_s);
    out.set("compile_ms_geomean", geomean(&medians));
    out.set("latency_p50_ms", percentile(&latencies, 0.5));
    out.set("latency_p95_ms", percentile(&latencies, 0.95));
    out.set("throughput_rps", throughput);
    out.set("peak_rss_mb", rss_mb);
    Ok(out)
}

/// The traced run: layer-by-layer passes over the program shapes for
/// half of `seconds`, then the nominal traffic with the serve layer's
/// stage latencies and counters read around it.
pub fn run_traced(seed: u64, seconds: Duration, tracer: &Tracer) -> Result<Outcome, String> {
    let Setup {
        traffic,
        nominal,
        harness,
    } = set_up(seed, seconds / ROUNDS / 3)?;
    let mut out = Outcome::default();
    let sources: Vec<String> = traffic.shapes().into_iter().map(|(_, s)| s).collect();
    let references = traced_passes(
        EngineChoice::Sat,
        &sources,
        seed,
        seconds / 2,
        tracer,
        &mut out,
    );
    let before = harness.snapshot();
    let mut replies: Vec<Pending> = Vec::new();
    for drawn in nominal {
        let phase = send(&harness.client, &drawn, Pace::Open)?;
        replies.extend(pending(drawn, phase));
    }
    let after = harness.snapshot();
    drop(harness);
    let sent: Vec<Reply> = replies.iter().map(|p| p.reply.clone()).collect();
    serve::layer_metrics(&before, &after, &sent, &mut out);
    let direct = Direct {
        denali: Denali::new(options(EngineChoice::Sat)),
        seed,
    };
    let shapes: Vec<Option<CompileResult>> = references.into_iter().map(Some).collect();
    check_replies(&direct, &traffic, &shapes, &replies, &mut out);
    Ok(out)
}
