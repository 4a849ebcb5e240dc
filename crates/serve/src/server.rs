//! The server proper: request handling plus the stdio and TCP
//! transports.
//!
//! A [`Server`] owns the shared state (base options, cache, deadline
//! watchdog, coalescer, metrics); transports own the [`Pool`] so that
//! dropping the transport drains admitted requests before the process
//! exits — EOF on stdin is a *graceful* shutdown, not an abort.
//!
//! Request handling is deliberately a pure function from request line
//! to response line ([`Server::handle_line`]): the transports only add
//! admission (the bounded pool), single-flight coalescing, and the
//! wall-clock admission instant that deadlines are measured from. This
//! keeps every protocol and caching property unit-testable without
//! sockets or pipes.
//!
//! ## The pooled compile path
//!
//! [`dispatch`] runs on the reader thread and splits a compile into two
//! halves. **Preparation** (option merge, parse, lower, fingerprint) is
//! cheap and runs inline — it must, because the fingerprint is the
//! coalescing key. It takes the machine's shared built-in axiom set
//! rather than building one, and the key hashes that set's
//! pre-rendered text; its time is the `prepare` stage. **Execution**
//! (the SAT-probe ladder) is expensive and goes through
//! [`Coalescer::join`]:
//!
//! * the **leader** — first request for a fingerprint — occupies a
//!   worker slot via the pool, re-checks the cache (a previous leader
//!   may have finished while it queued), executes, populates the cache
//!   *before* completing the flight, and delivers its body to every
//!   follower;
//! * **followers** — concurrent duplicates — wait on a lightweight
//!   thread that consumes neither a worker nor a queue slot, then
//!   replay the leader's exact body bytes under their own id (counted
//!   as `coalesced` in stats, `coalesced: true` in the trace span).
//!
//! Because the cache is written before the flight is removed from the
//! in-flight map, a duplicate request at any instant either hits the
//! cache, joins the flight, or becomes a fresh leader whose re-check
//! hits the cache — "one pipeline execution per stampede" is an
//! invariant, not a race.

use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use denali_core::{AnytimeSlot, CompileError, Denali, EngineChoice, Options, Prepared};
use denali_par::CancelToken;
use denali_trace::{field, jsonl, Tracer, Value};

use crate::cache::Cache;
use crate::coalesce::{Coalescer, Delivery, Join, LeaderGuard, Wait};
use crate::deadline::{deadline_at, DeadlineWatch};
use crate::flight::FlightRecorder;
use crate::metrics::ServeMetrics;
use crate::pool::{Pool, SubmitError};
use crate::protocol::{self, CompileRequest, GmaSummary, Request, RequestId};

/// A duration as saturating whole microseconds (histogram units).
fn us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Base pipeline options; per-request overrides are applied on top.
    pub base: Options,
    /// Worker threads (0 = one per available CPU).
    pub workers: usize,
    /// Admission-queue capacity beyond the requests being executed.
    pub queue: usize,
    /// Memory-tier cache budget in bytes.
    pub cache_bytes: usize,
    /// Disk-tier cache directory (persists across restarts).
    pub cache_dir: Option<PathBuf>,
    /// Log one line per request to stderr.
    pub verbose: bool,
    /// Flight-recorder ring capacity (finished-request summaries).
    pub flight_capacity: usize,
    /// Slow-request threshold: an execution whose total latency exceeds
    /// this many milliseconds has its full trace spooled to
    /// [`ServerConfig::spool_dir`] (which must also be set).
    pub slow_ms: Option<u64>,
    /// Directory slow-request traces are written to.
    pub spool_dir: Option<PathBuf>,
    /// Deterministic trace sampling: capture the full span tree of
    /// every `N`th execution into its flight-ring entry (0 = off).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            base: Options::default(),
            workers: 0,
            queue: 64,
            cache_bytes: 64 << 20,
            cache_dir: None,
            verbose: false,
            flight_capacity: 256,
            slow_ms: None,
            spool_dir: None,
            trace_sample: 0,
        }
    }
}

/// Tracks live follower-waiter threads so graceful shutdown can wait
/// for their responses to flush. A counter + condvar instead of join
/// handles: the TCP path runs forever and must not accumulate handles.
#[derive(Default)]
struct FollowerTracker {
    count: Mutex<u64>,
    idle: Condvar,
}

impl FollowerTracker {
    fn enter(&self) {
        *self.count.lock().unwrap() += 1;
    }

    fn exit(&self) {
        let mut count = self.count.lock().unwrap();
        *count -= 1;
        if *count == 0 {
            self.idle.notify_all();
        }
    }

    fn drain(&self) {
        let mut count = self.count.lock().unwrap();
        while *count > 0 {
            count = self.idle.wait(count).unwrap();
        }
    }
}

/// Shared server state; transports hold it in an [`Arc`].
pub struct Server {
    config: ServerConfig,
    cache: Cache,
    watch: DeadlineWatch,
    coalescer: Coalescer,
    tracer: Tracer,
    followers: FollowerTracker,
    metrics: ServeMetrics,
    flight: FlightRecorder,
}

/// A request carried through preparation: the per-request pipeline, the
/// lowered GMAs, and the fingerprint that keys both cache and
/// coalescer. Shared (via [`Arc`]) between the leader's pool job and
/// any follower threads — a promoted follower re-executes from the same
/// preparation instead of re-parsing.
struct PreparedRequest {
    denali: Denali,
    prepared: Prepared,
    fingerprint: String,
}

impl Server {
    /// Builds the server (creating the cache and spool directories if
    /// configured).
    ///
    /// # Errors
    ///
    /// Fails if the cache or spool directory cannot be created.
    pub fn new(config: ServerConfig) -> std::io::Result<Server> {
        let metrics = ServeMetrics::new();
        let cache = Cache::new(
            config.cache_bytes,
            config.cache_dir.clone(),
            metrics.registry(),
        )?;
        if let Some(dir) = &config.spool_dir {
            std::fs::create_dir_all(dir)?;
        }
        let tracer = Tracer::when(config.base.trace);
        let flight = FlightRecorder::new(
            config.flight_capacity,
            config.slow_ms,
            config.spool_dir.clone(),
            config.trace_sample,
        );
        Ok(Server {
            config,
            cache,
            watch: DeadlineWatch::new(),
            coalescer: Coalescer::new(metrics.registry()),
            tracer,
            followers: FollowerTracker::default(),
            metrics,
            flight,
        })
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The result cache (exposed for tests and benches).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The server's metric families (stage/outcome histograms, request
    /// counters, queue depth).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The flight recorder (recent-request ring, sampling, spooling).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Renders the full `/metrics` exposition: this server's families
    /// followed by the process-wide [`denali_metrics::global`] families
    /// the core pipeline records into. One scrape, the whole picture.
    pub fn metrics_text(&self) -> String {
        let mut out = self.metrics.render();
        out.push_str(&denali_metrics::global().render());
        out
    }

    /// The server-level tracer. When the base options enable tracing,
    /// every answered compile appends one flat `serve.request` span
    /// (id, outcome, `coalesced`) here — flat because requests complete
    /// on worker and follower threads, not in a serial call tree. The
    /// records accumulate until read ([`Tracer::take_records`]), so
    /// tracing a long-running server is a debugging mode, not a
    /// production default.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Blocks until every follower-waiter thread has delivered its
    /// response. Graceful shutdown calls this *after* dropping the pool
    /// (leaders complete their flights while the pool drains, which is
    /// what unblocks the followers).
    pub fn drain_followers(&self) {
        self.followers.drain();
    }

    /// Handles one request line synchronously (admission = now, no
    /// pool, no coalescing — there is no concurrency to
    /// coalesce on a single thread). The transports go through
    /// [`dispatch`] instead to get pooled admission; tests and benches
    /// use this. Returns `None` for blank lines, which elicit no
    /// response.
    pub fn handle_line(&self, line: &str) -> Option<String> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        self.metrics.requests.inc();
        match protocol::parse_request(line) {
            Err(e) => Some(self.protocol_error(&e.message)),
            Ok(Request::Ping(id)) => Some(pong(&id)),
            Ok(Request::Stats(id)) => Some(self.stats_response(&id)),
            Ok(Request::Flight(id)) => {
                Some(protocol::render_response(&id, &self.flight.render_body()))
            }
            Ok(Request::Compile(req)) => Some(self.handle_compile(&req, Instant::now())),
        }
    }

    fn protocol_error(&self, message: &str) -> String {
        self.metrics.protocol_errors.inc();
        protocol::render_response(
            &RequestId::Null,
            &protocol::render_error_body("protocol", message, false),
        )
    }

    fn stats_response(&self, id: &RequestId) -> String {
        let body = self
            .metrics
            .stats_body(&self.cache.snapshot(), &self.coalescer.snapshot());
        protocol::render_response(id, &body)
    }

    /// Compiles one request synchronously, measuring its deadline from
    /// `admitted` — preparation, cache lookup, and execution in one
    /// call. The pooled path splits the same three steps across
    /// threads; the guarantees are identical:
    /// * **hit == miss**: the cache stores the rendered (deterministic)
    ///   body, keyed by the canonical fingerprint, so a warm hit
    ///   replays the cold compile's bytes.
    /// * **degraded, not dead**: a deadline expiry cancels the search
    ///   mid-probe; the response falls back to the baseline rewrite
    ///   program with `"degraded": true` — and is *never* cached, so a
    ///   later unhurried request gets the real optimum.
    /// * **always an answer**: every outcome, including internal
    ///   errors, renders a well-formed response correlated by id.
    pub fn handle_compile(&self, req: &CompileRequest, admitted: Instant) -> String {
        let ctx = match self.timed_prepare(req, admitted) {
            Ok(ctx) => ctx,
            Err(response) => return response,
        };
        if let Some(body) = self.timed_cache_get(&ctx.fingerprint) {
            self.metrics.compiles_ok.inc();
            return self.finish(&req.id, admitted, "hit", false, None, &body);
        }
        let (outcome, body, trace) = self.execute(&req.id, &ctx, req.deadline_ms, admitted);
        self.finish(&req.id, admitted, outcome, false, trace, &body)
    }

    /// A cache lookup timed into the `cache` stage histogram.
    fn timed_cache_get(&self, fingerprint: &str) -> Option<String> {
        let lookup = Instant::now();
        let body = self.cache.get(fingerprint);
        self.metrics.stage_cache.observe(us(lookup.elapsed()));
        body
    }

    /// [`Server::prepare_request`] timed into the `prepare` stage
    /// histogram, whatever its outcome.
    fn timed_prepare(
        &self,
        req: &CompileRequest,
        admitted: Instant,
    ) -> Result<PreparedRequest, String> {
        let started = Instant::now();
        let prepared = self.prepare_request(req, admitted);
        self.metrics.stage_prepare.observe(us(started.elapsed()));
        prepared
    }

    /// The cheap, uncancellable half of a compile: option merge, parse,
    /// lower, fingerprint. Runs inline on the caller (for the pooled
    /// path: the reader thread) because the fingerprint is both the
    /// cache key and the coalescing key. On failure the full response
    /// line is returned as `Err` — preparation errors are answered
    /// immediately, never queued, and their `total` counts from
    /// `admitted` like every other response's.
    fn prepare_request(
        &self,
        req: &CompileRequest,
        admitted: Instant,
    ) -> Result<PreparedRequest, String> {
        let mut options = self.config.base.clone();
        if let Err(e) = req.options.apply(&mut options) {
            return Err(self.protocol_error(&e.message));
        }
        let denali = Denali::new(options);
        let prepared = match req.proc.as_deref() {
            None => denali.prepare_source(&req.source),
            Some(name) => match denali_lang::parse_program(&req.source) {
                Ok(program) => denali.prepare_proc(&program, name),
                Err(e) => Err(CompileError {
                    stage: "parse",
                    message: e.to_string(),
                }),
            },
        };
        match prepared {
            Ok(prepared) => {
                let fingerprint = denali.fingerprint(&prepared);
                Ok(PreparedRequest {
                    denali,
                    prepared,
                    fingerprint,
                })
            }
            Err(e) => {
                self.metrics.compile_errors.inc();
                Err(self.finish(
                    &req.id,
                    admitted,
                    "error",
                    false,
                    None,
                    &protocol::render_error_body(e.stage, &e.message, false),
                ))
            }
        }
    }

    /// The expensive half: runs the pipeline under a deadline-armed
    /// cancel token and renders the outcome body. Successful bodies are
    /// written to the cache *here*, before any flight completion, which
    /// is what makes the stampede invariant airtight. Returns the
    /// outcome tag (`ok` / `degraded` / `error`), the body, and — when
    /// this execution was trace-sampled — the captured trace JSONL.
    fn execute(
        &self,
        id: &RequestId,
        ctx: &PreparedRequest,
        deadline_ms: Option<u64>,
        admitted: Instant,
    ) -> (&'static str, String, Option<String>) {
        self.metrics.executions.inc();
        let exec_started = Instant::now();
        // Attach a private capture tracer when this execution is
        // sampled, or whenever slow-spooling is armed (the keep/discard
        // decision is retroactive — see [`FlightRecorder`]). Capture
        // only records; the compiled output is byte-identical with or
        // without it, which the determinism tests pin.
        let sampled = self.flight.sample_hit();
        let capture = (sampled || self.flight.spool_armed()).then(Tracer::new);
        let cancel = CancelToken::default();
        // Under `engine: auto`, install an anytime slot: the stochastic
        // prepass publishes verified best-so-far candidates into it, so
        // a deadline expiry can harvest a real answer instead of
        // degrading to the baseline.
        let anytime = (ctx.denali.options().engine == EngineChoice::Auto).then(AnytimeSlot::new);
        let denali = ctx
            .denali
            .with_run(cancel.clone(), anytime.clone(), capture.clone());
        // Arm the deadline, measured from admission so queue time counts
        // against it. An already-expired deadline cancels inline —
        // deterministic degradation, no watchdog race. A deadline too
        // far out to represent is no deadline at all (`deadline_at`),
        // not a panic on the worker.
        let _guard = deadline_ms.and_then(|ms| {
            let at = deadline_at(admitted, ms)?;
            if at <= Instant::now() {
                cancel.cancel();
            }
            Some(self.watch.arm(at, cancel.clone()))
        });

        let issue_width = denali.options().machine.issue_width();
        let (outcome, body) = match denali.compile_prepared(&ctx.prepared) {
            Ok(result) => {
                for mem in result.gmas.iter().map(|c| c.egraph_memory) {
                    self.metrics.egraph_nodes.add(mem.nodes);
                    self.metrics.egraph_bytes.add(mem.total_bytes);
                }
                let gmas: Vec<GmaSummary> = result
                    .gmas
                    .iter()
                    .map(|c| GmaSummary {
                        name: c.gma.name.clone(),
                        cycles: c.cycles,
                        instructions: c.program.len(),
                        refuted_below: c.refuted_below,
                        listing: c.program.listing(issue_width),
                    })
                    .collect();
                let engine = if result
                    .gmas
                    .iter()
                    .any(|c| c.engine == EngineChoice::Stochastic)
                {
                    self.metrics.stoke_compiles.inc();
                    "stochastic"
                } else {
                    "sat"
                };
                let body = protocol::render_result_body(&ctx.fingerprint, false, engine, &gmas);
                self.cache.put(&ctx.fingerprint, &body);
                self.metrics.compiles_ok.inc();
                ("ok", body)
            }
            Err(e) if e.is_cancelled() => {
                match fallback_body(&denali, &ctx.prepared, &ctx.fingerprint, anytime.as_ref()) {
                    // Never cached (either arm): the answer depends on
                    // when this request's deadline fired, not on the
                    // program alone.
                    Ok((body, true)) => {
                        self.metrics.stoke_harvests.inc();
                        // A harvest is a stochastic-answered compile,
                        // so it counts under both stoke gauges.
                        self.metrics.stoke_compiles.inc();
                        self.metrics.compiles_ok.inc();
                        ("harvested", body)
                    }
                    Ok((body, false)) => {
                        self.metrics.compiles_degraded.inc();
                        ("degraded", body)
                    }
                    Err(message) => {
                        self.metrics.compile_errors.inc();
                        (
                            "error",
                            protocol::render_error_body("degraded", &message, false),
                        )
                    }
                }
            }
            Err(e) => {
                self.metrics.compile_errors.inc();
                (
                    "error",
                    protocol::render_error_body(e.stage, &e.message, false),
                )
            }
        };
        self.metrics
            .stage_execute
            .observe(us(exec_started.elapsed()));
        let trace =
            capture.and_then(|tracer| self.capture_trace(&tracer, id, outcome, admitted, sampled));
        (outcome, body, trace)
    }

    /// Seals a capture tracer into trace JSONL: appends the enclosing
    /// `serve.request` span, renders the records, spools the text when
    /// the request crossed the slow threshold, and returns it when the
    /// execution was sampled (so it rides in the flight-ring entry).
    fn capture_trace(
        &self,
        tracer: &Tracer,
        id: &RequestId,
        outcome: &str,
        admitted: Instant,
        sampled: bool,
    ) -> Option<String> {
        let total = admitted.elapsed();
        tracer.complete_span(
            "serve.request",
            0.0,
            total.as_secs_f64() * 1e3,
            vec![
                field("id", id.render()),
                field("outcome", outcome.to_owned()),
                field("coalesced", false),
            ],
        );
        let records = tracer.take_records();
        let text = jsonl::to_string(
            &[("source", Value::Str("denali-serve".to_owned()))],
            &records,
        );
        if self.flight.is_slow(us(total)) {
            match self.flight.spool(&text) {
                Ok(path) => {
                    if self.config.verbose {
                        eprintln!("serve: slow request spooled to {}", path.display());
                    }
                }
                // A full disk must not fail a request that was merely
                // slow; the trace is lost, the response is not.
                Err(e) => eprintln!("serve: failed to spool slow-request trace: {e}"),
            }
        }
        sampled.then_some(text)
    }

    /// Renders the final response line: records the total/outcome
    /// latency histograms and the flight-ring entry (with the sampled
    /// `trace`, if any), logs when verbose, and appends the
    /// `serve.request` span to the server tracer.
    fn finish(
        &self,
        id: &RequestId,
        started: Instant,
        outcome: &str,
        coalesced: bool,
        trace: Option<String>,
        body: &str,
    ) -> String {
        let total = started.elapsed();
        let ms = total.as_secs_f64() * 1e3;
        self.metrics.observe_outcome(outcome, coalesced, us(total));
        self.flight
            .record(id.render(), outcome, coalesced, us(total), trace);
        if self.config.verbose {
            eprintln!(
                "serve: compile id={} outcome={outcome} coalesced={coalesced} ms={ms:.1}",
                id.render(),
            );
        }
        self.tracer.complete_span(
            "serve.request",
            ms,
            ms,
            vec![
                field("id", id.render()),
                field("outcome", outcome.to_owned()),
                field("coalesced", coalesced),
            ],
        );
        protocol::render_response(id, body)
    }
}

/// Renders the deadline-expiry body. Each GMA takes its simulator-
/// verified anytime candidate when the slot has one (published by the
/// stochastic prepass before the deadline hit) and the baseline rewrite
/// otherwise. When *every* GMA was harvested the body is a full
/// `degraded: false` answer tagged `engine: "stochastic"` — the
/// programs are verified and strictly cheaper than the baseline, so
/// nothing about it is degraded; otherwise it is the classic
/// `degraded: true` baseline body. Returns the body and whether it was
/// fully harvested. The baseline runs no search, so it costs
/// microseconds however hard the GMA is; it fails only on
/// program-specific operations no rewrite covers, and then so does
/// this.
fn fallback_body(
    denali: &Denali,
    prepared: &denali_core::Prepared,
    fingerprint: &str,
    anytime: Option<&AnytimeSlot>,
) -> Result<(String, bool), String> {
    let machine = &denali.options().machine;
    let issue_width = machine.issue_width();
    let mut gmas = Vec::with_capacity(prepared.gmas.len());
    let mut harvested = 0;
    for gma in &prepared.gmas {
        if let Some(best) = anytime.and_then(|slot| slot.get(&gma.name)) {
            harvested += 1;
            gmas.push(GmaSummary {
                name: gma.name.clone(),
                cycles: best.cycles,
                instructions: best.program.len(),
                // Verified, but no optimality certificate.
                refuted_below: false,
                listing: best.program.listing(issue_width),
            });
            continue;
        }
        let program = denali_baseline::rewrite_compile(gma, machine)
            .map_err(|e| format!("baseline fallback failed for {}: {e}", gma.name))?;
        gmas.push(GmaSummary {
            name: gma.name.clone(),
            cycles: program.cycles(),
            instructions: program.len(),
            // The baseline makes no optimality claim.
            refuted_below: false,
            listing: program.listing(issue_width),
        });
    }
    let full = harvested == prepared.gmas.len() && harvested > 0;
    let engine = if full { "stochastic" } else { "baseline" };
    Ok((
        protocol::render_result_body(fingerprint, !full, engine, &gmas),
        full,
    ))
}

fn pong(id: &RequestId) -> String {
    protocol::render_response(id, "\"status\":\"ok\",\"pong\":true")
}

/// Writes one response line with a single `write_all`: on TCP a
/// separate newline write would wait for the client's delayed ACK.
fn write_line<W: Write>(out: &Mutex<W>, line: &str) {
    let framed = format!("{line}\n");
    let mut out = out.lock().unwrap();
    // A dead transport (client hung up) is not a server error.
    let _ = out.write_all(framed.as_bytes());
    let _ = out.flush();
}

/// Runs a leader's half of a flight on the current thread (a pool
/// worker, or a promoted follower's waiter thread): cache re-check,
/// execution, response, flight completion — with a panic boundary so a
/// pipeline bug answers the request and promotes a follower instead of
/// hanging the stampede.
fn run_leader<W: Write + Send + 'static>(
    server: &Arc<Server>,
    guard: LeaderGuard,
    req: &CompileRequest,
    ctx: &Arc<PreparedRequest>,
    admitted: Instant,
    out: &Arc<Mutex<W>>,
) {
    // Re-check the cache: a previous leader for this fingerprint may
    // have completed (and populated the cache) while this one sat in
    // the queue. This is the only cache lookup on the pooled path, so
    // each compile still counts exactly one hit or one miss.
    // Throughout: the flight is completed (or orphaned) *before* the
    // leader's own response is written. A lock-step client that reads
    // the response and immediately resends the same request must
    // deterministically hit the cache as a fresh leader, not race into
    // following a flight that is already answered.
    // The queue stage: time from admission to the leader starting.
    // (Promoted followers pass through here too — their wait for the
    // vanished leader *was* their queue.)
    server.metrics.stage_queue.observe(us(admitted.elapsed()));
    if let Some(body) = server.timed_cache_get(&ctx.fingerprint) {
        server.metrics.compiles_ok.inc();
        let line = server.finish(&req.id, admitted, "hit", false, None, &body);
        guard.complete(Delivery {
            outcome: "ok",
            body,
        });
        write_line(out, &line);
        return;
    }
    match catch_unwind(AssertUnwindSafe(|| {
        server.execute(&req.id, ctx, req.deadline_ms, admitted)
    })) {
        Ok((outcome, body, trace)) => {
            let line = server.finish(&req.id, admitted, outcome, false, trace, &body);
            guard.complete(Delivery { outcome, body });
            write_line(out, &line);
        }
        Err(_) => {
            // The pipeline panicked. Answer this request with an
            // internal error, then *orphan* the flight (drop without
            // complete) so one waiting follower is promoted and
            // re-executes — its demand is real and the panic may have
            // been stateful. Each promoted leader that panics again
            // answers its own request the same way, so the chain
            // terminates with every request answered.
            server.metrics.worker_panics.inc();
            server.metrics.compile_errors.inc();
            let body = protocol::render_error_body(
                "internal",
                "compile job panicked; see server log",
                false,
            );
            let line = server.finish(&req.id, admitted, "panic", false, None, &body);
            drop(guard);
            write_line(out, &line);
        }
    }
}

/// Submits a leader to the pool. The [`LeaderGuard`] travels in a slot
/// shared with the job so that a failed submit can take it back and
/// complete the flight with the shed outcome — otherwise dropping the
/// rejected job would orphan the flight and promote a follower into
/// executing *outside* the pool's bounds, defeating admission control.
fn submit_leader<W: Write + Send + 'static>(
    server: &Arc<Server>,
    pool: &Pool,
    guard: LeaderGuard,
    req: Box<CompileRequest>,
    ctx: Arc<PreparedRequest>,
    admitted: Instant,
    out: &Arc<Mutex<W>>,
) {
    let slot = Arc::new(Mutex::new(Some(guard)));
    let job_slot = Arc::clone(&slot);
    let id = req.id.clone();
    let server2 = Arc::clone(server);
    let out2 = Arc::clone(out);
    let submitted = pool.try_submit(move || {
        let Some(guard) = job_slot.lock().unwrap().take() else {
            return; // dispatch reclaimed the guard (submit raced shed)
        };
        run_leader(&server2, guard, &req, &ctx, admitted, &out2);
    });
    if let Err(e) = submitted {
        let (outcome, counter, stage, message, retryable) = match e {
            SubmitError::Full => (
                "overload",
                &server.metrics.overload_rejections,
                "overload",
                "admission queue is full; retry later",
                true,
            ),
            SubmitError::Closed => (
                "shutdown",
                &server.metrics.shutdown_rejections,
                "shutting_down",
                "server is shutting down; do not retry",
                false,
            ),
        };
        counter.inc();
        let body = protocol::render_error_body(stage, message, retryable);
        let line = server.finish(&id, admitted, outcome, false, None, &body);
        // Deliver the same outcome to any followers already subscribed
        // (their requests were duplicates of one the server just shed)
        // before answering the leader, so a lock-step client never
        // races into a flight that is already dead.
        if let Some(guard) = slot.lock().unwrap().take() {
            guard.complete(Delivery { outcome, body });
        }
        write_line(out, &line);
    }
}

/// Spawns the waiter thread for one follower. Followers deliberately do
/// not occupy a worker or a queue slot — the whole point of coalescing
/// is that N duplicates cost one worker — so their (cheap, blocked)
/// waits live on dedicated threads tracked for graceful shutdown.
fn spawn_follower<W: Write + Send + 'static>(
    server: &Arc<Server>,
    handle: crate::coalesce::FollowerHandle,
    req: Box<CompileRequest>,
    ctx: Arc<PreparedRequest>,
    admitted: Instant,
    out: &Arc<Mutex<W>>,
) {
    server.followers.enter();
    let server = Arc::clone(server);
    let out = Arc::clone(out);
    std::thread::Builder::new()
        .name("serve-follower".to_owned())
        .spawn(move || {
            follower_wait(&server, handle, &req, &ctx, admitted, &out);
            server.followers.exit();
        })
        .expect("spawn follower thread");
}

/// A follower's life: wait for the leader's delivery (bounded by the
/// follower's *own* deadline), then answer under its own id.
fn follower_wait<W: Write + Send + 'static>(
    server: &Arc<Server>,
    handle: crate::coalesce::FollowerHandle,
    req: &CompileRequest,
    ctx: &Arc<PreparedRequest>,
    admitted: Instant,
    out: &Arc<Mutex<W>>,
) {
    let deadline = req.deadline_ms.and_then(|ms| deadline_at(admitted, ms));
    let waited = Instant::now();
    let outcome = handle.wait(deadline);
    // The coalesce stage: how long this follower waited on its leader
    // (recorded on every arm — delivery, expiry, and promotion).
    server.metrics.stage_coalesce.observe(us(waited.elapsed()));
    match outcome {
        Wait::Delivered(d) => {
            server.metrics.coalesced.inc();
            let counter = match d.outcome {
                "ok" | "harvested" => &server.metrics.compiles_ok,
                "degraded" => &server.metrics.compiles_degraded,
                "overload" => &server.metrics.overload_rejections,
                "shutdown" => &server.metrics.shutdown_rejections,
                _ => &server.metrics.compile_errors,
            };
            counter.inc();
            let line = server.finish(&req.id, admitted, d.outcome, true, None, &d.body);
            write_line(out, &line);
        }
        Wait::Expired => {
            // The follower's deadline passed while its leader was still
            // compiling. Pinned semantics: it gets its own degraded
            // answer now, exactly as if it had run and been cancelled —
            // waiting past the deadline for a maybe-soon leader would
            // violate the one guarantee deadlines make.
            server.metrics.coalesced_expired.inc();
            // With no anytime slot, every GMA takes the baseline.
            match fallback_body(&ctx.denali, &ctx.prepared, &ctx.fingerprint, None) {
                Ok((body, _)) => {
                    server.metrics.compiles_degraded.inc();
                    let line = server.finish(&req.id, admitted, "degraded", true, None, &body);
                    write_line(out, &line);
                }
                Err(message) => {
                    server.metrics.compile_errors.inc();
                    let body = protocol::render_error_body("degraded", &message, false);
                    let line = server.finish(&req.id, admitted, "error", true, None, &body);
                    write_line(out, &line);
                }
            }
        }
        Wait::Promoted(guard) => {
            // The leader vanished without an outcome. This follower
            // inherits the flight and executes on its waiter thread —
            // the leader's worker slot is already gone (unwound), so
            // this does not exceed the pool's concurrency by more than
            // the vanished leader already freed.
            server.metrics.promotions.inc();
            run_leader(server, guard, req, ctx, admitted, out);
        }
    }
}

/// Routes one request line: cheap requests (ping, stats, protocol and
/// preparation errors) answer on the reader thread; compiles join the
/// single-flight table — leaders go through the bounded pool (shed with
/// a retryable `overload` error when it is full, a non-retryable
/// `shutting_down` error when it is closed), followers wait for their
/// leader without consuming pool capacity.
fn dispatch<W: Write + Send + 'static>(
    server: &Arc<Server>,
    pool: &Pool,
    line: &str,
    out: &Arc<Mutex<W>>,
) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    server.metrics.requests.inc();
    match protocol::parse_request(line) {
        Err(e) => write_line(out, &server.protocol_error(&e.message)),
        Ok(Request::Ping(id)) => write_line(out, &pong(&id)),
        Ok(Request::Stats(id)) => write_line(out, &server.stats_response(&id)),
        Ok(Request::Flight(id)) => write_line(
            out,
            &protocol::render_response(&id, &server.flight.render_body()),
        ),
        Ok(Request::Compile(req)) => {
            let admitted = Instant::now();
            let ctx = match server.timed_prepare(&req, admitted) {
                Ok(ctx) => Arc::new(ctx),
                Err(response) => {
                    write_line(out, &response);
                    return;
                }
            };
            match server.coalescer.join(&ctx.fingerprint) {
                Join::Leader(guard) => {
                    submit_leader(server, pool, guard, req, ctx, admitted, out);
                }
                Join::Follower(handle) => {
                    spawn_follower(server, handle, req, ctx, admitted, out);
                }
            }
        }
    }
}

/// Serves framed JSONL requests from `reader`, writing responses to
/// `out`. Returns when the reader reaches EOF, after draining every
/// admitted request — the graceful-shutdown path.
///
/// # Errors
///
/// Propagates read failures from the transport.
pub fn serve_lines<R: BufRead, W: Write + Send + 'static>(
    server: &Arc<Server>,
    pool: &Pool,
    reader: R,
    out: &Arc<Mutex<W>>,
) -> std::io::Result<()> {
    for line in reader.lines() {
        dispatch(server, pool, &line?, out);
    }
    Ok(())
}

/// Serves requests on stdin/stdout until EOF, then drains the pool and
/// the follower waiters, and returns — so `denali serve --stdio <
/// requests.jsonl` emits every response before exiting.
///
/// # Errors
///
/// Propagates stdin read failures.
pub fn serve_stdio(server: &Arc<Server>) -> std::io::Result<()> {
    let workers = denali_par::resolve_threads(server.config.workers);
    let pool = Pool::with_depth_gauge(
        workers,
        server.config.queue,
        Some(Arc::clone(&server.metrics.queue_depth)),
    );
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let stdin = std::io::stdin();
    let result = serve_lines(server, &pool, stdin.lock(), &out);
    // Join workers first: leaders complete their flights as the pool
    // drains, which is what unblocks the followers being waited on
    // next. The opposite order would deadlock on any in-flight leader.
    drop(pool);
    server.drain_followers();
    result
}

/// Serves each accepted connection on its own reader thread, all
/// sharing one bounded pool (so total compile concurrency is bounded
/// server-wide, not per connection) and one coalescer (duplicates
/// coalesce *across* connections). Runs until the process is
/// terminated.
///
/// # Errors
///
/// Fails if accepting a connection fails.
pub fn serve_listener(
    server: &Arc<Server>,
    listener: &std::net::TcpListener,
) -> std::io::Result<()> {
    let workers = denali_par::resolve_threads(server.config.workers);
    let pool = Arc::new(Pool::with_depth_gauge(
        workers,
        server.config.queue,
        Some(Arc::clone(&server.metrics.queue_depth)),
    ));
    for stream in listener.incoming() {
        let stream = stream?;
        // Responses are whole lines written at once: send each without
        // waiting to batch it with the next (best effort).
        let _ = stream.set_nodelay(true);
        let reader = std::io::BufReader::new(stream.try_clone()?);
        let out = Arc::new(Mutex::new(stream));
        let server = Arc::clone(server);
        let pool = Arc::clone(&pool);
        std::thread::Builder::new()
            .name("serve-conn".to_owned())
            .spawn(move || {
                // A dropped connection mid-read is the client's
                // prerogative; the server keeps serving others.
                let _ = serve_lines(&server, &pool, reader, &out);
            })
            .expect("spawn connection thread");
    }
    Ok(())
}

/// Binds `addr` and serves connections via [`serve_listener`]. Runs
/// until the process is terminated.
///
/// # Errors
///
/// Fails if the address cannot be bound or accepting a connection
/// fails.
pub fn serve_tcp(server: &Arc<Server>, addr: &str) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    if server.config.verbose {
        eprintln!("serve: listening on {}", listener.local_addr()?);
    }
    serve_listener(server, &listener)
}
