//! Protocol schema v1: request parsing and response rendering.
//!
//! Framing is JSONL: every request is one JSON object on one line;
//! every request produces exactly one JSON object response on one line,
//! correlated by the echoed `id`. The full schema is documented in
//! `docs/SERVER.md`; the invariants that matter here:
//!
//! * Unknown top-level or option keys are **errors**, not ignored —
//!   a typo like `"max_cycle"` silently compiling with defaults would
//!   be a correctness trap for clients.
//! * `id` must be a string or a non-negative integer so the server can
//!   echo it byte-identically (floats do not round-trip textually).
//! * The *result body* (everything after the echoed `id`) contains
//!   only deterministic fields — no timings, no cached-or-not marker —
//!   which is what makes a cache hit byte-identical to the fresh
//!   compile that populated it. Freshness indicators live in `stats`.

use std::fmt;

use denali_core::{EngineChoice, SolverChoice};
use denali_trace::json::{self, Json};

/// The protocol version this server speaks.
pub const VERSION: u64 = 1;

/// A request's correlation id, echoed verbatim in the response.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestId {
    /// No id supplied (echoed as `null`).
    Null,
    /// An integer id.
    Num(u64),
    /// A string id.
    Str(String),
}

impl RequestId {
    /// Renders the id exactly as it will appear in the response.
    pub fn render(&self) -> String {
        match self {
            RequestId::Null => "null".to_owned(),
            RequestId::Num(n) => n.to_string(),
            RequestId::Str(s) => {
                let mut out = String::new();
                json::write_str(&mut out, s);
                out
            }
        }
    }
}

/// A malformed request. Always mapped to a `"stage": "protocol"`
/// error response; never fatal to the server.
#[derive(Clone, Debug)]
pub struct ProtocolError {
    /// Explanation.
    pub message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Per-request overrides of the server's base [`denali_core::Options`].
///
/// Only the knobs a client could reasonably vary per request are
/// exposed. `trace` and `verbose` are accepted for client convenience
/// but are *observability* knobs: the pipeline's determinism contract
/// makes them result-invariant, so they are excluded from the
/// compilation fingerprint (pinned by a test) — requests differing only
/// there share a cache entry.
#[derive(Clone, Debug, Default)]
pub struct OptionOverrides {
    /// Target machine, by name (`ev6`, `ia64like`, `ev6-unclustered`,
    /// `single-issue`).
    pub machine: Option<String>,
    /// SAT engine (`cdcl` or `dpll`).
    pub solver: Option<SolverChoice>,
    /// Optimizer engine (`sat`, `stochastic`, or `auto`). Output-
    /// affecting: part of the compilation fingerprint, so requests
    /// with different engines never share a cache entry.
    pub engine: Option<EngineChoice>,
    /// Cycle-budget ceiling. A request may lower the base ceiling but
    /// not raise it: the search's formula grows with the budgets it
    /// reaches, so the server's own ceiling bounds every request.
    pub max_cycles: Option<u32>,
    /// Load-latency override.
    pub load_latency: Option<u32>,
    /// Latency for `\derefm` loads.
    pub miss_latency: Option<u32>,
    /// Mechanized software pipelining of loop loads.
    pub pipeline_loads: Option<bool>,
    /// Structured tracing (observability knob; not fingerprinted).
    pub trace: Option<bool>,
    /// Verbose server logging (observability knob; not fingerprinted).
    pub verbose: Option<bool>,
}

impl OptionOverrides {
    /// Applies the overrides to `options`, the server's base options.
    ///
    /// # Errors
    ///
    /// Fails on an unknown machine name, or on a `max_cycles` above the
    /// base ceiling.
    pub fn apply(&self, options: &mut denali_core::Options) -> Result<(), ProtocolError> {
        if let Some(name) = &self.machine {
            options.machine = denali_arch::Machine::by_name(name).map_err(ProtocolError::new)?;
        }
        if let Some(solver) = self.solver {
            options.solver = solver;
        }
        if let Some(engine) = self.engine {
            options.engine = engine;
        }
        if let Some(k) = self.max_cycles {
            if k > options.max_cycles {
                return Err(ProtocolError::new(format!(
                    "max_cycles {k} exceeds the server's ceiling of {}",
                    options.max_cycles
                )));
            }
            options.max_cycles = k;
        }
        if let Some(l) = self.load_latency {
            options.load_latency = Some(l);
        }
        if let Some(l) = self.miss_latency {
            options.miss_latency = l;
        }
        if let Some(p) = self.pipeline_loads {
            options.pipeline_loads = p;
        }
        if let Some(t) = self.trace {
            options.trace = t;
        }
        Ok(())
    }
}

/// A `compile` request.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Correlation id.
    pub id: RequestId,
    /// Denali source text.
    pub source: String,
    /// Procedure to compile (default: the first in `source`).
    pub proc: Option<String>,
    /// Soft deadline measured from admission; on expiry the response
    /// degrades to the baseline program instead of erroring.
    pub deadline_ms: Option<u64>,
    /// Per-request option overrides.
    pub options: OptionOverrides,
}

/// One parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Compile source text.
    Compile(Box<CompileRequest>),
    /// Report server statistics.
    Stats(RequestId),
    /// Liveness check.
    Ping(RequestId),
    /// Read the flight recorder's ring of recent requests.
    Flight(RequestId),
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> &RequestId {
        match self {
            Request::Compile(c) => &c.id,
            Request::Stats(id) | Request::Ping(id) | Request::Flight(id) => id,
        }
    }
}

fn parse_id(value: Option<&Json>) -> Result<RequestId, ProtocolError> {
    match value {
        None | Some(Json::Null) => Ok(RequestId::Null),
        Some(Json::Str(s)) => Ok(RequestId::Str(s.clone())),
        Some(n @ Json::Num(_)) => n
            .as_u64()
            .map(RequestId::Num)
            .ok_or_else(|| ProtocolError::new("id must be a string or a non-negative integer")),
        Some(_) => Err(ProtocolError::new(
            "id must be a string or a non-negative integer",
        )),
    }
}

fn require_keys(obj: &Json, allowed: &[&str], what: &str) -> Result<(), ProtocolError> {
    let Json::Obj(pairs) = obj else {
        return Err(ProtocolError::new(format!("{what} must be an object")));
    };
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(ProtocolError::new(format!(
                "unknown {what} key {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::new(format!("{key} must be a non-negative integer"))),
    }
}

fn get_bool(obj: &Json, key: &str) -> Result<Option<bool>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ProtocolError::new(format!("{key} must be a boolean"))),
    }
}

fn get_str(obj: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_owned()))
            .ok_or_else(|| ProtocolError::new(format!("{key} must be a string"))),
    }
}

fn parse_overrides(obj: &Json) -> Result<OptionOverrides, ProtocolError> {
    require_keys(
        obj,
        &[
            "machine",
            "solver",
            "engine",
            "max_cycles",
            "load_latency",
            "miss_latency",
            "pipeline_loads",
            "trace",
            "verbose",
        ],
        "options",
    )?;
    let solver = match get_str(obj, "solver")?.as_deref() {
        None => None,
        Some(name) => Some(SolverChoice::parse(name).ok_or_else(|| {
            ProtocolError::new(format!("unknown solver {name:?} (known: cdcl, dpll)"))
        })?),
    };
    let engine = match get_str(obj, "engine")?.as_deref() {
        None => None,
        Some(name) => Some(EngineChoice::parse(name).ok_or_else(|| {
            ProtocolError::new(format!(
                "unknown engine {name:?} (known: sat, stochastic, auto)"
            ))
        })?),
    };
    // Validate the machine name at parse time so a typo is rejected
    // before the request is queued.
    if let Some(name) = get_str(obj, "machine")? {
        denali_arch::Machine::by_name(&name).map_err(ProtocolError::new)?;
    }
    Ok(OptionOverrides {
        machine: get_str(obj, "machine")?,
        solver,
        engine,
        max_cycles: get_u64(obj, "max_cycles")?
            .map(|v| u32::try_from(v).map_err(|_| ProtocolError::new("max_cycles out of range")))
            .transpose()?,
        load_latency: get_u64(obj, "load_latency")?
            .map(|v| u32::try_from(v).map_err(|_| ProtocolError::new("load_latency out of range")))
            .transpose()?,
        miss_latency: get_u64(obj, "miss_latency")?
            .map(|v| u32::try_from(v).map_err(|_| ProtocolError::new("miss_latency out of range")))
            .transpose()?,
        pipeline_loads: get_bool(obj, "pipeline_loads")?,
        trace: get_bool(obj, "trace")?,
        verbose: get_bool(obj, "verbose")?,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// Fails on malformed JSON, schema violations, or unknown keys; the
/// caller maps the error to a `protocol`-stage response.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let value =
        json::parse(line).map_err(|e| ProtocolError::new(format!("malformed JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(ProtocolError::new("request must be a JSON object"));
    }
    if let Some(v) = value.get("v") {
        if v.as_u64() != Some(VERSION) {
            return Err(ProtocolError::new(format!(
                "unsupported protocol version (this server speaks v{VERSION})"
            )));
        }
    }
    let id = parse_id(value.get("id"))?;
    let kind = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::new("missing request type"))?;
    match kind {
        "compile" => {
            require_keys(
                &value,
                &[
                    "v",
                    "type",
                    "id",
                    "source",
                    "proc",
                    "deadline_ms",
                    "options",
                ],
                "request",
            )?;
            let source = get_str(&value, "source")?
                .ok_or_else(|| ProtocolError::new("compile request needs a source string"))?;
            let options = match value.get("options") {
                None | Some(Json::Null) => OptionOverrides::default(),
                Some(obj) => parse_overrides(obj)?,
            };
            Ok(Request::Compile(Box::new(CompileRequest {
                id,
                source,
                proc: get_str(&value, "proc")?,
                deadline_ms: get_u64(&value, "deadline_ms")?,
                options,
            })))
        }
        "stats" => {
            require_keys(&value, &["v", "type", "id"], "request")?;
            Ok(Request::Stats(id))
        }
        "ping" => {
            require_keys(&value, &["v", "type", "id"], "request")?;
            Ok(Request::Ping(id))
        }
        "flight" => {
            require_keys(&value, &["v", "type", "id"], "request")?;
            Ok(Request::Flight(id))
        }
        other => Err(ProtocolError::new(format!(
            "unknown request type {other:?} (known: compile, stats, ping, flight)"
        ))),
    }
}

/// Summary of one compiled GMA, as rendered into a result body.
#[derive(Clone, Debug)]
pub struct GmaSummary {
    /// GMA name (`proc_loop0`, ...).
    pub name: String,
    /// Achieved cycle count.
    pub cycles: u32,
    /// Instruction count.
    pub instructions: usize,
    /// Whether `cycles - 1` was refuted (the optimality certificate;
    /// always `false` on the degraded path).
    pub refuted_below: bool,
    /// Assembly listing.
    pub listing: String,
}

/// Renders the *cacheable* result body: only deterministic fields, so a
/// cache hit is byte-identical to the fresh compile that stored it.
/// `engine` names the optimizer that produced the programs (`sat` or
/// `stochastic` — never `auto`, which always resolves to one of the
/// two).
pub fn render_result_body(
    fingerprint: &str,
    degraded: bool,
    engine: &str,
    gmas: &[GmaSummary],
) -> String {
    let mut out = String::new();
    out.push_str("\"status\":\"ok\",\"degraded\":");
    out.push_str(if degraded { "true" } else { "false" });
    out.push_str(",\"engine\":");
    json::write_str(&mut out, engine);
    out.push_str(",\"fingerprint\":");
    json::write_str(&mut out, fingerprint);
    out.push_str(",\"gmas\":[");
    for (i, gma) in gmas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, &gma.name);
        out.push_str(&format!(
            ",\"cycles\":{},\"instructions\":{},\"refuted_below\":{}",
            gma.cycles, gma.instructions, gma.refuted_below
        ));
        out.push_str(",\"listing\":");
        json::write_str(&mut out, &gma.listing);
        out.push('}');
    }
    out.push(']');
    out
}

/// Checks that a cached *result body* (the brace-less key/value run
/// stored by the cache tiers) still parses as a protocol-v1 success
/// response. The disk tier is plain files on disk — corruption,
/// truncation, or hand-editing must not be promoted to memory and
/// replayed as protocol bytes. Degraded bodies are rejected too: they
/// are never cached, so finding one on disk means the entry is not
/// trustworthy.
pub fn is_valid_result_body(body: &str) -> bool {
    let Ok(value) = json::parse(&format!("{{{body}}}")) else {
        return false;
    };
    value.get("status").and_then(Json::as_str) == Some("ok")
        && value.get("degraded").and_then(Json::as_bool) == Some(false)
        && value.get("engine").and_then(Json::as_str).is_some()
        && value.get("fingerprint").and_then(Json::as_str).is_some()
        && value.get("gmas").and_then(Json::as_arr).is_some()
}

/// Renders an error body. `retryable` tells the client whether backing
/// off and resending the identical request can succeed (true only for
/// transient conditions like a full admission queue).
pub fn render_error_body(stage: &str, message: &str, retryable: bool) -> String {
    let mut out = String::new();
    out.push_str("\"status\":\"error\",\"error\":{\"stage\":");
    json::write_str(&mut out, stage);
    out.push_str(",\"message\":");
    json::write_str(&mut out, message);
    out.push_str(&format!(",\"retryable\":{retryable}}}"));
    out
}

/// Wraps a body into a full response line (no trailing newline).
pub fn render_response(id: &RequestId, body: &str) -> String {
    format!("{{\"v\":{VERSION},\"id\":{},{body}}}", id.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_compile_request() {
        let req = parse_request(r#"{"type":"compile","id":1,"source":"(x)"}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("expected compile");
        };
        assert_eq!(c.id, RequestId::Num(1));
        assert_eq!(c.source, "(x)");
        assert!(c.proc.is_none() && c.deadline_ms.is_none());
    }

    #[test]
    fn rejects_unknown_keys_everywhere() {
        // Top level.
        let err = parse_request(r#"{"type":"compile","source":"x","sauce":"y"}"#).unwrap_err();
        assert!(err.message.contains("sauce"), "{err}");
        // Options.
        let err = parse_request(r#"{"type":"compile","source":"x","options":{"max_cycle":3}}"#)
            .unwrap_err();
        assert!(err.message.contains("max_cycle"), "{err}");
        // A removed option is an unknown key like any other.
        let err = parse_request(r#"{"type":"compile","source":"x","options":{"portfolio":2}}"#)
            .unwrap_err();
        assert!(err.message.contains("portfolio"), "{err}");
        let err = parse_request(r#"{"type":"compile","source":"x","options":{"threads":4}}"#)
            .unwrap_err();
        assert!(err.message.contains("threads"), "{err}");
    }

    #[test]
    fn rejects_bad_json_and_bad_types() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"type":"dance"}"#).is_err());
        assert!(parse_request(r#"{"type":"compile","source":7}"#).is_err());
        assert!(parse_request(r#"{"type":"compile","source":"x","id":1.5}"#).is_err());
        assert!(parse_request(r#"{"v":2,"type":"ping"}"#).is_err());
        assert!(
            parse_request(r#"{"type":"compile","source":"x","options":{"machine":"ev7"}}"#)
                .is_err()
        );
        assert!(
            parse_request(r#"{"type":"compile","source":"x","options":{"solver":"z3"}}"#).is_err()
        );
        assert!(
            parse_request(r#"{"type":"compile","source":"x","options":{"engine":"quantum"}}"#)
                .is_err()
        );
    }

    #[test]
    fn parses_the_engine_option() {
        for (name, want) in [
            ("sat", EngineChoice::Sat),
            ("stochastic", EngineChoice::Stochastic),
            ("auto", EngineChoice::Auto),
        ] {
            let line =
                format!(r#"{{"type":"compile","source":"x","options":{{"engine":"{name}"}}}}"#);
            let Request::Compile(c) = parse_request(&line).unwrap() else {
                panic!("expected compile");
            };
            assert_eq!(c.options.engine, Some(want));
        }
    }

    #[test]
    fn result_body_validation_rejects_everything_but_ok_results() {
        let good = render_result_body("abc123", false, "sat", &[]);
        assert!(is_valid_result_body(&good));
        // Degraded bodies are never cached, so they are not valid
        // cache contents even though they are valid responses.
        assert!(!is_valid_result_body(&render_result_body(
            "abc123",
            true,
            "sat",
            &[]
        )));
        assert!(!is_valid_result_body(&render_error_body(
            "compile", "boom", false
        )));
        assert!(!is_valid_result_body("")); // empty file
        assert!(!is_valid_result_body(&good[..good.len() / 2])); // truncated
        assert!(!is_valid_result_body("\"status\":\"ok\"")); // missing fields
        assert!(!is_valid_result_body("not json at all"));
    }

    #[test]
    fn ids_render_verbatim() {
        assert_eq!(RequestId::Null.render(), "null");
        assert_eq!(RequestId::Num(42).render(), "42");
        assert_eq!(RequestId::Str("a\"b".into()).render(), r#""a\"b""#);
    }

    #[test]
    fn response_rendering_is_valid_json() {
        let body = render_result_body(
            "abc123",
            false,
            "sat",
            &[GmaSummary {
                name: "f_final".into(),
                cycles: 1,
                instructions: 2,
                refuted_below: true,
                listing: "s4addq a, 1, res # 0, U0\n".into(),
            }],
        );
        let line = render_response(&RequestId::Str("r1".into()), &body);
        let parsed = denali_trace::json::parse(&line).unwrap();
        assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(parsed.get("degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(parsed.get("engine").and_then(Json::as_str), Some("sat"));
        assert_eq!(
            parsed.get("gmas").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );

        let line = render_response(
            &RequestId::Null,
            &render_error_body("overload", "queue full", true),
        );
        let parsed = denali_trace::json::parse(&line).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(true));
    }
}
