//! Chrome-trace (a.k.a. Trace Event Format) exporter, the JSON flavor
//! understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Span enter/exit pairs and retrospective spans both become `"X"`
//! (complete) events — complete events carry their own duration, so the
//! viewer reconstructs nesting purely from timestamp containment and no
//! begin/end ordering constraints apply. Trace events become `"i"`
//! (instant) events. Record fields are attached under `args`.
//!
//! The serial record stream has no thread identity by design (that is
//! what makes it deterministic), so everything lands on one track
//! (`pid` 1 / `tid` 1) — the hierarchy, not the scheduling, is the
//! information.

use std::collections::HashMap;

use crate::json::{self};
use crate::{OwnedField, Record, Value};

fn write_args(out: &mut String, fields: &[(String, Value)]) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        match v {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Value::I64(n) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{n}");
            }
            Value::F64(x) => json::write_f64(out, *x),
            Value::Str(s) => json::write_str(out, s),
        }
    }
    out.push('}');
}

fn push_complete(
    out: &mut String,
    first: &mut bool,
    name: &str,
    t_us: u64,
    dur_us: u64,
    fields: &[(String, Value)],
) {
    use std::fmt::Write as _;
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":");
    json::write_str(out, name);
    let _ = write!(out, ",\"ts\":{t_us},\"dur\":{dur_us},");
    write_args(out, fields);
    out.push('}');
}

fn push_instant(
    out: &mut String,
    first: &mut bool,
    name: &str,
    t_us: u64,
    fields: &[(String, Value)],
) {
    use std::fmt::Write as _;
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"name\":");
    json::write_str(out, name);
    let _ = write!(out, ",\"ts\":{t_us},");
    write_args(out, fields);
    out.push('}');
}

/// Renders records as a Chrome-trace JSON document
/// (`{"traceEvents":[...],"displayTimeUnit":"ms"}`).
///
/// Timestamps are microseconds since the trace epoch, which is what the
/// format expects. A `Begin` with no matching `End` (a crash mid-span)
/// is emitted with zero duration so the trace still loads.
pub fn to_string(records: &[Record]) -> String {
    // Pair Begin/End by id, folding End fields into the Begin's.
    let mut ends: HashMap<u64, (u64, &[OwnedField])> = HashMap::new();
    for r in records {
        if let Record::End { id, t_us, fields } = r {
            ends.insert(*id, (*t_us, fields));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for r in records {
        match r {
            Record::Begin {
                id,
                name,
                t_us,
                fields,
                ..
            } => {
                let (end_us, end_fields) = ends.get(id).map_or((*t_us, &[][..]), |(t, f)| (*t, f));
                let mut all = fields.clone();
                all.extend(end_fields.iter().cloned());
                push_complete(
                    &mut out,
                    &mut first,
                    name,
                    *t_us,
                    end_us.saturating_sub(*t_us),
                    &all,
                );
            }
            Record::End { .. } => {}
            Record::Complete {
                name,
                t_us,
                dur_us,
                fields,
                ..
            } => push_complete(&mut out, &mut first, name, *t_us, *dur_us, fields),
            Record::Event {
                name, t_us, fields, ..
            } => push_instant(&mut out, &mut first, name, *t_us, fields),
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::{field, Tracer};

    #[test]
    fn export_is_valid_and_nested() {
        let t = Tracer::new();
        let outer = t.span("serve");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.complete_span("serve.request", 0.0, 1.0, vec![field("k", 2u32)]);
        t.event("serve.shed", || vec![field("outcome", "busy")]);
        outer.finish();
        let doc = chrome_parse(&to_string(&t.records()));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        // The span became an X event enclosing the request's timestamps.
        let outer_ev = &events[0];
        assert_eq!(outer_ev.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(outer_ev.get("name").and_then(Json::as_str), Some("serve"));
        let o_ts = outer_ev.get("ts").and_then(Json::as_u64).unwrap();
        let o_dur = outer_ev.get("dur").and_then(Json::as_u64).unwrap();
        let probe_ev = &events[1];
        let p_ts = probe_ev.get("ts").and_then(Json::as_u64).unwrap();
        let p_dur = probe_ev.get("dur").and_then(Json::as_u64).unwrap();
        assert!(
            o_ts <= p_ts && p_ts + p_dur <= o_ts + o_dur,
            "request nests in serve"
        );
        assert_eq!(
            probe_ev
                .get("args")
                .unwrap()
                .get("k")
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("i"));
    }

    #[test]
    fn unmatched_begin_still_loads() {
        let records = vec![crate::Record::Begin {
            id: 0,
            parent: None,
            name: "crashed".into(),
            t_us: 10,
            fields: Vec::new(),
        }];
        let doc = chrome_parse(&to_string(&records));
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("dur").and_then(Json::as_u64), Some(0));
    }

    fn chrome_parse(text: &str) -> Json {
        crate::json::parse(text).expect("chrome export must be valid JSON")
    }
}
