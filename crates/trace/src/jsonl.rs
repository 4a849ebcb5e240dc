//! The JSONL sink: one JSON object per line, stable schema (documented
//! in `docs/TRACING.md`).
//!
//! Line types (`"type"` field):
//!
//! * `"meta"` — header line: `{"type":"meta","version":2,...}` plus
//!   caller-supplied context fields (source file, knobs).
//! * `"B"` / `"E"` — span enter / exit: `id`, `parent` (enter only),
//!   `name` (enter only), `t_us`, `fields`.
//! * `"X"` — complete span: `id`, `parent`, `name`, `t_us`, `dur_us`,
//!   `fields` (only `serve.request`, whose work crosses threads).
//! * `"ev"` — event: `span`, `name`, `t_us`, `fields`.
//!
//! `fields` is always an object; field order is the order they were
//! recorded. Parsing is tolerant of unknown line types (skipped), so
//! the schema can grow without breaking old readers.
//!
//! [`SCHEMA_VERSION`] changes when a record's meaning changes
//! (`docs/TRACING.md` lists what each version changed); the readers in
//! this crate read the current version only.

use crate::json::{self, Json};
use crate::{Record, Value};

/// Schema version emitted on the meta line.
pub const SCHEMA_VERSION: u64 = 2;

fn write_value(out: &mut String, v: &Value) {
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

fn write_fields(out: &mut String, fields: &[(String, Value)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        write_value(out, v);
    }
    out.push('}');
}

fn write_opt_id(out: &mut String, id: Option<u64>) {
    use std::fmt::Write as _;
    match id {
        Some(id) => {
            let _ = write!(out, "{id}");
        }
        None => out.push_str("null"),
    }
}

/// Serializes one record to its JSONL line (no trailing newline).
pub fn record_line(record: &Record) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match record {
        Record::Begin {
            id,
            parent,
            name,
            t_us,
            fields,
        } => {
            let _ = write!(out, "{{\"type\":\"B\",\"id\":{id},\"parent\":");
            write_opt_id(&mut out, *parent);
            out.push_str(",\"name\":");
            json::write_str(&mut out, name);
            let _ = write!(out, ",\"t_us\":{t_us},\"fields\":");
            write_fields(&mut out, fields);
            out.push('}');
        }
        Record::End { id, t_us, fields } => {
            let _ = write!(
                out,
                "{{\"type\":\"E\",\"id\":{id},\"t_us\":{t_us},\"fields\":"
            );
            write_fields(&mut out, fields);
            out.push('}');
        }
        Record::Complete {
            id,
            parent,
            name,
            t_us,
            dur_us,
            fields,
        } => {
            let _ = write!(out, "{{\"type\":\"X\",\"id\":{id},\"parent\":");
            write_opt_id(&mut out, *parent);
            out.push_str(",\"name\":");
            json::write_str(&mut out, name);
            let _ = write!(out, ",\"t_us\":{t_us},\"dur_us\":{dur_us},\"fields\":");
            write_fields(&mut out, fields);
            out.push('}');
        }
        Record::Event {
            span,
            name,
            t_us,
            fields,
        } => {
            out.push_str("{\"type\":\"ev\",\"span\":");
            write_opt_id(&mut out, *span);
            out.push_str(",\"name\":");
            json::write_str(&mut out, name);
            let _ = write!(out, ",\"t_us\":{t_us},\"fields\":");
            write_fields(&mut out, fields);
            out.push('}');
        }
    }
    out
}

/// Serializes a whole trace: a meta header line (schema version plus
/// the caller's context fields) followed by one line per record.
pub fn to_string(meta: &[(&str, Value)], records: &[Record]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION}");
    for (k, v) in meta {
        out.push(',');
        json::write_str(&mut out, k);
        out.push(':');
        write_value(&mut out, v);
    }
    out.push_str("}\n");
    for record in records {
        out.push_str(&record_line(record));
        out.push('\n');
    }
    out
}

fn value_from_json(v: &Json) -> Result<Value, String> {
    match v {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Num(n) => {
            if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 {
                Ok(Value::U64(*n as u64))
            } else if n.fract() == 0.0 && *n < 0.0 && *n >= i64::MIN as f64 {
                Ok(Value::I64(*n as i64))
            } else {
                Ok(Value::F64(*n))
            }
        }
        other => Err(format!("unsupported field value {other:?}")),
    }
}

fn fields_from_json(line: &Json) -> Result<Vec<(String, Value)>, String> {
    let Some(Json::Obj(map)) = line.get("fields") else {
        return Ok(Vec::new());
    };
    map.iter()
        .map(|(k, v)| Ok((k.clone(), value_from_json(v)?)))
        .collect()
}

fn req_u64(line: &Json, key: &str) -> Result<u64, String> {
    line.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid '{key}'"))
}

fn opt_u64(line: &Json, key: &str) -> Option<u64> {
    line.get(key).and_then(Json::as_u64)
}

fn req_str(line: &Json, key: &str) -> Result<String, String> {
    line.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing/invalid '{key}'"))
}

/// Parses a JSONL trace back into records. Meta lines and unknown line
/// types are skipped; blank lines are ignored. Field numbers come back
/// as [`Value::U64`] when whole and non-negative (the integer/float
/// distinction is not preserved through JSON).
pub fn parse_records(input: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing 'type'", lineno + 1))?;
        let with_line = |e: String| format!("line {}: {e}", lineno + 1);
        match kind {
            "B" => records.push(Record::Begin {
                id: req_u64(&v, "id").map_err(with_line)?,
                parent: opt_u64(&v, "parent"),
                name: req_str(&v, "name").map_err(with_line)?,
                t_us: req_u64(&v, "t_us").map_err(with_line)?,
                fields: fields_from_json(&v).map_err(with_line)?,
            }),
            "E" => records.push(Record::End {
                id: req_u64(&v, "id").map_err(with_line)?,
                t_us: req_u64(&v, "t_us").map_err(with_line)?,
                fields: fields_from_json(&v).map_err(with_line)?,
            }),
            "X" => records.push(Record::Complete {
                id: req_u64(&v, "id").map_err(with_line)?,
                parent: opt_u64(&v, "parent"),
                name: req_str(&v, "name").map_err(with_line)?,
                t_us: req_u64(&v, "t_us").map_err(with_line)?,
                dur_us: req_u64(&v, "dur_us").map_err(with_line)?,
                fields: fields_from_json(&v).map_err(with_line)?,
            }),
            "ev" => records.push(Record::Event {
                span: opt_u64(&v, "span"),
                name: req_str(&v, "name").map_err(with_line)?,
                t_us: req_u64(&v, "t_us").map_err(with_line)?,
                fields: fields_from_json(&v).map_err(with_line)?,
            }),
            _ => {} // meta / future line types
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, Tracer};

    fn sample_records() -> Vec<Record> {
        let t = Tracer::new();
        let outer = t.span_fields("match", vec![field("proc", "f")]);
        t.event("ematch.axiom", || {
            vec![
                field("axiom", "mul4"),
                field("scanned", 12u64),
                field("ok", true),
            ]
        });
        t.complete_span("serve.request", 0.0, 2.0, vec![field("id", "3")]);
        outer.finish_fields(vec![field("rounds", 2u64)]);
        t.records()
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let records = sample_records();
        let text = to_string(&[("proc", Value::Str("f".into()))], &records);
        assert!(text.starts_with("{\"type\":\"meta\",\"version\":2,\"proc\":\"f\"}\n"));
        let parsed = parse_records(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn every_line_is_valid_json() {
        let text = to_string(&[], &sample_records());
        for line in text.lines() {
            crate::json::parse(line).unwrap();
        }
    }

    #[test]
    fn unknown_line_types_are_skipped() {
        let text = "{\"type\":\"meta\",\"version\":2}\n{\"type\":\"future\",\"x\":1}\n";
        assert!(parse_records(text).unwrap().is_empty());
    }

    #[test]
    fn float_fields_survive() {
        let t = Tracer::new();
        t.event("e", || vec![field("ratio", 0.25), field("neg", -3i64)]);
        let records = t.records();
        let parsed = parse_records(&to_string(&[], &records)).unwrap();
        assert_eq!(parsed, records);
    }
}
