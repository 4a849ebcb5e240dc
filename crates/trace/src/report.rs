//! Summary rendering for a recorded (or re-parsed) trace: the
//! `denali trace-report` subcommand and the CLI's `// phases:` lines
//! both come from here.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{Record, Value};

fn get<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(fields: &[(String, Value)], key: &str) -> u64 {
    match get(fields, key) {
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) => (*n).max(0) as u64,
        Some(Value::F64(x)) if *x >= 0.0 => *x as u64,
        _ => 0,
    }
}

fn get_str<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    match get(fields, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Closed span: name, duration, merged enter+exit fields. (Parent
/// links stay on the records; [`phase_line`] reads them from there.)
struct ClosedSpan {
    name: String,
    dur_us: u64,
    fields: Vec<(String, Value)>,
}

/// Resolves Begin/End pairs and Complete records into closed spans,
/// keyed by id. Unclosed Begins get duration 0.
fn closed_spans(records: &[Record]) -> HashMap<u64, ClosedSpan> {
    let mut spans: HashMap<u64, ClosedSpan> = HashMap::new();
    let mut begin_t: HashMap<u64, u64> = HashMap::new();
    for r in records {
        match r {
            Record::Begin {
                id,
                name,
                t_us,
                fields,
                ..
            } => {
                begin_t.insert(*id, *t_us);
                spans.insert(
                    *id,
                    ClosedSpan {
                        name: name.clone(),
                        dur_us: 0,
                        fields: fields.clone(),
                    },
                );
            }
            Record::End { id, t_us, fields } => {
                if let Some(span) = spans.get_mut(id) {
                    let start = begin_t.get(id).copied().unwrap_or(*t_us);
                    span.dur_us = t_us.saturating_sub(start);
                    span.fields.extend(fields.iter().cloned());
                }
            }
            Record::Complete {
                id,
                name,
                dur_us,
                fields,
                ..
            } => {
                spans.insert(
                    *id,
                    ClosedSpan {
                        name: name.clone(),
                        dur_us: *dur_us,
                        fields: fields.clone(),
                    },
                );
            }
            Record::Event { .. } => {}
        }
    }
    spans
}

/// Ids of spans named `name`, in record order.
fn span_ids_named(records: &[Record], name: &str) -> Vec<u64> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Begin { id, name: n, .. } | Record::Complete { id, name: n, .. }
                if n == name =>
            {
                Some(*id)
            }
            _ => None,
        })
        .collect()
}

/// Renders the compile's phase split (`match 12.3 ms, search 5.0 ms`):
/// the durations of every direct child span of each `gma` span,
/// aggregated by name in first-seen order. Returns `"(no phases)"` when
/// the trace has no such spans (e.g. a parse error before the pipeline
/// started). The CLI prints it as the `// phases:` line, per compiled
/// GMA under `--probes` and for the phases reached on a failed compile.
pub fn phase_line(records: &[Record]) -> String {
    phases_under(
        records,
        &closed_spans(records),
        &span_ids_named(records, "gma"),
    )
}

/// [`phase_line`] for each `gma` span on its own, in record order: one
/// line per compiled GMA.
pub fn gma_phase_lines(records: &[Record]) -> Vec<String> {
    let spans = closed_spans(records);
    span_ids_named(records, "gma")
        .into_iter()
        .map(|root| phases_under(records, &spans, &[root]))
        .collect()
}

/// The phase split over the direct children of the `roots` spans.
fn phases_under(records: &[Record], spans: &HashMap<u64, ClosedSpan>, roots: &[u64]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut total: HashMap<String, f64> = HashMap::new();
    for r in records {
        let (id, parent) = match r {
            Record::Begin { id, parent, .. } | Record::Complete { id, parent, .. } => {
                (*id, *parent)
            }
            _ => continue,
        };
        let Some(parent) = parent else { continue };
        if !roots.contains(&parent) {
            continue;
        }
        let Some(span) = spans.get(&id) else { continue };
        if !total.contains_key(&span.name) {
            order.push(span.name.clone());
        }
        *total.entry(span.name.clone()).or_insert(0.0) += span.dur_us as f64 / 1e3;
    }
    if order.is_empty() {
        return "(no phases)".to_owned();
    }
    let mut out = String::new();
    for (i, name) in order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{name} {:.1} ms", total[name]);
    }
    out
}

/// What a saturation round's events say about its work.
#[derive(Clone, Copy, Default)]
struct RoundWork {
    ematch_us: u64,
    rebuild_us: u64,
    walks: u64,
}

struct AxiomRow {
    name: String,
    rounds: u64,
    scanned: u64,
    matches: u64,
    applied: u64,
}

/// Renders the full per-phase / per-axiom / per-probe summary of a
/// trace, in the order the pipeline ran.
pub fn render(records: &[Record]) -> String {
    let spans = closed_spans(records);
    let mut out = String::new();

    // -- phases ------------------------------------------------------
    let _ = writeln!(out, "phases: {}", phase_line(records));

    // GMA roots, with name fields.
    for id in span_ids_named(records, "gma") {
        if let Some(span) = spans.get(&id) {
            if let Some(name) = get_str(&span.fields, "name") {
                let _ = writeln!(out, "gma {name}: {:.1} ms", span.dur_us as f64 / 1e3);
            }
        }
    }

    // -- saturation rounds -------------------------------------------
    let rounds: Vec<(u64, &ClosedSpan)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Begin { id, name, .. } if name == "saturate.round" => {
                spans.get(id).map(|span| (*id, span))
            }
            _ => None,
        })
        .collect();
    if !rounds.is_empty() {
        // Parts of a round's wall time: its e-matching time (the
        // `ematch.chunk` events' `match_us`, summed over the round's
        // patterns), its replay and apply times (the round span's own
        // `replay_us` and `apply_us`) and its rebuild time and
        // congruence-repair walks (its `egraph.stats` event's
        // `rebuild_us` and `walks`).
        let mut work: HashMap<u64, RoundWork> = HashMap::new();
        for r in records {
            if let Record::Event {
                span: Some(span),
                name,
                fields,
                ..
            } = r
            {
                let (ematch_us, rebuild_us, walks) = match name.as_str() {
                    "ematch.chunk" => (get_u64(fields, "match_us"), 0, 0),
                    "egraph.stats" => (0, get_u64(fields, "rebuild_us"), get_u64(fields, "walks")),
                    _ => continue,
                };
                let row = work.entry(*span).or_default();
                row.ematch_us += ematch_us;
                row.rebuild_us += rebuild_us;
                row.walks += walks;
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>9} {:>10} {:>9} {:>9} {:>8} {:>10} {:>6} {:>9}",
            "round",
            "phase",
            "scanned",
            "instances",
            "ematch_ms",
            "replay_ms",
            "apply_ms",
            "rebuild_ms",
            "walks",
            "ms"
        );
        for (id, span) in rounds {
            let w = work.get(&id).copied().unwrap_or_default();
            let _ = writeln!(
                out,
                "{:<6} {:>5} {:>9} {:>10} {:>9.2} {:>9.2} {:>8.2} {:>10.2} {:>6} {:>9.2}",
                get_u64(&span.fields, "round"),
                get_u64(&span.fields, "phase"),
                get_u64(&span.fields, "scanned"),
                get_u64(&span.fields, "instances"),
                w.ematch_us as f64 / 1e3,
                get_u64(&span.fields, "replay_us") as f64 / 1e3,
                get_u64(&span.fields, "apply_us") as f64 / 1e3,
                w.rebuild_us as f64 / 1e3,
                w.walks,
                span.dur_us as f64 / 1e3,
            );
        }
    }

    // -- per-axiom ---------------------------------------------------
    let mut axiom_order: Vec<String> = Vec::new();
    let mut axioms: HashMap<String, AxiomRow> = HashMap::new();
    for r in records {
        let Record::Event { name, fields, .. } = r else {
            continue;
        };
        if name != "ematch.axiom" {
            continue;
        }
        let Some(axiom) = get_str(fields, "axiom") else {
            continue;
        };
        let row = axioms.entry(axiom.to_owned()).or_insert_with(|| {
            axiom_order.push(axiom.to_owned());
            AxiomRow {
                name: axiom.to_owned(),
                rounds: 0,
                scanned: 0,
                matches: 0,
                applied: 0,
            }
        });
        row.rounds += 1;
        row.scanned += get_u64(fields, "scanned");
        row.matches += get_u64(fields, "matches");
        row.applied += get_u64(fields, "applied");
    }
    if !axiom_order.is_empty() {
        let width = axiom_order
            .iter()
            .map(|a| a.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<width$} {:>6} {:>9} {:>8} {:>8}",
            "axiom", "rounds", "scanned", "matches", "applied"
        );
        for name in &axiom_order {
            let row = &axioms[name];
            let _ = writeln!(
                out,
                "{:<width$} {:>6} {:>9} {:>8} {:>8}",
                row.name, row.rounds, row.scanned, row.matches, row.applied
            );
        }
    }

    // -- per-probe ---------------------------------------------------
    // Each `probe` span holds an `encode` child (the live formula's
    // size) and a `solve` child; their durations are the probe's split.
    let mut probes: Vec<(u64, &ClosedSpan)> = Vec::new();
    let mut children: HashMap<(u64, &str), &ClosedSpan> = HashMap::new();
    for r in records {
        let Record::Begin {
            id, parent, name, ..
        } = r
        else {
            continue;
        };
        let Some(span) = spans.get(id) else { continue };
        match (name.as_str(), parent) {
            ("probe", _) => probes.push((*id, span)),
            (child @ ("encode" | "solve"), Some(parent)) => {
                children.insert((*parent, child), span);
            }
            _ => {}
        }
    }
    if !probes.is_empty() {
        let ms = |probe: u64, child: &str| {
            children
                .get(&(probe, child))
                .map_or(0.0, |span| span.dur_us as f64 / 1e3)
        };
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>4} {:<8} {:>7} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "k", "outcome", "vars", "clauses", "decisions", "conflicts", "enc_ms", "solve_ms"
        );
        for &(id, probe) in &probes {
            let encode = children
                .get(&(id, "encode"))
                .map_or(&[][..], |s| &s.fields[..]);
            let _ = writeln!(
                out,
                "{:>4} {:<8} {:>7} {:>8} {:>9} {:>9} {:>9.2} {:>9.2}",
                get_u64(&probe.fields, "k"),
                get_str(&probe.fields, "outcome").unwrap_or("?"),
                get_u64(encode, "vars"),
                get_u64(encode, "clauses"),
                get_u64(&probe.fields, "decisions"),
                get_u64(&probe.fields, "conflicts"),
                ms(id, "encode"),
                ms(id, "solve"),
            );
        }
        let encode: f64 = probes.iter().map(|&(id, _)| ms(id, "encode")).sum();
        let solve: f64 = probes.iter().map(|&(id, _)| ms(id, "solve")).sum();
        let _ = writeln!(
            out,
            "{} probes, {:.1} ms encoding, {:.1} ms solving",
            probes.len(),
            encode,
            solve
        );
    }

    // -- serve requests ----------------------------------------------
    // Traces spooled by the server's flight recorder (and sampled
    // traces read back via the `flight` request) seal each request in
    // a `serve.request` complete-span carrying id/outcome/coalesced.
    let requests: Vec<&ClosedSpan> = records
        .iter()
        .filter_map(|r| match r {
            Record::Complete { id, name, .. } if name == "serve.request" => spans.get(id),
            _ => None,
        })
        .collect();
    if !requests.is_empty() {
        let mut order: Vec<String> = Vec::new();
        let mut rows: HashMap<String, (u64, u64, f64, f64)> = HashMap::new();
        for span in &requests {
            let outcome = get_str(&span.fields, "outcome").unwrap_or("?").to_owned();
            let row = rows.entry(outcome.clone()).or_insert_with(|| {
                order.push(outcome);
                (0, 0, 0.0, 0.0)
            });
            row.0 += 1;
            if matches!(get(&span.fields, "coalesced"), Some(Value::Bool(true))) {
                row.1 += 1;
            }
            let ms = span.dur_us as f64 / 1e3;
            row.2 += ms;
            row.3 = row.3.max(ms);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "serve requests: {}", requests.len());
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>9} {:>9} {:>9} {:>9}",
            "outcome", "count", "coalesced", "total_ms", "mean_ms", "max_ms"
        );
        for outcome in &order {
            let (count, coalesced, total, max) = rows[outcome];
            let _ = writeln!(
                out,
                "{outcome:<10} {count:>6} {coalesced:>9} {total:>9.2} {:>9.2} {max:>9.2}",
                total / count as f64,
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{field, Tracer};

    fn sample_trace() -> Vec<Record> {
        let t = Tracer::new();
        let gma = t.span_fields("gma", vec![field("name", "f")]);
        let m = t.span("match");
        let round = t.span_fields(
            "saturate.round",
            vec![field("round", 1u64), field("phase", 1u64)],
        );
        t.event("ematch.axiom", || {
            vec![
                field("axiom", "comm-add"),
                field("scanned", 10u64),
                field("matches", 4u64),
                field("applied", 2u64),
            ]
        });
        round.finish_fields(vec![field("scanned", 10u64), field("instances", 2u64)]);
        m.finish();
        let s = t.span("search");
        let probe = t.span_fields("probe", vec![field("k", 3u32)]);
        t.span("encode")
            .finish_fields(vec![field("vars", 120u64), field("clauses", 900u64)]);
        t.span("solve").finish();
        probe.finish_fields(vec![
            field("outcome", "unsat"),
            field("decisions", 40u64),
            field("conflicts", 7u64),
        ]);
        s.finish();
        gma.finish();
        t.records()
    }

    #[test]
    fn phase_line_lists_gma_children_in_order() {
        let line = phase_line(&sample_trace());
        assert!(line.starts_with("match "), "got: {line}");
        assert!(line.contains(", search "), "got: {line}");
        assert!(line.ends_with(" ms"), "got: {line}");
    }

    #[test]
    fn phase_line_without_pipeline_spans() {
        assert_eq!(phase_line(&[]), "(no phases)");
        assert!(gma_phase_lines(&[]).is_empty());
    }

    #[test]
    fn gma_phase_lines_split_the_trace_per_gma() {
        let t = Tracer::new();
        for phases in [&["match", "search"][..], &["match", "stoke"][..]] {
            let gma = t.span("gma");
            for &phase in phases {
                t.span(phase).finish();
            }
            gma.finish();
        }
        let lines = gma_phase_lines(&t.records());
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("match ") && lines[0].contains(", search "));
        assert!(lines[1].starts_with("match ") && lines[1].contains(", stoke "));
        assert!(!lines[0].contains("stoke") && !lines[1].contains("search"));
    }

    #[test]
    fn render_includes_all_sections() {
        let text = render(&sample_trace());
        assert!(text.contains("phases: match"), "got:\n{text}");
        assert!(text.contains("gma f:"), "got:\n{text}");
        assert!(text.contains("comm-add"), "got:\n{text}");
        assert!(text.contains("1 probes,"), "got:\n{text}");
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some("3"))
            .expect("a probe row for k=3");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(
            cells[..6],
            ["3", "unsat", "120", "900", "40", "7"],
            "got: {row}"
        );
    }

    #[test]
    fn rounds_table_sums_each_rounds_ematch_chunks() {
        let t = Tracer::new();
        let chunk = |us: u64| t.event("ematch.chunk", || vec![field("match_us", us)]);
        for (round, chunks) in [(1u64, vec![1500u64, 2500]), (2, vec![250])] {
            let span = t.span_fields("saturate.round", vec![field("round", round)]);
            chunks.into_iter().for_each(chunk);
            span.finish();
        }
        // A chunk outside any round is not attributed to one.
        chunk(9000);
        let text = render(&t.records());
        assert_eq!(round_cell(&text, "1", "ematch_ms"), "4.00", "got:\n{text}");
        assert_eq!(round_cell(&text, "2", "ematch_ms"), "0.25", "got:\n{text}");
    }

    #[test]
    fn rounds_table_reads_each_rounds_rebuild_time_and_walks() {
        let t = Tracer::new();
        let stats = |us: u64, walks: u64| {
            t.event("egraph.stats", || {
                vec![field("walks", walks), field("rebuild_us", us)]
            })
        };
        for (round, us, walks) in [(1u64, 1250u64, 7u64), (2, 40, 0)] {
            let span = t.span_fields("saturate.round", vec![field("round", round)]);
            t.event("ematch.chunk", || vec![field("match_us", 500u64)]);
            stats(us, walks);
            span.finish();
        }
        // Stats outside any round are not attributed to one.
        stats(9000, 99);
        let text = render(&t.records());
        let cells = |round| {
            ["ematch_ms", "rebuild_ms", "walks"].map(|column| round_cell(&text, round, column))
        };
        assert_eq!(cells("1"), ["0.50", "1.25", "7"], "got:\n{text}");
        assert_eq!(cells("2"), ["0.50", "0.04", "0"], "got:\n{text}");
    }

    #[test]
    fn rounds_table_reads_each_rounds_replay_and_apply_time() {
        let t = Tracer::new();
        for (round, replay, apply) in [(1u64, 750u64, 2250u64), (2, 0, 40)] {
            let span = t.span_fields("saturate.round", vec![field("round", round)]);
            t.event("ematch.chunk", || vec![field("match_us", 500u64)]);
            span.finish_fields(vec![field("replay_us", replay), field("apply_us", apply)]);
        }
        let text = render(&t.records());
        let cells = |round| {
            ["ematch_ms", "replay_ms", "apply_ms"].map(|column| round_cell(&text, round, column))
        };
        assert_eq!(cells("1"), ["0.50", "0.75", "2.25"], "got:\n{text}");
        assert_eq!(cells("2"), ["0.50", "0.00", "0.04"], "got:\n{text}");
    }

    /// The cell of the rounds table in `round`'s row and `column`.
    fn round_cell(text: &str, round: &str, column: &str) -> String {
        let header = text.lines().find(|l| l.starts_with("round")).unwrap();
        let index = header
            .split_whitespace()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no {column} column"));
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(round))
            .unwrap();
        row.split_whitespace().nth(index).unwrap().to_owned()
    }

    #[test]
    fn render_summarizes_serve_request_spans() {
        let t = Tracer::new();
        t.complete_span(
            "serve.request",
            0.0,
            3.0,
            vec![
                field("id", "1"),
                field("outcome", "ok"),
                field("coalesced", false),
            ],
        );
        t.complete_span(
            "serve.request",
            0.0,
            1.0,
            vec![
                field("id", "2"),
                field("outcome", "hit"),
                field("coalesced", true),
            ],
        );
        let text = render(&t.records());
        assert!(text.contains("serve requests: 2"), "got:\n{text}");
        assert!(text.contains("ok"), "got:\n{text}");
        assert!(text.contains("hit"), "got:\n{text}");
        // The coalesced hit shows up in the coalesced column.
        let hit_row = text.lines().find(|l| l.starts_with("hit")).unwrap();
        assert!(
            hit_row.split_whitespace().nth(2) == Some("1"),
            "got: {hit_row}"
        );
    }

    #[test]
    fn render_survives_jsonl_round_trip() {
        let records = sample_trace();
        let text = crate::jsonl::to_string(&[], &records);
        let parsed = crate::jsonl::parse_records(&text).unwrap();
        // Timing fields go through JSON; re-render must not panic and
        // keeps the structural content.
        let rendered = render(&parsed);
        assert!(rendered.contains("comm-add"));
    }
}
