//! Render collected records as Chrome `trace_event` JSON or JSON Lines.
//!
//! The Chrome format is the "JSON Array Format" documented by the Catapult
//! project: one complete event (`ph: "X"`) per span, with microsecond
//! `ts`/`dur`, wrapped in `{"traceEvents": [...]}`. The output loads
//! directly in `about:tracing` and <https://ui.perfetto.dev>.

use crate::{FieldValue, Record};
use std::fmt::Write;

/// Renders records as a complete Chrome `trace_event` document.
pub fn chrome_trace_json(records: &[Record]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let Record::Span(s) = record;
        write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},",
            json_str(s.name),
            s.tid,
            micros(s.start_ns),
            micros(s.dur_ns),
        )
        .expect("write to string");
        if s.closed_by_unwind {
            // Panicked spans stand out in the trace viewer: `cname` is a
            // Catapult reserved color name.
            out.push_str("\"cname\":\"terrible\",");
        }
        out.push_str("\"args\":{");
        write!(out, "\"depth\":{}", s.depth).expect("write to string");
        if s.closed_by_unwind {
            out.push_str(",\"closed_by_unwind\":true");
        }
        push_fields(&mut out, &s.fields, true);
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders one record as a single compact JSON object (one JSONL line).
pub fn jsonl_line(record: &Record) -> String {
    let mut out = String::from("{");
    let Record::Span(s) = record;
    write!(
        out,
        "\"type\":\"span\",\"seq\":{},\"name\":{},\"tid\":{},\"depth\":{},\"start_ns\":{},\"dur_ns\":{}",
        s.seq,
        json_str(s.name),
        s.tid,
        s.depth,
        s.start_ns,
        s.dur_ns,
    )
    .expect("write to string");
    if s.closed_by_unwind {
        out.push_str(",\"closed_by_unwind\":true");
    }
    out.push_str(",\"fields\":{");
    push_fields(&mut out, &s.fields, false);
    out.push('}');
    out.push('}');
    out
}

/// Appends `"key":value` pairs; `leading_comma` when entries already precede
/// them in the enclosing object.
fn push_fields(out: &mut String, fields: &[(&'static str, FieldValue)], leading_comma: bool) {
    for (i, (key, value)) in fields.iter().enumerate() {
        if leading_comma || i > 0 {
            out.push(',');
        }
        write!(out, "{}:{}", json_str(key), json_value(value)).expect("write to string");
    }
}

pub(crate) fn json_value(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => json_f64(*v),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Str(v) => json_str(v),
        FieldValue::Seq(vs) => {
            let mut out = String::from("[");
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_f64(*v));
            }
            out.push(']');
            out
        }
    }
}

/// JSON has no NaN/Infinity literals; map non-finite values to null.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to string");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace timestamps are in microseconds.
fn micros(ns: u64) -> u64 {
    ns / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;

    fn span(seq: u64, name: &'static str) -> Record {
        Record::Span(SpanRecord {
            seq,
            name,
            tid: 2,
            depth: 1,
            start_ns: 5_000,
            dur_ns: 12_345,
            fields: vec![
                ("count", FieldValue::U64(9)),
                ("ratio", FieldValue::F64(0.5)),
                ("label", FieldValue::Str("a\"b".to_string())),
            ],
            closed_by_unwind: false,
        })
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let records = vec![span(0, "gp_solve")];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains(
            "\"name\":\"gp_solve\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":5,\"dur\":12"
        ));
        assert!(json.contains("\"depth\":1,\"count\":9,\"ratio\":0.5"));
        assert!(json.contains("\"label\":\"a\\\"b\""));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn unwound_spans_are_marked_with_a_color() {
        let mut rec = span(0, "gp_solve");
        let Record::Span(s) = &mut rec;
        s.closed_by_unwind = true;
        let json = chrome_trace_json(&[rec]);
        assert!(json.contains("\"dur\":12,\"cname\":\"terrible\",\"args\":{"));
        assert!(json.contains("\"closed_by_unwind\":true"));
        // Healthy spans carry neither marker.
        let clean = chrome_trace_json(&[span(1, "gp_solve")]);
        assert!(!clean.contains("cname"));
        assert!(!clean.contains("closed_by_unwind"));
    }

    #[test]
    fn jsonl_line_is_one_object() {
        let line = jsonl_line(&span(4, "integerize"));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"type\":\"span\""));
        assert!(line.contains("\"seq\":4"));
        assert!(line.contains("\"dur_ns\":12345"));
        assert!(line.contains("\"fields\":{\"count\":9"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(
            json_value(&FieldValue::Seq(vec![1.0, f64::NAN])),
            "[1,null]"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_str("a\nb\x01"), "\"a\\nb\\u0001\"");
    }
}
