//! Serializable snapshot of a registry plus NDJSON and summary rendering.
//!
//! The on-disk format is documented in `OBSERVABILITY.md` at the repository
//! root; [`SCHEMA`] names its current version. Every NDJSON line carries
//! `"v"` (format version number) and `"kind"` (record type) before the
//! record's own fields.

use serde::{Deserialize, Serialize, Value, ValueError};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier written into exports (bump on breaking changes).
pub const SCHEMA: &str = "wootz-obs/1";

/// Version number carried in the `"v"` key of every NDJSON line.
pub const SCHEMA_VERSION: i64 = 1;

/// A span/event annotation value; serializes as a bare JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Integer quantity (counts, indices, sizes).
    Int(i64),
    /// Real-valued quantity (losses, accuracies, rates).
    Float(f64),
    /// Free-form label (block keys, dataset names).
    Str(String),
}

impl Serialize for FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::Int(i) => Value::Int(*i as i128),
            FieldValue::Float(f) => Value::F64(*f),
            FieldValue::Str(s) => Value::String(s.clone()),
        }
    }
}

impl<'de> Deserialize<'de> for FieldValue {
    fn from_value(value: &Value) -> Result<Self, ValueError> {
        match value {
            Value::Bool(b) => Ok(FieldValue::Bool(*b)),
            Value::Int(i) => Ok(FieldValue::Int(*i as i64)),
            Value::F32(f) => Ok(FieldValue::Float(*f as f64)),
            Value::F64(f) => Ok(FieldValue::Float(*f)),
            Value::String(s) => Ok(FieldValue::Str(s.clone())),
            other => Err(ValueError::msg(format!(
                "FieldValue: expected scalar, got {}",
                other.kind()
            ))),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::Float(v as f64)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name (dot-separated, e.g. `pretrain.block`).
    pub name: String,
    /// Slash-joined chain of enclosing span names ending in `name`.
    pub path: String,
    /// Nesting depth on the recording thread (0 = root).
    pub depth: usize,
    /// Label of the recording thread.
    pub thread: String,
    /// Start time, microseconds since the registry epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Attached annotations.
    pub fields: BTreeMap<String, FieldValue>,
}

/// One point-in-time event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Event name (dot-separated, e.g. `trainer.epoch`).
    pub name: String,
    /// Emission time, microseconds since the registry epoch.
    pub ts_us: u64,
    /// Label of the emitting thread.
    pub thread: String,
    /// Attached annotations.
    pub fields: BTreeMap<String, FieldValue>,
}

/// Final value of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRecord {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Final value of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeRecord {
    /// Gauge name.
    pub name: String,
    /// Last stored value.
    pub value: f64,
}

/// Summary statistics of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRecord {
    /// Histogram name (should state the unit, e.g. `*_us`).
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated median (log-bucket interpolation, <= ~2x error).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// Immutable snapshot of a registry, ready for export.
///
/// Produced by [`crate::snapshot`] / [`crate::Registry::snapshot`];
/// [`Report::to_ndjson`] renders the versioned line format and
/// [`Report::summary`] the human-readable table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// All finished spans, in completion order.
    pub spans: Vec<SpanRecord>,
    /// All events, in emission order.
    pub events: Vec<EventRecord>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterRecord>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeRecord>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramRecord>,
}

/// Renders one NDJSON line: `{"v":1,"kind":<kind>, ...record fields}`.
fn ndjson_line<T: Serialize>(kind: &str, record: &T) -> String {
    let mut pairs = vec![
        ("v".to_string(), Value::Int(SCHEMA_VERSION as i128)),
        ("kind".to_string(), Value::String(kind.to_string())),
    ];
    match record.to_value() {
        Value::Object(fields) => pairs.extend(fields),
        other => pairs.push(("value".to_string(), other)),
    }
    Value::Object(pairs).to_json()
}

impl Report {
    /// Renders the report as newline-delimited JSON: one `meta` line, then
    /// one line per span, event, counter, gauge and histogram.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let meta = Value::Object(vec![
            ("v".to_string(), Value::Int(SCHEMA_VERSION as i128)),
            ("kind".to_string(), Value::String("meta".to_string())),
            ("schema".to_string(), Value::String(self.schema.clone())),
            ("spans".to_string(), Value::Int(self.spans.len() as i128)),
            ("events".to_string(), Value::Int(self.events.len() as i128)),
        ]);
        out.push_str(&meta.to_json());
        out.push('\n');
        for s in &self.spans {
            out.push_str(&ndjson_line("span", s));
            out.push('\n');
        }
        for e in &self.events {
            out.push_str(&ndjson_line("event", e));
            out.push('\n');
        }
        for c in &self.counters {
            out.push_str(&ndjson_line("counter", c));
            out.push('\n');
        }
        for g in &self.gauges {
            out.push_str(&ndjson_line("gauge", g));
            out.push('\n');
        }
        for h in &self.histograms {
            out.push_str(&ndjson_line("histogram", h));
            out.push('\n');
        }
        out
    }

    /// Writes [`Report::to_ndjson`] to `writer`.
    pub fn write_ndjson<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(self.to_ndjson().as_bytes())
    }

    /// Renders an aligned human-readable table: spans aggregated by name,
    /// then counters, gauges and histogram quantiles.
    pub fn summary(&self) -> String {
        let mut out = String::from("== wootz-obs summary ==\n");

        if !self.spans.is_empty() {
            // Aggregate spans by name: count + total + mean duration.
            let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for s in &self.spans {
                let entry = agg.entry(&s.name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += s.dur_us;
            }
            out.push_str("spans (by name):\n");
            let _ = writeln!(
                out,
                "  {:<34} {:>7} {:>12} {:>12}",
                "name", "count", "total_ms", "mean_ms"
            );
            for (name, (count, total_us)) in agg {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>7} {:>12.3} {:>12.3}",
                    name,
                    count,
                    total_us as f64 / 1e3,
                    total_us as f64 / 1e3 / count as f64,
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<34} {:>20}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for g in &self.gauges {
                let _ = writeln!(out, "  {:<34} {:>20.6}", g.name, g.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "p50", "p90", "p99", "max"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    h.name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        let _ = writeln!(
            out,
            "({} spans, {} events, {} counters, {} gauges, {} histograms)",
            self.spans.len(),
            self.events.len(),
            self.counters.len(),
            self.gauges.len(),
            self.histograms.len(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> Report {
        Report {
            schema: SCHEMA.to_string(),
            spans: vec![SpanRecord {
                name: "pretrain.block".into(),
                path: "pipeline.run/pretrain.block".into(),
                depth: 1,
                thread: "main".into(),
                start_us: 10,
                dur_us: 250,
                fields: [("block".to_string(), FieldValue::Str("b0".into()))]
                    .into_iter()
                    .collect(),
            }],
            events: vec![EventRecord {
                name: "trainer.epoch".into(),
                ts_us: 99,
                thread: "main".into(),
                fields: [
                    ("epoch".to_string(), FieldValue::Int(1)),
                    ("loss".to_string(), FieldValue::Float(0.5)),
                ]
                .into_iter()
                .collect(),
            }],
            counters: vec![CounterRecord {
                name: "tensor.conv2d.flops".into(),
                value: 123,
            }],
            gauges: vec![GaugeRecord {
                name: "sim.cluster.utilization".into(),
                value: 0.75,
            }],
            histograms: vec![HistogramRecord {
                name: "trainer.step_time_us".into(),
                count: 4,
                sum: 100,
                min: 10,
                max: 40,
                p50: 25,
                p90: 38,
                p99: 40,
            }],
        }
    }

    #[test]
    fn report_serde_round_trips() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn ndjson_lines_carry_version_and_kind() {
        let report = sample_report();
        let text = report.to_ndjson();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6); // meta + 1 of each record kind
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["v"].as_u64(), Some(1), "{line}");
            assert!(v["kind"].as_str().is_some(), "{line}");
        }
        let span: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(span["kind"], "span");
        assert_eq!(span["fields"]["block"], "b0");
    }

    #[test]
    fn field_values_serialize_as_bare_scalars() {
        assert_eq!(serde_json::to_string(&FieldValue::Int(3)).unwrap(), "3");
        assert_eq!(
            serde_json::to_string(&FieldValue::Str("x".into())).unwrap(),
            "\"x\""
        );
        assert_eq!(
            serde_json::to_string(&FieldValue::Bool(true)).unwrap(),
            "true"
        );
    }

    #[test]
    fn summary_mentions_every_section() {
        let s = sample_report().summary();
        assert!(s.contains("spans (by name):"));
        assert!(s.contains("pretrain.block"));
        assert!(s.contains("tensor.conv2d.flops"));
        assert!(s.contains("sim.cluster.utilization"));
        assert!(s.contains("trainer.step_time_us"));
    }
}
