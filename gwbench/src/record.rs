//! Metric names, units and the JSON lines a run prints.
//!
//! Every run prints two lines at the end of its standard output: a full
//! record (`gwbench/1`: host fingerprint, workload, seed, sample counts
//! and metrics) and, last, the summary object `{correct, attempted,
//! failed, metrics}` that harnesses read.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Record schema tag.
pub const SCHEMA: &str = "gwbench/1";

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("time_to_solution_1t_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p95_s", "s"),
    ("success_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pwdft.solve_bands_s", "s"),
    ("mtxel.setup_s", "s"),
    ("mtxel.sigma_context_s", "s"),
    ("fft.grids", "count"),
    ("fft.lines", "count"),
    ("fft.busy_s", "s"),
    ("chi.static_s", "s"),
    ("chi.freqs_s", "s"),
    ("epsilon.build_s", "s"),
    ("gpp.model_s", "s"),
    ("spacetime.chi_s", "s"),
    ("spacetime.green_s", "s"),
    ("spacetime.fft_s", "s"),
    ("spacetime.transform_s", "s"),
    ("linalg.gemm_calls", "count"),
    ("linalg.gemm_pack_s", "s"),
    ("linalg.gemm_compute_s", "s"),
    ("linalg.zgemm_ceiling_gflops", "GF/s"),
    ("host.stream_gbs", "GB/s"),
    ("sigma.diag_s", "s"),
    ("sigma.diag_flops", "count"),
    ("sigma.diag_gflops", "GF/s"),
    ("sigma.offdiag_s", "s"),
    ("sigma.offdiag_gflops", "GF/s"),
    ("sigma.imagaxis_s", "s"),
    ("dyson.solve_s", "s"),
    ("par.pool_dispatches", "count"),
    ("par.dispatch_us_per_region", "us"),
    ("par.region_s", "s"),
    ("par.inline_runs", "count"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.compute_p50_s", "s"),
    ("serve.mem_hit_ratio", "frac"),
    ("serve.disk_hit_ratio", "frac"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.mem_evicted", "count"),
    ("io.ckpt_reads", "count"),
    ("io.ckpt_writes", "count"),
    ("io.ckpt_bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
    ("trace.layer_coverage", "frac"),
    ("failed_frac", "frac"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values of one run, keyed by name, in the order of a schema list.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    schema: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// All metrics of `schema`, each 0 until set.
    pub fn new(schema: &'static [(&'static str, &'static str)]) -> Self {
        assert!(
            schema.iter().all(|&(n, _)| valid_name(n)),
            "invalid metric name in schema"
        );
        Self {
            schema,
            values: schema.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a metric; panics on a name outside the schema (a bug here).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        *slot = value;
    }

    /// A metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.values
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in schema order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &(name, unit)) in self.schema.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(self.values[name]),
                quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// The summary object, the last line of a run's output.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Every operation passed its correctness gate.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed, were rejected, or missed their oracle.
    pub failed: u64,
    /// The workload's metrics.
    pub metrics: Metrics,
}

impl Summary {
    /// One-line JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// The full record: run identity and host fingerprint around a summary.
pub struct Record<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measured-phase length asked for (s).
    pub seconds: u64,
    /// Host fingerprint fields, in order.
    pub host: &'a [(&'static str, String)],
    /// Sample counts and other run facts, in order.
    pub notes: &'a [(&'static str, f64)],
    /// The summary.
    pub summary: &'a Summary,
}

impl Record<'_> {
    /// One-line JSON.
    pub fn to_json(&self) -> String {
        let host: Vec<String> = self
            .host
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
            .collect();
        format!(
            "{{\"schema\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}, \
             \"seconds\": {}, \"host\": {{{}}}, \"notes\": {{{}}}, \"result\": {}}}",
            quote(SCHEMA),
            quote(self.workload),
            self.seed,
            self.trace,
            self.seconds,
            host.join(", "),
            notes.join(", "),
            self.summary.to_json()
        )
    }
}

/// A JSON number with every digit of the shortest round-trip form;
/// non-finite values (never valid JSON) print as 0 and are reported as
/// failures by the caller.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON reader for the round-trip tests.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object"),
            }
        }
        fn num(&self) -> f64 {
            match self {
                Json::Num(v) => *v,
                _ => panic!("not a number: {self:?}"),
            }
        }
        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                _ => panic!("not a string: {self:?}"),
            }
        }
        fn keys(&self) -> Vec<&str> {
            match self {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("not an object"),
            }
        }
    }

    fn parse(text: &str) -> Json {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i);
        ws(b, &mut i);
        assert_eq!(i, b.len(), "trailing input");
        v
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(kv);
                    }
                    let Json::Str(k) = value(b, i) else {
                        panic!("object key must be a string")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    kv.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                        match b[*i] {
                            b'u' => {
                                let hex = std::str::from_utf8(&b[*i + 1..*i + 5]).unwrap();
                                let c = u32::from_str_radix(hex, 16).unwrap();
                                s.push(char::from_u32(c).unwrap());
                                *i += 4;
                            }
                            c => s.push(c as char),
                        }
                    } else {
                        s.push(b[*i] as char);
                    }
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                Json::Num(std::str::from_utf8(&b[start..*i]).unwrap().parse().unwrap())
            }
        }
    }

    fn sample_summary() -> Summary {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.812_734_567_891_234_5);
        m.set("time_to_solution_s", 1.0 / 3.0);
        m.set("throughput_ops_s", 12345.678);
        m.set("latency_p95_s", 1e-7);
        m.set("success_frac", 1.0);
        Summary {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: m,
        }
    }

    #[test]
    fn schema_names_and_units_are_valid_and_unique() {
        for list in [END_TO_END, PER_LAYER] {
            for (i, &(name, unit)) in list.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
                assert!(
                    list[..i].iter().all(|&(n, _)| n != name),
                    "{name} listed twice"
                );
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|&(n, _)| PER_LAYER.iter().all(|&(m, _)| m != n)));
    }

    #[test]
    fn name_validity() {
        for ok in ["setup_s", "sigma.diag_gflops", "a", "9-x", "A.b_c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/x",
            "quote\"",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn summary_round_trips_with_every_digit() {
        let s = sample_summary();
        let doc = parse(&s.to_json());
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), &Json::Bool(true));
        assert_eq!(doc.get("attempted").num(), 1000.0);
        assert_eq!(doc.get("failed").num(), 0.0);
        let metrics = doc.get("metrics");
        let names: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(metrics.keys(), names);
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name);
            assert_eq!(m.keys(), ["value", "unit"]);
            assert_eq!(
                m.get("value").num().to_bits(),
                s.metrics.get(name).to_bits(),
                "{name}"
            );
            assert_eq!(m.get("unit").str(), unit);
        }
    }

    #[test]
    fn record_round_trips_and_nests_the_summary() {
        let s = sample_summary();
        let host = [
            ("isa", "avx512".to_string()),
            ("note", "a \"q\"\n".to_string()),
        ];
        let notes = [("samples", 7.0), ("ratio", 0.125)];
        let rec = Record {
            workload: "oneshot_gpp",
            seed: 42,
            trace: false,
            seconds: 10,
            host: &host,
            notes: &notes,
            summary: &s,
        };
        let doc = parse(&rec.to_json());
        assert_eq!(doc.get("schema").str(), SCHEMA);
        assert_eq!(doc.get("workload").str(), "oneshot_gpp");
        assert_eq!(doc.get("seed").num(), 42.0);
        assert_eq!(doc.get("host").get("note").str(), "a \"q\"\n");
        assert_eq!(doc.get("notes").get("ratio").num(), 0.125);
        assert_eq!(doc.get("result"), &parse(&s.to_json()));
    }

    #[test]
    fn non_finite_values_are_flagged_and_stay_valid_json() {
        let mut m = Metrics::new(END_TO_END);
        m.set("latency_p95_s", f64::NAN);
        assert_eq!(m.non_finite(), ["latency_p95_s"]);
        let doc = parse(&m.to_json());
        assert_eq!(doc.get("latency_p95_s").get("value").num(), 0.0);
    }

    /// The benchmark definition at the repository root names exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_definition_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Json::Arr(items) = doc.get(key) else {
                panic!("{key} is not a list")
            };
            let defined: Vec<(&str, &str)> = items
                .iter()
                .map(|m| (m.get("name").str(), m.get("unit").str()))
                .collect();
            assert_eq!(defined, list, "{key}");
        }
    }
}
