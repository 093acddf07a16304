//! The metrics registry: pre-registered counters, gauges, and
//! fixed-bucket histograms with Prometheus-style text exposition.
//!
//! The design rule is the same one the serving hot path lives by:
//! **allocate at setup, index afterwards**. Registration returns a
//! copyable id (a plain `Vec` index); every update —
//! [`MetricsRegistry::inc`], [`MetricsRegistry::set`],
//! [`MetricsRegistry::observe`] — is an indexed load/store with no
//! hashing, no locking, and no allocation, so the engine can update a
//! dozen metrics per step without perturbing the allocation-free decode
//! contract. Only [`MetricsRegistry::expose`] allocates (it renders a
//! `String`), and it is a cold-path snapshot operation.
//!
//! Labels are baked at registration time: a labeled series is its own
//! id with a `key="value"` fragment formatted once, the value escaped as
//! the text format requires, which is exactly how the engine registers
//! one token counter per backend in its registry.
//! Series sharing a base name share one `# HELP`/`# TYPE` header, as
//! the exposition format requires.

use std::fmt::Write as _;

/// Handle to a registered counter (monotone `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (instantaneous `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Meta {
    name: String,
    /// Preformatted label fragment (`model="fp"`), empty for none.
    labels: String,
    help: String,
}

impl Meta {
    fn series(&self, out: &mut String, suffix: &str, extra_label: Option<(&str, &str)>) {
        out.push_str(&self.name);
        out.push_str(suffix);
        match (self.labels.is_empty(), extra_label) {
            (true, None) => {}
            (true, Some((k, v))) => {
                let _ = write!(out, "{{{k}=\"{v}\"}}");
            }
            (false, None) => {
                let _ = write!(out, "{{{}}}", self.labels);
            }
            (false, Some((k, v))) => {
                let _ = write!(out, "{{{},{k}=\"{v}\"}}", self.labels);
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    /// Ascending finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Cumulative-by-render counts: `counts[i]` observations fell in
    /// bucket `i` (`counts.len() == bounds.len() + 1`, last is the
    /// overflow bucket). Stored per-bucket; rendered cumulatively as
    /// the exposition format requires.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// A registry of pre-declared metrics. See the [module docs](self) for
/// the setup-vs-hot-path split.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(Meta, u64)>,
    gauges: Vec<(Meta, f64)>,
    histograms: Vec<(Meta, Histogram)>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn meta(&self, name: &str, labels: &str, help: &str) -> Meta {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let dup = self
            .counters
            .iter()
            .map(|(m, _)| m)
            .chain(self.gauges.iter().map(|(m, _)| m))
            .chain(self.histograms.iter().map(|(m, _)| m))
            .any(|m| m.name == name && m.labels == labels);
        assert!(!dup, "metric {name}{{{labels}}} registered twice");
        Meta {
            name: name.to_string(),
            labels: labels.to_string(),
            help: help.to_string(),
        }
    }

    /// Registers a counter. Panics on an invalid or duplicate name —
    /// registration is setup code, and a typo should fail loudly there
    /// rather than silently splitting a series.
    pub fn counter(&mut self, name: &str, help: &str) -> CounterId {
        let meta = self.meta(name, "", help);
        self.counters.push((meta, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a labeled counter series (`name{key="value"}`). `value`
    /// is raw: `\`, `"` and newline are escaped here.
    pub fn counter_labeled(
        &mut self,
        name: &str,
        (key, value): (&str, &str),
        help: &str,
    ) -> CounterId {
        let mut labels = format!("{key}=\"");
        for c in value.chars() {
            match c {
                '\\' => labels.push_str("\\\\"),
                '"' => labels.push_str("\\\""),
                '\n' => labels.push_str("\\n"),
                c => labels.push(c),
            }
        }
        labels.push('"');
        let meta = self.meta(name, &labels, help);
        self.counters.push((meta, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, help: &str) -> GaugeId {
        let meta = self.meta(name, "", help);
        self.gauges.push((meta, 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram with the given ascending finite bucket
    /// upper bounds (an implicit `+Inf` overflow bucket is added).
    pub fn histogram(&mut self, name: &str, help: &str, bounds: &[f64]) -> HistogramId {
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram {name} buckets must be finite and strictly ascending"
        );
        let meta = self.meta(name, "", help);
        self.histograms.push((
            meta,
            Histogram {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                sum: 0.0,
                count: 0,
            },
        ));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by 1. Hot path: indexed, allocation-free.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter. Hot path: indexed, allocation-free.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Sets a gauge. Hot path: indexed, allocation-free.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Records one observation into a histogram (linear scan over the
    /// fixed bounds — engine histograms have ≤ a dozen buckets, so this
    /// beats a binary search's branch misses). Hot path,
    /// allocation-free.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        let h = &mut self.histograms[id.0].1;
        let mut slot = h.bounds.len();
        for (i, b) in h.bounds.iter().enumerate() {
            if v <= *b {
                slot = i;
                break;
            }
        }
        h.counts[slot] += 1;
        h.sum += v;
        h.count += 1;
    }

    /// Current counter value (tests and report plumbing).
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].1
    }

    /// Total observations a histogram has seen.
    pub fn histogram_count(&self, id: HistogramId) -> u64 {
        self.histograms[id.0].1.count
    }

    /// Sum of a histogram's observations.
    pub fn histogram_sum(&self, id: HistogramId) -> f64 {
        self.histograms[id.0].1.sum
    }

    /// Registered series across all three kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the Prometheus-style text exposition snapshot: one
    /// `# HELP`/`# TYPE` header per metric name (shared by its labeled
    /// series), then one line per series, histograms as cumulative
    /// `_bucket{le=...}` lines plus `_sum` and `_count`. Cold path —
    /// this is the only allocating operation in the registry.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<&str> = Vec::new();
        let header = |out: &mut String, m: &Meta, kind: &str, seen: &mut Vec<&str>| {
            if !seen.contains(&m.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {kind}", m.name);
            }
        };
        for (m, v) in &self.counters {
            header(&mut out, m, "counter", &mut seen);
            seen.push(&m.name);
            m.series(&mut out, "", None);
            let _ = writeln!(out, " {v}");
        }
        for (m, v) in &self.gauges {
            header(&mut out, m, "gauge", &mut seen);
            seen.push(&m.name);
            m.series(&mut out, "", None);
            let _ = writeln!(out, " {v}");
        }
        for (m, h) in &self.histograms {
            header(&mut out, m, "histogram", &mut seen);
            seen.push(&m.name);
            let mut cum = 0u64;
            for (i, b) in h.bounds.iter().enumerate() {
                cum += h.counts[i];
                let le = format!("{b}");
                m.series(&mut out, "_bucket", Some(("le", &le)));
                let _ = writeln!(out, " {cum}");
            }
            cum += h.counts[h.bounds.len()];
            m.series(&mut out, "_bucket", Some(("le", "+Inf")));
            let _ = writeln!(out, " {cum}");
            m.series(&mut out, "_sum", None);
            let _ = writeln!(out, " {}", h.sum);
            m.series(&mut out, "_count", None);
            let _ = writeln!(out, " {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("steps_total", "Steps.");
        let g = m.gauge("depth", "Queue depth.");
        let h = m.histogram("lat_us", "Latency.", &[10.0, 100.0]);
        m.inc(c);
        m.add(c, 4);
        m.set(g, 2.5);
        for v in [5.0, 50.0, 500.0, 7.0] {
            m.observe(h, v);
        }
        assert_eq!(m.counter_value(c), 5);
        assert_eq!(m.gauge_value(g), 2.5);
        assert_eq!(m.histogram_count(h), 4);
        assert!((m.histogram_sum(h) - 562.0).abs() < 1e-9);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn exposition_matches_the_text_format() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("steps_total", "Steps executed.");
        let h = m.histogram("lat_us", "Latency.", &[10.0, 100.0]);
        m.add(c, 7);
        for v in [5.0, 50.0, 500.0] {
            m.observe(h, v);
        }
        let text = m.expose();
        assert!(text.contains("# HELP steps_total Steps executed.\n"));
        assert!(text.contains("# TYPE steps_total counter\n"));
        assert!(text.contains("steps_total 7\n"));
        // Histogram buckets are cumulative and end at +Inf.
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_us_sum 555\n"));
        assert!(text.contains("lat_us_count 3\n"));
    }

    #[test]
    fn labeled_series_share_one_header() {
        let mut m = MetricsRegistry::new();
        let fp = m.counter_labeled("model_tokens_total", ("model", "fp"), "Per-model tokens.");
        let q = m.counter_labeled("model_tokens_total", ("model", "w4a4"), "Per-model tokens.");
        m.add(fp, 3);
        m.add(q, 9);
        let text = m.expose();
        assert_eq!(text.matches("# TYPE model_tokens_total counter").count(), 1);
        assert!(text.contains("model_tokens_total{model=\"fp\"} 3\n"));
        assert!(text.contains("model_tokens_total{model=\"w4a4\"} 9\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut m = MetricsRegistry::new();
        m.counter_labeled("x_total", ("model", "a\"b\\c\nd"), "X.");
        assert!(m
            .expose()
            .contains("x_total{model=\"a\\\"b\\\\c\\nd\"} 0\n"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut m = MetricsRegistry::new();
        m.counter("x_total", "X.");
        m.counter("x_total", "X again.");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        MetricsRegistry::new().counter("bad name", "Nope.");
    }
}
