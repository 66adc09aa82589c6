//! Deterministic metrics registry (DESIGN.md §13).
//!
//! A fleet operator watches the paper's headline signals — shared MiB,
//! merge rates, over-commit throughput — continuously, not as
//! end-of-run report text. [`MetricsRegistry`] is the substrate for
//! that: a flat, dependency-free store of counters, gauges and
//! log-bucketed histograms with a Prometheus-style text exposition.
//!
//! # Determinism contract
//!
//! Every series carries a [`MetricClass`]:
//!
//! * [`MetricClass::Sim`] — derived purely from simulated state
//!   (ticks, page counts, deterministic layer counters). The rendered
//!   exposition of these series is **byte-identical on every rerun of
//!   a config** and across hosts; golden tests and the rerun checks
//!   pin it.
//! * [`MetricClass::Wall`] — wall-clock timings (phase nanos, walk
//!   latency). These are real measurements of *this* host and run and
//!   are rendered in a clearly separated trailing section that goldens
//!   never cover.
//!
//! [`MetricsRegistry::render_deterministic`] emits only the `Sim`
//! section; [`MetricsRegistry::render`] appends the `Wall` section
//! behind a marker line so a scrape consumer (or a human reading
//! `tests/golden/telemetry.txt`) can tell exactly where determinism
//! ends.
//!
//! Series are keyed by `(name, sorted labels)` and rendered in
//! lexicographic order, so exposition text is independent of
//! registration order.
//!
//! # Example
//!
//! ```
//! use obs::{MetricClass, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.counter("ksm_merges_total", "Pages merged by KSM.", &[], 42);
//! reg.gauge("fleet_resident_mib", "Host-resident MiB.", &[("guest", "0")], 512.0);
//! reg.observe("walk_latency_ns", "Snapshot walk latency.", &[], MetricClass::Wall, 1_500);
//! let text = reg.render_deterministic();
//! assert!(text.contains("ksm_merges_total 42"));
//! assert!(!text.contains("walk_latency_ns"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Determinism class of a series (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricClass {
    /// Derived from simulated state only; byte-identical on every
    /// rerun of a config. Covered by goldens.
    Sim,
    /// Wall-clock measurement; varies run to run. Rendered in a
    /// separated trailing section, never pinned by goldens.
    Wall,
}

/// Number of log2 buckets in a histogram: bucket `i` counts samples
/// with `value < 2^i`, the last bucket is `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 40;

#[derive(Clone, Debug, PartialEq)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram {
        /// `buckets[i]` counts samples with `value < 2^i` (non-cumulative).
        buckets: Box<[u64; HISTOGRAM_BUCKETS]>,
        count: u64,
        sum: u64,
    },
}

#[derive(Clone, Debug, PartialEq)]
struct Series {
    help: &'static str,
    class: MetricClass,
    value: Value,
}

/// Key: metric name plus rendered `{k="v",...}` label suffix (already
/// sorted), so BTreeMap order == exposition order.
type Key = (String, String);

/// A flat registry of named metric series. See module docs for the
/// determinism contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    series: BTreeMap<Key, Series>,
}

fn label_suffix(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

/// Formats a gauge value: integral floats render without a trailing
/// `.0` ambiguity (`12`), everything else uses Rust's shortest
/// round-trip formatting, which is deterministic across platforms.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Sets a monotonically non-decreasing counter (deterministic,
    /// [`MetricClass::Sim`]). Registries are rebuilt per epoch from
    /// layer counters, so "set" semantics keep sampling idempotent;
    /// repeated calls within one epoch accumulate.
    pub fn counter(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], v: u64) {
        self.counter_class(name, help, labels, MetricClass::Sim, v);
    }

    /// [`Self::counter`] with an explicit class.
    pub fn counter_class(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        class: MetricClass,
        v: u64,
    ) {
        let key = (name.to_string(), label_suffix(labels));
        let entry = self.series.entry(key).or_insert(Series {
            help,
            class,
            value: Value::Counter(0),
        });
        match &mut entry.value {
            Value::Counter(c) => *c += v,
            other => panic!("metric {name} re-registered as counter over {other:?}"),
        }
    }

    /// Sets a point-in-time gauge (deterministic, [`MetricClass::Sim`]).
    pub fn gauge(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], v: f64) {
        self.gauge_class(name, help, labels, MetricClass::Sim, v);
    }

    /// [`Self::gauge`] with an explicit class.
    pub fn gauge_class(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        class: MetricClass,
        v: f64,
    ) {
        let key = (name.to_string(), label_suffix(labels));
        let entry = self.series.entry(key).or_insert(Series {
            help,
            class,
            value: Value::Gauge(0.0),
        });
        match &mut entry.value {
            Value::Gauge(g) => *g = v,
            other => panic!("metric {name} re-registered as gauge over {other:?}"),
        }
    }

    /// Records one sample into a log2-bucketed histogram. Bucket `i`
    /// counts samples with `value < 2^i`; the final bucket is `+Inf`.
    pub fn observe(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        class: MetricClass,
        v: u64,
    ) {
        let key = (name.to_string(), label_suffix(labels));
        let entry = self.series.entry(key).or_insert(Series {
            help,
            class,
            value: Value::Histogram {
                buckets: Box::new([0; HISTOGRAM_BUCKETS]),
                count: 0,
                sum: 0,
            },
        });
        match &mut entry.value {
            Value::Histogram {
                buckets,
                count,
                sum,
            } => {
                // Index of the first power of two strictly greater
                // than v: 64 - leading_zeros(v). v=0 lands in bucket 0
                // (< 2^0 = 1).
                let idx = (64 - u64::leading_zeros(v) as usize).min(HISTOGRAM_BUCKETS - 1);
                buckets[idx] += 1;
                *count += 1;
                *sum = sum.saturating_add(v);
            }
            other => panic!("metric {name} re-registered as histogram over {other:?}"),
        }
    }

    /// Returns a counter's current value, if registered (tests,
    /// cross-checks).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.series.get(&(name.to_string(), label_suffix(labels))) {
            Some(Series {
                value: Value::Counter(c),
                ..
            }) => Some(*c),
            _ => None,
        }
    }

    /// Returns a gauge's current value, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.series.get(&(name.to_string(), label_suffix(labels))) {
            Some(Series {
                value: Value::Gauge(g),
                ..
            }) => Some(*g),
            _ => None,
        }
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when no series have been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Merges another registry into this one (counters add, gauges
    /// overwrite, histogram buckets add). Used by collectors that
    /// build partial registries per layer.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for ((name, suffix), series) in &other.series {
            let entry = self
                .series
                .entry((name.clone(), suffix.clone()))
                .or_insert_with(|| Series {
                    help: series.help,
                    class: series.class,
                    value: match &series.value {
                        Value::Counter(_) => Value::Counter(0),
                        Value::Gauge(_) => Value::Gauge(0.0),
                        Value::Histogram { .. } => Value::Histogram {
                            buckets: Box::new([0; HISTOGRAM_BUCKETS]),
                            count: 0,
                            sum: 0,
                        },
                    },
                });
            match (&mut entry.value, &series.value) {
                (Value::Counter(a), Value::Counter(b)) => *a += b,
                (Value::Gauge(a), Value::Gauge(b)) => *a = *b,
                (
                    Value::Histogram {
                        buckets,
                        count,
                        sum,
                    },
                    Value::Histogram {
                        buckets: ob,
                        count: oc,
                        sum: os,
                    },
                ) => {
                    for (a, b) in buckets.iter_mut().zip(ob.iter()) {
                        *a += b;
                    }
                    *count += oc;
                    *sum = sum.saturating_add(*os);
                }
                _ => panic!("metric {name} merged across kinds"),
            }
        }
    }

    fn render_class(&self, out: &mut String, class: MetricClass) {
        let mut last_name: Option<&str> = None;
        for ((name, suffix), series) in &self.series {
            if series.class != class {
                continue;
            }
            if last_name != Some(name.as_str()) {
                let kind = match series.value {
                    Value::Counter(_) => "counter",
                    Value::Gauge(_) => "gauge",
                    Value::Histogram { .. } => "histogram",
                };
                let _ = writeln!(out, "# HELP {name} {}", series.help);
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_name = Some(name.as_str());
            }
            match &series.value {
                Value::Counter(c) => {
                    let _ = writeln!(out, "{name}{suffix} {c}");
                }
                Value::Gauge(g) => {
                    let _ = writeln!(out, "{name}{suffix} {}", format_f64(*g));
                }
                Value::Histogram {
                    buckets,
                    count,
                    sum,
                } => {
                    // Cumulative le-buckets, eliding empty leading /
                    // repeated tails for readability: emit every
                    // bucket up to the last non-empty one.
                    let last = buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
                    let base = suffix.strip_suffix('}').map(|s| format!("{s},"));
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate().take(last + 1) {
                        cumulative += b;
                        let le = 1u128 << i;
                        match &base {
                            Some(prefix) => {
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{prefix}le=\"{le}\"}} {cumulative}"
                                );
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                            }
                        }
                    }
                    match &base {
                        Some(prefix) => {
                            let _ = writeln!(out, "{name}_bucket{prefix}le=\"+Inf\"}} {count}");
                        }
                        None => {
                            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                        }
                    }
                    let _ = writeln!(out, "{name}_sum{suffix} {sum}");
                    let _ = writeln!(out, "{name}_count{suffix} {count}");
                }
            }
        }
    }

    /// Renders only the deterministic ([`MetricClass::Sim`]) series.
    /// This is the text that goldens pin and that must be
    /// byte-identical on every rerun of a config.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        self.render_class(&mut out, MetricClass::Sim);
        out
    }

    /// Renders the full exposition: deterministic series first, then —
    /// if any wall-clock series exist — a marker line and the
    /// non-deterministic section.
    pub fn render(&self) -> String {
        let mut out = self.render_deterministic();
        if self.series.values().any(|s| s.class == MetricClass::Wall) {
            out.push_str("# --- non-deterministic wall-clock series below this line ---\n");
            self.render_class(&mut out, MetricClass::Wall);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.counter("zebra_total", "Z.", &[], 1);
        reg.counter("alpha_total", "A.", &[], 2);
        reg.counter("alpha_total", "A.", &[], 3);
        let text = reg.render();
        let alpha = text.find("alpha_total 5").expect("alpha rendered");
        let zebra = text.find("zebra_total 1").expect("zebra rendered");
        assert!(alpha < zebra, "names must render in sorted order");
    }

    #[test]
    fn labels_sort_within_a_name() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", "G.", &[("guest", "10")], 1.0);
        reg.gauge("g", "G.", &[("guest", "02")], 2.0);
        let text = reg.render();
        let first = text.find("g{guest=\"02\"} 2").expect("02 rendered");
        let second = text.find("g{guest=\"10\"} 1").expect("10 rendered");
        assert!(first < second);
        // HELP/TYPE emitted once per name.
        assert_eq!(text.matches("# HELP g ").count(), 1);
    }

    #[test]
    fn wall_series_render_after_marker_only() {
        let mut reg = MetricsRegistry::new();
        reg.counter("sim_total", "S.", &[], 7);
        reg.observe("lat_ns", "L.", &[], MetricClass::Wall, 1000);
        let det = reg.render_deterministic();
        assert!(det.contains("sim_total 7"));
        assert!(!det.contains("lat_ns"));
        let full = reg.render();
        let marker = full
            .find("# --- non-deterministic")
            .expect("marker present");
        assert!(full.find("lat_ns_count 1").expect("histogram count") > marker);
    }

    #[test]
    fn histogram_buckets_are_log2_cumulative() {
        let mut reg = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            reg.observe("h", "H.", &[], MetricClass::Sim, v);
        }
        let text = reg.render();
        // v=0 -> <1; v=1 -> <2; v=2,3 -> <4; v=4 -> <8; 1024 -> <2048.
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"2\"} 2"));
        assert!(text.contains("h_bucket{le=\"4\"} 4"));
        assert!(text.contains("h_bucket{le=\"8\"} 5"));
        assert!(text.contains("h_bucket{le=\"2048\"} 6"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("h_sum 1034"));
        assert!(text.contains("h_count 6"));
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter("c", "C.", &[], 1);
        b.counter("c", "C.", &[], 2);
        b.gauge("g", "G.", &[], 9.0);
        a.merge(&b);
        assert_eq!(a.counter_value("c", &[]), Some(3));
        assert_eq!(a.gauge_value("g", &[]), Some(9.0));
    }

    #[test]
    fn gauge_formatting_is_stable() {
        assert_eq!(format_f64(12.0), "12");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(-3.0), "-3");
    }
}
