//! The metrics registry: monotonic counters and gauges behind one mutex,
//! snapshotted in deterministic name order.
//!
//! Naming convention: metrics whose value depends on host wall-clock or
//! scheduling (busy times, wall durations) are prefixed `wall.`, so
//! determinism tests can compare [`MetricsSnapshot::deterministic`]
//! subsets while the full snapshot still carries the throughput story.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::{escape, fmt_f64};

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins measurement.
    Gauge(f64),
}

impl MetricValue {
    /// Counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

/// Thread-safe registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, MetricValue>> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Add `delta` to the counter `name` (creating it at zero). Counters
    /// only ever move up; there is no reset or set.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner();
        match inner.entry(name.to_string()).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner();
        match inner.entry(name.to_string()).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.inner().iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }
}

/// A sorted, immutable copy of a registry's contents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// The snapshot without wall-clock/scheduling-dependent metrics
    /// (names prefixed `wall.`): the subset that must be bit-identical
    /// across identical runs.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| !k.starts_with("wall."))
                .cloned()
                .collect(),
        }
    }

    /// Render as a JSON object `{name: value, ...}` in name order.
    /// Counters and gauges are plain numbers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": ", escape(name)));
            match value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&fmt_f64(*v)),
            }
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a.count", 2);
        reg.counter_add("a.count", 3);
        assert_eq!(reg.snapshot().get("a.count"), Some(&MetricValue::Counter(5)));
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", 2.5);
        assert_eq!(reg.snapshot().get("g"), Some(&MetricValue::Gauge(2.5)));
    }

    #[test]
    fn snapshot_is_name_ordered_and_json_parses() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("zeta", 1.0);
        reg.counter_add("alpha", 1);
        reg.gauge_set("mid", 0.5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        let parsed = crate::json::Json::parse(&snap.to_json()).expect("valid json");
        assert_eq!(parsed.get("alpha").and_then(crate::json::Json::as_f64), Some(1.0));
    }

    #[test]
    fn deterministic_subset_drops_wall_metrics() {
        let reg = MetricsRegistry::new();
        reg.counter_add("sweep.scenarios", 6);
        reg.gauge_set("wall.sweep.ms", 12.5);
        let det = reg.snapshot().deterministic();
        assert_eq!(det.entries.len(), 1);
        assert_eq!(det.entries[0].0, "sweep.scenarios");
    }
}
