//! # obs — structured telemetry for the simulator and sweep engine
//!
//! The paper's methodology is *measurement feeding a model*: PAPI
//! profiles of the real kernel parameterise the PACE templates. This
//! crate gives the reproduction the same auditability — every prediction
//! can be traced back to the events that produced it:
//!
//! * [`Recorder`] — a thread-safe span recorder with a cheap
//!   disabled path. Sim-domain spans are keyed on the simulator's virtual
//!   clock (picoseconds) and are byte-deterministic; wall-domain spans
//!   are isolated so determinism tests can ignore them ([`span`]);
//! * [`MetricsRegistry`] — monotonic counters and gauges, snapshotted in
//!   deterministic name order ([`metrics`]);
//! * the exporter — Chrome `trace_event` JSON, which Perfetto and
//!   speedscope both open ([`chrome`]);
//! * [`json`] — the hand-rolled JSON emission helpers and a minimal
//!   parser the round-trip tests validate against (the workspace builds
//!   offline; the `serde` shim has no data format).
//!
//! ```
//! use obs::{chrome, Cat, Recorder};
//!
//! let rec = Recorder::enabled();
//! rec.set_thread_name(0, 0, "rank 0");
//! rec.sim_span(0, 0, "compute", Cat::Compute, 0, 2_000_000, vec![]);
//! let mut trace = Vec::new();
//! chrome::export_to(&rec, false, &mut trace).unwrap();
//! assert!(String::from_utf8(trace).unwrap().contains("\"traceEvents\""));
//! ```

pub mod attr;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod names;
pub mod pids;
pub mod span;

use std::sync::Arc;

pub use attr::{AttrError, Attribution, Rollup};
pub use json::Json;
pub use metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::{ArgValue, Args, Cat, EdgeKind, EdgeRecord, Recorder, SpanRecord};

/// A recorder + metrics bundle, cheaply cloneable for handing to
/// subsystems (engines, pools) that record into shared telemetry.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The shared span recorder.
    pub recorder: Arc<Recorder>,
    /// The shared metrics registry.
    pub metrics: Arc<MetricsRegistry>,
}

impl Obs {
    /// A bundle that records everything.
    pub fn enabled() -> Obs {
        Obs { recorder: Arc::new(Recorder::enabled()), metrics: Arc::new(MetricsRegistry::new()) }
    }

    /// A bundle that drops spans (the metrics registry still works — it
    /// is cheap and always useful).
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// Whether span recording is on.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bundle_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.recorder.sim_span(0, 0, "x", Cat::Compute, 0, 1, vec![]);
        assert!(obs.recorder.sim_spans().is_empty());
        // Metrics still record even when spans are off.
        obs.metrics.counter_add("c", 1);
        assert_eq!(obs.metrics.snapshot().get("c").and_then(MetricValue::as_counter), Some(1));
    }

    #[test]
    fn enabled_bundle_shares_state_across_clones() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.recorder.sim_span(0, 0, "x", Cat::Compute, 0, 1, vec![]);
        assert_eq!(obs.recorder.sim_spans().len(), 1);
    }
}
