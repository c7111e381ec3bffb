//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared once here, with its
//! unit and better-direction. `BENCHMARK.json` at the repository root
//! lists the same names (the `catalogue_matches_benchmark_json` test
//! pins that), so a metric cannot be printed without being declared.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs, drops).
    Lower,
    /// Larger is better (throughput, QoE ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Better-direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower),
    def("setup_s", "s", Lower),
    def("peak_heap_mib", "MiB", Lower),
    def("qoe.satisfied_ratio", "ratio", Higher),
    def("qoe.latency_ms", "ms", Lower),
    def("qoe.continuity", "ratio", Higher),
    def("cloud_mbps", "Mbps", Lower),
];

/// Event kinds the traced engine run separates, as the `events.<kind>`
/// and `handler_ns.<kind>` metric names of each.
pub const EVENT_KINDS: [(&str, &str); 7] = [
    ("events.join", "handler_ns.join"),
    ("events.action", "handler_ns.action"),
    ("events.enqueue", "handler_ns.enqueue"),
    ("events.start_tx", "handler_ns.start_tx"),
    ("events.deliver", "handler_ns.deliver"),
    ("events.leave", "handler_ns.leave"),
    ("events.other", "handler_ns.other"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Run driver.
    def("phase.loop_s", "s", Lower),
    def("phase.fold_s", "s", Lower),
    def("deployment.build_ms", "ms", Lower),
    // Engine.
    def("engine.events", "count", Lower),
    def("engine.events_per_s", "1/s", Higher),
    def("engine.dispatch_ns_per_event", "ns", Lower),
    def("queue.pending_peak", "count", Lower),
    def("queue.pending_mean", "count", Lower),
    def("events.join", "count", Lower),
    def("events.action", "count", Lower),
    def("events.enqueue", "count", Lower),
    def("events.start_tx", "count", Lower),
    def("events.deliver", "count", Lower),
    def("events.leave", "count", Lower),
    def("events.other", "count", Lower),
    def("handler_ns.join", "ns", Lower),
    def("handler_ns.action", "ns", Lower),
    def("handler_ns.enqueue", "ns", Lower),
    def("handler_ns.start_tx", "ns", Lower),
    def("handler_ns.deliver", "ns", Lower),
    def("handler_ns.leave", "ns", Lower),
    def("handler_ns.other", "ns", Lower),
    def("schedule.drops", "count", Lower),
    // Shards and pool.
    def("shard.epochs", "count", Lower),
    def("shard.epoch_ms_p50", "ms", Lower),
    def("shard.epoch_ms_max", "ms", Lower),
    def("shard.lane_efficiency", "ratio", Higher),
    def("shard.event_imbalance", "ratio", Lower),
    def("shard.exchange.hops", "count", Lower),
    def("shard.exchange.fallbacks", "count", Lower),
    def("shard.exchange.ops_routed", "count", Lower),
    // Planes.
    def("plane.telemetry.cost", "ratio", Lower),
    def("plane.prefetch.cost", "ratio", Lower),
    def("plane.churn.cost", "ratio", Lower),
    def("plane.chaos.cost", "ratio", Lower),
    def("plane.live.cost", "ratio", Lower),
    def("live.tick_ms_p50", "ms", Lower),
    def("live.tick_ms_p90", "ms", Lower),
    def("live.alerts", "count", Lower),
    def("churn.sessions_started", "count", Higher),
    def("churn.control_retries", "count", Lower),
    def("churn.control_expired", "count", Lower),
    def("churn.admitted_shed", "count", Lower),
    def("prefetch.hit_rate", "ratio", Higher),
    def("prefetch.encode_retries", "count", Lower),
    def("prefetch.predeploys_issued", "count", Lower),
    def("telemetry.trace_dropped", "count", Lower),
    // The flash crowd's latency excursion (simulated time).
    def("flash.dip_ms", "ms", Lower),
    def("flash.recovery_s", "s", Lower),
    // The tracing's own cost.
    def("trace.overhead_ratio", "ratio", Lower),
];

/// Values measured by one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names recorded that `catalogue` does not declare.
    pub fn undeclared(&self, catalogue: &[MetricDef]) -> Vec<&'static str> {
        self.0.keys().copied().filter(|name| !catalogue.iter().any(|d| d.name == *name)).collect()
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Simulation runs whose output was checked.
    pub attempted: u64,
    /// Checked runs whose output failed a check.
    pub failed: u64,
    /// What failed, one line per failure.
    pub failures: Vec<String>,
    /// Measured values.
    pub values: Values,
    /// Facts for the record line that are not metrics.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with nothing attempted yet.
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Values::default(),
            notes: Vec::new(),
        }
    }

    /// Count one checked run; `problems` lists what its checks found.
    pub fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("{what}: {p}"));
            }
        }
    }

    /// Record a failure for every value of `catalogue` that is not
    /// finite; such a run is not correct.
    pub fn check_finite(&mut self, catalogue: &[MetricDef]) {
        for d in catalogue {
            if let Some(v) = self.values.get(d.name).filter(|v| !v.is_finite()) {
                self.failures.push(format!("metric {} is {v}", d.name));
            }
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric of `catalogue` with its unit. A metric the run did not
    /// record reads 0 (its layer is not exercised by the workload).
    pub fn result_line(&self, catalogue: &[MetricDef]) -> String {
        let correct = self.correct();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, d) in catalogue.iter().enumerate() {
            let value = self.values.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

/// Escape `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
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
