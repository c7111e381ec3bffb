//! The live ops plane: tick-synchronous sampling configuration, the
//! plane itself, and the report it produces.
//!
//! Observability here is *pull-based*, and the plane is a hook of the
//! one run driver, not a loop of its own: the live entry points
//! ([`StreamingSim::run_live`] and [`ShardedSim::run_live`]) step the
//! same phase loop as the plain ones, and after every boundary the
//! driver hands the worlds to the plane, which reads them into
//! [`MetricsRegistry`]s through the static vocabulary in
//! [`crate::obs::metric`]. Nothing is pushed from inside event
//! handlers, so:
//!
//! * **zero cost when off** — without a plane the driver skips the
//!   hook, and the plain `run`/`run_instrumented` paths do no live
//!   work at all;
//! * **determinism** — sampling is read-only between epochs, so a
//!   live run's event stream (and therefore its summary fingerprint)
//!   is identical to the plain run on the same seed, and the alert
//!   log is a pure function of (config, seed).
//!
//! On top of the registry sits the [`SloEngine`]: declarative
//! objectives over the paper's QoE metrics with multi-window
//! burn-rate alerting, observed once per sampled tick after warmup.
//!
//! [`StreamingSim::run_live`]: crate::systems::StreamingSim::run_live
//! [`ShardedSim::run_live`]: crate::systems::ShardedSim::run_live

use cloudfog_sim::causal::COMPONENTS;
use cloudfog_sim::engine::Simulation;
use cloudfog_sim::live::{AlertLog, MetricsRegistry, MetricsSink, SloEngine, SloSpec};
use cloudfog_sim::time::{SimDuration, SimTime};

use crate::obs;
use crate::systems::simulation::{StreamingSim, StreamingSimConfig};

/// Configuration of the live ops plane.
#[derive(Clone, Debug, PartialEq)]
pub struct LiveConfig {
    /// Boundary cadence of a monolithic live run. Sharded runs ignore
    /// this and sample at their own epoch boundaries
    /// ([`ShardedSimConfig::tick`]) — cross-shard state is only
    /// coherent there.
    ///
    /// [`ShardedSimConfig::tick`]: crate::systems::ShardedSimConfig
    pub tick: SimDuration,
    /// Objectives the [`SloEngine`] evaluates each sampled tick.
    pub slos: Vec<SloSpec>,
    /// SLO observation starts strictly after this instant; `None`
    /// means the run's own measurement window (`ramp + ramp/2`).
    /// Samples are still taken and exposed during warmup — only burn
    /// accounting waits, since QoE gauges read zero until measurement
    /// begins and would otherwise page on every run start.
    pub warmup: Option<SimDuration>,
}

impl Default for LiveConfig {
    /// One-second cadence, the paper's stock SLOs, warmup from the
    /// run's measurement window.
    fn default() -> Self {
        LiveConfig {
            tick: SimDuration::from_secs(1),
            slos: obs::metric::paper_slos(),
            warmup: None,
        }
    }
}

impl LiveConfig {
    /// The resolved SLO warmup for a run with join ramp `ramp`.
    pub fn warmup_for(&self, ramp: SimDuration) -> SimDuration {
        self.warmup.unwrap_or(ramp + ramp / 2)
    }
}

/// What a live run hands back next to its normal output.
#[derive(Clone, Debug)]
pub struct LiveReport {
    /// The registry as of the final sampled boundary (sharded: the
    /// canonical-order fold of every shard's registry).
    pub registry: MetricsRegistry,
    /// Every alert fired, in firing order.
    pub alerts: AlertLog,
    /// Tick boundaries sampled.
    pub samples: u64,
}

/// The live ops plane of one run: everything a live run owns beside
/// its worlds — one registry per world, the [`SloEngine`], the warmup
/// rule and the sink. The run driver calls [`LivePlane::sample`] once
/// per boundary.
pub(crate) struct LivePlane<'s> {
    sink: &'s mut dyn MetricsSink,
    /// One registry per world, all installed from the same static
    /// vocabulary — which is what makes them foldable.
    regs: Vec<MetricsRegistry>,
    ids: obs::metric::MetricIds,
    engine: SloEngine,
    /// SLO observation starts strictly after this instant.
    warmup: SimTime,
    /// A sharded run's per-shard resident counts: its registries fold
    /// weighted by them, in canonical shard order. `None` exposes the
    /// one world's registry as it is — a weighted fold over a single
    /// registry is not guaranteed bit-identical to it.
    weights: Option<Vec<f64>>,
    /// The latest fold of a sharded run.
    folded: MetricsRegistry,
    samples: u64,
}

impl<'s> LivePlane<'s> {
    /// A plane over `worlds` worlds configured like `cfg` (its
    /// telemetry sizes the histograms, its ramp sets the default
    /// warmup).
    pub(crate) fn new(
        live: &LiveConfig,
        sink: &'s mut dyn MetricsSink,
        cfg: &StreamingSimConfig,
        worlds: usize,
        weights: Option<Vec<f64>>,
    ) -> Self {
        let mut installed = MetricsRegistry::new();
        let ids = obs::metric::install(&mut installed, &cfg.telemetry.clone().unwrap_or_default());
        LivePlane {
            sink,
            regs: vec![installed; worlds],
            ids,
            engine: SloEngine::new(live.slos.clone()),
            warmup: SimTime::ZERO + live.warmup_for(cfg.ramp),
            weights,
            folded: MetricsRegistry::new(),
            samples: 0,
        }
    }

    /// Sample every world in canonical order — read-only, so the
    /// event streams are untouched — stream the exposed registry into
    /// the sink, and feed it to the SLO engine once warmup has passed.
    pub(crate) fn sample(&mut self, boundary: SimTime, worlds: &[Simulation<StreamingSim>]) {
        for (world, reg) in worlds.iter().zip(self.regs.iter_mut()) {
            world.model.live_sample(reg, &self.ids);
        }
        if let Some(weights) = &self.weights {
            let weighted: Vec<(f64, &MetricsRegistry)> =
                weights.iter().copied().zip(&self.regs).collect();
            self.folded = MetricsRegistry::fold(&weighted);
        }
        let exposed = if self.weights.is_some() { &self.folded } else { &self.regs[0] };
        self.samples += 1;
        self.sink.snapshot(boundary, exposed);
        // Strictly after warmup: at the warmup instant itself the QoE
        // gauges still read zero (measurement starts there), which
        // would page every healthy run once at startup.
        if boundary > self.warmup {
            let sums: Vec<Option<[f64; 5]>> =
                worlds.iter().map(|w| w.model.causal_component_sums()).collect();
            for alert in self.engine.observe(boundary, exposed, fold_dominant(&sums)) {
                self.sink.alert(&alert);
            }
        }
    }

    /// The report of a finished run: the exposed registry as of the
    /// last boundary, every alert fired, and the sample count.
    pub(crate) fn into_report(mut self) -> LiveReport {
        let registry = if self.weights.is_some() { self.folded } else { self.regs.swap_remove(0) };
        LiveReport { registry, alerts: self.engine.into_log(), samples: self.samples }
    }
}

/// Fold per-world causal component sums and name the dominant latency
/// component, for alert provenance. `None` when no world has
/// telemetry or nothing has been attributed yet. Summation is
/// order-sensitive in floating point, so callers must pass sums in
/// canonical (ascending shard) order — the same discipline every
/// other cross-shard fold follows.
fn fold_dominant(sums: &[Option<[f64; 5]>]) -> Option<&'static str> {
    let mut total = [0.0f64; 5];
    let mut any = false;
    for s in sums.iter().flatten() {
        for (t, v) in total.iter_mut().zip(s) {
            *t += v;
        }
        any = true;
    }
    if !any || total.iter().all(|v| *v == 0.0) {
        return None;
    }
    let mut best = 0;
    for i in 1..total.len() {
        if total[i] > total[best] {
            best = i;
        }
    }
    Some(COMPONENTS[best])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_warmup_tracks_measurement_window() {
        let live = LiveConfig::default();
        let ramp = SimDuration::from_secs(10);
        assert_eq!(live.warmup_for(ramp), ramp + ramp / 2);
        let pinned = LiveConfig { warmup: Some(SimDuration::from_secs(3)), ..Default::default() };
        assert_eq!(pinned.warmup_for(ramp), SimDuration::from_secs(3));
    }

    #[test]
    fn fold_dominant_sums_in_order() {
        assert_eq!(fold_dominant(&[]), None);
        assert_eq!(fold_dominant(&[None, None]), None);
        assert_eq!(fold_dominant(&[Some([0.0; 5])]), None);
        // l_t dominates only after summation across shards.
        let a = Some([3.0, 0.0, 0.0, 2.0, 0.0]);
        let b = Some([0.5, 0.0, 0.0, 2.0, 0.0]);
        assert_eq!(fold_dominant(&[a, b]), Some("l_t"));
        assert_eq!(fold_dominant(&[a]), Some("l_r"));
    }
}
