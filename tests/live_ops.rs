//! Live ops plane contracts: zero perturbation, byte-determinism and
//! lane invariance.
//!
//! The plane is pull-based — drivers sample read-only state at tick
//! boundaries — so three things must hold and are pinned here:
//!
//! 1. **Zero perturbation**: a live run's `RunOutput` (and a sharded
//!    live run's fingerprint) is identical to the plain run on the
//!    same config. Observability must not be able to change the
//!    experiment.
//! 2. **Byte determinism**: same seed ⇒ byte-identical Prometheus
//!    exposition, JSONL sample stream and alert log.
//! 3. **Lane invariance**: the sharded fold runs sequentially in
//!    canonical shard order, so the merged registry and the alert log
//!    are identical for 1 vs N lanes — the live analogue of
//!    `tests/shard_identity.rs`.
//!
//! Plus the harness face: live cells carry alerts as facts and the
//! stock `slo.burn_rate_bounded` invariant accepts everything the
//! engine actually fires.

use cloudfog::core::systems::{
    LiveConfig, ShardedSim, ShardedSimConfig, StreamingSim, StreamingSimConfig, SystemKind,
};
use cloudfog::harness::prelude::*;
use cloudfog::sim::live::{JsonlEncoder, NullSink, PrometheusEncoder, SloObjective, SloSpec};
use cloudfog::sim::time::{SimDuration, SimTime};

fn mono_config() -> StreamingSimConfig {
    StreamingSimConfig::builder(SystemKind::CloudFogA)
        .players(150)
        .seed(11)
        .ramp(SimDuration::from_secs(5))
        .horizon(SimDuration::from_secs(30))
        .telemetry(cloudfog::sim::telemetry::TelemetryConfig::default())
        .build()
}

fn sharded_config(lanes: usize) -> ShardedSimConfig {
    ShardedSimConfig::builder(SystemKind::CloudFogA)
        .total_players(300)
        .shard_capacity(100)
        .seed(1)
        .ramp(SimDuration::from_secs(8))
        .horizon(SimDuration::from_secs(40))
        .tick(SimDuration::from_secs(2))
        .lanes(lanes)
        .chaos(true)
        .churn(true)
        .telemetry(cloudfog::sim::telemetry::TelemetryConfig::default())
        .build()
}

#[test]
fn live_run_output_is_identical_to_plain_run() {
    // (horizon, boundaries sampled at the 1 s tick): zero horizon is
    // one boundary at t = 0 whose events still run, as in a plain
    // run; 30.5 s is not a whole number of ticks.
    let table = [
        (SimDuration::ZERO, 1),
        (SimDuration::from_secs(30), 30),
        (SimDuration::from_millis(30_500), 31),
    ];
    let live = LiveConfig::default();
    for (horizon, samples) in table {
        let config = || StreamingSimConfig { horizon, ..mono_config() };
        let (out, report) = StreamingSim::run_live(config(), &live, &mut NullSink);
        let plain = StreamingSim::run_instrumented(config());
        assert_eq!(out.summary, plain.summary, "live sampling perturbed the run at {horizon:?}");
        assert_eq!(out.causal, plain.causal, "causal report differs at {horizon:?}");
        assert!(plain.summary.events > 0, "the t = 0 events run at {horizon:?}");
        assert_eq!(report.samples, samples, "boundaries sampled at {horizon:?}");
        // Sampled gauges land where the final summary lands.
        let cont = report.registry.gauge_value("qoe.continuity").expect("vocabulary installed");
        assert!((cont - plain.summary.mean_continuity).abs() < 1e-9, "continuity at {horizon:?}");
    }
}

#[test]
fn sharded_live_output_is_identical_to_plain_sharded_run() {
    let cfg = sharded_config(2);
    let live = LiveConfig::default();
    let (out, report) = ShardedSim::run_live(&cfg, &live, &mut NullSink);
    let plain = ShardedSim::run(&cfg);
    assert_eq!(out.fingerprint, plain.fingerprint, "live sampling perturbed the sharded run");
    assert_eq!(out.summary, plain.summary);
    assert_eq!(out.exchange, plain.exchange);
    assert!(report.samples > 0);
}

#[test]
fn exposition_and_alert_log_are_byte_identical_across_same_seed_runs() {
    let run = || {
        let mut prom = PrometheusEncoder::new();
        let (_, _) = StreamingSim::run_live(mono_config(), &LiveConfig::default(), &mut prom);
        let mut jsonl = JsonlEncoder::new();
        let (_, report) = StreamingSim::run_live(mono_config(), &LiveConfig::default(), &mut jsonl);
        (prom.into_text(), jsonl.into_text(), report.alerts.to_jsonl())
    };
    let (prom_a, jsonl_a, alerts_a) = run();
    let (prom_b, jsonl_b, alerts_b) = run();
    assert!(!prom_a.is_empty() && !jsonl_a.is_empty());
    assert_eq!(prom_a, prom_b, "Prometheus exposition must be byte-deterministic");
    assert_eq!(jsonl_a, jsonl_b, "JSONL stream must be byte-deterministic");
    assert_eq!(alerts_a, alerts_b, "alert log must be byte-deterministic");
}

#[test]
fn sharded_live_registry_and_alerts_are_lane_invariant() {
    let run = |lanes: usize| {
        let mut jsonl = JsonlEncoder::new();
        let (out, report) =
            ShardedSim::run_live(&sharded_config(lanes), &LiveConfig::default(), &mut jsonl);
        (out.fingerprint, report.registry.clone(), report.alerts.to_jsonl(), jsonl.into_text())
    };
    let (fp1, reg1, alerts1, jsonl1) = run(1);
    for lanes in [2, 4, 7] {
        let (fp, reg, alerts, jsonl) = run(lanes);
        assert_eq!(fp1, fp, "fingerprint diverged at {lanes} lanes");
        assert_eq!(reg1, reg, "merged registry diverged at {lanes} lanes");
        assert_eq!(alerts1, alerts, "alert log diverged at {lanes} lanes");
        assert_eq!(jsonl1, jsonl, "exposition diverged at {lanes} lanes");
    }
    // The chaos + churn run actually exercises the alert path.
    assert!(!alerts1.is_empty(), "chaos run should fire at least one alert");
}

#[test]
fn no_alerts_fire_before_warmup() {
    let live = LiveConfig {
        warmup: Some(SimDuration::from_secs(3600)), // beyond the horizon
        ..LiveConfig::default()
    };
    let (_, report) = ShardedSim::run_live(&sharded_config(1), &live, &mut NullSink);
    assert!(report.alerts.is_empty(), "warmup past the horizon must suppress every alert");
    assert!(report.samples > 0, "samples are still taken during warmup");
}

#[test]
fn alerts_carry_spec_windows_and_bounded_burn() {
    let live = LiveConfig::default();
    let (_, report) = ShardedSim::run_live(&sharded_config(1), &live, &mut NullSink);
    assert!(!report.alerts.is_empty());
    for alert in report.alerts.alerts() {
        let spec = live.slos.iter().find(|s| s.name == alert.slo).expect("declared SLO");
        assert_eq!(alert.fast_window, spec.fast_window);
        assert_eq!(alert.slow_window, spec.slow_window);
        for (burn, threshold) in
            [(alert.fast_burn, spec.fast_burn), (alert.slow_burn, spec.slow_burn)]
        {
            assert!(burn.is_finite() && burn >= threshold && burn <= spec.max_burn());
        }
        assert!(alert.at > SimTime::ZERO);
    }
}

#[test]
fn harness_records_alerts_as_facts_and_stock_invariant_accepts_them() {
    // A deliberately breachable SLO so even a clean cell alerts:
    // continuity can never reach 2.0.
    let impossible = SloSpec {
        name: "slo.test_impossible",
        objective: SloObjective::GaugeAtLeast { metric: "qoe.continuity", target: 2.0 },
        budget: 0.5,
        fast_window: 2,
        slow_window: 4,
        fast_burn: 1.5,
        slow_burn: 1.0,
    };
    let mut live = LiveConfig::default();
    live.slos.push(impossible);
    let scenarios = ScenarioMatrix::new()
        .systems(&[SystemKind::CloudFogA])
        .seeds([11])
        .players(&[120])
        .horizon(SimDuration::from_secs(20))
        .live(live)
        .build();
    let registry = InvariantRegistry::stock();
    assert!(registry.names().contains(&"slo.burn_rate_bounded"));
    let (report, violations) = cloudfog::harness::exec::run_matrix(&scenarios, &registry, 2);
    assert_eq!(report.len(), 1);
    let cell = report.cells().next().unwrap();
    assert!(
        cell.alerts.iter().any(|a| a.slo == "slo.test_impossible"),
        "the impossible SLO must fire and land on the cell as a fact"
    );
    let slo_violations: Vec<_> =
        violations.iter().filter(|v| v.invariant == "slo.burn_rate_bounded").collect();
    assert!(
        slo_violations.is_empty(),
        "engine-fired alerts must satisfy the stock burn-rate invariant: {slo_violations:?}"
    );
}

#[test]
fn live_off_cells_carry_no_alerts() {
    let scenarios = ScenarioMatrix::new()
        .systems(&[SystemKind::CloudFogA])
        .seeds([3])
        .players(&[100])
        .horizon(SimDuration::from_secs(15))
        .build();
    let (report, _) =
        cloudfog::harness::exec::run_matrix(&scenarios, &InvariantRegistry::stock(), 1);
    assert!(report.cells().all(|c| c.alerts.is_empty()));
}
