//! The traced run: per-layer metrics, timed around calls into each
//! layer's public functions from this file. Nothing inside the
//! simulator is instrumented.
//!
//! * `hot600` — the engine. `<StreamingSim as Model>::handle` is
//!   replayed through [`Traced`], a wrapper `Model` that passes the
//!   engine's `Scheduler` straight through and times each handler by
//!   event kind; `StreamingSim::run_split` gives the untraced loop.
//! * `scale20k` — shards and pool, through the epoch probe of
//!   `ShardedSim::run_with_probe`, at `nproc` lanes and at 1 lane.
//! * `flash400` — the planes, through the `MetricsSink::snapshot`
//!   callbacks of `StreamingSim::run_live` and by toggling each plane
//!   alone against a run with every plane off.
//!
//! Every workload also times `Deployment::build` for each deployment
//! its run builds.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cloudfog_core::systems::simulation::Ev;
use cloudfog_core::systems::{
    partition, Deployment, LiveConfig, ShardedSim, StreamingSim, StreamingSimConfig,
};
use cloudfog_sim::engine::{Model, Scheduler, Simulation};
use cloudfog_sim::event::EventQueue;
use cloudfog_sim::live::{MetricsRegistry, MetricsSink, NullSink};
use cloudfog_sim::time::SimTime;
use cloudfog_workload::player::PlayerId;

use crate::e2e::{check_summary, setup_universe};
use crate::report::{Outcome, EVENT_KINDS};
use crate::stats::{max, mean, median, quantile};
use crate::workloads::{self, Length, Planes, Workload};

/// Live ticks needed before `live.tick_ms_p90` is reported.
const MIN_TICKS_FOR_P90: usize = 100;

/// The traced run of `w` for `--seed seed`: universes of the panel in
/// order until `seconds` have elapsed (at least one).
pub fn measure(w: Workload, seed: u64, seconds: f64, len: &Length, lanes: usize) -> Outcome {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let universes = (0..len.panel.max(1))
        .cycle()
        .enumerate()
        .map(|(i, k)| (i, w.universe_seed(seed, k)))
        .take_while(|&(i, _)| i == 0 || start.elapsed() < budget)
        .map(|(_, u)| u);
    match w {
        Workload::Hot600 => trace_hot600(universes, len),
        Workload::Scale20k => trace_scale20k(universes, len, lanes),
        Workload::Flash400 => trace_flash400(universes, len, lanes),
    }
}

/// Seconds between two instants.
fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Milliseconds `Deployment::build` takes for `cfg`.
fn time_deployment_build(cfg: &StreamingSimConfig) -> f64 {
    let start = Instant::now();
    black_box(Deployment::build(
        cfg.kind,
        &cfg.profile,
        cfg.seed,
        cfg.datacenter_override,
        cfg.supernode_override,
    ));
    start.elapsed().as_secs_f64() * 1e3
}

/// Index into [`EVENT_KINDS`] of `ev`.
fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::Join(_) => 0,
        Ev::Action(_) => 1,
        Ev::Enqueue(_) => 2,
        Ev::StartTx(_) => 3,
        Ev::Deliver { .. } => 4,
        Ev::Leave(_) => 5,
        _ => 6,
    }
}

/// A `Model` that hands every event to the wrapped [`StreamingSim`]
/// with the engine's own `Scheduler`, timing each call and reading the
/// pending-event depth before it.
struct Traced {
    inner: StreamingSim,
    counts: [u64; EVENT_KINDS.len()],
    nanos: [u64; EVENT_KINDS.len()],
    pending_peak: usize,
    pending_sum: u64,
}

impl Traced {
    fn new(inner: StreamingSim) -> Self {
        Traced {
            inner,
            counts: [0; EVENT_KINDS.len()],
            nanos: [0; EVENT_KINDS.len()],
            pending_peak: 0,
            pending_sum: 0,
        }
    }
}

impl Model for Traced {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<'_, Ev, EventQueue<Ev>>) {
        let kind = kind_of(&event);
        let pending = sched.pending();
        self.pending_peak = self.pending_peak.max(pending);
        self.pending_sum += pending as u64;
        let start = Instant::now();
        self.inner.handle(event, sched);
        self.nanos[kind] += start.elapsed().as_nanos() as u64;
        self.counts[kind] += 1;
    }
}

/// Replay `cfg` through [`Traced`]. The seeding mirrors what
/// `StreamingSim::run` does for a ramp-join config with churn, chaos
/// and prefetch off — `hot600`'s shape. Returns the finished model
/// and the host seconds of its event loop.
fn replay_traced(cfg: StreamingSimConfig) -> (Traced, u64, f64) {
    let players = cfg.profile.population.players;
    let ramp = cfg.ramp;
    let horizon = cfg.horizon;
    let mut sim =
        Simulation::new(Traced::new(StreamingSim::new(cfg))).with_horizon(SimTime::ZERO + horizon);
    for p in 0..players {
        let at = ramp.mul_f64(p as f64 / players.max(1) as f64);
        sim.seed_at(SimTime::ZERO + at, Ev::Join(PlayerId(p as u32)));
    }
    let start = Instant::now();
    let report = sim.run();
    let loop_s = start.elapsed().as_secs_f64();
    (sim.model, report.events_executed, loop_s)
}

fn trace_hot600(universes: impl Iterator<Item = u64>, len: &Length) -> Outcome {
    let mut outcome = Outcome::new();
    let (mut build_ms, mut loops, mut folds, mut traced_loops) = (vec![], vec![], vec![], vec![]);
    let (mut events, mut drops) = (vec![], vec![]);
    let mut counts = [0u64; EVENT_KINDS.len()];
    let mut nanos = [0u64; EVENT_KINDS.len()];
    let (mut pending_peak, mut pending_sum, mut traced_events) = (0usize, 0u64, 0u64);
    let mut n = 0usize;
    for u in universes {
        n += 1;
        let cfg = workloads::hot600(u, len);
        build_ms.push(time_deployment_build(&cfg));

        let mut stamps = Vec::with_capacity(2);
        let summary = StreamingSim::run_split(cfg.clone(), SimTime::ZERO, &mut || {
            stamps.push(Instant::now())
        });
        let returned = Instant::now();
        loops.push(secs(stamps[0], stamps[1]));
        folds.push(secs(stamps[1], returned));
        events.push(summary.events as f64);
        drops.push(summary.scheduler_drops as f64);

        let (model, replayed, traced_loop) = replay_traced(cfg);
        traced_loops.push(traced_loop);
        traced_events += replayed;
        for k in 0..EVENT_KINDS.len() {
            counts[k] += model.counts[k];
            nanos[k] += model.nanos[k];
        }
        pending_peak = pending_peak.max(model.pending_peak);
        pending_sum += model.pending_sum;

        let mut problems = check_summary(Workload::Hot600, &summary);
        if replayed != summary.events {
            problems.push(format!(
                "traced replay ran {replayed} events, untraced run {}",
                summary.events
            ));
        }
        outcome.check(&format!("hot600 seed {u} traced"), problems);
    }
    let handler_ns: u64 = nanos.iter().sum();
    let traced_ns = traced_loops.iter().sum::<f64>() * 1e9;
    let per_universe = |total: u64| total as f64 / n as f64;
    let v = &mut outcome.values;
    v.set("deployment.build_ms", median(&build_ms));
    v.set("phase.loop_s", median(&loops));
    v.set("phase.fold_s", median(&folds));
    v.set("engine.events", mean(&events));
    v.set("engine.events_per_s", events.iter().sum::<f64>() / loops.iter().sum::<f64>());
    v.set(
        "engine.dispatch_ns_per_event",
        (traced_ns - handler_ns as f64) / traced_events.max(1) as f64,
    );
    v.set("queue.pending_peak", pending_peak as f64);
    v.set("queue.pending_mean", pending_sum as f64 / traced_events.max(1) as f64);
    for (k, (events_name, handler_name)) in EVENT_KINDS.into_iter().enumerate() {
        v.set(events_name, per_universe(counts[k]));
        let ns = if counts[k] == 0 { 0.0 } else { nanos[k] as f64 / counts[k] as f64 };
        v.set(handler_name, ns);
    }
    v.set("schedule.drops", mean(&drops));
    v.set("trace.overhead_ratio", traced_loops.iter().sum::<f64>() / loops.iter().sum::<f64>());
    outcome
}

/// One probed sharded run: epoch boundaries stamped by the probe.
struct ProbedShardRun {
    out: cloudfog_core::systems::ShardedRunOutput,
    /// Event loop: call to the last boundary, less the set-up estimate.
    loop_s: f64,
    /// Last boundary to return.
    fold_s: f64,
    /// Call to return.
    wall_s: f64,
    /// Host milliseconds of each epoch (the first less the set-up
    /// estimate).
    epoch_ms: Vec<f64>,
}

fn probed_shard_run(u: u64, len: &Length, lanes: usize, setup_s: f64) -> ProbedShardRun {
    let cfg = workloads::scale20k(u, len, lanes);
    let mut stamps = Vec::new();
    let called = Instant::now();
    let out = ShardedSim::run_with_probe(&cfg, &mut |_| stamps.push(Instant::now()));
    let returned = Instant::now();
    let last = stamps.last().copied().unwrap_or(returned);
    let mut epoch_ms = Vec::with_capacity(stamps.len());
    let mut prev = called;
    for (i, &s) in stamps.iter().enumerate() {
        let ms = secs(prev, s) * 1e3 - if i == 0 { setup_s * 1e3 } else { 0.0 };
        epoch_ms.push(ms.max(0.0));
        prev = s;
    }
    ProbedShardRun {
        out,
        loop_s: (secs(called, last) - setup_s).max(0.0),
        fold_s: secs(last, returned),
        wall_s: secs(called, returned),
        epoch_ms,
    }
}

fn trace_scale20k(universes: impl Iterator<Item = u64>, len: &Length, lanes: usize) -> Outcome {
    let w = Workload::Scale20k;
    let mut outcome = Outcome::new();
    let (mut build_ms, mut loops, mut folds, mut loops_1) = (vec![], vec![], vec![], vec![]);
    let (mut events, mut drops, mut imbalance, mut epoch_ms) = (vec![], vec![], vec![], vec![]);
    let (mut probed_walls, mut plain_walls, mut epochs) = (vec![], vec![], vec![]);
    let (mut hops, mut fallbacks, mut routed) = (vec![], vec![], vec![]);
    for u in universes {
        let cfg = workloads::scale20k(u, len, lanes);
        // Each world's deployment, configured as `ShardedSim` configures
        // a world with chaos, churn, telemetry and prefetch off.
        let start = Instant::now();
        for spec in partition(cfg.total_players, cfg.shard_capacity, cfg.seed) {
            let world = StreamingSimConfig::builder(cfg.kind)
                .players(spec.players)
                .seed(spec.seed)
                .ramp(cfg.ramp)
                .horizon(cfg.horizon)
                .segment_id_base(spec.segment_id_base)
                .build();
            black_box(Deployment::build(world.kind, &world.profile, world.seed, None, None));
        }
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let run = probed_shard_run(u, len, lanes, setup_universe(w, u, len, lanes));
        let one = probed_shard_run(u, len, 1, setup_universe(w, u, len, 1));
        let plain = Instant::now();
        black_box(ShardedSim::run(&cfg));
        plain_walls.push(plain.elapsed().as_secs_f64());

        let mut problems = check_summary(w, &run.out.summary);
        if run.out.fingerprint != one.out.fingerprint {
            problems.push(format!(
                "fingerprint {:x} at 1 lane, {:x} at {lanes} lanes",
                one.out.fingerprint, run.out.fingerprint
            ));
        }
        outcome.check(&format!("scale20k seed {u} traced"), problems);

        let cell_events: Vec<f64> = run.out.cells.iter().map(|c| c.summary.events as f64).collect();
        imbalance.push(max(&cell_events) / mean(&cell_events).max(1.0));
        loops.push(run.loop_s);
        loops_1.push(one.loop_s);
        folds.push(run.fold_s);
        probed_walls.push(run.wall_s);
        epochs.push(run.epoch_ms.len() as f64);
        epoch_ms.extend_from_slice(&run.epoch_ms);
        events.push(run.out.summary.events as f64);
        drops.push(run.out.summary.scheduler_drops as f64);
        hops.push(run.out.exchange.hops as f64);
        fallbacks.push(run.out.exchange.fallbacks as f64);
        routed.push(run.out.exchange.ops_routed as f64);
    }
    let loop_total: f64 = loops.iter().sum();
    let v = &mut outcome.values;
    v.set("deployment.build_ms", median(&build_ms));
    v.set("phase.loop_s", median(&loops));
    v.set("phase.fold_s", median(&folds));
    v.set("engine.events", mean(&events));
    v.set("engine.events_per_s", events.iter().sum::<f64>() / loop_total);
    v.set("schedule.drops", mean(&drops));
    v.set("shard.epochs", mean(&epochs));
    v.set("shard.epoch_ms_p50", median(&epoch_ms));
    v.set("shard.epoch_ms_max", max(&epoch_ms));
    v.set("shard.lane_efficiency", loops_1.iter().sum::<f64>() / (lanes as f64 * loop_total));
    v.set("shard.event_imbalance", mean(&imbalance));
    v.set("shard.exchange.hops", mean(&hops));
    v.set("shard.exchange.fallbacks", mean(&fallbacks));
    v.set("shard.exchange.ops_routed", mean(&routed));
    v.set(
        "trace.overhead_ratio",
        probed_walls.iter().sum::<f64>() / plain_walls.iter().sum::<f64>(),
    );
    outcome
}

/// A sink that only stamps the host time of each live tick.
#[derive(Default)]
struct TickClock {
    stamps: Vec<Instant>,
}

impl MetricsSink for TickClock {
    fn snapshot(&mut self, _at: SimTime, _registry: &MetricsRegistry) {
        self.stamps.push(Instant::now());
    }
}

/// Host seconds of `StreamingSim::run_instrumented` on `cfg`.
fn instrumented_wall(cfg: StreamingSimConfig) -> f64 {
    let start = Instant::now();
    black_box(StreamingSim::run_instrumented(cfg));
    start.elapsed().as_secs_f64()
}

/// The planes `plane.<name>.cost` toggles alone, with the config
/// change that turns each on (the live plane is the entry point).
const CONFIG_PLANES: [(&str, Planes); 4] = [
    ("plane.telemetry.cost", Planes { telemetry: true, ..Planes::NONE }),
    ("plane.prefetch.cost", Planes { prefetch: true, ..Planes::NONE }),
    ("plane.churn.cost", Planes { churn: true, ..Planes::NONE }),
    ("plane.chaos.cost", Planes { chaos: true, ..Planes::NONE }),
];

fn trace_flash400(universes: impl Iterator<Item = u64>, len: &Length, lanes: usize) -> Outcome {
    let w = Workload::Flash400;
    let live = LiveConfig::default();
    let mut outcome = Outcome::new();
    let (mut build_ms, mut loops, mut folds, mut tick_ms) = (vec![], vec![], vec![], vec![]);
    let (mut events, mut drops, mut alerts) = (vec![], vec![], vec![]);
    let (mut traced_walls, mut plain_walls) = (vec![], vec![]);
    let (mut base_walls, mut live_walls) = (vec![], vec![]);
    let mut plane_walls: [Vec<f64>; CONFIG_PLANES.len()] = Default::default();
    let (mut sessions, mut retries, mut expired, mut shed) = (vec![], vec![], vec![], vec![]);
    let (mut hit_rate, mut encode_retries, mut predeploys) = (vec![], vec![], vec![]);
    let (mut trace_dropped, mut dip_ms, mut recovery_s) = (vec![], vec![], vec![]);
    let never = (len.horizon.as_secs_f64() - workloads::SPIKE_AT.as_secs_f64()).max(0.0);
    for u in universes {
        let cfg = workloads::flash400(u, len, Planes::ALL);
        build_ms.push(time_deployment_build(&cfg));
        let setup_s = setup_universe(w, u, len, lanes);

        let mut clock = TickClock::default();
        let called = Instant::now();
        let (out, report) = StreamingSim::run_live(cfg.clone(), &live, &mut clock);
        let returned = Instant::now();
        let last = clock.stamps.last().copied().unwrap_or(returned);
        loops.push((secs(called, last) - setup_s).max(0.0));
        folds.push(secs(last, returned));
        traced_walls.push(secs(called, returned));
        tick_ms.extend(clock.stamps.windows(2).map(|p| secs(p[0], p[1]) * 1e3));

        let plain = Instant::now();
        black_box(StreamingSim::run_live(cfg, &live, &mut NullSink));
        plain_walls.push(plain.elapsed().as_secs_f64());

        let base = workloads::flash400(u, len, Planes::NONE);
        base_walls.push(instrumented_wall(base.clone()));
        let start = Instant::now();
        black_box(StreamingSim::run_live(base, &live, &mut NullSink));
        live_walls.push(start.elapsed().as_secs_f64());
        for (walls, (_, planes)) in plane_walls.iter_mut().zip(CONFIG_PLANES) {
            walls.push(instrumented_wall(workloads::flash400(u, len, planes)));
        }

        let mut problems = check_summary(w, &out.summary);
        if report.samples == 0 {
            problems.push("the live plane took no samples".into());
        }
        let churn = out.churn.unwrap_or_else(|| {
            problems.push("churn plane produced no stats".into());
            Default::default()
        });
        let prefetch = out.prefetch.unwrap_or_else(|| {
            problems.push("prefetch plane produced no stats".into());
            Default::default()
        });
        match &out.telemetry {
            Some(t) => trace_dropped.push(t.trace_dropped as f64),
            None => problems.push("telemetry plane produced no report".into()),
        }
        match &out.series {
            Some(series) => {
                let spike = series.latency_ms.spike_report(
                    SimTime::ZERO + workloads::SPIKE_AT,
                    workloads::RECOVERY_TOLERANCE_MS,
                );
                dip_ms.push(spike.spike_height);
                recovery_s.push(spike.recovery_secs_or(never));
            }
            None => problems.push("no QoE series recorded".into()),
        }
        outcome.check(&format!("flash400 seed {u} traced"), problems);

        events.push(out.summary.events as f64);
        drops.push(out.summary.scheduler_drops as f64);
        alerts.push(report.alerts.len() as f64);
        sessions.push(churn.sessions_started as f64);
        retries.push(churn.control_retries as f64);
        expired.push(churn.control_expired as f64);
        shed.push(churn.admitted_shed as f64);
        hit_rate.push(prefetch.hit_rate());
        encode_retries.push(prefetch.encode_retries as f64);
        predeploys.push(prefetch.predeploys_issued as f64);
    }
    let base_total: f64 = base_walls.iter().sum();
    let v = &mut outcome.values;
    v.set("deployment.build_ms", median(&build_ms));
    v.set("phase.loop_s", median(&loops));
    v.set("phase.fold_s", median(&folds));
    v.set("engine.events", mean(&events));
    v.set("engine.events_per_s", events.iter().sum::<f64>() / loops.iter().sum::<f64>());
    v.set("schedule.drops", mean(&drops));
    for ((name, _), walls) in CONFIG_PLANES.iter().zip(&plane_walls) {
        v.set(name, walls.iter().sum::<f64>() / base_total);
    }
    v.set("plane.live.cost", live_walls.iter().sum::<f64>() / base_total);
    v.set("live.tick_ms_p50", median(&tick_ms));
    if tick_ms.len() >= MIN_TICKS_FOR_P90 {
        v.set("live.tick_ms_p90", quantile(&tick_ms, 0.9));
    }
    v.set("live.alerts", mean(&alerts));
    v.set("churn.sessions_started", mean(&sessions));
    v.set("churn.control_retries", mean(&retries));
    v.set("churn.control_expired", mean(&expired));
    v.set("churn.admitted_shed", mean(&shed));
    v.set("prefetch.hit_rate", mean(&hit_rate));
    v.set("prefetch.encode_retries", mean(&encode_retries));
    v.set("prefetch.predeploys_issued", mean(&predeploys));
    v.set("telemetry.trace_dropped", mean(&trace_dropped));
    v.set("flash.dip_ms", mean(&dip_ms));
    v.set("flash.recovery_s", mean(&recovery_s));
    v.set(
        "trace.overhead_ratio",
        traced_walls.iter().sum::<f64>() / plain_walls.iter().sum::<f64>(),
    );
    outcome
}
