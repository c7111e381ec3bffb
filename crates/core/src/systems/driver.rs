//! The one run driver behind every entry point.
//!
//! [`StreamingSim`]'s `run`, `run_instrumented`, `run_split` and
//! `run_live`, and [`ShardedSim`](super::ShardedSim)'s `run`,
//! `run_with_probe` and `run_live`, are all calls into
//! [`Driver::run`]: prepare one world per config, step the worlds
//! through a list of boundary times, then collect each world once into
//! a [`RunOutput`]. Each boundary is one tick in the shape of a
//! server-authoritative game loop (SNIPPETS snippet 3):
//!
//! 1. **apply inputs** — drain each world's inbox of routed
//!    [`BoundaryOp`]s into its event queue at the boundary time;
//! 2. **simulate** — advance every world to the boundary, fanned over
//!    execution lanes ([`cloudfog_pool::for_each_indexed_mut`]:
//!    disjoint `&mut` worlds, so the lane count cannot change any
//!    world's event stream);
//! 3. **exchange** — with more than one world and before the end,
//!    plan cross-shard handoffs from canonical-order pressure
//!    snapshots, sequence them through the [`BoundaryLedger`] and
//!    route them into the inboxes;
//! 4. **live plane** — sample every world and evaluate the SLOs
//!    ([`LivePlane`]), when the plane is on;
//! 5. **probe** — call the caller's probe with the 1-based boundary
//!    index.
//!
//! An event at time `t` runs when `t <= boundary`, the engine's
//! horizon rule, so a zero horizon is the one boundary `t = 0` and
//! still executes the events seeded there. A boundary only pauses the
//! engine loop: a world's event stream is the same for every boundary
//! list that ends at the same horizon, which is what makes
//! `run_split`, `run_live` and every lane count bit-identical to a
//! plain run.

use cloudfog_sim::engine::Simulation;
use cloudfog_sim::live::MetricsSink;
use cloudfog_sim::telemetry::PhaseProfiler;
use cloudfog_sim::time::{SimDuration, SimTime};

use crate::control::{BoundaryLedger, BoundaryOp, BoundaryOpKind};
use crate::coop::{plan_shard_handoffs, ShardExchangePolicy, ShardPressure};
use crate::systems::live::{LiveConfig, LivePlane, LiveReport};
use crate::systems::sharded::{ExchangeStats, ShardSpec};
use crate::systems::simulation::{Ev, RunOutput, StreamingSim, StreamingSimConfig};

/// How one run is driven; [`Driver::run`] steps it.
pub(crate) struct Driver<'a, 's> {
    /// Execution lanes for world setup and stepping.
    pub lanes: usize,
    /// A sharded run's exchange policy and partition; `None` for one
    /// monolithic world. Shards exchange at boundaries and fold their
    /// live registries weighted by resident count; a monolithic run
    /// profiles its phases instead, when telemetry is on.
    pub shards: Option<(&'a ShardExchangePolicy, &'a [ShardSpec])>,
    /// The live ops plane's config and sink, when the plane is on.
    pub live: Option<(&'a LiveConfig, &'s mut dyn MetricsSink)>,
    /// Called after every boundary with its 1-based index.
    pub probe: &'a mut dyn FnMut(u64),
}

/// What a driven run hands back.
pub(crate) struct Driven {
    /// One output per world, in config order.
    pub outputs: Vec<RunOutput>,
    /// Boundary and cross-shard exchange totals.
    pub exchange: ExchangeStats,
    /// The live plane's report, when the plane was on.
    pub live: Option<LiveReport>,
}

impl Driver<'_, '_> {
    /// Prepare one world per config, step them all through
    /// `boundaries` (the last one is the end of the run), and collect
    /// each world once.
    pub(crate) fn run(self, configs: &[StreamingSimConfig], boundaries: &[SimTime]) -> Driven {
        let Driver { lanes, shards, live, probe } = self;
        let mut profiler =
            (shards.is_none() && configs[0].telemetry.is_some()).then(PhaseProfiler::new);
        if let Some(p) = profiler.as_mut() {
            p.enter("setup");
        }
        // World construction (deployment build, join seeding) is the
        // setup-heavy part — fan it over the lanes too. `map_indexed`
        // places results by index, so construction order is
        // lane-invariant.
        let mut worlds = cloudfog_pool::map_indexed(lanes, configs, |_, cfg| {
            StreamingSim::prepared(cfg.clone())
        });
        let mut plane = live.map(|(live, sink)| {
            let weights = shards.map(|(_, specs)| specs.iter().map(|s| s.players as f64).collect());
            LivePlane::new(live, sink, &configs[0], worlds.len(), weights)
        });
        if let Some(p) = profiler.as_mut() {
            p.enter("event_loop");
        }
        let end = *boundaries.last().expect("a run has at least one boundary");
        let mut ledger = BoundaryLedger::new();
        let mut inboxes: Vec<Vec<BoundaryOp>> = vec![Vec::new(); worlds.len()];
        for (index, &boundary) in boundaries.iter().enumerate() {
            // 1. apply inputs
            for (shard, (world, inbox)) in worlds.iter_mut().zip(inboxes.iter_mut()).enumerate() {
                for op in inbox.drain(..) {
                    apply(world, shard as u32, &op);
                }
            }
            // 2. simulate
            cloudfog_pool::for_each_indexed_mut(lanes, &mut worlds, |_, world| {
                world.set_horizon(boundary);
                world.run();
            });
            // 3. exchange
            if let Some((policy, _)) = shards {
                if worlds.len() > 1 && boundary < end {
                    exchange(&worlds, policy, &mut ledger, &mut inboxes, boundary);
                }
            }
            // 4. live plane, 5. probe
            if let Some(plane) = plane.as_mut() {
                plane.sample(boundary, &worlds);
            }
            probe(index as u64 + 1);
        }
        if let Some(p) = profiler.as_mut() {
            p.enter("collect");
        }
        let mut outputs: Vec<RunOutput> = worlds.into_iter().map(StreamingSim::collect).collect();
        if let (Some(mut prof), Some(t)) = (profiler, outputs[0].telemetry.as_mut()) {
            t.set_phases(&mut prof);
        }
        Driven {
            outputs,
            exchange: ExchangeStats {
                boundaries: boundaries.len() as u64,
                hops: ledger.hops(),
                fallbacks: ledger.fallbacks(),
                ops_routed: ledger.sequenced(),
            },
            live: plane.map(LivePlane::into_report),
        }
    }
}

/// Boundaries every `tick` from zero, clamped to `end` and ending
/// there: a 30.5 s horizon at a 1 s tick ends `…, 30 s, 30.5 s`, and a
/// zero horizon is the one boundary `[0]`.
pub(crate) fn ticks(tick: SimDuration, end: SimTime) -> Vec<SimTime> {
    let mut boundaries = Vec::new();
    let mut now = SimTime::ZERO;
    loop {
        now = (now + tick).min(end);
        boundaries.push(now);
        if now >= end {
            return boundaries;
        }
    }
}

/// Apply one routed boundary op to shard `me`: seed the events this
/// shard is responsible for at the boundary time. A `Hop` seeds a
/// `Leave` in its source shard and a `Join` in its destination (`Join`
/// on an active resident is a no-op, `Leave` on an idle one likewise,
/// so a stale op cannot corrupt a world).
fn apply(world: &mut Simulation<StreamingSim>, me: u32, op: &BoundaryOp) {
    match op.kind {
        BoundaryOpKind::Hop { depart, arrive } => {
            if op.from_shard == me {
                world.seed_at(op.at, Ev::Leave(depart));
            }
            if op.to_shard == me {
                world.seed_at(op.at, Ev::Join(arrive));
            }
        }
        BoundaryOpKind::CloudFallback { player } => {
            if op.from_shard == me {
                world.seed_at(op.at, Ev::Leave(player));
            }
        }
    }
}

/// Tick-boundary maintenance of a sharded run: snapshot every world's
/// [`ShardPressure`] in canonical shard order, plan handoffs with the
/// pure [`plan_shard_handoffs`], sequence them through the ledger, and
/// route them sorted by `(destination, sequence)` — a total order
/// independent of which lane simulated which shard.
fn exchange(
    worlds: &[Simulation<StreamingSim>],
    policy: &ShardExchangePolicy,
    ledger: &mut BoundaryLedger,
    inboxes: &mut [Vec<BoundaryOp>],
    boundary: SimTime,
) {
    let pressures: Vec<ShardPressure> = worlds
        .iter()
        .map(|w| {
            let (active, residents, backlog) = w.model.boundary_pressure();
            ShardPressure { active, residents, backlog }
        })
        .collect();
    for handoff in plan_shard_handoffs(&pressures, policy) {
        let departs = worlds[handoff.from].model.departure_candidates(handoff.count);
        let arrives = worlds[handoff.to].model.arrival_candidates(departs.len());
        for (i, depart) in departs.iter().enumerate() {
            match arrives.get(i) {
                Some(arrive) => ledger.push(
                    handoff.from as u32,
                    handoff.to as u32,
                    boundary,
                    BoundaryOpKind::Hop { depart: *depart, arrive: *arrive },
                ),
                None => ledger.push(
                    handoff.from as u32,
                    handoff.from as u32,
                    boundary,
                    BoundaryOpKind::CloudFallback { player: *depart },
                ),
            }
        }
    }
    for op in ledger.drain_routed() {
        inboxes[op.to_shard as usize].push(op);
        if op.from_shard != op.to_shard {
            inboxes[op.from_shard as usize].push(op);
        }
    }
}
