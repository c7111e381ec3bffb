//! The untraced run: end-to-end metrics, measured through the
//! simulator's ordinary entry points with nothing wrapped.
//!
//! * `wall_s` — call to return of the workload's entry point: the
//!   fastest of several visits to each timed universe, averaged over
//!   the timed universes and scaled to the reference calibration score
//!   (see [`measure`] for why).
//! * `setup_s` — the same entry point with the horizon cut to zero
//!   (deployment build, model construction and event seeding; no
//!   simulated time elapses): the fastest call per timed universe, the
//!   median over the timed universes, scaled like `wall_s`.
//! * `peak_heap_mib` — the live-heap high-water mark of one run: the
//!   median over visits of each timed universe, median over them.
//! * `qoe.*`, `cloud_mbps` — the panel mean of each universe's
//!   [`RunSummary`], deterministic per `--seed`.

use std::time::{Duration, Instant};

use cloudfog_core::systems::{LiveConfig, RunSummary, ShardedSim, StreamingSim};
use cloudfog_sim::live::NullSink;

use crate::host;
use crate::report::Outcome;
use crate::stats::{mean, median};
use crate::workloads::{self, Length, Planes, Workload};

/// What one universe's run produced.
pub struct UniverseRun {
    /// Call to return of the entry point (s).
    pub wall_s: f64,
    /// The run's summary (sharded: the merged summary).
    pub summary: RunSummary,
    /// Sharded runs: the merge fingerprint.
    pub fingerprint: Option<u64>,
    /// Sharded runs: what the shard cells add up to.
    pub shard_problems: Vec<String>,
}

/// Run universe `seed` of workload `w` through its entry point:
/// `StreamingSim::run` (`hot600`), `ShardedSim::run` (`scale20k`) or
/// `StreamingSim::run_live` at a 1 s tick (`flash400`).
pub fn run_universe(w: Workload, seed: u64, len: &Length, lanes: usize) -> UniverseRun {
    match w {
        Workload::Hot600 => {
            let cfg = workloads::hot600(seed, len);
            let start = Instant::now();
            let summary = StreamingSim::run(cfg);
            let wall_s = start.elapsed().as_secs_f64();
            UniverseRun { wall_s, summary, fingerprint: None, shard_problems: Vec::new() }
        }
        Workload::Scale20k => {
            let cfg = workloads::scale20k(seed, len, lanes);
            let start = Instant::now();
            let out = ShardedSim::run(&cfg);
            let wall_s = start.elapsed().as_secs_f64();
            let mut shard_problems = Vec::new();
            if out.cells.len() != cfg.shard_count() {
                shard_problems.push(format!(
                    "{} shard cells, expected {}",
                    out.cells.len(),
                    cfg.shard_count()
                ));
            }
            let residents: usize = out.cells.iter().map(|c| c.summary.players).sum();
            if residents != w.players() {
                shard_problems
                    .push(format!("shards hold {residents} players, asked {}", w.players()));
            }
            UniverseRun {
                wall_s,
                summary: out.summary,
                fingerprint: Some(out.fingerprint),
                shard_problems,
            }
        }
        Workload::Flash400 => {
            let cfg = workloads::flash400(seed, len, Planes::ALL);
            let live = LiveConfig::default();
            let start = Instant::now();
            let (out, _) = StreamingSim::run_live(cfg, &live, &mut NullSink);
            let wall_s = start.elapsed().as_secs_f64();
            UniverseRun {
                wall_s,
                summary: out.summary,
                fingerprint: None,
                shard_problems: Vec::new(),
            }
        }
    }
}

/// Host seconds the entry point of universe `seed` takes with its
/// horizon cut to zero.
pub fn setup_universe(w: Workload, seed: u64, len: &Length, lanes: usize) -> f64 {
    let start = Instant::now();
    match w {
        Workload::Hot600 => {
            std::hint::black_box(StreamingSim::run(workloads::setup_only(workloads::hot600(
                seed, len,
            ))));
        }
        Workload::Scale20k => {
            let mut cfg = workloads::scale20k(seed, len, lanes);
            cfg.horizon = cloudfog_sim::time::SimDuration::ZERO;
            std::hint::black_box(ShardedSim::run(&cfg));
        }
        Workload::Flash400 => {
            let cfg = workloads::setup_only(workloads::flash400(seed, len, Planes::ALL));
            std::hint::black_box(StreamingSim::run_live(
                cfg,
                &LiveConfig::default(),
                &mut NullSink,
            ));
        }
    }
    start.elapsed().as_secs_f64()
}

/// What the output checks found wrong with one universe's summary:
/// the population must be exactly what the workload asked for, and
/// every QoE value finite and in range.
pub fn check_summary(w: Workload, s: &RunSummary) -> Vec<String> {
    let mut problems = Vec::new();
    if s.players != w.players() {
        problems.push(format!("simulated {} players, asked {}", s.players, w.players()));
    }
    if s.events == 0 {
        problems.push("no events executed".into());
    }
    let unit = |name: &str, v: f64, problems: &mut Vec<String>| {
        if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
            problems.push(format!("{name} = {v} is outside [0, 1]"));
        }
    };
    unit("satisfied_ratio", s.satisfied_ratio, &mut problems);
    unit("mean_continuity", s.mean_continuity, &mut problems);
    if !(s.mean_latency_ms.is_finite() && s.mean_latency_ms > 0.0) {
        problems.push(format!("mean_latency_ms = {} is not a positive number", s.mean_latency_ms));
    }
    if !(s.cloud_mbps.is_finite() && s.cloud_mbps >= 0.0) {
        problems.push(format!("cloud_mbps = {} is not a non-negative number", s.cloud_mbps));
    }
    problems
}

/// The untraced run of `w` for `--seed seed`: one pass over the
/// panel for QoE, then repeats of the first `len.timed` universes, in
/// turn, until `seconds` have elapsed. Each visit to a timed universe
/// takes a short calibration pass, then times one set-up-only call and
/// one run.
///
/// On a shared machine the same universe's wall time moves between
/// levels up to 40% apart, in phases lasting from seconds to minutes,
/// with CPU time tracking wall time (the core itself runs slower; the
/// process is not descheduled). Two things damp that: each timed
/// universe contributes its *fastest* visit (a median over a run flips
/// between levels with the share of slow phases; the fastest of visits
/// spaced a pass apart does not), and the host times are scaled by the
/// run's median calibration score over [`host::REFERENCE_MOPS`], which
/// follows part of a slow phase that lasts the whole run. The median
/// rather than each visit's own score: one disturbed 10 ms pass would
/// otherwise make its visit look fastest. The unscaled times and the
/// median score go to the record line.
pub fn measure(w: Workload, seed: u64, seconds: f64, len: &Length, lanes: usize) -> Outcome {
    let mut outcome = Outcome::new();
    let universes: Vec<u64> = (0..len.panel).map(|k| w.universe_seed(seed, k)).collect();
    let timed = len.timed.clamp(1, universes.len());

    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    // Per timed universe: host seconds and heap peak of each visit.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut heap_peaks: Vec<Vec<f64>> = vec![Vec::new(); timed];
    let mut calibrations = Vec::new();
    let mut firsts: Vec<UniverseRun> = Vec::with_capacity(universes.len());
    let visits = (0..universes.len()).chain((0..timed).cycle());
    for (visit, k) in visits.enumerate() {
        if visit >= universes.len() && start.elapsed() >= budget {
            break;
        }
        let u = universes[k];
        if k < timed {
            calibrations.push(host::calibration_pass());
            setups[k].push(setup_universe(w, u, len, lanes));
            host::reset_heap_peak();
        }
        let run = run_universe(w, u, len, lanes);
        let mut problems = check_summary(w, &run.summary);
        problems.extend(run.shard_problems.iter().cloned());
        if let Some(first) = firsts.get(k) {
            if run.summary != first.summary {
                problems.push("repeat run of the same seed gave a different summary".into());
            }
        }
        outcome.check(&format!("{} seed {u}", w.name()), problems);
        if k < timed {
            heap_peaks[k].push(host::heap_peak_mib());
            walls[k].push(run.wall_s);
        }
        if visit < universes.len() {
            firsts.push(run);
        }
    }

    if w == Workload::Scale20k {
        // The lane count must be invisible in the output.
        let one_lane = run_universe(w, universes[0], len, 1);
        let mut problems = Vec::new();
        if one_lane.fingerprint != firsts[0].fingerprint {
            problems.push(format!(
                "fingerprint {:x?} at 1 lane, {:x?} at {lanes} lanes",
                one_lane.fingerprint, firsts[0].fingerprint
            ));
        }
        outcome.check(&format!("scale20k seed {} lanes 1 vs {lanes}", universes[0]), problems);
    }

    let fastest = |samples: &[Vec<f64>]| -> Vec<f64> {
        samples.iter().map(|s| s.iter().copied().fold(f64::INFINITY, f64::min)).collect()
    };
    let wall = mean(&fastest(&walls));
    let setup = median(&fastest(&setups));
    let calibration = median(&calibrations);
    let scale = calibration / host::REFERENCE_MOPS;
    let qoe =
        |f: fn(&RunSummary) -> f64| mean(&firsts.iter().map(|r| f(&r.summary)).collect::<Vec<_>>());
    let v = &mut outcome.values;
    v.set("wall_s", wall * scale);
    v.set("setup_s", setup * scale);
    v.set("peak_heap_mib", median(&heap_peaks.iter().map(|p| median(p)).collect::<Vec<_>>()));
    v.set("qoe.satisfied_ratio", qoe(|s| s.satisfied_ratio));
    v.set("qoe.latency_ms", qoe(|s| s.mean_latency_ms));
    v.set("qoe.continuity", qoe(|s| s.mean_continuity));
    v.set("cloud_mbps", qoe(|s| s.cloud_mbps));
    outcome.notes = vec![
        ("unscaled_wall_s", wall),
        ("unscaled_setup_s", setup),
        ("visit_calibration_mops_median", calibration),
    ];
    outcome
}
