//! The benchmark's own checks: a short run of every workload passes
//! every output check in both modes, and the metric names it prints are
//! exactly the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` (a debug build simulates 20,000 players slowly).

use std::process::Command;

use cloudfog_perfbench::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use cloudfog_perfbench::workloads::{Length, Workload};
use cloudfog_perfbench::{run, Options};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The objects of the JSON array under `key`, as raw text.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let at =
        json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let open = at + json[at..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open + 1..close]
        .split('}')
        .filter_map(|chunk| chunk.find('{').map(|i| &chunk[i + 1..]))
        .collect()
}

/// The string value of `"field": "…"` in one flat JSON object.
fn field(object: &str, name: &str) -> String {
    let key = format!("\"{name}\"");
    let at = object.find(&key).unwrap_or_else(|| panic!("no {name} in {object}"));
    let rest = &object[at + key.len()..];
    let open = rest.find('"').expect("string value") + 1;
    let close = open + rest[open..].find('"').expect("string end");
    rest[open..close].to_string()
}

fn declared(json: &str, key: &str) -> Vec<(String, String, String)> {
    objects(json, key)
        .into_iter()
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.label().into())).collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), catalogue(PER_LAYER));
    let workloads: Vec<String> =
        objects(&json, "workloads").into_iter().map(|o| field(o, "name")).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// Metric names in a result line, in print order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
    metrics
        .match_indices(": {\"value\"")
        .map(|(end, _)| {
            let start = metrics[..end].rfind('"').expect("closing quote");
            let open = metrics[..start].rfind('"').expect("opening quote");
            metrics[open + 1..start].to_string()
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> (Outcome, Options) {
    let opts = Options { workload, seed: 3, seconds: 0.0, trace, length: Length::TINY, lanes: 2 };
    (run(&opts), opts)
}

/// Runs `workload` tiny in both modes; checks every output check
/// passed and the printed names are `BENCHMARK.json`'s.
fn tiny_runs_pass(workload: Workload) -> (Outcome, Outcome) {
    let json = benchmark_json();
    let mut outcomes = Vec::new();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let (outcome, opts) = tiny(workload, trace);
        assert!(outcome.correct(), "{} trace={trace}: {:?}", workload.name(), outcome.failures);
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.values.undeclared(opts.catalogue()).is_empty());
        let line = outcome.result_line(opts.catalogue());
        let names: Vec<String> = declared(&json, key).into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(printed_names(&line), names, "{} trace={trace}", workload.name());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        outcomes.push(outcome);
    }
    let traced = outcomes.pop().expect("traced outcome");
    let untraced = outcomes.pop().expect("untraced outcome");
    for d in END_TO_END {
        let v = untraced.values.get(d.name).unwrap_or(0.0);
        assert!(v > 0.0, "{}: end-to-end {} reads {v}", workload.name(), d.name);
    }
    for name in ["engine.events", "engine.events_per_s", "phase.loop_s", "trace.overhead_ratio"] {
        let v = traced.values.get(name).unwrap_or(0.0);
        assert!(v > 0.0, "{}: {name} reads {v}", workload.name());
    }
    (untraced, traced)
}

#[test]
fn hot600_tiny_runs_pass_every_check() {
    let (_, traced) = tiny_runs_pass(Workload::Hot600);
    let v = |name| traced.values.get(name).unwrap_or(0.0);
    assert_eq!(v("events.join"), 600.0, "every player joins within the ramp");
    for name in ["handler_ns.start_tx", "queue.pending_peak", "deployment.build_ms"] {
        assert!(v(name) > 0.0, "{name} reads {}", v(name));
    }
}

#[test]
fn scale20k_tiny_runs_pass_every_check() {
    let (_, traced) = tiny_runs_pass(Workload::Scale20k);
    let v = |name| traced.values.get(name).unwrap_or(0.0);
    // 16 simulated seconds in 5 s epochs: boundaries at 5, 10, 15, 16.
    assert_eq!(v("shard.epochs"), 4.0);
    for name in ["shard.lane_efficiency", "shard.event_imbalance", "shard.epoch_ms_max"] {
        assert!(v(name) > 0.0, "{name} reads {}", v(name));
    }
}

#[test]
fn flash400_tiny_runs_pass_every_check() {
    let (_, traced) = tiny_runs_pass(Workload::Flash400);
    let v = |name| traced.values.get(name).unwrap_or(0.0);
    for name in ["churn.sessions_started", "live.tick_ms_p50", "plane.telemetry.cost"] {
        assert!(v(name) > 0.0, "{name} reads {}", v(name));
    }
    // 16 one-second ticks are too few for a p90.
    assert_eq!(v("live.tick_ms_p90"), 0.0);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_cloudfog-perfbench");
    for args in
        [&[][..], &["--workload", "nope"][..], &["--workload", "hot600", "--trace", "2"][..]]
    {
        let out = Command::new(bin).args(args).output().expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
