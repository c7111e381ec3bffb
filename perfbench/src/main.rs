//! `cloudfog-perfbench --workload <hot600|scale20k|flash400> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a record of the machine and settings, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer
//! with `--trace 1`). A metric table goes to standard error.

use std::process::ExitCode;

use cloudfog_perfbench::report::json_str;
use cloudfog_perfbench::workloads::{Length, Workload};
use cloudfog_perfbench::{host, run, Options};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: cloudfog-perfbench --workload <hot600|scale20k|flash400> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        length: Length::full(workload),
        lanes: host::nproc(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(problem) => return usage(&problem),
    };
    let calibration = host::calibration_score();
    let outcome = run(&opts);
    let catalogue = opts.catalogue();

    eprintln!(
        "{} seed {} ({}) on {} cores:",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        host::nproc()
    );
    for d in catalogue {
        let value = outcome.values.get(d.name).unwrap_or(0.0);
        eprintln!(
            "  {:<30} {:>16.6} {:<6} ({} is better)",
            d.name,
            value,
            d.unit,
            d.better.label()
        );
    }
    for failure in &outcome.failures {
        eprintln!("  FAILED {failure}");
    }

    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    let notes: String =
        outcome.notes.iter().map(|(name, value)| format!(", \"{name}\": {value:?}")).collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"lanes\": {}, \"rustc\": {}, \"calibration_mops\": {calibration:.3}, \
         \"reference_mops\": {}, \"horizon_s\": {}, \"panel\": {}{notes}, \"failures\": [{}]}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::nproc(),
        opts.lanes,
        json_str(host::rustc_version()),
        host::REFERENCE_MOPS,
        opts.length.horizon.as_secs_f64(),
        opts.length.panel,
        failures.join(", ")
    );
    println!("{}", outcome.result_line(catalogue));
    ExitCode::SUCCESS
}
