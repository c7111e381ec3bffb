//! The CloudFog simulator's benchmark: three workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run.
//! See `README.md` beside this crate for what each workload and metric
//! is for.

pub mod e2e;
pub mod host;
pub mod report;
pub mod stats;
pub mod traced;
pub mod workloads;

use report::{MetricDef, Outcome, END_TO_END, PER_LAYER};

/// Every allocation is counted, for `peak_heap_mib`.
#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;
use workloads::{Length, Workload};

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed the workload's universes derive from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Simulated length of every universe and the panel size.
    pub length: Length,
    /// Lanes of the sharded workload.
    pub lanes: usize,
}

impl Options {
    /// The metrics this run prints.
    pub fn catalogue(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Outcome {
    let measure = if opts.trace { traced::measure } else { e2e::measure };
    let mut outcome = measure(opts.workload, opts.seed, opts.seconds, &opts.length, opts.lanes);
    outcome.check_finite(opts.catalogue());
    outcome
}
