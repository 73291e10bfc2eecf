//! Scaffolding shared by the determinism suites: the study's platform
//! list, the worker count under test, and the fully observed FFT cell.
//! Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use flashsim::engine::{SpanPlan, TimeDelta};
use flashsim::machine::MachineConfig;
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};

/// Every platform family of the study at `nodes` nodes: the
/// gold-standard hardware plus each simulator × memory-system
/// combination.
pub fn platforms(study: &Study, nodes: u32) -> Vec<(String, MachineConfig)> {
    let mut out = vec![("hardware".to_owned(), study.hardware(nodes))];
    for sim in [Sim::SimosMipsy(150), Sim::SoloMipsy(150), Sim::SimosMxs] {
        for mem in [MemModel::FlashLite, MemModel::Numa] {
            let cfg = study.sim(sim, nodes, mem);
            out.push((cfg.label(), cfg));
        }
    }
    out
}

/// Worker count for the `Parallel` policy under test. `scripts/check.sh`
/// sweeps 1, 2, and 0 (= host parallelism) through this variable; the
/// default exercises real multi-worker interleavings everywhere.
pub fn eq_workers() -> usize {
    std::env::var("FLASHSIM_EQ_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Attaches every optional observer so byte-identity covers stats,
/// accounting, telemetry, and spans at once.
pub fn observed(mut cfg: MachineConfig) -> MachineConfig {
    cfg.profile = true;
    cfg.telemetry = Some(TimeDelta::from_ns(500));
    cfg.spans = Some(SpanPlan::all(7));
    cfg
}

/// The two-thread tiny FFT most suites run.
pub fn prog() -> Fft {
    Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache)
}
