//! Run orchestration: hardware averaging, relative-time metrics, and
//! supervised parallel run matrices.
//!
//! The paper "take\[s\] the average of at least 5 hardware runs to avoid
//! reporting any spurious system effects"; our gold standard is a
//! deterministic model, so [`run_hardware`] injects a small seeded
//! multiplicative jitter per run and averages, reproducing the
//! measurement protocol (and giving the validation layer a non-degenerate
//! notion of hardware variance).
//!
//! Experiment matrices run *supervised*: [`run_supervised`] wraps each
//! cell in `catch_unwind` and converts structured [`SimError`]s and
//! caught panics into [`CellOutcome::Failed`], so one broken cell —
//! deadlocked workload, exhausted directory pool, injected fault — never
//! takes down the rest of the matrix. Figures render partial matrices
//! with the degraded cells marked.

use crate::platform::Study;
use flashsim_engine::pool::{ScopedJob, WorkerPool};
use flashsim_engine::{Rng, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::{run_program, MachineConfig, RunManifest, RunResult, SimError, Watchdog};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Hardware runs averaged per measurement (paper: "at least 5").
pub const HARDWARE_RUNS: usize = 5;
/// Run-to-run spread of the modelled hardware (±1 %).
pub const HARDWARE_JITTER: f64 = 0.01;

/// The averaged "hardware" measurement.
#[derive(Debug, Clone)]
pub struct HardwareMeasurement {
    /// Mean measured parallel time across the jittered runs.
    pub parallel_time: TimeDelta,
    /// The individual run times (ns).
    pub runs_ns: Vec<f64>,
    /// The underlying (deterministic) run, for statistics.
    pub result: RunResult,
}

impl HardwareMeasurement {
    /// Relative spread (max-min)/mean of the runs.
    ///
    /// Degenerate measurements (no runs, or a zero/non-finite mean, as a
    /// failed or zero-length run produces) report a spread of 0 rather
    /// than NaN/inf, so downstream variance checks stay finite.
    pub fn spread(&self) -> f64 {
        let mean = self.parallel_time.as_ns_f64();
        if self.runs_ns.is_empty() || !mean.is_finite() || mean <= 0.0 {
            return 0.0;
        }
        let max = self.runs_ns.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.runs_ns.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / mean
    }
}

/// Runs `program` once under `cfg`.
///
/// # Panics
///
/// Panics if the machine cannot be built (thread/segment mismatch) — the
/// experiment definitions in this crate guarantee it can.
pub fn run_once(cfg: MachineConfig, program: &dyn Program) -> RunResult {
    run_program(cfg, program).expect("experiment configuration is valid") // gate: allow
}

/// The outcome of one supervised run-matrix cell.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The run finished; the full result is attached.
    Completed(Box<RunResult>),
    /// The run failed with a structured error (or a caught panic).
    Failed {
        /// Why the cell failed.
        error: SimError,
        /// Provenance of the failed cell (config label, nodes, workload,
        /// seed). Throughput fields are NaN: the run never finished.
        manifest: Box<RunManifest>,
    },
}

impl CellOutcome {
    /// True if the cell ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, CellOutcome::Completed(_))
    }

    /// The run result, if the cell completed.
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            CellOutcome::Completed(r) => Some(r),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// The failure, if the cell failed.
    pub fn error(&self) -> Option<&SimError> {
        match self {
            CellOutcome::Completed(_) => None,
            CellOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// The measured parallel time, if the cell completed.
    pub fn parallel_time(&self) -> Option<TimeDelta> {
        self.result().map(|r| r.parallel_time)
    }

    /// The cell's manifest, whether it completed or failed.
    pub fn manifest(&self) -> &RunManifest {
        match self {
            CellOutcome::Completed(r) => &r.manifest,
            CellOutcome::Failed { manifest, .. } => manifest,
        }
    }

    /// The cell's sampled telemetry series, if the cell completed with a
    /// telemetry registry attached (see
    /// [`flashsim_machine::MachineConfig::telemetry`]).
    pub fn telemetry(&self) -> Option<&flashsim_engine::TelemetrySeries> {
        self.result().and_then(|r| r.telemetry.as_ref())
    }

    /// The cell's sampled span trees, if the cell completed with a span
    /// tracer attached (see [`flashsim_machine::MachineConfig::spans`]).
    pub fn spans(&self) -> Option<&flashsim_engine::SpanSet> {
        self.result().and_then(|r| r.spans.as_ref())
    }
}

/// A provenance manifest for a cell that never produced a result.
pub(crate) fn failed_manifest(cfg: &MachineConfig, program: &dyn Program) -> RunManifest {
    RunManifest {
        config: cfg.label(),
        nodes: cfg.nodes,
        workload: program.name(),
        seed: program.seed(),
        sched: cfg.sched.key().to_owned(),
        faults: cfg
            .faults
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| p.summary()),
        wall_seconds: 0.0,
        total_ops: 0,
        simulated_seconds: 0.0,
        events_per_sec: f64::NAN,
        sim_mips: f64::NAN,
        account: None,
        spans: cfg.spans.as_ref().map(|p| p.describe()),
        stream: cfg.stream.as_ref().map(|p| p.display().to_string()),
    }
}

/// Runs one matrix cell under supervision: structured errors come back as
/// [`CellOutcome::Failed`], and a panic escaping the machine layer is
/// caught and converted to [`SimError::Panic`] instead of poisoning the
/// rest of the matrix.
pub fn run_supervised(cfg: MachineConfig, program: &dyn Program) -> CellOutcome {
    let manifest = Box::new(failed_manifest(&cfg, program));
    supervise(manifest, || run_program(cfg, program))
}

/// Runs `f` under `catch_unwind`, converting its structured error — or a
/// caught panic — into [`CellOutcome::Failed`] carrying `manifest`. The
/// journaled matrix uses this to supervise restored machines the same way
/// [`run_supervised`] supervises fresh ones.
pub(crate) fn supervise(
    manifest: Box<RunManifest>,
    f: impl FnOnce() -> Result<RunResult, SimError>,
) -> CellOutcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(result)) => CellOutcome::Completed(Box::new(result)),
        Ok(Err(error)) => CellOutcome::Failed { error, manifest },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            CellOutcome::Failed {
                error: SimError::Panic(msg),
                manifest,
            }
        }
    }
}

/// One cell of a supervised run matrix.
pub type MatrixCell = (MachineConfig, Arc<dyn Program>);

/// Runs every cell of an experiment matrix under supervision, in parallel
/// on host threads, preserving order. A failed or deadlocked cell becomes
/// [`CellOutcome::Failed`] while every other cell still produces its
/// result.
///
/// `budget` is a watchdog op budget applied to cells whose own watchdog
/// is unbounded, so a cell that stops making forward progress is reported
/// as [`SimError::Stalled`] instead of hanging the whole matrix.
pub fn run_matrix(cells: Vec<MatrixCell>, budget: Option<u64>) -> Vec<CellOutcome> {
    parallel_map(cells, |(mut cfg, prog)| {
        if cfg.watchdog.max_ops.is_none() {
            if let Some(b) = budget {
                cfg.watchdog = Watchdog::with_budget(b);
            }
        }
        run_supervised(cfg, prog.as_ref())
    })
}

/// Runs `program` on the gold-standard hardware, averaging
/// [`HARDWARE_RUNS`] jittered measurements.
pub fn run_hardware(study: &Study, nodes: u32, program: &dyn Program) -> HardwareMeasurement {
    let result = run_once(study.hardware(nodes), program);
    let base = result.parallel_time.as_ns_f64();
    let mut rng = Rng::seeded(0xF1A5_4000 + u64::from(nodes));
    let runs_ns: Vec<f64> = (0..HARDWARE_RUNS)
        .map(|_| base * rng.jitter(HARDWARE_JITTER))
        .collect();
    let mean = runs_ns.iter().sum::<f64>() / runs_ns.len() as f64;
    HardwareMeasurement {
        parallel_time: TimeDelta::from_ps((mean * 1000.0) as u64),
        runs_ns,
        result,
    }
}

/// Relative execution time as the paper plots it: simulator time divided
/// by hardware time (1.0 = exact; < 1 = simulator optimistic).
pub fn relative_time(sim: TimeDelta, hardware: TimeDelta) -> f64 {
    sim.as_ns_f64() / hardware.as_ns_f64()
}

/// Speedup: uniprocessor time over `p`-processor time on the same
/// platform.
pub fn speedup(t1: TimeDelta, tp: TimeDelta) -> f64 {
    t1.as_ns_f64() / tp.as_ns_f64()
}

/// Runs independent jobs on a bounded set of host worker threads and
/// collects results in input order.
///
/// The batch is fed through the engine's shared
/// [`WorkerPool`] scheduling
/// substrate (scoped flavor, so jobs may borrow the caller's state) —
/// the same per-worker queues and work stealing the machine's parallel
/// scheduling policy runs on. It is sized `min(available_parallelism,
/// jobs)`: a large experiment matrix never spawns one thread per cell
/// (hundreds of simultaneous machines oversubscribed the host and
/// ballooned peak memory); excess jobs queue and are claimed by
/// whichever worker frees up first. With one usable core the jobs run
/// inline on the caller's thread. Each job writes into its own
/// pre-indexed slot, so ordering is independent of which worker
/// finished when.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = WorkerPool::host_parallelism().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let jobs = out
        .iter_mut()
        .zip(items)
        .map(|(slot, item)| {
            let f = &f;
            Box::new(move |_worker: usize| {
                *slot = Some(f(item));
            }) as ScopedJob<'_>
        })
        .collect();
    WorkerPool::run_scoped(workers, jobs);
    out.into_iter()
        .map(|r| r.expect("every finished job filled its slot")) // gate: allow
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_isa::{Placement, Segment, Sink, VAddr};
    use flashsim_workloads::micro::RestartProbe;

    const BASE: u64 = 0x1_0000;

    /// Thread 0 skips the barrier thread 1 waits at: a guaranteed
    /// deadlock.
    struct SkippedBarrier;
    impl Program for SkippedBarrier {
        fn name(&self) -> String {
            "skipped-barrier".into()
        }
        fn num_threads(&self) -> usize {
            2
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(move |sink| {
                sink.load(VAddr(BASE));
                if tid != 0 {
                    sink.barrier();
                }
            })
        }
    }

    /// A kernel that panics while generating its op stream.
    struct PanickingKernel;
    impl Program for PanickingKernel {
        fn name(&self) -> String {
            "panicking-kernel".into()
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn segments(&self) -> Vec<Segment> {
            vec![Segment::new("d", VAddr(BASE), 4096, Placement::Node(0))]
        }
        fn thread_body(&self, _tid: usize) -> Box<dyn FnOnce(&mut Sink) + Send + 'static> {
            Box::new(|sink| {
                sink.load(VAddr(BASE));
                panic!("kernel exploded on purpose");
            })
        }
    }

    #[test]
    fn relative_time_math() {
        assert!(
            (relative_time(TimeDelta::from_ns(70), TimeDelta::from_ns(100)) - 0.7).abs() < 1e-12
        );
        assert!((speedup(TimeDelta::from_ns(100), TimeDelta::from_ns(25)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hardware_measurement_averages_jittered_runs() {
        let study = Study::scaled();
        let probe = RestartProbe::new(10_000);
        let m = run_hardware(&study, 1, &probe);
        assert_eq!(m.runs_ns.len(), HARDWARE_RUNS);
        assert!(m.spread() > 0.0 && m.spread() < 4.0 * HARDWARE_JITTER);
        let base = m.result.parallel_time.as_ns_f64();
        let mean = m.parallel_time.as_ns_f64();
        assert!((mean - base).abs() / base < 2.0 * HARDWARE_JITTER);
    }

    #[test]
    fn hardware_measurement_is_reproducible() {
        let study = Study::scaled();
        let probe = RestartProbe::new(5_000);
        let a = run_hardware(&study, 1, &probe);
        let b = run_hardware(&study, 1, &probe);
        assert_eq!(a.parallel_time, b.parallel_time);
        assert_eq!(a.runs_ns, b.runs_ns);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect(), |x: i32| x * x);
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_many_more_jobs_than_cores() {
        // Far more jobs than any host has cores: the bounded pool must
        // queue them rather than spawning 4096 threads, and still return
        // every result in order.
        let out = parallel_map((0..4096).collect(), |x: u64| x + 1);
        assert_eq!(out.len(), 4096);
        assert!(out.iter().enumerate().all(|(i, &r)| r == i as u64 + 1));
    }

    #[test]
    fn parallel_map_bounds_concurrent_jobs_to_host_parallelism() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let cap = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        parallel_map((0..64).collect(), |_: i32| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= cap,
            "peak {} exceeded host parallelism {}",
            peak.load(Ordering::SeqCst),
            cap
        );
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<i32> = parallel_map(Vec::new(), |x: i32| x);
        assert!(empty.is_empty());
        assert_eq!(parallel_map(vec![7], |x: i32| x * 2), vec![14]);
    }

    #[test]
    fn spread_is_finite_for_degenerate_measurements() {
        let study = Study::scaled();
        let result = run_once(study.hardware(1), &RestartProbe::new(1_000));
        let degenerate = HardwareMeasurement {
            parallel_time: TimeDelta::ZERO,
            runs_ns: vec![],
            result,
        };
        assert_eq!(degenerate.spread(), 0.0);
        let zero_mean = HardwareMeasurement {
            runs_ns: vec![0.0, 0.0],
            ..degenerate
        };
        assert_eq!(zero_mean.spread(), 0.0);
    }

    #[test]
    fn deadlocked_cell_does_not_poison_the_matrix() {
        let study = Study::scaled();
        let cells: Vec<MatrixCell> = vec![
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(2_000)) as Arc<dyn Program>,
            ),
            (study.hardware(2), Arc::new(SkippedBarrier)),
            (
                study.hardware(1),
                Arc::new(RestartProbe::new(3_000)) as Arc<dyn Program>,
            ),
        ];
        let outcomes = run_matrix(cells, Some(10_000_000));
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_completed());
        assert!(outcomes[2].is_completed());
        let err = outcomes[1].error().expect("deadlocked cell fails");
        assert_eq!(err.kind(), "deadlock");
        // The failed cell still carries its provenance.
        assert_eq!(outcomes[1].manifest().workload, "skipped-barrier");
        assert_eq!(outcomes[1].manifest().nodes, 2);
    }

    #[test]
    fn panicking_cell_is_caught_as_structured_error() {
        let study = Study::scaled();
        let outcome = run_supervised(study.hardware(1), &PanickingKernel);
        let err = outcome.error().expect("panic must be caught");
        assert_eq!(err.kind(), "panic");
        assert!(format!("{err}").contains("kernel exploded on purpose"));
    }
}
