//! The three workloads, their timed sections, and the output check.
//!
//! Each workload is a list of simulated cells. An iteration sets the
//! cells up (`setup_s`: CPU seconds), runs them (the timed section:
//! process CPU and wall seconds), and
//! compares every cell's simulated output with `pins.txt`; a failed or
//! panicking cell, or one whose output differs from its pin, is a failed
//! cell.

use crate::clock::{self, Timed};
use crate::pins::{digest, Pins};
use crate::spans::Spans;
use flashsim_core::figures::SpeedupFigure;
use flashsim_core::platform::{MemModel, Sim, Study, Tuning};
use flashsim_core::{calibrate, fig7, run_matrix_journaled, Calibration, CellOutcome};
use flashsim_engine::{SpanPlan, TimeDelta};
use flashsim_isa::Program;
use flashsim_machine::{Machine, MachineConfig, RunResult, SchedPolicy};
use flashsim_workloads::{Fft, FftBlocking, ProblemScale, Radix};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Simulated nodes of every reference cell.
pub const NODES: u32 = 16;
/// Host workers of the parallel cell: the benchmark host's 2 cores.
pub const WORKERS: usize = 2;
/// Processor counts of the Figure-7 matrix.
pub const FIG7_COUNTS: [u32; 3] = [1, 8, 16];
/// The Figure-7 curves, gold standard first.
pub const FIG7_CURVES: [&str; 4] = [
    "FLASH 150MHz",
    "Tuned FlashLite",
    "Untuned FlashLite",
    "NUMA",
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TLB-blocked FFT on 16 gold-standard nodes, parallel policy, 2 workers.
    Fft16W2,
    /// Calibration plus the Figure-7 unplaced-Radix hotspot matrix.
    Fig7Hotspot,
    /// One unplaced Radix cell, every observer on, through the run journal.
    Radix16Journaled,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fft16-w2" => Some(Workload::Fft16W2),
            "fig7-hotspot" => Some(Workload::Fig7Hotspot),
            "radix16-journaled" => Some(Workload::Radix16Journaled),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fft16W2 => "fft16-w2",
            Workload::Fig7Hotspot => "fig7-hotspot",
            Workload::Radix16Journaled => "radix16-journaled",
        }
    }
}

/// What one process needs for every iteration of its workload.
pub struct Ctx {
    pub workload: Workload,
    pub study: Study,
    pub seed: u64,
    /// Scratch directory for journal and stream files.
    pub work: PathBuf,
    pub pins: Pins,
    /// The calibrated tuning the `radix16-journaled` cell runs on,
    /// computed once per process (it is deterministic, and pinned).
    pub tuning: Option<Tuning>,
}

/// One iteration's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// CPU seconds of set-up (see each workload's iteration).
    pub setup_s: f64,
    pub run: Timed,
    /// Simulated ops executed by the timed section.
    pub ops: u64,
    pub cells: u64,
    pub failed: u64,
}

pub fn fft_program() -> Fft {
    Fft::sized(ProblemScale::Scaled, NODES as usize, FftBlocking::Tlb)
}

pub fn fft_config(study: &Study) -> MachineConfig {
    let mut cfg = study.hardware(NODES);
    cfg.sched = SchedPolicy::Parallel { workers: WORKERS };
    cfg
}

pub fn radix_program(p: u32) -> Radix {
    Radix::unplaced(ProblemScale::Scaled, p as usize)
}

/// The hotspot cell: unplaced Radix on SimOS-Mipsy-225, tuned FlashLite.
pub fn hotspot_config(study: &Study, tuning: &Tuning) -> MachineConfig {
    study.sim_tuned(Sim::SimosMipsy(225), NODES, MemModel::FlashLite, tuning)
}

/// `cfg` with the profiler, telemetry, spans (sampled with the
/// benchmark seed) and the host profiler attached.
pub fn observed_config(mut cfg: MachineConfig, seed: u64) -> MachineConfig {
    cfg.profile = true;
    cfg.telemetry = Some(TimeDelta::from_us(10));
    cfg.spans = Some(SpanPlan::sampled(seed, 64));
    cfg.hostprof = true;
    cfg
}

/// Compares a completed cell with its pins: measured-section time,
/// total ops, and (with `stats`) a digest of the merged statistics.
/// Observers leave time and ops untouched, but the profiler adds
/// `account.*` statistics, so a cell checked against a detached pin
/// with only some observers attached skips the digest.
pub fn check_result(pins: &Pins, cell: &str, r: &RunResult, stats: bool) -> bool {
    let time = pins.check(&format!("{cell}.parallel_ps"), r.parallel_time.as_ps());
    let ops = pins.check(&format!("{cell}.ops"), r.total_ops());
    let digest_ok = !stats || pins.check(&format!("{cell}.stats"), digest(&r.stats.to_json()));
    time && ops && digest_ok
}

/// A cell's simulated result, or why it has none.
pub type Cell = Result<Box<RunResult>, String>;

/// The result of a supervised cell outcome.
pub fn cell_of(outcome: CellOutcome) -> Cell {
    match outcome {
        CellOutcome::Completed(r) => Ok(r),
        CellOutcome::Failed { error, .. } => Err(error.to_string()),
    }
}

/// Checks a cell against its pins (see [`check_result`]); a failed cell
/// is reported on stderr.
pub fn check_cell(pins: &Pins, name: &str, cell: &Cell, stats: bool) -> bool {
    match cell {
        Ok(r) => check_result(pins, name, r, stats),
        Err(error) => {
            eprintln!("cell {name} failed: {error}");
            false
        }
    }
}

/// Ops a cell simulated (0 for a failed cell).
pub fn cell_ops(cell: &Cell) -> u64 {
    cell.as_ref().map_or(0, |r| r.total_ops())
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Builds and runs one machine: program and config construction plus
/// `Machine::new` are set-up (the main thread's CPU seconds),
/// `Machine::run` is the timed section. The op generator threads
/// `Machine::new` spawns start filling their streams during set-up, by a
/// racy amount; that is this run's op generation, so the timed section's
/// CPU seconds count it. `prepare` may attach observers before the run.
/// Errors and panics become a failed cell.
pub fn run_machine(
    make: impl FnOnce() -> (MachineConfig, Box<dyn Program>),
    prepare: impl FnOnce(&mut Machine),
    spans: Option<&Spans>,
) -> (f64, Timed, Cell) {
    let cpu0 = clock::process_cpu_s();
    let ((_prog, built), setup_s) = clock::thread_timed(|| {
        let (cfg, prog) = make();
        let built = match spans {
            Some(s) => s.span("machine_new", || Machine::new(cfg, prog.as_ref())),
            None => Machine::new(cfg, prog.as_ref()),
        };
        (prog, built)
    });
    let mut machine = match built {
        Ok(m) => m,
        Err(e) => {
            let error = Err(format!("machine construction: {e}"));
            return (setup_s, Timed::default(), error);
        }
    };
    prepare(&mut machine);
    let (run, mut timed) = clock::timed(|| {
        catch_unwind(AssertUnwindSafe(|| match spans {
            Some(s) => s.span("machine_run", || machine.run()),
            None => machine.run(),
        }))
    });
    timed.cpu_s = clock::process_cpu_s() - cpu0 - setup_s;
    let cell = match run {
        Ok(Ok(r)) => Ok(Box::new(r)),
        Ok(Err(error)) => Err(error.to_string()),
        Err(p) => Err(format!("panic: {}", panic_message(p))),
    };
    (setup_s, timed, cell)
}

/// One `fft16-w2` iteration. With `hostprof` the cell also carries the
/// host profile, and the check requires the parallel policy to have
/// forked ops (its admitted-op count is pinned too).
pub fn fft_iteration(ctx: &Ctx, hostprof: bool, spans: Option<&Spans>) -> (Sample, Cell) {
    let (setup_s, run, cell) = run_machine(
        || {
            let mut cfg = fft_config(&ctx.study);
            cfg.hostprof = hostprof;
            (cfg, Box::new(fft_program()))
        },
        |_| {},
        spans,
    );
    let mut ok = check_cell(&ctx.pins, "fft16-w2.cell", &cell, true);
    if let (true, Ok(r)) = (hostprof, &cell) {
        let admitted = r.hostprof.as_ref().map_or(0, |h| h.admission.admitted_ops);
        ok &= admitted > 0 && ctx.pins.check("fft16-w2.cell.admitted_ops", admitted);
    }
    let sample = Sample {
        setup_s,
        run,
        ops: cell_ops(&cell),
        cells: 1,
        failed: u64::from(!ok),
    };
    (sample, cell)
}

/// Total simulated ops of one Figure-7 matrix: every curve runs the same
/// Radix programs once per processor count (the hardware curve jitters
/// one run arithmetically), and op streams are platform-independent.
pub fn fig7_ops() -> u64 {
    let per_curve: u64 = FIG7_COUNTS
        .iter()
        .map(|&p| {
            let prog = radix_program(p);
            (0..p as usize)
                .map(|t| prog.stream(t).count() as u64)
                .sum::<u64>()
        })
        .sum();
    per_curve * FIG7_CURVES.len() as u64
}

pub fn slug(label: &str) -> String {
    label.to_ascii_lowercase().replace(' ', "_")
}

/// Checks the calibrated tuning, the rendered table, and every curve
/// point above one processor (a speedup at P=1 is 1 by definition).
/// Returns `(cells, failed)`: one cell per checked point plus one for
/// the calibration. `fig7` returns only the figure, so its cells'
/// simulated statistics are checked one by one in the traced run only.
pub fn check_fig7(pins: &Pins, cal: &Calibration, fig: Option<&SpeedupFigure>) -> (u64, u64) {
    let mut failed = 0u64;
    let tuning_ok = pins.check("fig7-hotspot.tuning", digest(&format!("{:?}", cal.tuning)));
    let table_ok = fig.is_some_and(|f| {
        pins.check(
            "fig7-hotspot.table",
            digest(&flashsim_core::report::render_speedup(f)),
        )
    });
    failed += u64::from(!(tuning_ok && table_ok));
    let counts = || FIG7_COUNTS.into_iter().filter(|&p| p > 1);
    for label in FIG7_CURVES {
        for p in counts() {
            let got = fig
                .and_then(|f| f.curve(label))
                .and_then(|c| c.at(p))
                .map_or_else(|| "missing".to_owned(), |s| format!("{s:?}"));
            let key = format!("fig7-hotspot.speedup.{}.p{p}", slug(label));
            failed += u64::from(!pins.check(&key, got));
        }
    }
    ((FIG7_CURVES.len() * counts().count()) as u64 + 1, failed)
}

/// The paper's "how wrong" number for Figure 7: mean relative error of
/// the three simulator curves' speedups against the gold standard at
/// P=8 and P=16, in percent.
pub fn fig7_gold_error_pct(fig: &SpeedupFigure) -> f64 {
    let gold = fig.curve(FIG7_CURVES[0]);
    let mut errs = Vec::new();
    for label in &FIG7_CURVES[1..] {
        for p in [8, 16] {
            if let (Some(g), Some(s)) = (
                gold.and_then(|c| c.at(p)),
                fig.curve(label).and_then(|c| c.at(p)),
            ) {
                errs.push((s - g).abs() / g * 100.0);
            }
        }
    }
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// One `fig7-hotspot` iteration: calibration is set-up, the matrix is
/// the timed section.
pub fn fig7_iteration(
    ctx: &Ctx,
    ops: u64,
    spans: Option<&Spans>,
) -> (Sample, Calibration, Option<SpeedupFigure>) {
    let (cal, setup) = clock::timed(|| match spans {
        Some(s) => s.span("calibrate", || calibrate(&ctx.study)),
        None => calibrate(&ctx.study),
    });
    let setup_s = setup.cpu_s;
    let matrix = || fig7(&ctx.study, ProblemScale::Scaled, &cal.tuning);
    let (fig, run) = clock::timed(|| {
        catch_unwind(AssertUnwindSafe(|| match spans {
            Some(s) => s.span("fig7", matrix),
            None => matrix(),
        }))
    });
    let fig = fig
        .map_err(|p| eprintln!("fig7 panicked: {}", panic_message(p)))
        .ok();
    let (cells, failed) = check_fig7(&ctx.pins, &cal, fig.as_ref());
    let sample = Sample {
        setup_s,
        run,
        ops,
        cells,
        failed,
    };
    (sample, cal, fig)
}

/// The journal directory of the `radix16-journaled` workload.
pub fn journal_dir(work: &Path) -> PathBuf {
    work.join("journal")
}

/// One `radix16-journaled` iteration on the cell tuned with `tuning`:
/// a fresh journal directory, the cell's program and config, and its
/// `Machine::new` are set-up; the journaled matrix is the timed section.
/// The journal owns its cells and builds the machine again inside the
/// timed section; building it in set-up as well is what puts the cell's
/// construction cost, which every other workload's set-up pays, into
/// this one's (on its own the directory and config take microseconds of
/// file-system noise). The directory is left for the caller to inspect
/// and remove.
pub fn radix_iteration(ctx: &Ctx, tuning: &Tuning, spans: Option<&Spans>) -> (Sample, Cell) {
    let dir = journal_dir(&ctx.work);
    let ((fresh, prog, cfg), setup) = clock::timed(|| {
        let fresh = std::fs::create_dir_all(&dir);
        let prog: Arc<dyn Program> = Arc::new(radix_program(NODES));
        let cfg = observed_config(hotspot_config(&ctx.study, tuning), ctx.seed);
        // An error here recurs in the journaled run, which reports it.
        let _ = match spans {
            Some(s) => s.span("machine_new", || Machine::new(cfg.clone(), prog.as_ref())),
            None => Machine::new(cfg.clone(), prog.as_ref()),
        };
        (fresh, prog, cfg)
    });
    let setup_s = setup.cpu_s;
    let matrix = || run_matrix_journaled(vec![(cfg, prog)], None, &dir);
    let (reports, run) = clock::timed(|| {
        fresh.and_then(|()| match spans {
            Some(s) => s.span("run_matrix_journaled", matrix),
            None => matrix(),
        })
    });
    let cell = match reports {
        Ok(mut reports) => reports
            .pop()
            .and_then(|r| r.outcome)
            .map_or_else(|| Err("journal reported no outcome".to_owned()), cell_of),
        Err(e) => Err(format!("journal directory {}: {e}", dir.display())),
    };
    let ok = check_cell(&ctx.pins, "radix16-journaled.cell", &cell, true);
    let sample = Sample {
        setup_s,
        run,
        ops: cell_ops(&cell),
        cells: 1,
        failed: u64::from(!ok),
    };
    (sample, cell)
}
