//! The traced run: the per-layer figures of one workload.
//!
//! It runs the workload's timed section twice — plain, then with spans
//! recorded around the benchmark's calls into the program (and the host
//! profiler attached to the `fft16-w2` cell) — and the difference is the
//! tracing overhead. It then runs each of the workload's cells serially,
//! drives every layer in isolation on inputs shaped like the workload,
//! and attaches each observer on its own to the detached Radix hotspot
//! cell. Every simulated result is checked against the pins as in the
//! untraced run.

use crate::clock::{thread_timed, timed};
use crate::layers::{self, Shape};
use crate::spans::Spans;
use crate::workloads::{
    cell_of, check_cell, check_fig7, fft_config, fft_iteration, fft_program, fig7_gold_error_pct,
    fig7_iteration, hotspot_config, journal_dir, radix_iteration, radix_program, run_machine, slug,
    Cell, Ctx, Sample, Workload, FIG7_COUNTS, FIG7_CURVES, NODES,
};
use crate::{alloc, median};
use flashsim_core::figures::SpeedupFigure;
use flashsim_core::platform::{MemModel, Sim};
use flashsim_core::{run_hardware, run_supervised, speedup};
use flashsim_engine::{CategoryMask, HostPhase, HostReport, SpanPlan, StatSet, TimeDelta, Tracer};
use flashsim_flashlite::FlashLiteParams;
use flashsim_isa::Program;
use flashsim_machine::{Machine, MachineConfig, RunResult};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Interleaved repetitions of each observer configuration.
const OBSERVE_REPS: usize = 3;
/// `Machine::new` repetitions behind `machine.new_s`.
const NEW_REPS: usize = 10;

/// Per-layer figures, in report order.
pub type Layers = Vec<(&'static str, &'static str, f64)>;

/// Cells checked and cells failed, across the traced run.
#[derive(Default)]
pub struct Tally {
    pub cells: u64,
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.cells += 1;
        self.failed += u64::from(!ok);
    }

    fn sample(&mut self, s: &Sample) {
        self.cells += s.cells;
        self.failed += s.failed;
    }
}

/// Protocol transactions of every case, writebacks included.
fn proto_txns(stats: &StatSet) -> f64 {
    stats
        .iter()
        .filter(|(k, _)| k.starts_with("proto.") && k.ends_with(".count"))
        .map(|(_, v)| v)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// The observers a run can carry, attached one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observer {
    Detached,
    Trace,
    Account,
    Telemetry,
    Spans,
    HostProf,
    Stream,
    Ckpt,
    /// Everything the journaled workload attaches, through the journal.
    Journaled,
}

const OBSERVERS: [Observer; 9] = [
    Observer::Detached,
    Observer::Trace,
    Observer::Account,
    Observer::Telemetry,
    Observer::Spans,
    Observer::HostProf,
    Observer::Stream,
    Observer::Ckpt,
    Observer::Journaled,
];

/// What the observer runs measured on the detached Radix hotspot cell.
struct Observed {
    /// Median CPU seconds (set-up plus run) per observer, in `OBSERVERS`
    /// order.
    cpu_s: Vec<f64>,
    /// Median `Machine::run` CPU seconds of the detached runs.
    detached_run_s: f64,
    /// The detached run's result.
    detached: Option<Box<RunResult>>,
    /// The host-profiled run's result.
    hostprof: Option<Box<RunResult>>,
    ckpt_count: u64,
    ckpt_bytes: u64,
    journal_bytes: u64,
}

/// The Radix hotspot cell every observer is measured on.
fn hotspot_cell(ctx: &Ctx, tuning: &flashsim_core::Tuning) -> (MachineConfig, Box<dyn Program>) {
    (
        hotspot_config(&ctx.study, tuning),
        Box::new(radix_program(NODES)),
    )
}

/// Runs the hotspot cell once under `obs`; returns `(set-up plus run,
/// run)` CPU seconds.
fn observe_once(
    ctx: &Ctx,
    obs: Observer,
    tuning: &flashsim_core::Tuning,
    tally: &mut Tally,
    out: &mut Observed,
) -> (f64, f64) {
    const KEY: &str = "hotspot.cell";
    let stream = ctx.work.join("observe.stream");
    if obs == Observer::Journaled {
        let (s, _) = radix_iteration(ctx, tuning, None);
        let dir = journal_dir(&ctx.work);
        out.journal_bytes = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        tally.sample(&s);
        return (s.setup_s + s.run.cpu_s, s.run.cpu_s);
    }
    let ckpts = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let sink = Arc::clone(&ckpts);
    let (setup_s, run, cell) = run_machine(
        || {
            let (mut cfg, prog) = hotspot_cell(ctx, tuning);
            match obs {
                Observer::Account => cfg.profile = true,
                Observer::Telemetry => cfg.telemetry = Some(TimeDelta::from_us(10)),
                Observer::Spans => cfg.spans = Some(SpanPlan::sampled(ctx.seed, 64)),
                Observer::HostProf => cfg.hostprof = true,
                Observer::Stream => cfg.stream = Some(stream.clone()),
                _ => {}
            }
            (cfg, prog)
        },
        |m: &mut Machine| match obs {
            Observer::Trace => m.attach_tracer(Tracer::new(1 << 16, CategoryMask::ALL)),
            Observer::Ckpt => m.attach_ckpt_sink(Box::new(move |_, _, text| {
                sink.0.fetch_add(1, Ordering::Relaxed);
                sink.1.fetch_add(text.len() as u64, Ordering::Relaxed);
            })),
            _ => {}
        },
        None,
    );
    let _ = std::fs::remove_file(&stream);
    tally.add(check_cell(&ctx.pins, KEY, &cell, obs == Observer::Detached));
    match obs {
        Observer::Detached => out.detached = cell.ok(),
        Observer::HostProf => out.hostprof = cell.ok(),
        Observer::Ckpt => {
            out.ckpt_count = ckpts.0.load(Ordering::Relaxed);
            out.ckpt_bytes = ckpts.1.load(Ordering::Relaxed);
        }
        _ => {}
    }
    (setup_s + run.cpu_s, run.cpu_s)
}

/// Every observer configuration, `OBSERVE_REPS` times, interleaved so
/// host drift hits each configuration alike.
fn observe(ctx: &Ctx, tuning: &flashsim_core::Tuning, tally: &mut Tally) -> Observed {
    let mut out = Observed {
        cpu_s: Vec::new(),
        detached_run_s: 0.0,
        detached: None,
        hostprof: None,
        ckpt_count: 0,
        ckpt_bytes: 0,
        journal_bytes: 0,
    };
    let mut costs = vec![Vec::new(); OBSERVERS.len()];
    let mut runs = Vec::new();
    for _ in 0..OBSERVE_REPS {
        for (i, &obs) in OBSERVERS.iter().enumerate() {
            let (cost, run) = observe_once(ctx, obs, tuning, tally, &mut out);
            costs[i].push(cost);
            if obs == Observer::Detached {
                runs.push(run);
            }
        }
    }
    out.cpu_s = costs.iter().map(|c| median(c)).collect();
    out.detached_run_s = median(&runs);
    out
}

/// Runs every cell of the workload serially, each inside a span named
/// after the call, and returns each cell's wall seconds, the summed
/// statistics, and (for fig7) the figure the cells rebuild.
fn serial_cells(
    ctx: &Ctx,
    spans: &Spans,
    tally: &mut Tally,
    tuning: &flashsim_core::Tuning,
) -> (Vec<f64>, StatSet, Option<SpeedupFigure>) {
    let mut secs = Vec::new();
    let mut stats = StatSet::new();
    let mut timed_cell = |name: &'static str, f: &mut dyn FnMut() -> Cell| {
        let (cell, t) = timed(|| spans.span(name, f));
        secs.push(t.wall_s);
        cell
    };
    let supervised = |cfg: MachineConfig, prog: &dyn Program| cell_of(run_supervised(cfg, prog));
    match ctx.workload {
        Workload::Fft16W2 => {
            let cell = timed_cell("run_supervised", &mut || {
                supervised(fft_config(&ctx.study), &fft_program())
            });
            tally.add(check_cell(&ctx.pins, "fft16-w2.cell", &cell, true));
            if let Ok(r) = &cell {
                stats.absorb_flat(&r.stats);
            }
            (secs, stats, None)
        }
        Workload::Radix16Journaled => {
            let cell = timed_cell("run_supervised", &mut || {
                supervised(hotspot_config(&ctx.study, tuning), &radix_program(NODES))
            });
            tally.add(check_cell(&ctx.pins, "hotspot.cell", &cell, true));
            if let Ok(r) = &cell {
                stats.absorb_flat(&r.stats);
            }
            (secs, stats, None)
        }
        Workload::Fig7Hotspot => {
            let sim = Sim::SimosMipsy(225);
            let mut curves = Vec::new();
            for label in FIG7_CURVES {
                let mut times = Vec::new();
                for p in FIG7_COUNTS {
                    let prog = radix_program(p);
                    let key = format!("fig7-hotspot.cell.{}.p{p}", slug(label));
                    let (t, cell) = if label == FIG7_CURVES[0] {
                        let mut hw = None;
                        let cell = timed_cell("run_hardware", &mut || {
                            let m = run_hardware(&ctx.study, p, &prog);
                            hw = Some(m.parallel_time);
                            Ok(Box::new(m.result))
                        });
                        (hw, cell)
                    } else {
                        let cfg = match label {
                            "Tuned FlashLite" => {
                                ctx.study.sim_tuned(sim, p, MemModel::FlashLite, tuning)
                            }
                            "Untuned FlashLite" => ctx.study.sim(sim, p, MemModel::FlashLite),
                            _ => ctx.study.sim_tuned(sim, p, MemModel::Numa, tuning),
                        };
                        let cell =
                            timed_cell("run_supervised", &mut || supervised(cfg.clone(), &prog));
                        (cell.as_ref().ok().map(|r| r.parallel_time), cell)
                    };
                    tally.add(check_cell(&ctx.pins, &key, &cell, true));
                    if let Ok(r) = &cell {
                        stats.absorb_flat(&r.stats);
                    }
                    times.push((p, t));
                }
                let t1 = times[0].1;
                curves.push(flashsim_core::SpeedupCurve {
                    platform: label.to_owned(),
                    points: times
                        .iter()
                        .filter_map(|&(p, t)| Some((p, speedup(t1?, t?))))
                        .collect(),
                });
            }
            let fig = SpeedupFigure {
                title: "Figure 7: Speedup for unplaced Radix-Sort (SimOS-Mipsy 225MHz)".to_owned(),
                curves,
            };
            (secs, stats, Some(fig))
        }
    }
}

/// Host CPU ns per op of a cell beyond the isolated layer costs for its
/// own counts: generation, the core model, hierarchy and TLB per
/// access, and FlashLite per protocol transaction. An estimate, not a
/// span: the layers overlap on the host's two cores.
fn residual_ns_per_op(
    run_s: f64,
    r: &RunResult,
    cpu_ns: f64,
    gen_ns: f64,
    cm: &layers::CoreMem,
    flashlite_ns: f64,
) -> f64 {
    let ops = r.total_ops() as f64;
    let accesses = r.stats.get_or_zero("cpu.loads") + r.stats.get_or_zero("cpu.stores");
    let tlb_ns = if r.stats.get("tlb.hits").is_some() {
        cm.tlb_ns_per_access
    } else {
        0.0
    };
    ratio(run_s * 1e9, ops)
        - gen_ns
        - cpu_ns
        - ratio(accesses, ops) * (cm.hier_ns_per_access + tlb_ns)
        - ratio(proto_txns(&r.stats), ops) * flashlite_ns
}

/// The traced run of `ctx.workload`: every per-layer metric.
pub fn run(ctx: &Ctx, fig7_ops: u64) -> (Layers, Tally) {
    let mut tally = Tally::default();
    let spans = Spans::new();
    let w = ctx.workload;

    // 1. The timed section, plain then traced; allocations are counted
    //    on the plain pass.
    let a0 = alloc::snapshot();
    let (plain, plain_cell) = pass(ctx, fig7_ops, None, &mut tally);
    let a1 = alloc::snapshot();
    let (traced, traced_cell) =
        spans.span("bench", || pass(ctx, fig7_ops, Some(&spans), &mut tally));
    let _ = std::fs::remove_dir_all(journal_dir(&ctx.work));

    // 2. Calibration, the workload's cells one at a time, and the error
    //    against the gold standard.
    let (cal, cal_t) = timed(|| {
        spans.span("bench", || {
            spans.span("calibrate", || flashsim_core::calibrate(&ctx.study))
        })
    });
    let (cell_secs, serial_stats, fig) = spans.span("bench", || {
        serial_cells(ctx, &spans, &mut tally, &cal.tuning)
    });
    let gold_error_pct = match (w, &traced_cell) {
        (Workload::Fig7Hotspot, TracedCell::Figure(Some(traced_fig))) => {
            // The serially rebuilt figure must match the matrix's.
            let (cells, failed) = check_fig7(&ctx.pins, &cal, fig.as_ref());
            tally.cells += cells;
            tally.failed += failed;
            fig7_gold_error_pct(traced_fig)
        }
        (Workload::Radix16Journaled, TracedCell::Cell(Ok(r))) => {
            let hw = spans.span("bench", || {
                spans.span("run_hardware", || {
                    run_hardware(&ctx.study, NODES, &radix_program(NODES))
                })
            });
            (r.parallel_time.as_ns_f64() / hw.parallel_time.as_ns_f64() - 1.0).abs() * 100.0
        }
        // The fft cell runs on the gold standard itself.
        _ => 0.0,
    };

    // 3. Layer probes on the workload's programs.
    let progs: Vec<Box<dyn Program>> = match w {
        Workload::Fft16W2 => vec![Box::new(fft_program())],
        Workload::Radix16Journaled => vec![Box::new(radix_program(NODES))],
        Workload::Fig7Hotspot => FIG7_COUNTS
            .iter()
            .map(|&p| Box::new(radix_program(p)) as Box<dyn Program>)
            .collect(),
    };
    let prog_refs: Vec<&dyn Program> = progs.iter().map(|p| p.as_ref()).collect();
    let gen_ns = layers::gen_ns_per_op(&prog_refs);
    let cm = layers::core_and_mem(&prog_refs, &ctx.study.geometry);

    // 4. Machine construction of the workload's cell.
    let new_s = median(
        &(0..NEW_REPS)
            .map(|_| {
                let (cfg, prog): (MachineConfig, Box<dyn Program>) = match w {
                    Workload::Fft16W2 => (fft_config(&ctx.study), Box::new(fft_program())),
                    _ => hotspot_cell(ctx, &cal.tuning),
                };
                let (m, s) = thread_timed(|| Machine::new(cfg, prog.as_ref()));
                drop(m);
                s
            })
            .collect::<Vec<_>>(),
    );

    // 5. Each observer alone on the detached hotspot cell.
    let obs = observe(ctx, &cal.tuning, &mut tally);
    let detached = obs.cpu_s[0];
    let extra = |o: Observer| {
        let i = OBSERVERS
            .iter()
            .position(|x| *x == o)
            .expect("listed observer");
        obs.cpu_s[i] - detached
    };

    // 6. The memory-system probes, on a request mix measured on the
    //    workload's cell: the plain fft pass, or the detached hotspot
    //    cell (the 16-node cell of every Radix workload).
    let (shape, flashlite, mix_cell) = match (w, &plain_cell) {
        (Workload::Fft16W2, TracedCell::Cell(cell)) => (
            Shape::Uniform,
            FlashLiteParams::hardware(),
            cell.as_deref().ok(),
        ),
        (Workload::Fft16W2, _) => (Shape::Uniform, FlashLiteParams::hardware(), None),
        _ => (
            Shape::Hotspot,
            cal.tuning.flashlite,
            obs.detached.as_deref(),
        ),
    };
    let ms = match mix_cell {
        Some(r) => {
            let mix = layers::Mix::measure(&r.stats, r.parallel_time, NODES, &cm);
            eprintln!("memory-system probe mix: {mix:?}");
            layers::memsys_costs(ctx.seed, &mix, shape, flashlite, &ctx.study.geometry)
        }
        None => {
            eprintln!("no cell to measure the memory-system request mix on");
            tally.add(false);
            layers::MemSysCosts::default()
        }
    };

    // 7. The host profile behind the scheduler figures: the traced
    //    pass's own for the fft and journaled cells, the hotspot cell's
    //    for fig7.
    let profiled = match &traced_cell {
        TracedCell::Cell(Ok(r)) if r.hostprof.is_some() => Some(r),
        _ => obs.hostprof.as_ref(),
    };
    let (host, host_ops) = match profiled.and_then(|r| Some((r.hostprof.clone()?, r.total_ops()))) {
        Some(h) => h,
        None => {
            eprintln!("no host profile recorded");
            tally.add(false);
            let empty = HostReport {
                total_ns: 0,
                phase_ns: [0; HostPhase::COUNT],
                admission: Default::default(),
                workers: Vec::new(),
                segments: Vec::new(),
            };
            (empty, 0)
        }
    };
    if w == Workload::Fft16W2 {
        tally.add(host.admission.admitted_ops > 0);
    }

    // 8. Ratios and counts: the traced cell's statistics, or the summed
    //    statistics of fig7's cells.
    let stats = match &traced_cell {
        TracedCell::Cell(Ok(r)) => r.stats.clone(),
        _ => serial_stats,
    };
    let ops = stats.get_or_zero("cpu.ops");
    let txns = proto_txns(&stats);
    let l1 = (stats.get_or_zero("l1.hits"), stats.get_or_zero("l1.misses"));
    let l2 = (stats.get_or_zero("l2.hits"), stats.get_or_zero("l2.misses"));
    let tlb = (
        stats.get_or_zero("tlb.hits"),
        stats.get_or_zero("tlb.misses"),
    );

    // 9. Residual of the workload's cell: the plain fft pass, or the
    //    detached hotspot cell.
    let residual = match (w, &plain_cell) {
        (Workload::Fft16W2, TracedCell::Cell(Ok(r))) => residual_ns_per_op(
            plain.run.cpu_s,
            r,
            cm.r10000_ns_per_op,
            gen_ns,
            &cm,
            ms.flashlite_ns_per_access,
        ),
        (Workload::Fft16W2, _) => 0.0,
        _ => obs.detached.as_ref().map_or(0.0, |r| {
            residual_ns_per_op(
                obs.detached_run_s,
                r,
                cm.mipsy_ns_per_op,
                gen_ns,
                &cm,
                ms.flashlite_ns_per_access,
            )
        }),
    };

    let (allocs, alloc_bytes) = (a1.0 - a0.0, a1.1 - a0.1);
    let plain_ops = plain.ops.max(1) as f64;
    let cells_sum: f64 = cell_secs.iter().sum();
    let adm = host.admission;
    let idle: u64 = host.workers.iter().map(|l| l.idle_ns).sum();
    let idle_frac = ratio(
        idle as f64,
        (host.workers.len() as u64 * host.total_ns) as f64,
    );
    let frac = |p: HostPhase| host.fraction(p);
    let layers: Layers = vec![
        ("isa.gen_ns_per_op", "ns", gen_ns),
        ("cpu.r10000.ns_per_op", "ns", cm.r10000_ns_per_op),
        ("cpu.mipsy.ns_per_op", "ns", cm.mipsy_ns_per_op),
        ("mem.hier.ns_per_access", "ns", cm.hier_ns_per_access),
        ("mem.tlb.ns_per_access", "ns", cm.tlb_ns_per_access),
        ("mem.l1_miss_ratio", "ratio", ratio(l1.1, l1.0 + l1.1)),
        ("mem.l2_miss_ratio", "ratio", ratio(l2.1, l2.0 + l2.1)),
        ("mem.tlb_miss_ratio", "ratio", ratio(tlb.1, tlb.0 + tlb.1)),
        ("proto.dir.ns_per_op", "ns", ms.dir_ns_per_op),
        ("flashlite.ns_per_access", "ns", ms.flashlite_ns_per_access),
        ("numa.ns_per_access", "ns", ms.numa_ns_per_access),
        ("net.ns_per_deliver", "ns", ms.net_ns_per_deliver),
        ("proto.txns_per_kop", "1/kop", ratio(txns, ops) * 1e3),
        (
            "magic.retry_ratio",
            "ratio",
            ratio(stats.get_or_zero("magic.retries"), txns),
        ),
        (
            "net.msgs_per_kop",
            "1/kop",
            ratio(stats.get_or_zero("net.messages"), ops) * 1e3,
        ),
        ("machine.new_s", "s", new_s),
        ("machine.residual_ns_per_op", "ns", residual),
        ("sched.drive_frac", "ratio", frac(HostPhase::Drive)),
        ("sched.scan_frac", "ratio", frac(HostPhase::Scan)),
        ("sched.fork_frac", "ratio", frac(HostPhase::Fork)),
        ("sched.commit_frac", "ratio", frac(HostPhase::Commit)),
        ("sched.serial_frac", "ratio", frac(HostPhase::Serial)),
        ("sched.ckpt_frac", "ratio", frac(HostPhase::Ckpt)),
        ("sched.stream_frac", "ratio", frac(HostPhase::Stream)),
        ("sched.rounds", "count", adm.rounds as f64),
        (
            "sched.admitted_frac",
            "ratio",
            ratio(adm.admitted_ops as f64, host_ops as f64),
        ),
        ("sched.reject_horizon", "count", adm.rejected_horizon as f64),
        ("sched.reject_shared", "count", adm.rejected_shared as f64),
        ("sched.reject_opaque", "count", adm.rejected_opaque as f64),
        ("pool.idle_frac", "ratio", idle_frac),
        ("observe.trace_s", "s", extra(Observer::Trace)),
        ("observe.account_s", "s", extra(Observer::Account)),
        ("observe.telemetry_s", "s", extra(Observer::Telemetry)),
        ("observe.spans_s", "s", extra(Observer::Spans)),
        ("observe.hostprof_s", "s", extra(Observer::HostProf)),
        ("observe.stream_s", "s", extra(Observer::Stream)),
        ("observe.ckpt_s", "s", extra(Observer::Ckpt)),
        (
            "observe.total_frac",
            "ratio",
            ratio(obs.cpu_s[OBSERVERS.len() - 1], detached) - 1.0,
        ),
        ("ckpt.count", "count", obs.ckpt_count as f64),
        ("ckpt.bytes", "B", obs.ckpt_bytes as f64),
        ("journal.bytes", "B", obs.journal_bytes as f64),
        ("core.calibrate_s", "s", cal_t.cpu_s),
        (
            "core.cell_s_max",
            "s",
            cell_secs.iter().copied().fold(0.0, f64::max),
        ),
        ("core.cells_s_sum", "s", cells_sum),
        (
            "core.matrix_busy_frac",
            "ratio",
            ratio(cells_sum, 2.0 * plain.run.wall_s),
        ),
        ("core.gold_error_pct", "%", gold_error_pct),
        ("alloc.per_kop", "1/kop", allocs as f64 / plain_ops * 1e3),
        ("alloc.bytes_per_op", "B/op", alloc_bytes as f64 / plain_ops),
        (
            "trace.overhead_frac",
            "ratio",
            ratio(traced.run.cpu_s, plain.run.cpu_s) - 1.0,
        ),
        ("count.ops", "count", plain.ops as f64),
        ("count.proto_txns", "count", txns),
        (
            "count.magic_nacks",
            "count",
            stats.get_or_zero("magic.nacks"),
        ),
        ("count.net_msgs", "count", stats.get_or_zero("net.messages")),
        (
            "count.tlb_refills",
            "count",
            stats.get_or_zero("os.tlb_refills"),
        ),
        ("count.admitted_ops", "count", adm.admitted_ops as f64),
        ("count.allocs", "count", allocs as f64),
        ("count.alloc_bytes", "B", alloc_bytes as f64),
        ("self.bench_s", "s", spans.self_s("bench")),
        ("self.calibrate_s", "s", spans.self_s("calibrate")),
        ("self.fig7_s", "s", spans.self_s("fig7")),
        ("self.run_hardware_s", "s", spans.self_s("run_hardware")),
        ("self.run_supervised_s", "s", spans.self_s("run_supervised")),
        ("self.machine_new_s", "s", spans.self_s("machine_new")),
        ("self.machine_run_s", "s", spans.self_s("machine_run")),
        (
            "self.run_matrix_journaled_s",
            "s",
            spans.self_s("run_matrix_journaled"),
        ),
    ];
    (layers, tally)
}

/// What the traced pass produced for the later steps.
enum TracedCell {
    Cell(Cell),
    Figure(Option<SpeedupFigure>),
}

/// One pass of the workload's timed section.
fn pass(
    ctx: &Ctx,
    fig7_ops: u64,
    spans: Option<&Spans>,
    tally: &mut Tally,
) -> (Sample, TracedCell) {
    let (sample, cell) = match ctx.workload {
        Workload::Fft16W2 => {
            let (s, c) = fft_iteration(ctx, spans.is_some(), spans);
            (s, TracedCell::Cell(c))
        }
        Workload::Radix16Journaled => {
            if spans.is_none() {
                let _ = std::fs::remove_dir_all(journal_dir(&ctx.work));
            }
            let tuning = ctx.tuning.as_ref().expect("calibrated at start");
            let (s, c) = radix_iteration(ctx, tuning, spans);
            if spans.is_none() {
                let _ = std::fs::remove_dir_all(journal_dir(&ctx.work));
            }
            (s, TracedCell::Cell(c))
        }
        Workload::Fig7Hotspot => {
            let (s, _, f) = fig7_iteration(ctx, fig7_ops, spans);
            (s, TracedCell::Figure(f))
        }
    };
    tally.sample(&sample);
    (sample, cell)
}
