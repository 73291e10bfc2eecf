//! flashsim benchmark: end-to-end host cost of three long workloads,
//! and a traced run that splits it across the program's layers.
//!
//! ```text
//! flashsim-perfbench --workload fft16-w2|fig7-hotspot|radix16-journaled
//!                    --seed N --seconds S --trace 0|1 [--print-pins]
//! ```
//!
//! Run from the repository root (it reads `perfbench/pins.txt` and
//! writes scratch files under `.bench_work/`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` (cells)
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod clock;
mod layers;
mod pins;
mod spans;
mod traced;
mod workloads;

use flashsim_core::platform::Study;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Ctx, Sample, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Iterations every untraced run makes, however long they take.
const MIN_ITERATIONS: usize = 3;
const PINS: &str = "perfbench/pins.txt";
const WORK_DIR: &str = ".bench_work";

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut print_pins) = (1, 10, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--print-pins" => print_pins = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        print_pins,
    })
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs iterations until `seconds` have passed (at least
/// `MIN_ITERATIONS`), and reports the end-to-end metrics.
fn untraced(
    ctx: &Ctx,
    seconds: u64,
    fig7_ops: u64,
) -> (Vec<(&'static str, &'static str, f64)>, u64, u64) {
    let (mut cells, mut failed) = (0, 0);
    if ctx.workload == Workload::Fft16W2 {
        // An untimed first pass with the host profiler attached: the
        // check that the parallel policy still forks.
        let (s, _) = workloads::fft_iteration(ctx, true, None);
        cells += s.cells;
        failed += s.failed;
    }
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let s = match ctx.workload {
            Workload::Fft16W2 => workloads::fft_iteration(ctx, false, None).0,
            Workload::Fig7Hotspot => workloads::fig7_iteration(ctx, fig7_ops, None).0,
            Workload::Radix16Journaled => {
                let tuning = ctx.tuning.as_ref().expect("calibrated at start");
                let s = workloads::radix_iteration(ctx, tuning, None).0;
                let _ = std::fs::remove_dir_all(workloads::journal_dir(&ctx.work));
                s
            }
        };
        eprintln!(
            "iteration {}: setup {:.6} s, wall {:.6} s, steal {:.3} s, cpu {:.3} s, {} ops, {} of {} cells failed",
            samples.len(),
            s.setup_s,
            s.run.wall_s,
            s.run.steal_s,
            s.run.cpu_s,
            s.ops,
            s.failed,
            s.cells
        );
        cells += s.cells;
        failed += s.failed;
        samples.push(s);
    }
    let col = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        ("cpu_s", "s", col(|s| s.run.cpu_s)),
        ("wall_s", "s", col(|s| s.run.elapsed_s())),
        (
            "sim_mips",
            "Mop/s",
            col(|s| s.ops as f64 / s.run.cpu_s / 1e6),
        ),
        ("setup_s", "s", col(|s| s.setup_s)),
        ("peak_rss_mb", "MB", peak_rss_mb()),
        (
            "ok_frac",
            "ratio",
            (cells - failed) as f64 / cells.max(1) as f64,
        ),
    ];
    (metrics, cells, failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let pins_text = match std::fs::read_to_string(PINS) {
        Ok(t) => t,
        Err(e) if args.print_pins => {
            eprintln!("note: {PINS}: {e}");
            String::new()
        }
        Err(e) => {
            eprintln!("error: {PINS}: {e} (run from the repository root)");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR);
    let study = Study::scaled();
    let tuning = (args.workload == Workload::Radix16Journaled)
        .then(|| flashsim_core::calibrate(&study).tuning);
    let ctx = Ctx {
        workload: args.workload,
        study,
        seed: args.seed,
        work: work.clone(),
        pins: pins::Pins::parse(&pins_text, args.print_pins),
        tuning,
    };
    let fig7_ops = match args.workload {
        Workload::Fig7Hotspot => workloads::fig7_ops(),
        _ => 0,
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: {}: {e}", work.display());
        return ExitCode::FAILURE;
    }

    let (metrics, cells, failed): (Vec<(&str, &str, f64)>, u64, u64) = if args.trace {
        let (layers, tally) = traced::run(&ctx, fig7_ops);
        (layers, tally.cells, tally.failed)
    } else {
        untraced(&ctx, args.seconds, fig7_ops)
    };
    let _ = std::fs::remove_dir_all(&work);

    if args.print_pins {
        print!("{}", ctx.pins.render_observed());
        return ExitCode::SUCCESS;
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, v) in &metrics {
        println!("{name:<30} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {cells}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && finite,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
