//! The host-time self-profiler's isolation contract: attaching
//! `hostprof` observes the simulator, it never participates in it. Host
//! clock reads feed phase accumulators and nothing else, so a run with
//! the profiler attached must be *byte-identical* to the same run
//! without it on every simulated observable — stats JSON, accounting,
//! cycle times, per-node op counts, barrier releases, telemetry JSONL,
//! span JSONL, and the stream's deterministic event lines — on every
//! platform, under the serial Reference and Batched policies and the
//! Parallel policy (where the profiler instruments the fork/join rounds
//! themselves).

mod common;

use common::{eq_workers, platforms};
use flashsim::engine::{stream, SpanPlan, TimeDelta};
use flashsim::machine::{run_program, RunResult, SchedPolicy};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};

/// Every scheduling policy the profiler instruments.
fn policies() -> Vec<(String, SchedPolicy)> {
    vec![
        ("reference".to_owned(), SchedPolicy::Reference),
        ("batched".to_owned(), SchedPolicy::Batched),
        (
            format!("parallel(workers={})", eq_workers()),
            SchedPolicy::Parallel {
                workers: eq_workers(),
            },
        ),
    ]
}

/// Folds every simulated observable of a run into one comparable blob.
/// Host-side fields (`manifest` wall numbers, `hostprof` itself) are
/// deliberately excluded — they are *allowed* to differ.
fn observable_bytes(r: &RunResult) -> String {
    format!(
        "{}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
        r.stats.to_json(),
        r.total_time,
        r.parallel_time,
        r.ops_per_node,
        r.barrier_releases,
        r.accounting
            .as_ref()
            .map(|a| a.to_json())
            .unwrap_or_default(),
        r.telemetry
            .as_ref()
            .map(|t| t.to_jsonl())
            .unwrap_or_default(),
        r.spans.as_ref().map(|s| s.to_jsonl()).unwrap_or_default(),
    )
}

#[test]
fn attaching_hostprof_changes_no_simulated_byte() {
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, base) in platforms(&study, 2) {
        for (pname, policy) in policies() {
            let mut cfg = base.clone();
            cfg.sched = policy;
            cfg.profile = true;
            cfg.telemetry = Some(TimeDelta::from_us(1));
            cfg.spans = Some(SpanPlan::all(7));
            let mut on = cfg.clone();
            on.hostprof = true;
            let detached = run_program(cfg, &prog).expect("detached run completes");
            let attached = run_program(on, &prog).expect("attached run completes");
            assert_eq!(
                observable_bytes(&attached),
                observable_bytes(&detached),
                "{label}/{pname}: hostprof must not change simulated state"
            );
            assert!(
                detached.hostprof.is_none(),
                "{label}/{pname}: detached run must carry no host report"
            );
            let report = attached
                .hostprof
                .as_ref()
                .expect("attached run carries a host report");
            assert_eq!(
                report.phase_ns.iter().sum::<u64>(),
                report.total_ns,
                "{label}/{pname}: phase times must tile the run window exactly"
            );
        }
    }
}

#[test]
fn hostprof_leaves_deterministic_stream_events_untouched() {
    // The stream emitter is instrumented from inside (the `Stream`
    // phase guard wraps every flush), so the live protocol is where an
    // isolation bug would leak first. Advisory progress lines carry
    // host occupancy by design; the *deterministic* lines must not
    // move a byte.
    let dir = std::env::temp_dir().join(format!("flashsim-hostprof-iso-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.sched = SchedPolicy::Parallel {
        workers: eq_workers(),
    };
    cfg.telemetry = Some(TimeDelta::from_us(1));
    cfg.profile = true;
    let mut texts = Vec::new();
    for hostprof in [false, true] {
        let path = dir.join(if hostprof { "on.stream" } else { "off.stream" });
        let mut c = cfg.clone();
        c.hostprof = hostprof;
        c.stream = Some(path.clone());
        run_program(c, &prog).expect("streamed run completes");
        let text = std::fs::read_to_string(&path).expect("stream file written");
        stream::validate_jsonl(&text).expect("stream validates");
        texts.push(text);
    }
    assert_eq!(
        stream::deterministic_lines(&texts[0]),
        stream::deterministic_lines(&texts[1]),
        "hostprof must not perturb the deterministic stream events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
