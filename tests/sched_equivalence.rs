//! The optimized schedulers' correctness contract: on every platform, a
//! run under the default `Batched` policy *and* under the `Parallel`
//! policy (nodes sharded across host worker threads under the
//! conservative lookahead horizon) is *bit-identical* to the same run
//! under the `Reference` policy (one op per scheduling decision, linear
//! laggard scan) — same stats JSON, same accounting, same parallel/total
//! times, same barrier releases, same per-node op counts, same telemetry
//! and span JSONL. The batching, the laggard heap, the flat stream
//! cursor, the L1-hit fast path, and the fork/join rounds are all pure
//! host-side optimizations; nothing about the simulated machine may
//! move, at any worker count (`FLASHSIM_EQ_WORKERS` sweeps it in CI).

mod common;

use common::{eq_workers, platforms};
use flashsim::attrib::run_profiled;
use flashsim::engine::{CategoryMask, FaultPlan, SpanPlan, Time, TimeDelta, Tracer};
use flashsim::machine::{run_program, Machine, MachineConfig, RunResult, SchedPolicy};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale, SnCase, Snbench, SyncStorm};
use std::sync::{Arc, Mutex};

/// The optimized policies, each proven against `Reference`.
fn candidates() -> Vec<(String, SchedPolicy)> {
    let w = eq_workers();
    vec![
        ("batched".to_owned(), SchedPolicy::Batched),
        (
            format!("parallel(workers={w})"),
            SchedPolicy::Parallel { workers: w },
        ),
    ]
}

fn with_policy(mut cfg: MachineConfig, sched: SchedPolicy) -> MachineConfig {
    cfg.sched = sched;
    cfg
}

/// Asserts every schedule-sensitive observable of two runs is identical.
fn assert_identical(label: &str, candidate: &RunResult, reference: &RunResult) {
    assert_eq!(
        candidate.stats.to_json(),
        reference.stats.to_json(),
        "{label}: stats JSON must be byte-identical"
    );
    assert_eq!(
        candidate.parallel_time, reference.parallel_time,
        "{label}: parallel time must match"
    );
    assert_eq!(
        candidate.total_time, reference.total_time,
        "{label}: total time must match"
    );
    assert_eq!(
        candidate.ops_per_node, reference.ops_per_node,
        "{label}: per-node op counts must match"
    );
    assert_eq!(
        candidate.barrier_releases, reference.barrier_releases,
        "{label}: barrier release times must match"
    );
    match (&candidate.accounting, &reference.accounting) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_json(),
            r.to_json(),
            "{label}: accounting must be byte-identical"
        ),
        _ => panic!("{label}: one run profiled, the other not"),
    }
    match (&candidate.telemetry, &reference.telemetry) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_jsonl(),
            r.to_jsonl(),
            "{label}: stable telemetry JSONL must be byte-identical"
        ),
        _ => panic!("{label}: one run sampled telemetry, the other not"),
    }
    match (&candidate.spans, &reference.spans) {
        (None, None) => {}
        (Some(b), Some(r)) => assert_eq!(
            b.to_jsonl(),
            r.to_jsonl(),
            "{label}: span JSONL must be byte-identical"
        ),
        _ => panic!("{label}: one run traced spans, the other not"),
    }
}

#[test]
fn candidates_match_reference_on_every_platform() {
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, cfg) in platforms(&study, 2) {
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_with_profiler_attached() {
    // The profiler widens the observable surface (per-op marks, wall vs
    // in-op charges, time-phase buckets), so equivalence is asserted
    // under it too.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for (label, cfg) in platforms(&study, 2) {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn traced_parallel_matches_reference_and_traces_like_batched() {
    // An active tracer keeps the parallel policy from forking (the
    // ring's insertion order under concurrent emission is not
    // deterministic), so it runs the serial loop: every observable must
    // still match Reference, and the exported trace must be
    // byte-identical to Batched's.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let traced = |cfg: MachineConfig| {
        // Large enough that no platform's run wraps the ring.
        let tracer = Tracer::new(1 << 20, CategoryMask::ALL);
        let mut m = Machine::new(cfg, &prog).expect("machine builds");
        m.attach_tracer(tracer.clone());
        let result = m.run().expect("traced run completes");
        (result, tracer.snapshot())
    };
    let w = eq_workers();
    for (label, cfg) in platforms(&study, 2) {
        let (r, _) = traced(with_policy(cfg.clone(), SchedPolicy::Reference));
        let (_, batched) = traced(with_policy(cfg.clone(), SchedPolicy::Batched));
        let (p, parallel) = traced(with_policy(cfg, SchedPolicy::Parallel { workers: w }));
        assert_identical(&format!("{label}/traced parallel(workers={w})"), &p, &r);
        assert!(
            !parallel.events.is_empty() && parallel.dropped == 0,
            "{label}: the ring must hold the whole run"
        );
        assert_eq!(
            parallel.to_chrome_json(),
            batched.to_chrome_json(),
            "{label}: traced parallel(workers={w}) must trace byte-identically to batched"
        );
    }
}

#[test]
fn candidates_match_reference_with_telemetry_and_spans() {
    // Telemetry buckets are per-window sums and span sampling happens
    // only on the serial shared paths, so both exports must be
    // byte-identical under the parallel policy's fork/join rounds too —
    // at four nodes, where rounds actually fork several nodes at once.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 4, FftBlocking::Cache);
    for (label, mut cfg) in platforms(&study, 4) {
        cfg.telemetry = Some(TimeDelta::from_us(1));
        cfg.spans = Some(SpanPlan::all(7));
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_on_sync_heavy_storm() {
    // Lock hand-off chains, queueing, and per-round barriers: the batch
    // breaker, the post-sync heap rebuild, and the parallel policy's
    // horizon collapse (every node's next shared op is a sync) get
    // exercised constantly.
    let study = Study::scaled();
    let prog = SyncStorm::new(4, 6, 5);
    for (label, cfg) in platforms(&study, 4) {
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_on_snbench_chase() {
    // The single-runnable-node regime (node 0 chasing alone between
    // barriers) is where batching earns its speedup and where the
    // parallel policy must degrade gracefully to serial batches.
    let study = Study::scaled();
    let prog = Snbench::new(SnCase::all()[2], study.geometry.l2.bytes);
    for (label, cfg) in [
        ("hardware".to_owned(), study.hardware(4)),
        (
            "simos-mipsy".to_owned(),
            study.sim(Sim::SimosMipsy(150), 4, MemModel::FlashLite),
        ),
    ] {
        let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_program(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_under_fault_injection() {
    // Latency perturbation draws from the injector's shared RNG on every
    // memory transaction, so the *order* of shared interactions is
    // directly observable: any schedule divergence scrambles the draws
    // and the stats.
    let study = Study::scaled();
    let prog = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let plan = FaultPlan {
        seed: 0xFA57,
        latency_prob: 0.25,
        latency_spread: 1.5,
        ..FaultPlan::none()
    };
    for (label, mut cfg) in platforms(&study, 2) {
        cfg.faults = Some(plan);
        let r = run_profiled(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
            .expect("reference run completes");
        for (pname, policy) in candidates() {
            let c = run_profiled(with_policy(cfg.clone(), policy), &prog)
                .expect("candidate run completes");
            assert_identical(&format!("{label}/{pname}"), &c, &r);
        }
    }
}

#[test]
fn candidates_match_reference_on_injected_stall_failure() {
    // A stalled node starves the machine; every policy must fail with
    // the same structured error (same op count, same node snapshots).
    // The parallel policy's fork phase runs the same per-op stall check,
    // so the node parks at exactly the same consumed-op count.
    let study = Study::scaled();
    let prog = SyncStorm::new(2, 4, 3);
    let plan = FaultPlan {
        seed: 7,
        stall_node: Some(1),
        stall_after_ops: 120,
        ..FaultPlan::none()
    };
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.faults = Some(plan);
    let r = run_program(with_policy(cfg.clone(), SchedPolicy::Reference), &prog)
        .expect_err("stalled run must fail");
    for (pname, policy) in candidates() {
        let c = run_program(with_policy(cfg.clone(), policy), &prog)
            .expect_err("stalled run must fail");
        assert_eq!(
            format!("{c:?}"),
            format!("{r:?}"),
            "{pname}: structured stall failures must be identical"
        );
    }
}

#[test]
fn parallel_restore_from_checkpoint_matches_reference() {
    // The sched-equivalence contract must survive a checkpoint cycle
    // under the parallel policy: snapshot a Parallel run mid-flight at a
    // quiescent point, restore it (checkpoints are worker-count
    // invariant — `key()` omits the count), resume under Parallel, and
    // land exactly on the Reference policy's numbers.
    let study = Study::scaled();
    let program = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let base = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let observed = |mut cfg: MachineConfig| {
        cfg.profile = true;
        cfg.telemetry = Some(TimeDelta::from_ns(500));
        cfg
    };
    let mut reference = base.clone();
    reference.sched = SchedPolicy::Reference;
    let ref_straight = run_program(observed(reference), &program).expect("reference run");

    let par = with_policy(
        base.clone(),
        SchedPolicy::Parallel {
            workers: eq_workers(),
        },
    );
    let ckpts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ckpts);
    let mut m = Machine::new(observed(par.clone()), &program).expect("machine builds");
    m.attach_ckpt_sink(Box::new(move |seq, _at: Time, text: &str| {
        sink.lock().expect("sink lock").push((seq, text.to_owned()));
    }));
    let straight = m.run().expect("parallel run completes");
    drop(m);
    assert_identical("parallel straight vs reference", &straight, &ref_straight);

    let ckpts = ckpts.lock().expect("sink lock").clone();
    assert!(
        ckpts.len() >= 2,
        "multi-barrier FFT must checkpoint repeatedly"
    );
    let mid = &ckpts[ckpts.len() / 2];
    let mut m = Machine::restore(observed(par), &program, &mid.1).expect("parallel ckpt restores");
    let resumed = m.run().expect("resumed parallel run completes");
    assert_identical("parallel restore vs reference", &resumed, &ref_straight);
}
