//! Integration tests for sim-time telemetry: identically seeded runs
//! export byte-identical `flashsim-telemetry-v1` JSONL on every
//! platform, the stable export is identical between the `Batched` and
//! `Reference` scheduling policies (scheduler-internal metrics are
//! volatile and excluded), and every occupancy integrator conserves
//! exactly in integer picoseconds.

mod common;

use common::platforms;
use flashsim::engine::telemetry::validate_jsonl;
use flashsim::engine::TimeDelta;
use flashsim::machine::{run_program, MachineConfig, RunResult, SchedPolicy};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};

fn fft(threads: usize) -> Fft {
    Fft::sized(ProblemScale::Tiny, threads, FftBlocking::Cache)
}

fn run_with_telemetry(mut cfg: MachineConfig) -> RunResult {
    cfg.telemetry = Some(TimeDelta::from_us(1));
    run_program(cfg, &fft(2)).expect("telemetry run completes")
}

#[test]
fn identically_seeded_telemetry_is_byte_identical_on_every_platform() {
    let study = Study::scaled();
    for (label, cfg) in platforms(&study, 2) {
        let a = run_with_telemetry(cfg.clone());
        let b = run_with_telemetry(cfg);
        let a = a.telemetry.expect("telemetry was attached");
        let b = b.telemetry.expect("telemetry was attached");
        assert_eq!(
            a.to_jsonl(),
            b.to_jsonl(),
            "{label}: telemetry JSONL must be byte-identical across reruns"
        );
        assert_eq!(
            a.to_prometheus(),
            b.to_prometheus(),
            "{label}: Prometheus export must be byte-identical across reruns"
        );
        validate_jsonl(&a.to_jsonl())
            .unwrap_or_else(|e| panic!("{label}: exported JSONL fails validation: {e}"));
    }
}

#[test]
fn batched_and_reference_schedules_export_identical_telemetry() {
    // Scheduler-internal metrics (batch counts, heap occupancy) are
    // policy-shaped by design and registered volatile; everything in the
    // *stable* export samples policy-invariant machine state, so the two
    // bit-identical schedules must serialize identically.
    let study = Study::scaled();
    for (label, cfg) in platforms(&study, 2) {
        let mut batched = cfg.clone();
        batched.sched = SchedPolicy::Batched;
        let mut reference = cfg;
        reference.sched = SchedPolicy::Reference;
        let a = run_with_telemetry(batched)
            .telemetry
            .expect("telemetry was attached");
        let b = run_with_telemetry(reference)
            .telemetry
            .expect("telemetry was attached");
        assert_eq!(
            a.to_jsonl(),
            b.to_jsonl(),
            "{label}: stable telemetry export must not depend on the scheduling policy"
        );
    }
}

#[test]
fn occupancy_integrators_conserve_exactly_on_every_platform() {
    let study = Study::scaled();
    for (label, cfg) in platforms(&study, 2) {
        let series = run_with_telemetry(cfg)
            .telemetry
            .expect("telemetry was attached");
        assert!(
            series.conserved(),
            "{label}: per-bucket sums must equal each metric's integer-ps total"
        );
        assert!(
            !series.metrics.is_empty(),
            "{label}: machine layers registered no metrics"
        );
    }
}

#[test]
fn manifest_records_scheduling_policy_and_fault_plan() {
    let study = Study::scaled();
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.sched = SchedPolicy::Reference;
    let r = run_program(cfg, &fft(2)).expect("run completes");
    assert_eq!(r.manifest.sched, "reference");
    assert_eq!(r.manifest.faults, None);
    let json = r.manifest.to_json();
    assert!(json.contains("\"sched\":\"reference\""), "json: {json}");
    assert!(json.contains("\"faults\":null"), "json: {json}");
}
