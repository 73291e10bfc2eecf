//! The live-stream determinism contract (DESIGN.md §3.17): the
//! deterministic events of a `flashsim-stream-v1` stream — `start`,
//! closed `bucket`s, `ckpt` markers, and the `end` terminator — are a
//! pure function of the run's provenance. Rerunning the same
//! configuration reproduces them byte for byte on every platform of
//! the study; `SchedPolicy::Batched` reproduces `Reference` exactly;
//! and a run restored from any checkpoint *continues* the stream so
//! that trimmed-prefix + continuation is byte-identical to the
//! uninterrupted stream and still validates as one gapless chain.
//! Advisory `progress` events are wall-clock-driven and excluded from
//! every comparison here, exactly as the protocol specifies.

mod common;

use common::{observed, platforms, prog};
use flashsim::engine::stream::{self, MemorySink};
use flashsim::engine::Time;
use flashsim::machine::{Machine, MachineConfig, SchedPolicy};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::Fft;
use std::sync::{Arc, Mutex};

/// Runs to completion with a memory stream sink attached, returning
/// the captured stream text.
fn run_streamed(cfg: MachineConfig, program: &Fft) -> String {
    let (text, _) = run_streamed_with_ckpts(cfg, program);
    text
}

/// Same, also capturing every `(seq, text)` checkpoint emitted.
fn run_streamed_with_ckpts(cfg: MachineConfig, program: &Fft) -> (String, Vec<(u64, String)>) {
    let (sink, buf) = MemorySink::new();
    let ckpts: Arc<Mutex<Vec<(u64, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let csink = Arc::clone(&ckpts);
    let mut m = Machine::new(cfg, program).expect("machine builds");
    m.attach_stream_sink(Box::new(sink));
    m.attach_ckpt_sink(Box::new(move |seq, _at: Time, text: &str| {
        csink
            .lock()
            .expect("ckpt lock")
            .push((seq, text.to_owned()));
    }));
    m.run().expect("streamed run completes");
    drop(m);
    let text = buf.lock().expect("stream buffer").clone();
    let ckpts = Arc::try_unwrap(ckpts)
        .expect("ckpt sink dropped")
        .into_inner()
        .expect("lock");
    (text, ckpts)
}

#[test]
fn rerunning_reproduces_the_deterministic_events_on_every_platform() {
    let study = Study::scaled();
    let program = prog();
    for (label, cfg) in platforms(&study, 2) {
        let a = run_streamed(observed(cfg.clone()), &program);
        let b = run_streamed(observed(cfg), &program);
        stream::validate_jsonl(&a).unwrap_or_else(|e| panic!("{label}: stream invalid: {e}"));
        let da = stream::deterministic_lines(&a);
        let db = stream::deterministic_lines(&b);
        assert!(
            da.iter().any(|l| l.contains("\"ev\":\"bucket\"")),
            "{label}: a multi-barrier run must close buckets"
        );
        assert!(
            da.last().is_some_and(|l| l.contains("\"kind\":\"ok\"")),
            "{label}: stream must terminate ok"
        );
        assert_eq!(
            da, db,
            "{label}: rerun must reproduce the deterministic events byte for byte"
        );
        assert_eq!(
            stream::provenance_of(&a),
            stream::provenance_of(&b),
            "{label}: rerun must carry the same provenance hash"
        );
    }
}

#[test]
fn batched_policy_streams_identically_to_reference() {
    let study = Study::scaled();
    let program = prog();
    let batched = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    let mut reference = batched.clone();
    reference.sched = SchedPolicy::Reference;
    let a = run_streamed(observed(batched), &program);
    let b = run_streamed(observed(reference), &program);
    // The start headers differ (they embed the policy key and the
    // provenance hash that includes it); every deterministic event
    // after them — bucket deltas, accounting deltas, the terminator —
    // must be byte-identical, because all of them are cut at barrier
    // releases where the sched-equivalence contract pins every total.
    assert_eq!(
        stream::deterministic_lines(&a),
        stream::deterministic_lines(&b),
        "Batched must stream the same closed buckets as Reference"
    );
    assert_ne!(
        stream::provenance_of(&a),
        stream::provenance_of(&b),
        "the two policies are distinct provenances (prefix checks never cross-compare them)"
    );
}

#[test]
fn restore_from_every_checkpoint_continues_the_stream_byte_identically() {
    let study = Study::scaled();
    let program = prog();
    for cfg in [
        study.hardware(2),
        study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite),
    ] {
        let label = cfg.label();
        let (straight, ckpts) = run_streamed_with_ckpts(observed(cfg.clone()), &program);
        assert!(
            ckpts.len() >= 2,
            "{label}: multi-barrier FFT must checkpoint repeatedly"
        );
        for (seq, text) in &ckpts {
            let mut m = Machine::restore(observed(cfg.clone()), &program, text)
                .unwrap_or_else(|e| panic!("{label}: restore ckpt {seq}: {e}"));
            // What the journal does on resume: trim the dead run's file
            // to the prefix the checkpoint is consistent with, then let
            // the machine append to it.
            let prefix = stream::consistent_prefix(&straight, m.stream_position().0);
            let (sink, buf) = MemorySink::new();
            m.attach_stream_sink(Box::new(sink));
            // The journal re-attaches a checkpoint sink on resume, so
            // `ckpt` markers keep flowing after the splice; mirror that.
            m.attach_ckpt_sink(Box::new(|_, _: Time, _: &str| {}));
            m.run().expect("resumed run completes");
            drop(m);
            let spliced = format!("{prefix}{}", buf.lock().expect("buffer").clone());
            stream::validate_jsonl(&spliced).unwrap_or_else(|e| {
                panic!("{label} ckpt {seq}: spliced stream must validate as one gapless chain: {e}")
            });
            assert_eq!(
                stream::deterministic_lines(&spliced),
                stream::deterministic_lines(&straight),
                "{label} ckpt {seq}: trimmed prefix + continuation must equal the straight stream"
            );
        }
    }
}

#[test]
fn a_failed_run_terminates_its_stream_with_the_error_kind() {
    let study = Study::scaled();
    let program = prog();
    let mut cfg = observed(study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite));
    cfg.watchdog.max_ops = Some(500); // far too small: the watchdog trips
    let (sink, buf) = MemorySink::new();
    let mut m = Machine::new(cfg, &program).expect("machine builds");
    m.attach_stream_sink(Box::new(sink));
    let err = m.run().expect_err("budget must trip");
    drop(m);
    let text = buf.lock().expect("buffer").clone();
    stream::validate_jsonl(&text).expect("failed run's stream still validates");
    let det = stream::deterministic_lines(&text);
    let last = det.last().expect("stream has a terminator");
    assert!(
        last.contains("\"ev\":\"end\"") && last.contains(&format!("\"kind\":\"{}\"", err.kind())),
        "terminator must carry the error kind {:?}, got {last}",
        err.kind()
    );
}
