//! Integration tests for the causal span tracer: the seeded sampler is
//! deterministic and platform-independent, every recorded tree nests
//! and its charges tile the transaction exactly (reconciling with the
//! `LatencyBreakdown` decomposition in integer picoseconds), the
//! machine-layer JSONL export is byte-identical across reruns and
//! across the `Batched`/`Reference` scheduling policies, and the span
//! diff shows MAGIC occupancy legs on FlashLite that have no
//! counterpart on the contention-free NUMA model.

use flashsim::engine::span::{kinds_only_in, validate_jsonl};
use flashsim::engine::{
    CategoryMask, SpanPlan, SpanSet, SpanTracer, SpanTxn, Time, TimeDelta, TraceCategory, Tracer,
};
use flashsim::flashlite::{FlashLite, FlashLiteParams};
use flashsim::machine::{run_program, Machine, SchedPolicy};
use flashsim::mem::{AccessKind, LineAddr, MemOutcome, MemRequest, MemorySystem};
use flashsim::numa::{Numa, NumaParams};
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};

const NODES: u32 = 8;
const NODE_MEM: u64 = 1 << 24;

fn flashlite() -> FlashLite {
    FlashLite::new(NODES, NODE_MEM, FlashLiteParams::hardware()).expect("power-of-two node count")
}

fn numa() -> Numa {
    Numa::new(NODES, NODE_MEM, NumaParams::matched())
}

/// One demand access driven the way the machine layer drives it: the
/// span transaction opens at issue and closes at completion.
fn access(
    mem: &mut dyn MemorySystem,
    spans: &SpanTracer,
    node: u32,
    line: u64,
    kind: AccessKind,
    now: Time,
) -> MemOutcome {
    let on = spans.txn_try_begin(node, line, kind.key(), now);
    let out = mem.access(MemRequest {
        node,
        line: LineAddr(line),
        kind,
        now,
    });
    if on {
        spans.txn_end(out.done_at, out.case.key());
    }
    out
}

/// A coherence-rich script exercising every protocol path: clean remote
/// reads, dirty-owner interventions (with the off-path sharing
/// writeback), demand-write invalidation rounds, ownership upgrades
/// with sharers, a read-exclusive of a line dirty in another cache, and
/// an invalidation round whose sharers include the home. Lines are
/// homed at node 0. Returns each access's outcome in issue order.
fn drive_protocol_mix(mem: &mut dyn MemorySystem, spans: &SpanTracer) -> Vec<MemOutcome> {
    let mut t = Time::ZERO;
    let mut step = |mem: &mut dyn MemorySystem, node: u32, line: u64, kind: AccessKind| {
        let out = access(mem, spans, node, line, kind, t);
        t = out.done_at + TimeDelta::from_ns(100);
        out
    };
    let script = [
        // Clean read from memory at the home.
        (1, 0x1000, AccessKind::ReadShared),
        // Dirty the line at node 2, then read it from node 3: owner
        // intervention plus the background sharing writeback to home 0.
        (2, 0x2000, AccessKind::ReadExclusive),
        (3, 0x2000, AccessKind::ReadShared),
        // Build a sharing list, then write: demand invalidation round.
        (1, 0x3000, AccessKind::ReadShared),
        (4, 0x3000, AccessKind::ReadShared),
        (5, 0x3000, AccessKind::ReadExclusive),
        // Shared at two nodes, then upgrade at one: the round IS the path.
        (6, 0x4000, AccessKind::ReadShared),
        (7, 0x4000, AccessKind::ReadShared),
        (6, 0x4000, AccessKind::Upgrade),
        // Dirty at node 2, then read-exclusive from node 3: the owner
        // supplies the data and is not also sent an invalidation.
        (2, 0x5000, AccessKind::ReadExclusive),
        (3, 0x5000, AccessKind::ReadExclusive),
        // Shared by the home and node 1, then written by node 2: the
        // home invalidates its own copy without a network message.
        (0, 0x6000, AccessKind::ReadShared),
        (1, 0x6000, AccessKind::ReadShared),
        (2, 0x6000, AccessKind::ReadExclusive),
    ];
    script
        .into_iter()
        .map(|(node, line, kind)| step(mem, node, line, kind))
        .collect()
}

fn trace_protocol_mix(
    mut mem: Box<dyn MemorySystem>,
    plan: SpanPlan,
) -> (SpanSet, Vec<MemOutcome>) {
    let tracer = SpanTracer::new(plan);
    mem.attach_spans(tracer.clone());
    let outs = drive_protocol_mix(&mut *mem, &tracer);
    (tracer.snapshot().expect("tracer is enabled"), outs)
}

#[test]
fn sampler_is_deterministic_and_seed_sensitive() {
    let (a, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(7, 2));
    let (b, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(7, 2));
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "same plan, same drive: the export must be byte-identical"
    );
    // Different seeds pick different subsets (the drive has 14 demand
    // transactions; at period 2 a collision of all picks is absurd).
    let keys = |s: &SpanSet| s.txns.iter().map(|t| t.key()).collect::<Vec<_>>();
    let mut distinct = false;
    for seed in 1..=8 {
        let (c, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::sampled(seed, 2));
        if keys(&c) != keys(&a) {
            distinct = true;
            break;
        }
    }
    assert!(distinct, "seeds 1..=8 all sampled the same transactions");
    // Period 1 records every demand access; the disabled tracer, none.
    let (all, outs) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::all(7));
    assert_eq!(all.txns.len(), outs.len());
    assert!(SpanTracer::disabled().snapshot().is_none());
}

#[test]
fn charges_tile_and_reconcile_with_latency_breakdown_exactly() {
    use flashsim::engine::SpanClass;
    for (label, mem) in [
        ("flashlite", Box::new(flashlite()) as Box<dyn MemorySystem>),
        ("numa", Box::new(numa())),
    ] {
        let (set, outs) = trace_protocol_mix(mem, SpanPlan::all(7));
        assert_eq!(set.txns.len(), outs.len(), "{label}: period 1 records all");
        for (txn, out) in set.txns.iter().zip(&outs) {
            let id = format!("{label}/{}/{:#x}", txn.kind, txn.line);
            assert!(txn.nested(), "{id}: spans must nest within parents");
            // The tiling invariant: charges sum to the end-to-end
            // latency, so the critical path explains every picosecond.
            assert_eq!(txn.charge_total(), txn.total(), "{id}: legs must tile");
            let path_sum = txn
                .critical_path()
                .iter()
                .fold(TimeDelta::ZERO, |acc, s| acc + s.charge);
            assert_eq!(path_sum, txn.total(), "{id}: critical path sum");
            // Exact integer-ps reconciliation against the transaction's
            // LatencyBreakdown, class by class.
            assert_eq!(
                txn.class_total(SpanClass::Occupancy),
                out.breakdown.occupancy,
                "{id}: occupancy class"
            );
            assert_eq!(
                txn.class_total(SpanClass::Network),
                out.breakdown.network,
                "{id}: network class"
            );
            assert_eq!(
                txn.class_total(SpanClass::Memory),
                out.breakdown.memory,
                "{id}: memory class"
            );
        }
        let jsonl = set.to_jsonl();
        validate_jsonl(&jsonl).unwrap_or_else(|e| panic!("{label}: export invalid: {e}"));
    }
}

#[test]
fn numa_walks_the_same_messages_as_flashlite() {
    // Both models run one coherence walk, so each transaction sends the
    // same interventions; only the leg names and costs differ.
    let (fl, _) = trace_protocol_mix(Box::new(flashlite()), SpanPlan::all(7));
    let (nu, _) = trace_protocol_mix(Box::new(numa()), SpanPlan::all(7));
    let aligned = fl.align(&nu);
    assert_eq!(aligned.len(), fl.txns.len(), "period 1 aligns every txn");
    let count = |t: &SpanTxn, kind: &str| t.spans.iter().filter(|s| s.kind == kind).count();
    for (ft, nt) in &aligned {
        let id = format!("{}/{:#x}/{}", ft.kind, ft.line, ft.node);
        assert_eq!(
            count(ft, "pp_intervention"),
            count(nt, "ctrl_intervention"),
            "{id}: interventions"
        );
        assert!(
            !nt.spans.iter().any(|s| s.kind == "net" && s.start == s.end),
            "{id}: NUMA sent a message from a node to itself"
        );
    }
}

#[test]
fn machine_span_export_is_byte_identical_across_reruns_and_policies() {
    let study = Study::scaled();
    let fft = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    for mem in [MemModel::FlashLite, MemModel::Numa] {
        let mut cfg = study.sim(Sim::SimosMipsy(150), 2, mem);
        cfg.spans = Some(SpanPlan::sampled(7, 8));
        let jsonl = |sched: SchedPolicy| {
            let mut cfg = cfg.clone();
            cfg.sched = sched;
            let r = run_program(cfg, &fft).expect("span run completes");
            assert_eq!(
                r.manifest.spans.as_deref(),
                Some("seed=7 period=8 max_txns=4096"),
                "manifest must record the span plan"
            );
            let set = r.spans.expect("spans were attached");
            assert!(!set.txns.is_empty(), "sampler found no transactions");
            set.to_jsonl()
        };
        let a = jsonl(SchedPolicy::Batched);
        let b = jsonl(SchedPolicy::Batched);
        let c = jsonl(SchedPolicy::Reference);
        assert_eq!(a, b, "{mem:?}: rerun must be byte-identical");
        assert_eq!(a, c, "{mem:?}: export must not depend on scheduling policy");
        validate_jsonl(&a).unwrap_or_else(|e| panic!("{mem:?}: machine export invalid: {e}"));
    }
}

#[test]
fn span_flow_events_survive_trace_ring_wraparound() {
    let study = Study::scaled();
    let fft = Fft::sized(ProblemScale::Tiny, 2, FftBlocking::Cache);
    let mut cfg = study.sim(Sim::SimosMipsy(150), 2, MemModel::FlashLite);
    cfg.spans = Some(SpanPlan::all(7));
    // A ring far smaller than the span-marker stream alone (every
    // transaction is sampled): even filtered to the span category the
    // recorder must wrap, keeping the most recent markers.
    let tracer = Tracer::new(256, CategoryMask::only(TraceCategory::Span));
    let mut machine = Machine::new(cfg, &fft).expect("valid configuration");
    machine.attach_tracer(tracer.clone());
    machine.run().expect("traced run completes");
    let trace = tracer.snapshot();
    assert!(trace.dropped > 0, "ring must have wrapped");
    assert_eq!(trace.events.len(), 256);
    let json = trace.to_chrome_json();
    // The surviving tail still carries span flow events, and every
    // span_end maps to a flow-finish phase.
    assert!(
        trace.events.iter().any(|e| e.kind == "span_end"),
        "span markers must appear in the surviving tail"
    );
    assert!(
        json.contains("\"ph\":\"f\",\"bp\":\"e\""),
        "flow finish phase"
    );
}

#[test]
fn span_diff_shows_magic_legs_only_on_flashlite_for_the_same_txn() {
    // The hotspot drive from tests/telemetry_hotspot.rs, spans attached.
    let plan = SpanPlan::sampled(7, 4);
    let collect = |mem: &mut dyn MemorySystem| {
        let tracer = SpanTracer::new(plan);
        mem.attach_spans(tracer.clone());
        for round in 0..40u64 {
            let now = Time::ZERO + TimeDelta::from_us(10) * round;
            for n in 1..=7u32 {
                let line = ((round * 7 + u64::from(n)) * 128) % NODE_MEM;
                access(mem, &tracer, n, line, AccessKind::ReadShared, now);
            }
        }
        tracer.snapshot().expect("tracer is enabled")
    };
    let fl = collect(&mut flashlite());
    let nu = collect(&mut numa());
    let aligned = fl.align(&nu);
    assert!(
        !aligned.is_empty(),
        "the platform-independent sampler must pick the same transactions"
    );
    for (ft, nt) in &aligned {
        assert_eq!(ft.key(), nt.key());
        let fl_only = kinds_only_in(ft, nt);
        let nu_only = kinds_only_in(nt, ft);
        // MAGIC's occupancy legs exist only where MAGIC is modeled; the
        // NUMA side replaces them with fixed-latency controller legs.
        assert!(
            fl_only.contains(&"pi_request"),
            "{:?}: FlashLite must show MAGIC PI occupancy, got {fl_only:?}",
            ft.key()
        );
        assert!(
            nu_only.contains(&"ctrl_request"),
            "{:?}: NUMA must show its fixed-latency controller, got {nu_only:?}",
            nt.key()
        );
        assert!(
            !kinds_only_in(nt, ft).contains(&"pi_request"),
            "MAGIC legs must never appear on the NUMA side"
        );
    }
}
