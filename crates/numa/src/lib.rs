//! `flashsim-numa` — the generic NUMA memory-system model.
//!
//! The paper (§2.2, §3.3): "the NUMA simulator models the memory system of
//! a generic NUMA machine. It simulates network latencies, contention for
//! main memory, and the latency through the directory controller ...
//! However, it does not model occupancy of the directory controller beyond
//! the normal latency path, nor does it model contention in the network or
//! the routers." It is "the type of memory system simulator we might have
//! used had we never designed and built real hardware."
//!
//! Concretely, relative to FlashLite this model:
//!
//! - runs the **same coherence walk** (identical directory transitions,
//!   requests, interventions and replies),
//! - charges **pure latency** for every controller handler and network hop
//!   (no occupancy timelines → a hotspot home node never queues),
//! - *does* model **memory-bank contention** (an occupancy pool), per the
//!   paper's wording.
//!
//! Its latency constants are "set to match hardware latencies, known well
//! in advance of building the hardware" — i.e. [`NumaParams::matched`]
//! duplicates the gold standard's zero-load decomposition.
//!
//! # Examples
//!
//! ```
//! use flashsim_numa::{Numa, NumaParams};
//! use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem};
//! use flashsim_engine::Time;
//!
//! let mut numa = Numa::new(4, 1 << 24, NumaParams::matched());
//! let a = numa.access(MemRequest { node: 1, line: LineAddr(0x100),
//!                                  kind: AccessKind::ReadShared, now: Time::ZERO });
//! let b = numa.access(MemRequest { node: 2, line: LineAddr(0x180),
//!                                  kind: AccessKind::ReadShared, now: Time::ZERO });
//! // No controller occupancy: same-time requests to one home don't queue
//! // (beyond the memory banks).
//! assert!(b.done_at <= a.done_at);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::{
    MetricId, MetricKind, ResourcePool, SpanClass, SpanTracer, StatSet, Telemetry, Time, TimeDelta,
    Tracer,
};
use flashsim_mem::system::{MemOutcome, MemRequest, MemorySystem, NodeId};
use flashsim_mem::LineAddr;
use flashsim_proto::{Coherence, CostModel, DirMetrics, Handler, Msg, ProcessorLatency};

/// Latency constants for the NUMA model.
///
/// Field meanings mirror the FlashLite decomposition, but here they are
/// *pure delays*: nothing occupies a controller, so back-to-back requests
/// to the same home overlap freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaParams {
    /// Processor miss detection + pins.
    pub miss_detect: TimeDelta,
    /// Controller request-decode latency.
    pub ctrl_request: TimeDelta,
    /// Directory lookup latency, local requester.
    pub dir_local: TimeDelta,
    /// Directory lookup latency, network requester.
    pub dir_remote: TimeDelta,
    /// Controller network-send latency.
    pub ctrl_out: TimeDelta,
    /// Controller network-receive latency.
    pub ctrl_reply: TimeDelta,
    /// Intervention-processing latency at an owner.
    pub ctrl_intervention: TimeDelta,
    /// Extra dirty-path latency at the home.
    pub dirty_extra: TimeDelta,
    /// Owner's processor supplying a dirty line from its cache.
    pub proc_intervention: TimeDelta,
    /// DRAM access time.
    pub mem_access: TimeDelta,
    /// DRAM bank occupancy (memory contention IS modelled).
    pub mem_busy: TimeDelta,
    /// Banks per node.
    pub mem_banks: usize,
    /// Reply bus + restart.
    pub reply_fill: TimeDelta,
    /// Per-hop network latency (no link occupancy).
    pub hop_latency: TimeDelta,
    /// Approximate serialization of a data message (added once per
    /// network traversal, not per link — no store-and-forward queueing).
    pub data_transfer: TimeDelta,
    /// Directory pointer-pool capacity per node.
    pub dir_pool: u32,
}

impl NumaParams {
    /// Constants matched to the gold-standard zero-load latencies
    /// ("known well in advance of building the hardware").
    pub fn matched() -> NumaParams {
        NumaParams {
            miss_detect: TimeDelta::from_ns(100),
            ctrl_request: TimeDelta::from_ns(107),
            dir_local: TimeDelta::from_ns(133),
            dir_remote: TimeDelta::from_ns(213),
            ctrl_out: TimeDelta::from_ns(133),
            ctrl_reply: TimeDelta::from_ns(213),
            ctrl_intervention: TimeDelta::from_ns(213),
            dirty_extra: TimeDelta::from_ns(267),
            proc_intervention: TimeDelta::from_ns(750),
            mem_access: TimeDelta::from_ns(140),
            mem_busy: TimeDelta::from_ns(120),
            mem_banks: 4,
            reply_fill: TimeDelta::from_ns(110),
            hop_latency: TimeDelta::from_ns(50),
            data_transfer: TimeDelta::from_ns(160),
            dir_pool: 1 << 16,
        }
    }
}

/// The generic latency-only NUMA memory system.
#[derive(Debug)]
pub struct Numa {
    proto: Coherence<LatencyOnly>,
}

/// NUMA's cost model: every handler and network hop is a fixed latency,
/// and only the memory banks are an occupancy resource.
#[derive(Debug)]
struct LatencyOnly {
    params: NumaParams,
    mem: Vec<ResourcePool>,
    telemetry: Telemetry,
    spans: SpanTracer,
    tel_bank_wait: MetricId,
}

impl Numa {
    /// Creates a NUMA model over `nodes` nodes of `node_mem_bytes` each.
    /// Any positive node count is accepted (no hypercube restriction —
    /// hop distance still uses the hypercube metric for comparability).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u32, node_mem_bytes: u64, params: NumaParams) -> Numa {
        assert!(nodes > 0, "need at least one node");
        let latency = LatencyOnly {
            params,
            mem: (0..nodes)
                .map(|_| ResourcePool::new("mem-banks", params.mem_banks))
                .collect(),
            telemetry: Telemetry::disabled(),
            spans: SpanTracer::disabled(),
            tel_bank_wait: MetricId::NONE,
        };
        let processor = ProcessorLatency {
            miss_detect: params.miss_detect,
            intervention: params.proc_intervention,
            reply_fill: params.reply_fill,
        };
        Numa {
            proto: Coherence::new(nodes, node_mem_bytes, params.dir_pool, processor, latency),
        }
    }
}

impl LatencyOnly {
    fn net(&self, a: NodeId, b: NodeId, msg: Msg) -> TimeDelta {
        if a == b {
            return TimeDelta::ZERO;
        }
        let base = self.params.hop_latency * u64::from((a ^ b).count_ones());
        match msg {
            Msg::Header => base,
            Msg::Data => base + self.params.data_transfer,
        }
    }
}

impl CostModel for LatencyOnly {
    /// Controller and directory handler delays are occupancy: the same
    /// work FlashLite queues on, which here never queues — exactly the
    /// difference the attribution differ should expose.
    fn handler(&mut self, h: Handler, node: NodeId, t: Time) -> Time {
        let p = &self.params;
        let (kind, d) = match h {
            Handler::Request => ("ctrl_request", p.ctrl_request),
            Handler::Dir { local: true } => ("dir_lookup", p.dir_local),
            Handler::Dir { local: false } => ("dir_lookup", p.dir_remote),
            Handler::Out => ("ctrl_out", p.ctrl_out),
            Handler::Reply => ("ctrl_reply", p.ctrl_reply),
            Handler::Intervention => ("ctrl_intervention", p.ctrl_intervention),
            Handler::DirtyExtra => ("dirty_extra", p.dirty_extra),
        };
        self.spans
            .leg(kind, node, t, t + d, Some(SpanClass::Occupancy), d);
        t + d
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg, t: Time) -> Time {
        let d = self.net(from, to, msg);
        self.spans
            .leg("net", from, t, t + d, Some(SpanClass::Network), d);
        t + d
    }

    fn memory(&mut self, node: NodeId, t: Time) -> Time {
        let grant = self.mem[node as usize].acquire(t, self.params.mem_busy);
        self.telemetry
            .count(self.tel_bank_wait, grant.start, grant.wait.as_ps());
        let done = grant.start + self.params.mem_access;
        self.spans
            .leg("mem_bank", node, t, done, Some(SpanClass::Memory), done - t);
        done
    }

    fn writeback_arrival(&mut self, node: NodeId, home: NodeId, t: Time) -> Time {
        t + self.params.ctrl_request + self.net(node, home, Msg::Data)
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, dir: &mut DirMetrics) {
        // Deliberately NO `magic.queue_ps` registration: this model has
        // no controller inbound queue to measure. Its absence from the
        // telemetry series is the paper's omitted-queueing signature
        // (asserted by `tests/telemetry_hotspot.rs`).
        dir.register(telemetry);
        self.tel_bank_wait = telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        // Per-home-node pool variants (bounded cardinality, as FlashLite).
        dir.register_nodes(telemetry, |_| {});
        self.telemetry = telemetry.clone();
    }

    fn attach_spans(&mut self, spans: &SpanTracer) {
        self.spans = spans.clone();
    }
}

impl MemorySystem for Numa {
    fn access(&mut self, req: MemRequest) -> MemOutcome {
        self.proto.access(req)
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.proto.home_of(line)
    }

    fn stats(&self) -> StatSet {
        let mut s = self.proto.stats();
        let mem = &self.proto.cost.mem;
        let mem_wait: f64 = mem.iter().map(|m| m.wait_total().as_ns_f64()).sum();
        s.set("mem.bank_wait_ns", mem_wait);
        s
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.proto.attach_tracer(tracer);
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.proto.attach_telemetry(telemetry);
    }

    fn attach_spans(&mut self, spans: SpanTracer) {
        self.proto.attach_spans(spans);
    }

    fn model_name(&self) -> &'static str {
        "numa"
    }

    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.proto.save_ckpt(w, |_, _| {});
        for m in &self.proto.cost.mem {
            m.save_ckpt(w);
        }
    }

    fn load_ckpt(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.proto.load_ckpt(r, |_, _| Ok(()))?;
        for m in self.proto.cost.mem.iter_mut() {
            m.load_ckpt(r)?;
        }
        Ok(())
    }

    fn min_shared_latency(&self) -> TimeDelta {
        // Cheapest demand transaction: miss detection + controller decode
        // + local directory lookup, all unconditionally on the path.
        let p = &self.proto.cost.params;
        p.miss_detect + p.ctrl_request + p.dir_local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_mem::system::{AccessKind, ProtocolCase};

    fn numa(nodes: u32) -> Numa {
        Numa::new(nodes, 1 << 24, NumaParams::matched())
    }

    fn read(m: &mut Numa, node: u32, line: u64, at_ns: u64) -> MemOutcome {
        m.access(MemRequest {
            node,
            line: LineAddr(line),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(at_ns),
        })
    }

    #[test]
    fn local_clean_latency_close_to_flashlite_zero_load() {
        let mut m = numa(4);
        let out = read(&mut m, 0, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::LocalClean);
        let ns = out.done_at.as_ns();
        assert!((450..750).contains(&ns), "local clean read took {ns}ns");
    }

    #[test]
    fn case_latency_ordering_matches_protocol() {
        let mut m = numa(4);
        let lc = read(&mut m, 0, 0x100, 0).done_at.as_ns();
        let mut m = numa(4);
        let rc = read(&mut m, 1, 0x100, 0).done_at.as_ns();
        let mut m = numa(4);
        m.access(MemRequest {
            node: 2,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let rdr = read(&mut m, 1, 0x100, 100_000).done_at.as_ns() - 100_000;
        assert!(lc < rc && rc < rdr, "lc={lc} rc={rc} rdr={rdr}");
    }

    #[test]
    fn no_controller_queueing_under_hotspot() {
        // The defining NUMA omission: simultaneous requests to one home,
        // different lines, distinct banks — all complete at the same time.
        let mut m = numa(8);
        let mut latencies = Vec::new();
        for node in [1u32, 2, 4] {
            // All three nodes are one hop from home 0 in the hypercube.
            // Lines map to banks round-robin inside ResourcePool; with 4
            // banks and 3 requests nothing queues.
            let out = m.access(MemRequest {
                node,
                line: LineAddr(0x1000 + u64::from(node) * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        assert_eq!(latencies[0], latencies[1]);
        assert_eq!(latencies[1], latencies[2]);
    }

    #[test]
    fn memory_bank_contention_is_modelled() {
        let mut m = numa(2);
        let mut latencies = Vec::new();
        for i in 0..8u64 {
            let out = m.access(MemRequest {
                node: 1,
                line: LineAddr(0x1000 + i * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        // 8 simultaneous accesses over 4 banks: the last must wait.
        assert!(latencies[7] > latencies[0]);
        assert!(m.stats().get_or_zero("mem.bank_wait_ns") > 0.0);
    }

    #[test]
    fn protocol_state_identical_to_flashlite_semantics() {
        let mut m = numa(4);
        read(&mut m, 1, 0x100, 0);
        read(&mut m, 2, 0x100, 10_000);
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(50_000),
        });
        assert!(out.exclusive);
        assert!(out.actions.invalidate.contains(&2));
    }

    #[test]
    fn non_power_of_two_node_counts_allowed() {
        let mut m = Numa::new(3, 1 << 24, NumaParams::matched());
        let out = read(&mut m, 2, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::RemoteClean);
    }

    #[test]
    fn ckpt_roundtrip_preserves_directory_and_bank_state() {
        let mut a = numa(4);
        read(&mut a, 1, 0x100, 0);
        read(&mut a, 2, 0x100, 10_000);
        for i in 0..6u64 {
            read(&mut a, 1, 0x1000 + i * 128, 20_000); // bank contention
        }
        let mut w = CkptWriter::new("numa-test");
        MemorySystem::save_ckpt(&a, &mut w);
        let text = w.finish();

        let mut b = numa(4);
        let mut r = CkptReader::open(&text).expect("open");
        b.load_ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.stats().to_json(), b.stats().to_json());
        let next = MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(50_000),
        };
        assert_eq!(a.access(next), b.access(next));
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        let mut other = numa(8);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.load_ckpt(&mut r),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn stats_report_cases() {
        let mut m = numa(4);
        read(&mut m, 0, 0x100, 0);
        let s = m.stats();
        assert_eq!(s.get_or_zero("proto.local_clean.count"), 1.0);
        assert_eq!(m.model_name(), "numa");
    }
}
