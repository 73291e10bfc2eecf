//! `flashsim-flashlite` — the detailed FLASH memory-system simulator.
//!
//! FlashLite is the paper's high-fidelity model: "a multi-threaded
//! simulator of the memory bus, MAGIC node controller, network, memory and
//! I/O subsystems", with a cycle-accurate emulation of the protocol
//! processor and latencies extracted from the Verilog RTL. This crate
//! reproduces it at transaction level:
//!
//! - every node has a MAGIC whose **protocol processor is an occupancy
//!   resource** — each handler (request decode, directory lookup, network
//!   send/receive, intervention, writeback) occupies it for its cycle
//!   count, so a hot home node queues requests (the Figure-7 effect the
//!   generic NUMA model misses),
//! - interleaved **memory banks** are an occupancy pool (140 ns to the
//!   first double-word, Table 1),
//! - the **hypercube network** from `flashsim-net` charges per-link
//!   occupancy (router/network contention),
//! - the directory protocol is the real dynamic-pointer-allocation state
//!   machine from `flashsim-proto` — the same protocol the gold standard
//!   runs, as in the paper.
//!
//! # Examples
//!
//! ```
//! use flashsim_flashlite::{FlashLite, FlashLiteParams};
//! use flashsim_mem::{AccessKind, LineAddr, MemRequest, MemorySystem, ProtocolCase};
//! use flashsim_engine::Time;
//!
//! let mut fl = FlashLite::new(4, 1 << 24, FlashLiteParams::hardware()).unwrap();
//! let out = fl.access(MemRequest {
//!     node: 0,
//!     line: LineAddr(0x100),         // homed at node 0
//!     kind: AccessKind::ReadShared,
//!     now: Time::ZERO,
//! });
//! assert_eq!(out.case, ProtocolCase::LocalClean);
//! assert!(out.done_at.as_ns() > 400);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;

pub use params::FlashLiteParams;

use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::{
    FaultInjector, MessageFate, MetricId, MetricKind, Resource, ResourcePool, SpanClass,
    SpanTracer, StatSet, Telemetry, Time, TimeDelta, Tracer,
};
use flashsim_mem::system::{LatencyBreakdown, MemOutcome, MemRequest, MemorySystem, NodeId};
use flashsim_mem::LineAddr;
use flashsim_net::{Network, Topology, TopologyError};
use flashsim_proto::{Coherence, CostModel, DirMetrics, Handler, Msg, ProcessorLatency};

/// The detailed FLASH memory-system model.
#[derive(Debug)]
pub struct FlashLite {
    proto: Coherence<Magic>,
}

/// FlashLite's cost model: MAGIC's PI stage and protocol processor as
/// occupancy resources, the contended hypercube with message fault
/// fates, memory banks, and NACK admission at a saturated home.
#[derive(Debug)]
struct Magic {
    params: FlashLiteParams,
    net: Network,
    pp: Vec<Resource>,
    pi: Vec<Resource>,
    mem: Vec<ResourcePool>,
    faults: FaultInjector,
    telemetry: Telemetry,
    spans: SpanTracer,
    tel_queue: MetricId,
    /// Per-home-node variants of `magic.queue_ps` (bounded cardinality:
    /// registered up front, one id per node, and only for machines small
    /// enough to keep the label set bounded).
    tel_queue_node: Vec<MetricId>,
    tel_nacks: MetricId,
    tel_retries: MetricId,
    tel_bank_wait: MetricId,
    nacks: u64,
    retries: u64,
    nack_backoff: TimeDelta,
}

impl FlashLite {
    /// Creates a FlashLite over `nodes` nodes, each owning
    /// `node_mem_bytes` of physical memory.
    ///
    /// # Errors
    ///
    /// Returns an error if `nodes` is not a power of two (hypercube).
    pub fn new(
        nodes: u32,
        node_mem_bytes: u64,
        params: FlashLiteParams,
    ) -> Result<FlashLite, TopologyError> {
        let topo = Topology::hypercube(nodes)?;
        let magic = Magic {
            params,
            net: Network::new(topo, params.net),
            pp: (0..nodes).map(|_| Resource::new("magic-pp")).collect(),
            pi: (0..nodes).map(|_| Resource::new("magic-pi")).collect(),
            mem: (0..nodes)
                .map(|_| ResourcePool::new("mem-banks", params.mem_banks))
                .collect(),
            faults: FaultInjector::inert(),
            telemetry: Telemetry::disabled(),
            spans: SpanTracer::disabled(),
            tel_queue: MetricId::NONE,
            tel_queue_node: Vec::new(),
            tel_nacks: MetricId::NONE,
            tel_retries: MetricId::NONE,
            tel_bank_wait: MetricId::NONE,
            nacks: 0,
            retries: 0,
            nack_backoff: TimeDelta::ZERO,
        };
        let processor = ProcessorLatency {
            miss_detect: params.proc_miss_detect,
            intervention: params.proc_intervention,
            reply_fill: params.reply_fill,
        };
        Ok(FlashLite {
            proto: Coherence::new(nodes, node_mem_bytes, params.dir_pool, processor, magic),
        })
    }
}

impl Magic {
    /// Charges a protocol handler: the full cycle count contributes to the
    /// transaction's LATENCY, but only half of it OCCUPIES the protocol
    /// processor — the other half of the path (SRAM lookups, queue and
    /// bus crossings) overlaps with the next handler's dispatch. The
    /// handler cycle values are calibrated against end-to-end snbench
    /// latencies, which fold in those non-PP components; charging them
    /// all as occupancy would roughly double MAGIC's real service demand.
    fn pp_acquire(&mut self, node: NodeId, cycles: u64, kind: &'static str, t: Time) -> Time {
        let occupancy = self.params.pp(cycles.div_ceil(2));
        let grant = self.pp[node as usize].acquire(t, occupancy);
        let done = grant.start + self.params.pp(cycles);
        // The span charge is exactly what the walk charges on the
        // critical path (queue wait + handler run), so per-class span
        // sums reconcile with the transaction's LatencyBreakdown to the
        // picosecond.
        self.spans
            .leg(kind, node, t, done, Some(SpanClass::Occupancy), done - t);
        done
    }

    /// The processor-interface handler runs on MAGIC's PI stage, which is
    /// separate hardware from the protocol processor: local requests do
    /// not occupy the PP for their inbound decode, so a burst of
    /// lockup-free misses queues far less than if one engine did
    /// everything.
    fn pi_acquire(&mut self, node: NodeId, t: Time) -> Time {
        let cycles = self.params.pp_pi_request;
        let grant = self.pi[node as usize].acquire(t, self.params.pp(cycles.div_ceil(2)));
        let done = grant.start + self.params.pp(cycles);
        self.spans.leg(
            "pi_request",
            node,
            t,
            done,
            Some(SpanClass::Occupancy),
            done - t,
        );
        done
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        kind: &'static str,
        t: Time,
    ) -> Time {
        let mut depart = t;
        // Fault injection: a dropped message is retransmitted after the
        // plan's timeout; a delayed one leaves late. Bounded so even a
        // pathological fate stream cannot loop forever.
        for _ in 0..16 {
            match self.faults.message_fate(from, to) {
                MessageFate::Deliver => break,
                MessageFate::Delay(d) => {
                    depart += d;
                    break;
                }
                MessageFate::Drop => depart += self.faults.plan().drop_timeout,
            }
        }
        // The network leg carries the whole transit charge; the router
        // emits zero-charge per-hop children nested inside it.
        // Fault-injected delays/retransmits count as transit: they are
        // time the message spends "in" the network from the charger's
        // point of view.
        self.spans.begin(kind, from, t);
        let arrival = self.net.send(from, to, bytes, depart);
        self.spans
            .end(arrival, Some(SpanClass::Network), arrival - t);
        arrival
    }
}

impl CostModel for Magic {
    fn handler(&mut self, h: Handler, node: NodeId, t: Time) -> Time {
        let p = self.params;
        let (cycles, kind) = match h {
            Handler::Request => return self.pi_acquire(node, t),
            Handler::Dir { local } => {
                // MAGIC inbound-queue occupancy at the home, sampled as
                // each demand reaches the directory handler: the queued
                // work (in ps) ahead of this request. This is the series
                // the paper's hotspot study turns on — the latency-only
                // NUMA model has no such queue.
                let queued = self.pp[node as usize].wait_at(t).as_ps();
                self.telemetry.occupy(self.tel_queue, t, queued);
                if let Some(&id) = self.tel_queue_node.get(node as usize) {
                    self.telemetry.occupy(id, t, queued);
                }
                let cycles = if local {
                    p.pp_dir_local
                } else {
                    p.pp_dir_remote
                };
                (cycles, "dir_lookup")
            }
            Handler::Out => (p.pp_ni_out, "ni_out"),
            Handler::Reply => (p.pp_ni_reply, "ni_reply"),
            Handler::Intervention => (p.pp_intervention, "pp_intervention"),
            Handler::DirtyExtra => (p.pp_dirty_extra, "dirty_extra"),
        };
        self.pp_acquire(node, cycles, kind, t)
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg, t: Time) -> Time {
        let bytes = match msg {
            Msg::Header => self.params.header_bytes,
            Msg::Data => self.params.line_bytes + self.params.header_bytes,
        };
        self.transmit(from, to, bytes, "net", t)
    }

    fn memory(&mut self, node: NodeId, t: Time) -> Time {
        let grant = self.mem[node as usize].acquire(t, self.params.mem_busy);
        self.telemetry
            .count(self.tel_bank_wait, grant.start, grant.wait.as_ps());
        let done = grant.start + self.params.mem_access;
        // Bank wait + access: the part of the data path the breakdown's
        // `memory` residual covers (zero-charged off the critical path).
        self.spans
            .leg("mem_bank", node, t, done, Some(SpanClass::Memory), done - t);
        done
    }

    fn writeback_arrival(&mut self, node: NodeId, home: NodeId, t: Time) -> Time {
        // Victim writebacks drain from MAGIC's outbound/victim queues in
        // spare cycles (demand misses are prioritized), so they charge
        // the network and the memory banks but do not occupy the PI or
        // the protocol processor ahead of the next demand miss.
        let t = t + self.params.pp(self.params.pp_writeback);
        if node == home {
            t
        } else {
            self.send(node, home, Msg::Data, t)
        }
    }

    /// The bounded-inbound-queue NACK path: a remote request arriving at a
    /// saturated home MAGIC is bounced back and retried with exponential
    /// backoff, as on real FLASH. Returns when the request is finally
    /// accepted at the home. Each bounce costs a NACK header back to the
    /// requester, the backoff wait, and a fresh outbound send (the bounce
    /// itself is handled in MAGIC's inbound hardware, not the PP).
    fn admit(
        &mut self,
        requester: NodeId,
        home: NodeId,
        mut t: Time,
        charges: &mut LatencyBreakdown,
    ) -> Time {
        let p = self.params;
        let mut retries: u32 = 0;
        while self.pp[home as usize].wait_at(t) > p.nack_threshold && retries < p.nack_max_retries {
            self.nacks += 1;
            self.telemetry.count(self.tel_nacks, t, 1);
            retries += 1;
            let bounced = self.transmit(home, requester, p.header_bytes, "nack", t);
            charges.network += bounced - t;
            let backoff = p.nack_retry_base * (1u64 << (retries - 1).min(6));
            self.nack_backoff += backoff;
            // Backoff is time spent waiting out home-MAGIC saturation:
            // occupancy, not transit.
            charges.occupancy += backoff;
            let resend = bounced + backoff;
            self.spans.leg(
                "backoff",
                requester,
                bounced,
                resend,
                Some(SpanClass::Occupancy),
                backoff,
            );
            let out = self.pp_acquire(requester, p.pp_ni_out, "ni_out", resend);
            charges.occupancy += out - resend;
            t = self.send(requester, home, Msg::Header, out);
            charges.network += t - out;
        }
        self.retries += u64::from(retries);
        if retries > 0 {
            self.telemetry
                .count(self.tel_retries, t, u64::from(retries));
        }
        t
    }

    fn collect_acks(&mut self, home: NodeId, t: Time) -> Time {
        self.pp_acquire(home, self.params.pp_dir_local, "dir_lookup", t)
    }

    fn sharing_writeback(&mut self, owner: NodeId, home: NodeId, t: Time) {
        self.spans.begin_offpath("sharing_wb", owner, t);
        let wb = self.send(owner, home, Msg::Data, t);
        let wb = self.pp_acquire(home, self.params.pp_writeback, "pp_writeback", wb);
        let done = self.memory(home, wb);
        self.spans.end(done, None, TimeDelta::ZERO);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry, dir: &mut DirMetrics) {
        // `magic.queue_ps` is the paper's omitted-queueing signature:
        // FlashLite registers it, the NUMA model does not.
        self.tel_queue = telemetry.register("magic.queue_ps", MetricKind::Occupancy);
        dir.register(telemetry);
        self.tel_nacks = telemetry.register("magic.nacks", MetricKind::Counter);
        self.tel_retries = telemetry.register("magic.retries", MetricKind::Counter);
        self.tel_bank_wait = telemetry.register("mem.bank_wait_ps", MetricKind::Counter);
        // Per-home-node variants let hotspot studies see WHICH MAGIC is
        // saturated, not just that one is.
        self.tel_queue_node.clear();
        dir.register_nodes(telemetry, |n| {
            let id = telemetry.register_node("magic.queue_ps", n, MetricKind::Occupancy);
            self.tel_queue_node.push(id);
        });
        self.net.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry.clone();
    }

    fn attach_spans(&mut self, spans: &SpanTracer) {
        self.spans = spans.clone();
        self.net.attach_spans(spans.clone());
    }
}

impl MemorySystem for FlashLite {
    fn access(&mut self, req: MemRequest) -> MemOutcome {
        self.proto.access(req)
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.proto.home_of(line)
    }

    fn stats(&self) -> StatSet {
        let mut s = self.proto.stats();
        let m = &self.proto.cost;
        let pp_busy: f64 = m.pp.iter().map(|r| r.busy_total().as_ns_f64()).sum();
        let pp_wait: f64 = m.pp.iter().map(|r| r.wait_total().as_ns_f64()).sum();
        s.set("magic.pp_busy_ns", pp_busy);
        s.set("magic.pp_wait_ns", pp_wait);
        // Retry-storm visibility: NACK bounces, retried sends, and the
        // total backoff charged to requesters.
        s.set("magic.nacks", m.nacks as f64);
        s.set("magic.retries", m.retries as f64);
        s.set("magic.nack_backoff_ns", m.nack_backoff.as_ns_f64());
        let mem_wait: f64 = m.mem.iter().map(|b| b.wait_total().as_ns_f64()).sum();
        s.set("mem.bank_wait_ns", mem_wait);
        // Directory pointer-storage pressure.
        let dirs = self.proto.dirs();
        let reclaims: u64 = dirs.iter().map(|d| d.reclaims()).sum();
        let pool_used: u32 = dirs.iter().map(|d| d.pool_used()).sum();
        s.set("proto.dir_reclaims", reclaims as f64);
        s.set("proto.dir_pool_used", f64::from(pool_used));
        s.absorb_flat(&m.net.stats());
        s
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.proto.cost.net.attach_tracer(tracer.clone());
        self.proto.attach_tracer(tracer);
    }

    fn attach_faults(&mut self, faults: FaultInjector) {
        self.proto.cost.faults = faults;
    }

    fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.proto.attach_telemetry(telemetry);
    }

    fn attach_spans(&mut self, spans: SpanTracer) {
        self.proto.attach_spans(spans);
    }

    fn model_name(&self) -> &'static str {
        "flashlite"
    }

    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.proto.save_ckpt(w, |m, w| {
            w.u64("nacks", m.nacks);
            w.u64("retries", m.retries);
            w.delta("nack_backoff", m.nack_backoff);
        });
        let m = &self.proto.cost;
        m.net.save_ckpt(w);
        for r in m.pp.iter().chain(&m.pi) {
            r.save_ckpt(w);
        }
        for b in &m.mem {
            b.save_ckpt(w);
        }
    }

    fn load_ckpt(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.proto.load_ckpt(r, |m, r| {
            m.nacks = r.u64("nacks")?;
            m.retries = r.u64("retries")?;
            m.nack_backoff = r.delta("nack_backoff")?;
            Ok(())
        })?;
        let m = &mut self.proto.cost;
        m.net.load_ckpt(r)?;
        for res in m.pp.iter_mut().chain(&mut m.pi) {
            res.load_ckpt(r)?;
        }
        for b in m.mem.iter_mut() {
            b.load_ckpt(r)?;
        }
        Ok(())
    }

    fn min_shared_latency(&self) -> TimeDelta {
        // Every demand path charges miss detection, the requester MAGIC's
        // PI handler, and at least the local directory handler before any
        // reply can exist; occupancy waits only lengthen it.
        let p = &self.proto.cost.params;
        p.proc_miss_detect + p.pp(p.pp_pi_request + p.pp_dir_local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim_mem::system::{AccessKind, ProtocolCase};

    fn fl(nodes: u32) -> FlashLite {
        FlashLite::new(nodes, 1 << 24, FlashLiteParams::hardware()).unwrap()
    }

    fn read(flm: &mut FlashLite, node: u32, line: u64, at_ns: u64) -> MemOutcome {
        flm.access(MemRequest {
            node,
            line: LineAddr(line),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(at_ns),
        })
    }

    #[test]
    fn local_clean_read_latency_near_table3() {
        let mut m = fl(4);
        let out = read(&mut m, 0, 0x100, 0);
        assert_eq!(out.case, ProtocolCase::LocalClean);
        let ns = out.done_at.as_ns();
        assert!((450..750).contains(&ns), "local clean read took {ns}ns");
        assert!(out.exclusive);
    }

    #[test]
    fn remote_clean_costs_more_than_local() {
        let mut m = fl(4);
        let local = read(&mut m, 0, 0x100, 0).done_at;
        let mut m2 = fl(4);
        let remote = read(&mut m2, 1, 0x100, 0); // line homed at node 0
        assert_eq!(remote.case, ProtocolCase::RemoteClean);
        assert!(remote.done_at > local + TimeDelta::from_ns(300));
    }

    #[test]
    fn dirty_cases_classify_and_cost_most() {
        // Node 2 dirties a line homed at node 0; node 1 then reads it.
        let mut m = fl(4);
        m.access(MemRequest {
            node: 2,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 1, 0x100, 10_000);
        assert_eq!(out.case, ProtocolCase::RemoteDirtyRemote);
        assert_eq!(out.actions.downgrade, Some(2));
        let lat = out.done_at.as_ns() - 10_000;
        assert!(lat > 2_000, "dirty-remote read took only {lat}ns");
    }

    #[test]
    fn local_dirty_remote_case() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 3,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 0, 0x100, 10_000); // home reads its own line
        assert_eq!(out.case, ProtocolCase::LocalDirtyRemote);
    }

    #[test]
    fn remote_dirty_home_case() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 0,
            line: LineAddr(0x100), // home 0 dirties its own line
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = read(&mut m, 1, 0x100, 10_000);
        assert_eq!(out.case, ProtocolCase::RemoteDirtyHome);
    }

    #[test]
    fn table3_ordering_of_case_latencies() {
        // The paper's Table 3 ordering: LC < RC < LDR < RDH < RDR.
        let lat = |setup: &mut dyn FnMut(&mut FlashLite), node: u32, line: u64| {
            let mut m = fl(4);
            setup(&mut m);
            let out = read(&mut m, node, line, 100_000);
            out.done_at.as_ns() - 100_000
        };
        let lc = lat(&mut |_| {}, 0, 0x100);
        let rc = lat(&mut |_| {}, 1, 0x100);
        let ldr = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 1,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            0,
            0x100,
        );
        let rdh = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 0,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            1,
            0x100,
        );
        let rdr = lat(
            &mut |m| {
                m.access(MemRequest {
                    node: 2,
                    line: LineAddr(0x100),
                    kind: AccessKind::ReadExclusive,
                    now: Time::ZERO,
                });
            },
            1,
            0x100,
        );
        assert!(lc < rc, "LC {lc} !< RC {rc}");
        assert!(rc < ldr, "RC {rc} !< LDR {ldr}");
        assert!(ldr < rdh, "LDR {ldr} !< RDH {rdh}");
        assert!(rdh < rdr, "RDH {rdh} !< RDR {rdr}");
    }

    #[test]
    fn hotspot_queues_at_home_pp() {
        // Many nodes hammer lines homed at node 0 simultaneously: later
        // requests must queue on node 0's protocol processor.
        let mut m = fl(8);
        let mut latencies = Vec::new();
        for node in 1..8 {
            let out = m.access(MemRequest {
                node,
                line: LineAddr(0x1000 + u64::from(node) * 128),
                kind: AccessKind::ReadShared,
                now: Time::ZERO,
            });
            latencies.push(out.done_at.as_ns());
        }
        assert!(
            latencies.last().unwrap() > &(latencies[0] + 200),
            "no queueing visible: {latencies:?}"
        );
        assert!(m.stats().get_or_zero("magic.pp_wait_ns") > 0.0);
    }

    #[test]
    fn upgrade_invalidates_other_sharers() {
        let mut m = fl(4);
        read(&mut m, 1, 0x100, 0);
        read(&mut m, 2, 0x100, 5_000); // intervention: shared {1,2}
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Upgrade,
            now: Time::from_ns(20_000),
        });
        assert_eq!(out.case, ProtocolCase::UpgradeOwnership);
        assert!(out.exclusive);
        assert!(out.actions.invalidate.contains(&2));
    }

    #[test]
    fn writeback_is_processed_and_line_becomes_clean() {
        let mut m = fl(4);
        m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::ReadExclusive,
            now: Time::ZERO,
        });
        let out = m.access(MemRequest {
            node: 1,
            line: LineAddr(0x100),
            kind: AccessKind::Writeback,
            now: Time::from_ns(10_000),
        });
        assert_eq!(out.case, ProtocolCase::WritebackCase);
        // The next reader sees a clean line again.
        let next = read(&mut m, 2, 0x100, 50_000);
        assert_eq!(next.case, ProtocolCase::RemoteClean);
    }

    #[test]
    fn home_mapping_partitions_address_space() {
        let m = fl(4);
        assert_eq!(m.home_of(LineAddr(0)), 0);
        assert_eq!(m.home_of(LineAddr(1 << 24)), 1);
        assert_eq!(m.home_of(LineAddr(3 << 24)), 3);
        // Clamped at the top.
        assert_eq!(m.home_of(LineAddr(100 << 24)), 3);
    }

    #[test]
    fn stats_expose_case_means() {
        let mut m = fl(4);
        read(&mut m, 0, 0x100, 0);
        read(&mut m, 0, 0x40000, 5_000);
        let s = m.stats();
        assert_eq!(s.get_or_zero("proto.local_clean.count"), 2.0);
        assert!(s.get_or_zero("proto.local_clean.mean_ns") > 400.0);
        assert_eq!(s.get("proto.remote_clean.mean_ns"), None);
    }

    #[test]
    fn untuned_local_read_is_faster_than_hardware() {
        let mut hw = fl(4);
        let mut un = FlashLite::new(4, 1 << 24, FlashLiteParams::untuned()).unwrap();
        let t_hw = read(&mut hw, 0, 0x100, 0).done_at;
        let t_un = read(&mut un, 0, 0x100, 0).done_at;
        assert!(t_un < t_hw, "untuned local path must be optimistic");
    }

    #[test]
    fn ckpt_roundtrip_preserves_protocol_and_occupancy_state() {
        let mut a = fl(4);
        // Build up directory state, PP timelines, and case ledgers.
        for node in 1..4 {
            a.access(MemRequest {
                node,
                line: LineAddr(0x100),
                kind: AccessKind::ReadShared,
                now: Time::from_ns(u64::from(node) * 100),
            });
        }
        a.access(MemRequest {
            node: 2,
            line: LineAddr(0x2000_0000),
            kind: AccessKind::ReadExclusive,
            now: Time::from_ns(1_000),
        });
        let mut w = CkptWriter::new("fl-test");
        a.save_ckpt(&mut w);
        let text = w.finish();

        let mut b = fl(4);
        let mut r = CkptReader::open(&text).expect("open");
        b.load_ckpt(&mut r).expect("load");
        r.finish().expect("fully consumed");

        assert_eq!(a.stats().to_json(), b.stats().to_json());
        // Identical future transactions, including queueing decisions.
        let next = MemRequest {
            node: 3,
            line: LineAddr(0x2000_0000),
            kind: AccessKind::ReadShared,
            now: Time::from_ns(2_000),
        };
        assert_eq!(a.access(next), b.access(next));
        assert_eq!(a.stats().to_json(), b.stats().to_json());

        let mut other = fl(8);
        let mut r = CkptReader::open(&text).expect("open");
        assert!(matches!(
            other.load_ckpt(&mut r),
            Err(CkptError::Parse { .. })
        ));
    }

    #[test]
    fn single_node_machine_never_touches_network() {
        let mut m = fl(1);
        read(&mut m, 0, 0x100, 0);
        read(&mut m, 0, 0x4000, 5_000);
        assert_eq!(m.stats().get_or_zero("net.hops"), 0.0);
    }
}
