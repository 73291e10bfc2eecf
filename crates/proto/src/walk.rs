//! The coherence transaction both memory-system models run: its steps,
//! their order, which are on the requester's critical path, the
//! [`LatencyBreakdown`] charges and the walk's span legs live here once;
//! a [`CostModel`] only says when each step completes.

use crate::classify_read;
use crate::directory::{DataSource, DirResponse, Directory};
use flashsim_engine::ckpt::{CkptError, CkptReader, CkptWriter};
use flashsim_engine::{
    MetricId, MetricKind, SpanClass, SpanTracer, StatSet, Telemetry, Time, TimeDelta,
    TraceCategory, Tracer,
};
use flashsim_mem::system::{
    AccessKind, CoherenceActions, LatencyBreakdown, MemOutcome, MemRequest, NodeId, ProtocolCase,
};
use flashsim_mem::LineAddr;
use std::collections::BTreeMap;

/// A handler a node controller runs for one protocol step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// The requester's controller accepts the processor's miss.
    Request,
    /// The home's directory lookup.
    Dir {
        /// Whether the requester is the home itself.
        local: bool,
    },
    /// A controller hands a message to the network.
    Out,
    /// The requester's controller takes a reply off the network.
    Reply,
    /// An intervention or invalidation at a node caching the line.
    Intervention,
    /// The home's extra work when a cache holds the line dirty.
    DirtyExtra,
}

/// The size of a protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A header only: a request, forward, invalidation or ack.
    Header,
    /// A header carrying a cache line.
    Data,
}

/// The processor-side delays, which no model queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorLatency {
    /// Miss detection and the trip across the pins.
    pub miss_detect: TimeDelta,
    /// An owner's processor supplying a dirty line from its cache.
    pub intervention: TimeDelta,
    /// The reply crossing the bus and the processor restarting.
    pub reply_fill: TimeDelta,
}

/// The timing of one memory-system model: each step starts at `t`,
/// records the model's span legs and returns when it completes. The
/// provided methods are steps a latency-only model does not take.
pub trait CostModel {
    /// Runs handler `h` on `node`'s controller.
    fn handler(&mut self, h: Handler, node: NodeId, t: Time) -> Time;

    /// Carries a message between two different nodes.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg, t: Time) -> Time;

    /// A memory-bank access at `node`.
    fn memory(&mut self, node: NodeId, t: Time) -> Time;

    /// When a victim writeback `node` issues at `t` reaches `home`'s
    /// memory banks.
    fn writeback_arrival(&mut self, node: NodeId, home: NodeId, t: Time) -> Time;

    /// When `home` accepts a remote request that reached it at `t`; any
    /// bounce-and-retry time is charged to the transaction's `charges`.
    fn admit(
        &mut self,
        _requester: NodeId,
        _home: NodeId,
        t: Time,
        _charges: &mut LatencyBreakdown,
    ) -> Time {
        t
    }

    /// The home's handler that collects an invalidation round's acks.
    fn collect_acks(&mut self, _home: NodeId, t: Time) -> Time {
        t
    }

    /// The owner writing back the dirty line it just supplied, in the
    /// background from `t`.
    fn sharing_writeback(&mut self, _owner: NodeId, _home: NodeId, _t: Time) {}

    /// Registers the model's telemetry series, and the directory's
    /// through `dir`, in the model's order.
    fn attach_telemetry(&mut self, telemetry: &Telemetry, dir: &mut DirMetrics);

    /// Attaches the span tracer the model's legs go to.
    fn attach_spans(&mut self, spans: &SpanTracer);
}

/// The directory pointer-pool telemetry of both models.
#[derive(Debug)]
pub struct DirMetrics {
    nodes: u32,
    pool: MetricId,
    reclaims: MetricId,
    pool_node: Vec<MetricId>,
}

impl DirMetrics {
    /// Registers `proto.dir_pool_used` and `proto.dir_reclaims`.
    pub fn register(&mut self, telemetry: &Telemetry) {
        self.pool = telemetry.register("proto.dir_pool_used", MetricKind::Gauge);
        self.reclaims = telemetry.register("proto.dir_reclaims", MetricKind::Counter);
    }

    /// Registers each home node's `proto.dir_pool_used`, right after
    /// `model(node)` registers the model's own series for that node. The
    /// label cardinality is bounded by the node count; machines past 64
    /// nodes keep only the aggregates.
    pub fn register_nodes(&mut self, telemetry: &Telemetry, mut model: impl FnMut(u32)) {
        let labeled = if self.nodes <= 64 { self.nodes } else { 0 };
        self.pool_node.clear();
        for n in 0..labeled {
            model(n);
            self.pool_node.push(telemetry.register_node(
                "proto.dir_pool_used",
                n,
                MetricKind::Gauge,
            ));
        }
    }
}

/// A memory system: the coherence walk over the directories, priced by
/// cost model `C` (statically dispatched).
#[derive(Debug)]
pub struct Coherence<C> {
    /// The timing model.
    pub cost: C,
    node_mem_bytes: u64,
    nodes: u32,
    processor: ProcessorLatency,
    dirs: Vec<Directory>,
    /// Per case: transactions and their summed latency in ns.
    cases: BTreeMap<ProtocolCase, (u64, f64)>,
    tracer: Tracer,
    telemetry: Telemetry,
    spans: SpanTracer,
    dir_metrics: DirMetrics,
    // The current demand transaction's critical-path occupancy and
    // network charges, reset at its start; `memory` stays zero.
    txn: LatencyBreakdown,
}

impl<C: CostModel> Coherence<C> {
    /// A memory system over `nodes` nodes, each owning `node_mem_bytes`
    /// of physical memory and a directory of `dir_pool` pointers.
    pub fn new(
        nodes: u32,
        node_mem_bytes: u64,
        dir_pool: u32,
        processor: ProcessorLatency,
        cost: C,
    ) -> Coherence<C> {
        Coherence {
            cost,
            node_mem_bytes,
            nodes,
            processor,
            dirs: (0..nodes).map(|_| Directory::new(dir_pool)).collect(),
            cases: BTreeMap::new(),
            tracer: Tracer::disabled(),
            telemetry: Telemetry::disabled(),
            spans: SpanTracer::disabled(),
            dir_metrics: DirMetrics {
                nodes,
                pool: MetricId::NONE,
                reclaims: MetricId::NONE,
                pool_node: Vec::new(),
            },
            txn: LatencyBreakdown::default(),
        }
    }

    /// Executes one transaction.
    pub fn access(&mut self, req: MemRequest) -> MemOutcome {
        match req.kind {
            AccessKind::ReadShared => self.demand_read(req, false),
            AccessKind::ReadExclusive => self.demand_read(req, true),
            AccessKind::Upgrade => self.upgrade(req),
            AccessKind::Writeback => self.writeback(req),
        }
    }

    /// The home node of a line, by physical address range.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        ((line.get() / self.node_mem_bytes) as u32).min(self.nodes - 1)
    }

    /// The per-node directories.
    pub fn dirs(&self) -> &[Directory] {
        &self.dirs
    }

    /// The count and mean latency of every protocol case seen so far.
    pub fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        for (case, (count, latency_ns)) in &self.cases {
            let mean = latency_ns / *count as f64;
            s.set(format!("proto.{}.count", case.key()), *count as f64);
            s.set(format!("proto.{}.mean_ns", case.key()), mean);
        }
        s
    }

    /// Attaches the flight recorder that gets a `proto` event per
    /// transaction.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry registry to the walk and the cost model.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.cost
            .attach_telemetry(&telemetry, &mut self.dir_metrics);
        self.telemetry = telemetry;
    }

    /// Attaches a span tracer to the walk and the cost model.
    pub fn attach_spans(&mut self, spans: SpanTracer) {
        self.cost.attach_spans(&spans);
        self.spans = spans;
    }

    /// Writes the machine shape, the model's `lead` fields, the case
    /// ledger and the directories. The transaction charges are reset at
    /// the start of every demand transaction, and checkpoints happen only
    /// between transactions, so they are not saved.
    pub fn save_ckpt(&self, w: &mut CkptWriter, lead: impl FnOnce(&C, &mut CkptWriter)) {
        w.u64s("shape", &[u64::from(self.nodes), self.node_mem_bytes]);
        lead(&self.cost, w);
        w.u64("cases", self.cases.len() as u64);
        for (case, (count, latency_ns)) in &self.cases {
            w.str("case", case.key());
            w.u64("count", *count);
            w.f64("latency_ns", *latency_ns);
        }
        for dir in &self.dirs {
            dir.save_ckpt(w);
        }
    }

    /// Restores what [`save_ckpt`](Coherence::save_ckpt) wrote, `lead`
    /// reading the model's fields.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] if the checkpoint is of another machine
    /// shape; any error of `lead` or of a missing or malformed field.
    pub fn load_ckpt(
        &mut self,
        r: &mut CkptReader<'_>,
        lead: impl FnOnce(&mut C, &mut CkptReader<'_>) -> Result<(), CkptError>,
    ) -> Result<(), CkptError> {
        let shape = r.u64s("shape")?;
        if shape != [u64::from(self.nodes), self.node_mem_bytes] {
            return Err(CkptError::Parse {
                key: "shape".to_string(),
                value: format!("{shape:?}"),
            });
        }
        lead(&mut self.cost, r)?;
        self.cases.clear();
        for _ in 0..r.u64("cases")? {
            let key = r.str_field("case")?;
            let case = ProtocolCase::from_key(&key).ok_or_else(|| CkptError::Parse {
                key: "case".to_string(),
                value: key.clone(),
            })?;
            self.cases
                .insert(case, (r.u64("count")?, r.f64("latency_ns")?));
        }
        for dir in self.dirs.iter_mut() {
            dir.load_ckpt(r)?;
        }
        Ok(())
    }

    fn record(&mut self, case: ProtocolCase, req: &MemRequest, home: NodeId, done_at: Time) {
        let latency = done_at - req.now;
        let (count, latency_ns) = self.cases.entry(case).or_insert((0, 0.0));
        *count += 1;
        *latency_ns += latency.as_ns_f64();
        if self.tracer.enabled(TraceCategory::Proto) {
            self.tracer.emit(
                done_at,
                TraceCategory::Proto,
                case.key(),
                req.node,
                latency.as_ps(),
                home as u64,
            );
        }
    }

    /// A processor-side delay, recorded as a memory-class leg.
    fn delay(&self, kind: &'static str, node: NodeId, t: Time, d: TimeDelta) -> Time {
        self.spans
            .leg(kind, node, t, t + d, Some(SpanClass::Memory), d);
        t + d
    }

    /// A handler on the requester's critical path: charged as occupancy.
    fn step(&mut self, h: Handler, node: NodeId, t: Time) -> Time {
        let done = self.cost.handler(h, node, t);
        self.txn.occupancy += done - t;
        done
    }

    /// A message on the requester's critical path: charged as network.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg, t: Time) -> Time {
        let arrival = self.cost.send(from, to, msg, t);
        self.txn.network += arrival - t;
        arrival
    }

    /// A reply from `from`'s controller to the requester `to`.
    fn reply(&mut self, from: NodeId, to: NodeId, msg: Msg, t: Time) -> Time {
        let t = self.step(Handler::Out, from, t);
        let t = self.send(from, to, msg, t);
        self.step(Handler::Reply, to, t)
    }

    /// Every demand transaction's path to `home`'s directory, which then
    /// runs `op` and samples its pointer pool.
    fn request(
        &mut self,
        req: &MemRequest,
        home: NodeId,
        op: impl FnOnce(&mut Directory) -> DirResponse,
    ) -> (Time, DirResponse) {
        self.txn = LatencyBreakdown::default();
        let requester = req.node;
        let miss_detect = self.processor.miss_detect;
        let mut t = self.delay("miss_detect", requester, req.now, miss_detect);
        t = self.step(Handler::Request, requester, t);
        if requester != home {
            t = self.step(Handler::Out, requester, t);
            t = self.send(requester, home, Msg::Header, t);
            t = self.cost.admit(requester, home, t, &mut self.txn);
        }
        let local = requester == home;
        t = self.step(Handler::Dir { local }, home, t);

        let dir = &mut self.dirs[home as usize];
        let reclaims_before = dir.reclaims();
        let resp = op(dir);
        let occ = dir.occupancy_sample();
        let m = &self.dir_metrics;
        self.telemetry.gauge(m.pool, t, u64::from(occ.used));
        if let Some(&id) = m.pool_node.get(home as usize) {
            self.telemetry.gauge(id, t, u64::from(occ.used));
        }
        self.telemetry
            .count(m.reclaims, t, occ.reclaims - reclaims_before);
        (t, resp)
    }

    /// Invalidates `sharers` from `home`, returning when the home has
    /// collected every ack. The round overlaps other work, so none of its
    /// steps is charged here; the callers charge what of it is exposed.
    fn invalidate_round(&mut self, home: NodeId, sharers: &[NodeId], t: Time) -> Time {
        let mut done = t;
        for &v in sharers {
            let mut tv = self.cost.handler(Handler::Out, home, t);
            if v != home {
                tv = self.cost.send(home, v, Msg::Header, tv);
            }
            tv = self.cost.handler(Handler::Intervention, v, tv);
            if v != home {
                tv = self.cost.send(v, home, Msg::Header, tv);
            }
            done = done.max(tv);
        }
        if sharers.is_empty() {
            done
        } else {
            self.cost.collect_acks(home, done)
        }
    }

    /// The reply crosses the bus at `t` and the processor restarts; the
    /// transaction is recorded and its charges folded into a
    /// [`LatencyBreakdown`]. The charges are clamped so they never exceed
    /// the total (overlapped protocol work can otherwise over-count);
    /// whatever is left — memory-bank time, handler remainders,
    /// un-itemized overlap — lands in `memory`.
    fn complete(
        &mut self,
        req: &MemRequest,
        home: NodeId,
        case: ProtocolCase,
        resp: DirResponse,
        t: Time,
    ) -> MemOutcome {
        let done_at = self.delay("reply_fill", req.node, t, self.processor.reply_fill);
        self.record(case, req, home, done_at);
        let total = done_at - req.now;
        let occupancy = self.txn.occupancy.min(total);
        let network = self.txn.network.min(total.saturating_sub(occupancy));
        MemOutcome {
            done_at,
            case,
            exclusive: resp.exclusive,
            actions: CoherenceActions {
                invalidate: resp.invalidate,
                downgrade: resp.downgrade,
            },
            breakdown: LatencyBreakdown {
                occupancy,
                network,
                memory: total.saturating_sub(occupancy + network),
            },
        }
    }

    fn demand_read(&mut self, req: MemRequest, exclusive_intent: bool) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let (t, resp) = self.request(&req, home, |dir| {
            if exclusive_intent {
                dir.read_exclusive(req.line, requester)
            } else {
                dir.read(req.line, requester)
            }
        });
        let case = classify_read(requester, home, resp.source);

        // Invalidations (read-exclusive on a shared line, or pointer
        // reclamation) run concurrently with the data fetch; the grant
        // waits for both. The data-supplying owner is not in this round —
        // its intervention is the data path itself.
        let sharers: Vec<NodeId> = resp
            .invalidate
            .iter()
            .copied()
            .filter(|v| Some(*v) != resp.source.owner())
            .collect();
        let ack_done = if sharers.is_empty() {
            t
        } else {
            // The round's legs run in parallel with the data path; only
            // its exposed tail counts toward the critical path, below.
            self.spans.begin_offpath("inval_round", home, t);
            let done = self.invalidate_round(home, &sharers, t);
            self.spans.end(done, None, TimeDelta::ZERO);
            done
        };

        let data_t = match resp.source {
            DataSource::Memory => {
                let ready = self.cost.memory(home, t);
                if requester != home {
                    self.reply(home, requester, Msg::Data, ready)
                } else {
                    ready
                }
            }
            DataSource::Owner(owner) => {
                let mut dt = self.step(Handler::DirtyExtra, home, t);
                if owner != home {
                    dt = self.step(Handler::Out, home, dt);
                    dt = self.send(home, owner, Msg::Header, dt);
                }
                // The intervention handler runs at the owner's controller
                // even when the owner is the home itself.
                dt = self.step(Handler::Intervention, owner, dt);
                // The owning processor supplies the line from its
                // secondary cache.
                dt = self.delay("proc_intervention", owner, dt, self.processor.intervention);
                if owner != requester {
                    dt = self.reply(owner, requester, Msg::Data, dt);
                }
                // Sharing writeback to the home, off the critical path.
                if owner != home {
                    self.cost.sharing_writeback(owner, home, dt);
                }
                dt
            }
        };

        // Invalidation time the data path did not hide is exposed
        // protocol work at the home: occupancy.
        if ack_done > data_t {
            self.txn.occupancy += ack_done - data_t;
            self.spans.leg(
                "exposed_inval",
                home,
                data_t,
                ack_done,
                Some(SpanClass::Occupancy),
                ack_done - data_t,
            );
        }
        self.complete(&req, home, case, resp, data_t.max(ack_done))
    }

    fn upgrade(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let requester = req.node;
        let (t, resp) = self.request(&req, home, |dir| dir.upgrade(req.line, requester));
        // For an upgrade, the invalidation round IS the critical path;
        // its whole duration is exposed protocol work at the home, so it
        // is charged wholesale as occupancy (per-leg charges inside the
        // round would over-count the parallel legs). The round's span
        // mirrors that: the subtree's legs are zero-charged, the round
        // itself carries the wholesale occupancy charge.
        self.spans.begin_offpath("inval_round", home, t);
        let acked = self.invalidate_round(home, &resp.invalidate, t);
        self.spans.end(acked, Some(SpanClass::Occupancy), acked - t);
        self.txn.occupancy += acked - t;
        let granted = if requester != home {
            self.reply(home, requester, Msg::Header, acked)
        } else {
            acked
        };
        self.complete(&req, home, ProtocolCase::UpgradeOwnership, resp, granted)
    }

    fn writeback(&mut self, req: MemRequest) -> MemOutcome {
        let home = self.home_of(req.line);
        let arrived = self.cost.writeback_arrival(req.node, home, req.now);
        let done_at = self.cost.memory(home, arrived);
        self.dirs[home as usize].writeback(req.line, req.node);
        self.record(ProtocolCase::WritebackCase, &req, home, done_at);
        MemOutcome {
            done_at,
            case: ProtocolCase::WritebackCase,
            exclusive: false,
            actions: CoherenceActions::none(),
            // Writebacks never stall the processor, so nothing is ever
            // charged from this decomposition.
            breakdown: LatencyBreakdown::default(),
        }
    }
}
