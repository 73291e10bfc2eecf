//! Layer probes: each times one layer's public functions in isolation,
//! on inputs shaped like a workload, so a traced run can say how much
//! host time each layer costs per unit of its own work. Every probe
//! but `isa` runs on the calling thread and is timed on its CPU clock;
//! `isa` generation runs on generator threads and is timed on the wall
//! clock.
//!
//! - `isa`: draining `Program::stream` with no simulation.
//! - `cpu`: `Core::execute` over the workload's non-sync ops against an
//!   all-hit memory environment, for the R10000 and Mipsy models.
//! - `mem`: the workload's load/store addresses replayed through a fresh
//!   per-thread `CacheHierarchy` and `Tlb` (identity translation).
//! - `proto`, `flashlite`, `numa`, `net`: a seeded request stream on 16
//!   nodes — remote lines homed at node 0 (the Radix hotspot) or spread
//!   evenly over every home (FFT) — driven through `Directory`,
//!   `MemorySystem::access` and `Network::deliver`. Its kind mix, local
//!   share, footprint and rate are measured on the workload ([`Mix`]).

use crate::clock::{thread_cpu_s, thread_timed};
use flashsim_cpu::FixedEnv;
use flashsim_engine::{FxBuildHasher, Rng, StatSet, Time, TimeDelta};
use flashsim_flashlite::FlashLiteParams;
use flashsim_isa::{Op, OpClass, Program};
use flashsim_machine::{CpuModel, MachineGeometry, MemSysKind};
use flashsim_mem::hier::HierProbe;
use flashsim_mem::system::{AccessKind, MemRequest};
use flashsim_mem::{CacheHierarchy, LineAddr, PAddr, Tlb};
use flashsim_net::{Network, NetworkParams, Topology};
use flashsim_numa::NumaParams;
use flashsim_proto::Directory;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Ops buffered per timed chunk: large enough that the clock reads
/// vanish, small enough to keep memory flat on 15M-op streams.
const CHUNK: usize = 1 << 16;

/// `isa`: host ns per op to generate every thread's stream.
pub fn gen_ns_per_op(progs: &[&dyn Program]) -> f64 {
    let t = Instant::now();
    let mut ops = 0u64;
    for prog in progs {
        for tid in 0..prog.num_threads() {
            for op in prog.stream(tid) {
                black_box(&op);
                ops += 1;
            }
        }
    }
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Per-op costs of the cpu and mem layers on one workload's streams,
/// and what the replayed hierarchy asked of the memory system.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreMem {
    pub r10000_ns_per_op: f64,
    pub mipsy_ns_per_op: f64,
    pub hier_ns_per_access: f64,
    pub tlb_ns_per_access: f64,
    /// L2 misses of loads, and of stores, in the replay.
    pub l2_read_misses: u64,
    pub l2_write_misses: u64,
    /// Distinct L2 lines of the largest program's accesses.
    pub footprint_lines: u64,
}

/// `cpu` and `mem`: streams every thread once, and times each layer over
/// the same buffered chunk (generation is excluded). Counting the
/// footprint happens outside the timings.
pub fn core_and_mem(progs: &[&dyn Program], geometry: &MachineGeometry) -> CoreMem {
    let mipsy = CpuModel::Mipsy {
        mhz: 225,
        model_int_latencies: false,
        l2_iface: None,
    };
    let mut secs = [0f64; 4];
    let (mut ops, mut accesses) = (0u64, 0u64);
    let mut misses = [0u64; 2];
    let mut footprint = 0;
    let mut buf: Vec<Op> = Vec::with_capacity(CHUNK);
    let mut addrs: Vec<(u64, bool)> = Vec::with_capacity(CHUNK);
    let line = geometry.l2.line_bytes;
    for prog in progs {
        let mut lines: HashSet<u64, FxBuildHasher> = HashSet::default();
        for tid in 0..prog.num_threads() {
            let mut r10k = CpuModel::R10000.build();
            let mut mips = mipsy.build();
            let mut env = FixedEnv::all_hits();
            let mut hier = CacheHierarchy::new(geometry.l1, geometry.l2);
            let mut tlb = Tlb::new(geometry.tlb_entries, geometry.page_bytes);
            let mut stream = prog.stream(tid).filter(|op| !op.class.is_sync()).peekable();
            while stream.peek().is_some() {
                buf.clear();
                buf.extend(stream.by_ref().take(CHUNK));
                addrs.clear();
                addrs.extend(
                    buf.iter()
                        .filter(|op| op.class.is_memory())
                        .map(|op| (op.addr.get(), op.class == OpClass::Store)),
                );
                ops += buf.len() as u64;
                accesses += addrs.len() as u64;

                secs[0] += thread_timed(|| {
                    for op in &buf {
                        r10k.execute(op, &mut env);
                    }
                })
                .1;
                secs[1] += thread_timed(|| {
                    for op in &buf {
                        mips.execute(op, &mut env);
                    }
                })
                .1;
                secs[2] += thread_timed(|| {
                    for &(addr, write) in &addrs {
                        if replay_hier(&mut hier, PAddr(addr), write) {
                            misses[usize::from(write)] += 1;
                        }
                    }
                })
                .1;
                lines.extend(addrs.iter().map(|&(addr, _)| addr / line));
                secs[3] += thread_timed(|| {
                    for &(addr, _) in &addrs {
                        let vaddr = flashsim_isa::VAddr(addr);
                        if tlb.translate(vaddr).is_none() {
                            let vpn = vaddr.vpn(geometry.page_bytes);
                            tlb.insert(vpn, vpn);
                        }
                    }
                })
                .1;
            }
            black_box((r10k.drain(), mips.drain(), hier.l1().hits(), tlb.hits()));
        }
        footprint = footprint.max(lines.len() as u64);
    }
    let per = |s: f64, d: u64| s * 1e9 / d.max(1) as f64;
    CoreMem {
        r10000_ns_per_op: per(secs[0], ops),
        mipsy_ns_per_op: per(secs[1], ops),
        hier_ns_per_access: per(secs[2], accesses),
        tlb_ns_per_access: per(secs[3], accesses),
        l2_read_misses: misses[0],
        l2_write_misses: misses[1],
        footprint_lines: footprint,
    }
}

/// One access through the hierarchy, completing whatever the probe asks
/// the caller to do (an L2 miss is granted exclusive, as a lone node's
/// would be). True on an L2 miss.
fn replay_hier(hier: &mut CacheHierarchy, paddr: PAddr, write: bool) -> bool {
    match hier.probe(paddr, write) {
        HierProbe::L1Hit => false,
        HierProbe::L2Hit => {
            hier.fill_l1_from_l2(paddr, write);
            false
        }
        HierProbe::L2Upgrade => {
            hier.complete_upgrade(paddr);
            false
        }
        HierProbe::L2Miss => {
            black_box(hier.fill_from_memory(paddr, write, true));
            true
        }
    }
}

/// How a request stream spreads remote lines over home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every remote line homed at node 0 (unplaced Radix's hotspot).
    Hotspot,
    /// Remote lines spread evenly over every other home (FFT's transposes).
    Uniform,
}

const MEM_NODES: u32 = 16;
/// Requests per memory-system drive.
const REQUESTS: usize = 200_000;

/// Demand protocol cases whose requester is the line's home.
const LOCAL_CASES: [&str; 2] = ["local_clean", "local_dirty_remote"];
/// Demand protocol cases whose home is another node.
const REMOTE_CASES: [&str; 3] = ["remote_clean", "remote_dirty_home", "remote_dirty_remote"];

/// The request mix the memory-system probes send, measured on the
/// workload rather than assumed: from the protocol-case counts of one of
/// its cells (`proto.<case>.count`), and from the workload's own
/// addresses replayed through the cache hierarchy (`CoreMem`).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Ownership upgrades ÷ demand transactions (writebacks excluded).
    pub upgrade: f64,
    /// Store misses ÷ all misses of the replayed hierarchy: the share of
    /// reads that ask for ownership.
    pub read_ex: f64,
    /// Reads served by the requester's own home ÷ all reads.
    pub local: f64,
    /// Distinct L2 lines the workload touches.
    pub footprint_lines: u64,
    /// Simulated time between one node's successive transactions: the
    /// cell's measured time × nodes ÷ its demand transactions.
    pub gap: TimeDelta,
}

impl Mix {
    /// The mix of a cell on `nodes` nodes that ran for `parallel_time`
    /// with statistics `stats`, on a workload whose replay gave `cm`.
    pub fn measure(stats: &StatSet, parallel_time: TimeDelta, nodes: u32, cm: &CoreMem) -> Mix {
        let count = |case: &str| stats.get_or_zero(&format!("proto.{case}.count"));
        let local: f64 = LOCAL_CASES.iter().map(|c| count(c)).sum();
        let reads = local + REMOTE_CASES.iter().map(|c| count(c)).sum::<f64>();
        let upgrades = count("upgrade");
        let demand = (reads + upgrades).max(1.0);
        let misses = (cm.l2_read_misses + cm.l2_write_misses).max(1);
        let gap_ps = parallel_time.as_ps() as f64 * f64::from(nodes) / demand;
        Mix {
            upgrade: upgrades / demand,
            read_ex: cm.l2_write_misses as f64 / misses as f64,
            local: local / reads.max(1.0),
            footprint_lines: cm.footprint_lines.max(1),
            gap: TimeDelta::from_ps(gap_ps as u64),
        }
    }
}

/// Where the probes' lines live: `lines` lines per home, each
/// `line_bytes` long, homes `node_mem` bytes apart.
#[derive(Debug, Clone, Copy)]
struct Layout {
    node_mem: u64,
    line_bytes: u64,
    lines: u64,
}

impl Layout {
    /// The workload's footprint, spread over the homes `shape` uses.
    fn new(mix: &Mix, shape: Shape, geometry: &MachineGeometry) -> Layout {
        let homes = match shape {
            Shape::Hotspot => 1,
            Shape::Uniform => u64::from(MEM_NODES),
        };
        let line_bytes = geometry.l2.line_bytes;
        let fits = geometry.node_mem_bytes / line_bytes;
        Layout {
            node_mem: geometry.node_mem_bytes,
            line_bytes,
            lines: (mix.footprint_lines / homes).clamp(1, fits),
        }
    }
}

/// One seeded request: requester, line, kind.
#[derive(Debug, Clone, Copy)]
struct Req {
    node: u32,
    line: LineAddr,
    kind: AccessKind,
}

fn next_req(rng: &mut Rng, node: u32, mix: &Mix, shape: Shape, at: &Layout) -> Req {
    let home = if rng.gen_f64() < mix.local {
        node
    } else {
        match shape {
            Shape::Hotspot => 0,
            Shape::Uniform => {
                (node + 1 + rng.gen_range(u64::from(MEM_NODES) - 1) as u32) % MEM_NODES
            }
        }
    };
    let line = LineAddr(u64::from(home) * at.node_mem + rng.gen_range(at.lines) * at.line_bytes);
    let kind = if rng.gen_f64() < mix.upgrade {
        AccessKind::Upgrade
    } else if rng.gen_f64() < mix.read_ex {
        AccessKind::ReadExclusive
    } else {
        AccessKind::ReadShared
    };
    Req { node, line, kind }
}

/// The request stream in the order sent, for the layers that return no
/// reply time (`proto`, `net`): node `i % 16` sends request `i`.
fn open_stream(seed: u64, mix: &Mix, shape: Shape, at: &Layout) -> Vec<Req> {
    let mut rng = Rng::seeded(seed);
    (0..REQUESTS)
        .map(|i| next_req(&mut rng, i as u32 % MEM_NODES, mix, shape, at))
        .collect()
}

/// `flashlite` / `numa`: host ns per `MemorySystem::access` in a closed
/// loop — the node whose next request is due earliest sends next, so
/// simulated time only moves forward, as under the machine's laggard
/// scheduling. A node's next request is due `mix.gap` after its previous
/// one, or when that one's reply returns if later. The loop's own work
/// per request (a 16-way minimum and a few RNG draws) is inside the
/// timing.
fn memsys_ns_per_access(kind: MemSysKind, seed: u64, mix: &Mix, shape: Shape, at: &Layout) -> f64 {
    let mut ms = kind.build(MEM_NODES, at.node_mem);
    let mut rngs: Vec<Rng> = (0..MEM_NODES)
        .map(|n| Rng::seeded(seed).fork(u64::from(n)))
        .collect();
    let mut due = vec![Time::ZERO; MEM_NODES as usize];
    let c0 = thread_cpu_s();
    for _ in 0..REQUESTS {
        let node = (0..MEM_NODES as usize)
            .min_by_key(|&n| due[n])
            .expect("at least one node");
        let r = next_req(&mut rngs[node], node as u32, mix, shape, at);
        let now = due[node];
        let out = ms.access(MemRequest {
            node: r.node,
            line: r.line,
            kind: r.kind,
            now,
        });
        due[node] = out.done_at.max(now + mix.gap);
    }
    let ns = (thread_cpu_s() - c0) * 1e9 / REQUESTS as f64;
    black_box(ms.stats());
    ns
}

/// `proto`: host ns per directory operation.
fn dir_ns_per_op(seed: u64, mix: &Mix, shape: Shape, at: &Layout, fl: &FlashLiteParams) -> f64 {
    let reqs = open_stream(seed, mix, shape, at);
    let mut dir = Directory::new(fl.dir_pool);
    let c0 = thread_cpu_s();
    for r in &reqs {
        let resp = match r.kind {
            AccessKind::ReadShared => dir.read(r.line, r.node),
            AccessKind::ReadExclusive => dir.read_exclusive(r.line, r.node),
            AccessKind::Upgrade => dir.upgrade(r.line, r.node),
            AccessKind::Writeback => unreachable!("the stream sends no writebacks"),
        };
        black_box(resp);
    }
    (thread_cpu_s() - c0) * 1e9 / reqs.len() as f64
}

/// `net`: host ns per `Network::deliver` — each request (a header) and
/// its data reply (a line plus header) cross the 16-node hypercube, one
/// request every `mix.gap ÷ 16` of simulated time (the cell's aggregate
/// transaction rate).
fn net_ns_per_deliver(
    seed: u64,
    mix: &Mix,
    shape: Shape,
    at: &Layout,
    fl: &FlashLiteParams,
) -> f64 {
    let reqs = open_stream(seed, mix, shape, at);
    let topo = Topology::hypercube(MEM_NODES).expect("16 is a power of two");
    let mut net = Network::new(topo, NetworkParams::flash());
    let home = |line: LineAddr| ((line.get() / at.node_mem) as u32).min(MEM_NODES - 1);
    let spacing_ps = mix.gap.as_ps() / u64::from(MEM_NODES);
    let c0 = thread_cpu_s();
    for (i, r) in reqs.iter().enumerate() {
        let now = Time::ZERO + TimeDelta::from_ps(spacing_ps * i as u64);
        let h = home(r.line);
        black_box(net.deliver(r.node, h, fl.header_bytes, now));
        black_box(net.deliver(h, r.node, fl.header_bytes + fl.line_bytes, now));
    }
    (thread_cpu_s() - c0) * 1e9 / (2 * reqs.len()) as f64
}

/// Host ns per op of every memory-system layer probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemSysCosts {
    pub dir_ns_per_op: f64,
    pub flashlite_ns_per_access: f64,
    pub numa_ns_per_access: f64,
    pub net_ns_per_deliver: f64,
}

/// Runs every memory-system probe three times on the seeded stream of
/// `mix` and keeps the medians.
pub fn memsys_costs(
    seed: u64,
    mix: &Mix,
    shape: Shape,
    flashlite: FlashLiteParams,
    geometry: &MachineGeometry,
) -> MemSysCosts {
    let at = Layout::new(mix, shape, geometry);
    let med = |f: &dyn Fn() -> f64| crate::median(&[f(), f(), f()]);
    let memsys = |kind: MemSysKind| med(&|| memsys_ns_per_access(kind, seed, mix, shape, &at));
    MemSysCosts {
        dir_ns_per_op: med(&|| dir_ns_per_op(seed, mix, shape, &at, &flashlite)),
        flashlite_ns_per_access: memsys(MemSysKind::FlashLite(flashlite)),
        numa_ns_per_access: memsys(MemSysKind::Numa(NumaParams::matched())),
        net_ns_per_deliver: med(&|| net_ns_per_deliver(seed, mix, shape, &at, &flashlite)),
    }
}
