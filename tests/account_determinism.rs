//! Integration tests for the cycle-accounting loop: identically seeded
//! runs produce byte-identical accounting and attribution output on
//! every platform, every simulated cycle is attributed to exactly one
//! stall class, and the attribution differ's per-class contributions sum
//! to the total relative error.

mod common;

use common::platforms;
use flashsim::attrib::{attribute, run_profiled};
use flashsim::engine::{Accounting, StallClass};
use flashsim::machine::MachineConfig;
use flashsim::platform::{MemModel, Sim, Study};
use flashsim::workloads::{Fft, FftBlocking, ProblemScale};
use flashsim_isa::Program;

fn fft(threads: usize) -> Fft {
    Fft::sized(ProblemScale::Tiny, threads, FftBlocking::Cache)
}

fn profiled(cfg: MachineConfig, prog: &dyn Program) -> Accounting {
    run_profiled(cfg, prog)
        .expect("profiled run completes")
        .accounting
        .expect("profiler was attached")
}

#[test]
fn identically_seeded_accounting_is_byte_identical_on_every_platform() {
    let study = Study::scaled();
    for (label, cfg) in platforms(&study, 2) {
        let a = profiled(cfg.clone(), &fft(2));
        let b = profiled(cfg, &fft(2));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{label}: accounting JSON must be byte-identical"
        );
        assert_eq!(
            a.to_csv(),
            b.to_csv(),
            "{label}: CSV must be byte-identical"
        );
        assert_eq!(
            a.phases_to_csv(),
            b.phases_to_csv(),
            "{label}: phase CSV must be byte-identical"
        );
    }
}

#[test]
fn every_platform_conserves_every_cycle() {
    let study = Study::scaled();
    for (label, cfg) in platforms(&study, 2) {
        let acc = profiled(cfg, &fft(2));
        assert!(acc.conserved(), "{label}: accounting not conserved");
        for node in &acc.nodes {
            assert_eq!(
                node.classes.iter().sum::<u64>(),
                node.total_ps,
                "{label}: node {} class sums != total",
                node.node
            );
        }
        assert!(acc.total_ps() > 0, "{label}: nothing accounted");
    }
}

#[test]
fn attribution_is_deterministic_and_sums_to_total_error() {
    let study = Study::scaled();
    let hw = profiled(study.hardware(2), &fft(2));
    for (label, cfg) in platforms(&study, 2) {
        let sim = profiled(cfg, &fft(2));
        let rep = attribute(&sim, &label, &hw, "hardware");
        // The identity the differ is built on: per-class contributions
        // reproduce the total relative error.
        assert!(
            rep.residual().abs() < 1e-9,
            "{label}: residual {}",
            rep.residual()
        );
        let again = attribute(&sim, &label, &hw, "hardware");
        assert_eq!(
            rep.to_csv(),
            again.to_csv(),
            "{label}: attribution must be deterministic"
        );
    }
}

#[test]
fn numa_omits_the_occupancy_flashlite_models() {
    // The paper's central mechanism finding (§3.3): the contention-free
    // NUMA model omits directory/MAGIC occupancy. The attribution differ
    // must expose that as a negative occupancy contribution when NUMA is
    // judged against the same processor model running FlashLite.
    let study = Study::scaled();
    let sim = Sim::SimosMipsy(150);
    let fl = profiled(study.sim(sim, 2, MemModel::FlashLite), &fft(2));
    let numa = profiled(study.sim(sim, 2, MemModel::Numa), &fft(2));
    let rep = attribute(&numa, "numa", &fl, "flashlite");
    let occ = rep.classes[StallClass::DirOccupancy as usize];
    assert!(
        occ.sim_ps < occ.ref_ps,
        "NUMA must account less occupancy than FlashLite ({} vs {})",
        occ.sim_ps,
        occ.ref_ps
    );
    assert!(rep.residual().abs() < 1e-9);
}
