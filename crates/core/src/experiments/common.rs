//! Shared fixtures: the fast machine scale and the canonical attack /
//! benign scenario runners every experiment builds its cells from.

use super::engine::CellCtx;
use crate::machine::{Machine, MachineConfig};
use crate::metrics::SimReport;
use crate::scenario::{AttackTargeting, CloudScenario};
use crate::taxonomy::DefenseKind;
use hammertime_common::{DomainId, Result};

/// The standard fast-scale MAC used across experiments.
pub const FAST_MAC: u64 = 24;

/// Attack length at the given scale.
pub(crate) fn accesses(quick: bool) -> u64 {
    if quick {
        2_500
    } else {
        8_000
    }
}

/// Runs one attack scenario: four tenants, `arm` installs the hammer,
/// the victim reads its pages, and the machine runs a window budget.
/// The context's fault plan (if any) is threaded into the machine.
pub(crate) fn run_attack(
    defense: DefenseKind,
    mac: u64,
    arm: impl FnOnce(&mut CloudScenario) -> Result<AttackTargeting>,
    ctx: CellCtx,
) -> Result<SimReport> {
    let mut cfg = MachineConfig::fast(defense, mac);
    cfg.faults = ctx.faults;
    run_attack_with(cfg, arm, ctx.quick)
}

/// Variant of [`run_attack`] that takes a pre-built config (used by F3
/// to sweep its own fault plan).
pub(crate) fn run_attack_with(
    cfg: MachineConfig,
    arm: impl FnOnce(&mut CloudScenario) -> Result<AttackTargeting>,
    quick: bool,
) -> Result<SimReport> {
    let mut s = CloudScenario::build_sized(cfg, 4)?;
    arm(&mut s)?;
    s.victim_reads(if quick { 100 } else { 400 })?;
    let windows = if quick { 40 } else { 150 };
    s.run_windows(windows);
    Ok(s.report())
}

/// Runs the canonical three-tenant benign mix (stream, random,
/// zipfian) to completion under `defense`.
pub(crate) fn run_benign(defense: DefenseKind, mac: u64, ctx: CellCtx) -> Result<SimReport> {
    let mut cfg = MachineConfig::fast(defense, mac);
    cfg.faults = ctx.faults;
    run_benign_with(cfg, ctx.quick)
}

/// Variant of [`run_benign`] that takes a pre-built config (used by
/// the ablations that tweak controller knobs).
pub(crate) fn run_benign_with(cfg: MachineConfig, quick: bool) -> Result<SimReport> {
    let windows = if quick { 100 } else { 400 };
    let mut m = benign_machine(cfg, accesses(quick) / 4)?;
    run_to_completion(&mut m, windows);
    Ok(m.report())
}

/// Builds the canonical three-tenant benign machine T1 measures every
/// defense on: a stream tenant writing one line in eight, a uniform
/// random tenant and a Zipf 0.99 tenant, `ops` operations each.
///
/// # Errors
///
/// Propagates machine construction and tenant placement errors.
pub fn benign_machine(cfg: MachineConfig, ops: u64) -> Result<Machine> {
    use hammertime_common::DetRng;
    use hammertime_workloads::{RandomWorkload, StreamWorkload, ZipfianWorkload};
    let mut m = Machine::new(cfg)?;
    let seed = m.config().seed;
    let a1 = m.add_tenant(DomainId(1), 2)?;
    let a2 = m.add_tenant(DomainId(2), 2)?;
    let a3 = m.add_tenant(DomainId(3), 2)?;
    m.set_workload(DomainId(1), Box::new(StreamWorkload::new(a1, ops, 8)))?;
    m.set_workload(
        DomainId(2),
        Box::new(RandomWorkload::new(a2, ops, 0.2, DetRng::new(seed ^ 2))),
    )?;
    m.set_workload(
        DomainId(3),
        Box::new(ZipfianWorkload::new(a3, ops, 0.99, DetRng::new(seed ^ 3))),
    )?;
    Ok(m)
}

/// Runs `m` one refresh window at a time until every tenant finished
/// (makespan), capped at `windows` windows so a throttled or broken
/// configuration still terminates.
pub fn run_to_completion(m: &mut Machine, windows: u64) {
    let t_refw = m.config().timing.t_refw;
    for _ in 0..windows {
        m.run(t_refw);
        if m.all_finished() {
            break;
        }
    }
}
