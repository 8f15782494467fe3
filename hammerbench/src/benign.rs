//! `defended_benign`: T1's benign machine under every catalog defense.
//!
//! The machine is the one `run_benign_with` builds for T1 (fast
//! configuration, MAC 24; a stream tenant writing one line in eight, a
//! uniform random tenant and a Zipf 0.99 tenant), rebuilt from the
//! benchmark seed and run to completion once under each of the 19
//! defenses of `DefenseKind::catalog(24)`, serially on one thread.

use crate::layers::{self, MachineJob};
use crate::probe::{Probe, SpanId};
use crate::{derive_seed, Pass};
use hammertime::common::{DetRng, DomainId, Result};
use hammertime::workloads::{RandomWorkload, StreamWorkload, ZipfianWorkload};
use hammertime::{DefenseKind, Machine, MachineConfig};

/// The fast-scale MAC every T1 cell uses.
pub(crate) const MAC: u64 = 24;

/// Operations per tenant. T1's quick scale uses 625; at that size one
/// seed's machines already take about 5 s, dominated by three
/// interrupt-storm runs whose length swings by a seventh from seed to
/// seed. Smaller machines over several seeds per pass keep the same
/// mix of work and average that swing out, while a pass stays short
/// enough for every machine to be timed several times per run.
const OPS_PER_TENANT: u64 = 300;

/// Machine seeds per pass, each run under all 19 defenses. How much
/// work a seed makes varies, so a pass's time varies from benchmark
/// seed to benchmark seed; on a quiet host, over seeds 1-10, the
/// quartile spread of `wall_s` was 0.10 of its median with 3 machine
/// seeds and 0.065 with 6 (0.13 with 6 seeds of 150-operation machines).
const SEEDS_PER_PASS: u64 = 6;

/// Refresh windows after which a machine that still has not finished
/// is reported as it stands, as T1's quick-scale window budget does.
const WINDOW_CAP: u64 = 100;

const TENANTS: [DomainId; 3] = [DomainId(1), DomainId(2), DomainId(3)];

/// The timed set-up: `Machine::new`, `add_tenant` and `set_workload`.
fn build(cfg: MachineConfig) -> Result<(Machine, ())> {
    let seed = cfg.seed;
    let mut m = Machine::new(cfg)?;
    let arenas = [
        m.add_tenant(TENANTS[0], 2)?,
        m.add_tenant(TENANTS[1], 2)?,
        m.add_tenant(TENANTS[2], 2)?,
    ];
    let [a1, a2, a3] = arenas;
    m.set_workload(
        TENANTS[0],
        Box::new(StreamWorkload::new(a1, OPS_PER_TENANT, 8)),
    )?;
    m.set_workload(
        TENANTS[1],
        Box::new(RandomWorkload::new(
            a2,
            OPS_PER_TENANT,
            0.2,
            DetRng::new(seed ^ 2),
        )),
    )?;
    m.set_workload(
        TENANTS[2],
        Box::new(ZipfianWorkload::new(
            a3,
            OPS_PER_TENANT,
            0.99,
            DetRng::new(seed ^ 3),
        )),
    )?;
    Ok((m, ()))
}

/// `Machine::run(t_refw)` until every tenant finished, as T1 steps it.
fn simulate(m: &mut Machine, probe: &mut Probe, root: SpanId) {
    let t_refw = m.config().timing.t_refw;
    for _ in 0..WINDOW_CAP {
        probe.span("machine.run", root, || m.run(t_refw));
        if m.all_finished() {
            break;
        }
    }
}

pub(crate) fn pass(seed: u64, probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    for sub in 0..SEEDS_PER_PASS {
        let machine_seed = derive_seed(seed, 16 + sub);
        for defense in DefenseKind::catalog(MAC) {
            let mut cfg = MachineConfig::fast(defense, MAC);
            cfg.seed = machine_seed;
            let job = MachineJob {
                cfg,
                tenants: &TENANTS,
                setup_span: "machine.setup",
                setup: &build,
                simulate: &simulate,
                judge: &|_, (), _| String::new(),
            };
            layers::run_machine(&job, probe, &mut pass);
        }
    }
    pass
}
