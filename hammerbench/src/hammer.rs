//! `hammer_hw`: attack pipelines against the controller and in-DRAM
//! defenses, with no OS daemon in the loop.
//!
//! Each run is an `AttackRun` triple armed through
//! `AttackRun::prepare` and simulated for its window budget in one
//! `Machine::run` call, exactly as `AttackRun::execute` does, with the
//! aggressor budget raised far above A1's so that ACT-dense row
//! conflicts dominate the run.

use crate::layers::{self, MachineJob};
use crate::probe::{Probe, SpanId};
use crate::{derive_seed, Pass};
use hammertime::common::Result;
use hammertime::scenario::AttackTargeting;
use hammertime::{DefenseKind, Machine, MachineConfig};
use hammertime_attack::pipeline::Prepared;
use hammertime_attack::{AttackRun, AttackSpec, ATTACKER, VICTIM};

/// Aggressor accesses per run (A1 uses 3,000). At 200,000 one pass
/// takes about 10 s; host speed here drifts by a fifth over such spans,
/// so shorter passes give every machine more samples per run.
const ACCESSES: u64 = 80_000;

/// Refresh windows simulated per run: enough for every slate to issue
/// all or nearly all of the aggressor budget (PARA's refreshes leave it
/// at about 85%), except the two throttles, BlockHammer and
/// BreakHammer, which hold the attacker to a tenth of it by design.
const WINDOWS: u64 = 280;

const TRIPLES: [&str; 4] = [
    "pfn/double/flips",
    "pfn/many:6/flips",
    "pfn/dma/flips",
    "thp/fuzzed:6/flips",
];

/// The memory-controller and in-DRAM slates: none of them installs an
/// OS daemon, so the ACT-interrupt path stays idle.
const SLATE: [&str; 8] = [
    "none",
    "trr",
    "para",
    "graphene",
    "blockhammer",
    "twice",
    "breakhammer",
    "rubix",
];

fn slate() -> Vec<DefenseKind> {
    SLATE
        .iter()
        .map(|name| {
            DefenseKind::catalog(crate::benign::MAC)
                .into_iter()
                .find(|d| d.name() == *name)
                .expect("every slate name is in the catalog")
        })
        .collect()
}

fn attack_run(spec: AttackSpec, cfg: MachineConfig) -> AttackRun {
    let mut run = AttackRun::new(spec, cfg);
    run.accesses = ACCESSES;
    run.windows = WINDOWS;
    run
}

pub(crate) fn pass(seed: u64, probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    let machine_seed = derive_seed(seed, 2);
    for triple in TRIPLES {
        let spec = AttackSpec::parse(triple).expect("benchmark triples parse");
        for defense in slate() {
            let mut cfg = MachineConfig::fast(defense, crate::benign::MAC);
            cfg.seed = machine_seed;
            let setup = move |cfg: MachineConfig| -> Result<(Machine, Prepared)> {
                attack_run(spec, cfg).prepare()
            };
            let simulate = |m: &mut Machine, probe: &mut Probe, root: SpanId| {
                let cycles = WINDOWS * m.config().timing.t_refw;
                probe.span("machine.run", root, || m.run(cycles));
            };
            let judge = |m: &mut Machine, prep: Prepared, probe: &mut Probe| {
                let flips = m.drain_annotated_flips();
                let verdict = prep.victim.judge(m, VICTIM, &flips);
                if prep.targeting == AttackTargeting::CrossDomain {
                    probe.add("attack.cross_domain_runs", 1.0);
                }
                format!(
                    "{} {:?} {} {} {:?}",
                    prep.triple, prep.targeting, prep.exact, prep.aggressors, verdict
                )
            };
            let job = MachineJob {
                cfg,
                tenants: &[ATTACKER, VICTIM],
                setup_span: "attack.prepare",
                setup: &setup,
                simulate: &simulate,
                judge: &judge,
            };
            layers::run_machine(&job, probe, &mut pass);
        }
    }
    pass
}
