//! `fleet_durable`: a journaled fleet of quick machines on 2 workers.
//!
//! Each machine is tiny, so much of the time goes to population
//! synthesis, epoch barriers, the migration mailbox, the stats fold and
//! checksummed journal writes. It is the only workload that writes to
//! disk and the only one that runs on two threads.

use crate::probe::{Mode, Probe};
use crate::{derive_seed, fnv1a, guarded, Pass, FNV_OFFSET};
use hammertime_attack::experiment::A1_TRIPLES;
use hammertime_fleet::{
    resume_fleet, run_fleet_controlled, DurableRun, FleetConfig, FleetReport, RunControl,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const MACHINES: u32 = 2_000;
const WORKERS: usize = 2;

/// Whether this process already re-validated a journal through
/// `resume_fleet`; once per process keeps the check off every pass's
/// critical path while every run still makes it.
static RESUME_CHECKED: AtomicBool = AtomicBool::new(false);
static PASSES: AtomicU64 = AtomicU64::new(0);

fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::new(MACHINES)
        .jobs(WORKERS)
        .seed(derive_seed(seed, 3));
    cfg.attack_triples = A1_TRIPLES.iter().map(|t| t.to_string()).collect();
    cfg
}

fn digest(report: &FleetReport) -> u64 {
    let outcomes = serde_json::to_string(&report.outcomes).expect("outcomes serialize");
    let stats = serde_json::to_string(&report.stats).expect("stats serialize");
    fnv1a(stats.as_bytes(), fnv1a(outcomes.as_bytes(), FNV_OFFSET))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub(crate) fn pass(seed: u64, probe: &mut Probe) -> Pass {
    let cfg = config(seed);
    let mut pass = Pass {
        attempted: u64::from(MACHINES),
        ..Pass::default()
    };
    let dir = crate::scratch_dir().join(format!(
        "journal-{}-{}",
        std::process::id(),
        PASSES.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    pass.mark_speed(probe.mode, WORKERS, true);
    let root = probe.begin_run("fleet.pass");
    let out = guarded(|| {
        let control = RunControl::default();
        // As for machines: the plain pass times several set-ups, each in
        // a fresh directory, and keeps the median.
        let mut setups = Vec::new();
        if probe.mode == Mode::Plain {
            for r in 1..crate::SETUP_REPEATS {
                let spare = dir.with_extension(format!("setup{r}"));
                let t = Instant::now();
                let built = DurableRun::create(&spare, &cfg)?;
                setups.push(t.elapsed().as_secs_f64());
                drop(built);
                let _ = std::fs::remove_dir_all(&spare);
            }
        }
        let t0 = Instant::now();
        let mut durable = probe.span("fleet.create", root, || DurableRun::create(&dir, &cfg))?;
        let t1 = Instant::now();
        setups.push((t1 - t0).as_secs_f64());
        let c0 = hammertime::metrics::sim_cycles();
        let (report, completed) = probe.span("fleet.run_durable", root, || {
            run_fleet_controlled(&cfg, &control, Some(&mut durable))
        })?;
        let t2 = Instant::now();
        drop(durable);
        pass.jobs
            .push((crate::median(&setups), (t2 - t1).as_secs_f64()));
        pass.sim_cycles = hammertime::metrics::sim_cycles() - c0;
        pass.digest = digest(&report);
        pass.failed = report.failures().count() as u64;
        if !completed || report.outcomes.len() != MACHINES as usize {
            pass.failed = pass.attempted;
        }
        for o in &report.outcomes {
            if let Some(r) = &o.report {
                pass.machines += 1;
                pass.counts.add_report(r);
            }
        }
        if probe.mode != Mode::Plain {
            probe.add("fleet.machines", report.outcomes.len() as f64);
            probe.add("fleet.epochs", f64::from(cfg.epochs));
            let migrations: u32 = report.outcomes.iter().map(|o| o.migrations_in).sum();
            probe.add("fleet.migrations", f64::from(migrations));
        }
        let mut same = true;
        if probe.traced() || !RESUME_CHECKED.swap(true, Ordering::Relaxed) {
            probe.add("fleet.journal_bytes", dir_bytes(&dir) as f64);
            let (resumed, done) =
                probe.span("fleet.resume", root, || resume_fleet(&cfg, &dir, &control))?;
            same &= done && digest(&resumed) == pass.digest;
        }
        if probe.traced() {
            let (plain, done) = probe.span("fleet.run_plain", root, || {
                run_fleet_controlled(&cfg, &control, None)
            })?;
            same &= done && digest(&plain) == pass.digest;
        }
        if !same {
            eprintln!("hammerbench: fleet outcome differs between durable, resumed and plain runs");
            pass.failed = pass.attempted;
        }
        Ok(())
    });
    probe.close(root);
    pass.mark_speed(probe.mode, WORKERS, false);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = out {
        eprintln!("hammerbench: fleet pass failed: {e}");
        pass.failed = pass.attempted;
        pass.jobs = vec![(0.0, 0.0)];
    }
    pass
}
