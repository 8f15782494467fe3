//! Machine-level differential: T1's benign machine under the defenses
//! that turn ACT interrupts into deep request bursts (a remap's copy
//! traffic, line locking, convoluted refresh loads) and under
//! BreakHammer's throttle must produce byte-identical reports whether
//! the controller runs the event-wheel scheduler or the reference
//! linear scan.

use hammertime::experiments::{benign_machine, run_to_completion, FAST_MAC};
use hammertime::machine::MachineConfig;
use hammertime::metrics::SimReport;
use hammertime::taxonomy::DefenseKind;

/// Operations per tenant: small enough for a debug build, large enough
/// that every listed defense services many ACT interrupts.
const OPS: u64 = 120;
const WINDOWS: u64 = 100;

fn run(defense: DefenseKind, reference: bool) -> SimReport {
    let mut cfg = MachineConfig::fast(defense, FAST_MAC);
    cfg.reference_scheduler = reference;
    let mut m = benign_machine(cfg, OPS).unwrap();
    run_to_completion(&mut m, WINDOWS);
    m.report()
}

#[test]
fn burst_defenses_report_identically_on_both_scheduler_paths() {
    let names = [
        "aggressor-remap",
        "line-locking",
        "victim-refresh/convoluted",
        "breakhammer",
    ];
    for name in names {
        let defense = DefenseKind::catalog(FAST_MAC)
            .into_iter()
            .find(|d| d.name() == name)
            .expect("defense in the catalog");
        let wheel = run(defense, false);
        let o = &wheel.overhead;
        assert!(o.interrupts > 0, "{name} saw no ACT interrupt: {o:?}");
        let wheel = serde_json::to_string(&wheel).unwrap();
        let reference = serde_json::to_string(&run(defense, true)).unwrap();
        assert!(
            wheel == reference,
            "{name}: the wheel's report diverged from the reference scan's"
        );
    }
}
