//! Property tests for the DRAM device model.

use hammertime_common::geometry::BankId;
use hammertime_common::{Cycle, DetRng, Geometry};
use hammertime_dram::bank::{Bank, TimingSoA};
use hammertime_dram::disturb::{DisturbanceProfile, VictimState};
use hammertime_dram::module::{DramConfig, DramModule};
use hammertime_dram::remap::{RemapConfig, RowRemap};
use hammertime_dram::{DdrCommand, TimingParams};
use proptest::prelude::*;

fn profile(mac: u64) -> DisturbanceProfile {
    DisturbanceProfile {
        mac,
        blast_radius: 2,
        distance_decay: 0.5,
        flip_prob: 1.0,
        overshoot_step: 0.05,
    }
}

proptest! {
    /// Pressure accounting is independent of how ACT pressure is
    /// batched: any partition of the same total yields the same flip
    /// opportunities.
    #[test]
    fn pressure_batching_invariant(
        mac in 1u64..1_000,
        chunks in prop::collection::vec(1u32..50, 1..40),
    ) {
        let p = profile(mac);
        let total: u32 = chunks.iter().sum();
        let mut incremental = VictimState::default();
        let mut opportunities = 0;
        for c in &chunks {
            opportunities += incremental.add_pressure(*c as f64, &p);
        }
        let mut batched = VictimState::default();
        let batch_opps = batched.add_pressure(total as f64, &p);
        prop_assert_eq!(opportunities, batch_opps);
        prop_assert!((incremental.pressure - batched.pressure).abs() < 1e-9);
    }

    /// Refresh always zeroes pressure and restarts the budget.
    #[test]
    fn refresh_resets_budget(mac in 1u64..500, pre in 0u32..2_000, t in any::<u64>()) {
        let p = profile(mac);
        let mut v = VictimState::default();
        v.add_pressure(pre as f64, &p);
        v.refresh(Cycle(t));
        prop_assert_eq!(v.pressure, 0.0);
        prop_assert_eq!(v.flip_opportunities, 0);
        // Below-MAC pressure after refresh creates no opportunities.
        prop_assert_eq!(v.add_pressure(mac as f64, &p), 0);
    }

    /// Row remapping is always an involutive permutation that respects
    /// subarray boundaries when asked to.
    #[test]
    fn remap_is_involutive_permutation(
        seed in any::<u64>(),
        fraction in 0.0f64..1.0,
        sa_bits in 3u32..6,
    ) {
        let rows = 1u32 << (sa_bits + 2);
        let rows_per_subarray = 1 << sa_bits;
        let mut rng = DetRng::new(seed);
        let remap = RowRemap::new(
            rows,
            rows_per_subarray,
            RemapConfig { remap_fraction: fraction, within_subarray: true },
            &mut rng,
        );
        let mut seen = std::collections::HashSet::new();
        for r in 0..rows {
            let internal = remap.to_internal(r);
            prop_assert!(seen.insert(internal), "not a permutation");
            prop_assert_eq!(remap.to_logical(internal), r, "not involutive");
            prop_assert_eq!(internal / rows_per_subarray, r / rows_per_subarray);
        }
    }

    /// The bank FSM never reports a legal time that then fails: for an
    /// arbitrary command schedule, issuing at `earliest()` always
    /// succeeds, and the FSM state stays consistent.
    #[test]
    fn bank_earliest_is_always_legal(ops in prop::collection::vec(0u8..4, 1..80), seed in any::<u64>()) {
        let t = TimingParams::tiny_test();
        let mut soa = TimingSoA::new(1);
        let mut bank = Bank::new(64, 16, profile(1_000_000));
        let mut rng = DetRng::new(seed);
        let mut now = Cycle::ZERO;
        for op in ops {
            match op {
                0 => {
                    let at = soa.earliest_act(0);
                    if at != Cycle::MAX {
                        now = now.max(at);
                        let row = rng.below(64) as u32;
                        prop_assert!(soa.act(0, row, now, &t).is_ok());
                        bank.record_act(row, now);
                    }
                }
                1 => {
                    let at = soa.earliest_pre(0);
                    if at != Cycle::MAX {
                        now = now.max(at);
                        prop_assert!(soa.pre(0, now, &t).is_ok());
                    }
                }
                2 => {
                    let at = soa.earliest_rdwr(0);
                    if at != Cycle::MAX {
                        now = now.max(at);
                        prop_assert!(soa.rd(0, now, rng.chance(0.3), &t).is_ok());
                    }
                }
                _ => {
                    let at = soa.earliest_rdwr(0);
                    if at != Cycle::MAX {
                        now = now.max(at);
                        prop_assert!(soa.wr(0, now, rng.chance(0.3), &t).is_ok());
                    }
                }
            }
        }
    }

    /// Module-level: a random demand schedule driven through
    /// `earliest()` never produces an error, and command counts add up.
    #[test]
    fn module_schedule_legality(ops in prop::collection::vec(0u8..3, 1..60), seed in any::<u64>()) {
        let mut cfg = DramConfig::test_config(1_000_000);
        cfg.geometry = Geometry::small_test();
        let mut m = DramModule::new(cfg).unwrap();
        let mut rng = DetRng::new(seed);
        let mut now = Cycle::ZERO;
        let bank = BankId { channel: 0, rank: 0, bank_group: 0, bank: 0 };
        let mut issued = 0u64;
        for op in ops {
            let cmd = match op {
                0 => DdrCommand::Act { bank, row: rng.below(32) as u32 },
                1 => DdrCommand::Pre { bank },
                _ => DdrCommand::Rd { bank, col: rng.below(8) as u32, auto_pre: false },
            };
            let at = m.earliest(&cmd);
            if at == Cycle::MAX {
                continue; // illegal in this state; a real MC would reorder
            }
            now = now.max(at);
            prop_assert!(m.issue(&cmd, now).is_ok(), "{cmd} at {now}");
            issued += 1;
        }
        let s = m.stats();
        prop_assert!(s.acts + s.pres + s.rds <= issued + s.pres); // PRE may be no-op counted once
    }

    /// Disturbance conservation: total flip opportunities equal what
    /// the per-victim pressure accounting predicts — flips never
    /// appear without corresponding aggressor activity.
    #[test]
    fn no_flips_without_pressure(mac in 50u64..500) {
        let mut cfg = DramConfig::test_config(mac);
        cfg.geometry = Geometry::small_test();
        let mut m = DramModule::new(cfg).unwrap();
        let bank = BankId { channel: 0, rank: 0, bank_group: 0, bank: 0 };
        let mut now = Cycle::ZERO;
        // Fewer ACTs than MAC/2: no victim can cross.
        for _ in 0..(mac / 2).min(200) {
            let act = DdrCommand::Act { bank, row: 8 };
            now = now.max(m.earliest(&act));
            m.issue(&act, now).unwrap();
            let pre = DdrCommand::Pre { bank };
            now = now.max(m.earliest(&pre));
            m.issue(&pre, now).unwrap();
        }
        prop_assert_eq!(m.stats().flips, 0);
        prop_assert!(m.drain_flips().is_empty());
    }
}
