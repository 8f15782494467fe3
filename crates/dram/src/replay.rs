//! Trace replay: drive a [`DramModule`] straight from a recorded
//! command trace and verify it reproduces the recording.
//!
//! The device is deterministic given its config (which embeds the
//! flip-sampling seed and fault plan) and the exact command sequence —
//! no wall clock, no ambient randomness. A trace therefore carries
//! everything needed to rebuild the run *without* the scheduler that
//! produced it: [`Event::DeviceReset`] holds the config JSON,
//! [`Event::Command`] records each accepted command with its issue
//! cycle, and [`Event::DeviceStats`] closes the device with its final
//! counters. [`replay_records`] replays that stream and checks, record
//! by record, that the fresh device produces the same flips, the same
//! retention-check verdicts, and byte-identical [`DramStats`].
//!
//! Machine- and controller-level events (ACT-interrupts, refresh
//! instructions, remaps, scheduler wedges, metrics) are passed over:
//! they describe layers above the device and carry no device state.

use crate::command::DdrCommand;
use crate::module::{DramConfig, DramModule};
use crate::stats::DramStats;
use hammertime_common::{Cycle, Error, Result};
use hammertime_telemetry::{Event, TraceRecord};
use serde::{Deserialize, Serialize};

/// What a successful replay covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplaySummary {
    /// Devices rebuilt (one per [`Event::DeviceReset`]).
    pub devices: u64,
    /// Commands re-issued.
    pub commands: u64,
    /// Flips reproduced and matched against the recording.
    pub flips: u64,
}

/// One device lifetime inside the trace, from `DeviceReset` to
/// `DeviceStats`.
struct Segment {
    module: DramModule,
    /// Flips the recording claims, in emission order:
    /// `(cycle, flat_bank, victim_row, aggressor_row, bit)`.
    expected_flips: Vec<(u64, u64, u32, u32, u64)>,
}

fn malformed(what: &str, index: usize) -> Error {
    Error::Config(format!("malformed trace at record {index}: {what}"))
}

fn divergence(what: String, index: usize) -> Error {
    Error::Fault(format!("replay divergence at record {index}: {what}"))
}

impl Segment {
    /// Closes the segment against its recorded final stats: counters
    /// byte-identical, flip stream identical event for event.
    fn finish(mut self, stats_json: &str, index: usize) -> Result<u64> {
        let recorded: DramStats = serde_json::from_str(stats_json)
            .map_err(|e| malformed(&format!("bad device stats JSON: {}", e.0), index))?;
        let replayed = self.module.stats();
        if replayed != recorded {
            return Err(divergence(
                format!("device stats differ: replayed {replayed:?}, recorded {recorded:?}"),
                index,
            ));
        }
        let flips = self.module.drain_flips();
        if flips.len() != self.expected_flips.len() {
            return Err(divergence(
                format!(
                    "flip count differs: replayed {}, recorded {}",
                    flips.len(),
                    self.expected_flips.len()
                ),
                index,
            ));
        }
        for (f, exp) in flips.iter().zip(&self.expected_flips) {
            let got = (
                f.time.raw(),
                f.flat_bank as u64,
                f.victim_row,
                f.aggressor_row,
                f.bit,
            );
            if got != *exp {
                return Err(divergence(
                    format!("flip differs: replayed {got:?}, recorded {exp:?}"),
                    index,
                ));
            }
        }
        Ok(flips.len() as u64)
    }
}

/// Replays a recorded trace through fresh [`DramModule`]s and verifies
/// every device-level record against the rebuilt device.
///
/// # Errors
///
/// [`Error::Config`] if the trace is structurally malformed (a command
/// before any `DeviceReset`, unparseable embedded JSON, a device left
/// open at end of trace); [`Error::Fault`] on any divergence between
/// the recording and the replay — a rejected command, a mismatched
/// flip, a retention verdict or final stats that differ.
pub fn replay_records(records: &[TraceRecord]) -> Result<ReplaySummary> {
    let mut current: Option<Segment> = None;
    let mut summary = ReplaySummary {
        devices: 0,
        commands: 0,
        flips: 0,
    };
    for (index, rec) in records.iter().enumerate() {
        match &rec.event {
            Event::DeviceReset { config_json } => {
                if current.is_some() {
                    return Err(malformed("device reset while a device is open", index));
                }
                let config: DramConfig = serde_json::from_str(config_json)
                    .map_err(|e| malformed(&format!("bad device config JSON: {}", e.0), index))?;
                let module = DramModule::new(config)?;
                current = Some(Segment {
                    module,
                    expected_flips: Vec::new(),
                });
                summary.devices += 1;
            }
            Event::Command { cmd } => {
                let seg = current
                    .as_mut()
                    .ok_or_else(|| malformed("command before device reset", index))?;
                let cmd = DdrCommand::from(cmd);
                seg.module
                    .issue(&cmd, Cycle(rec.cycle))
                    .map_err(|e| divergence(format!("{cmd} rejected: {e}"), index))?;
                summary.commands += 1;
            }
            Event::Flip {
                flat_bank,
                victim_row,
                aggressor_row,
                bit,
            } => {
                let seg = current
                    .as_mut()
                    .ok_or_else(|| malformed("flip before device reset", index))?;
                seg.expected_flips
                    .push((rec.cycle, *flat_bank, *victim_row, *aggressor_row, *bit));
            }
            Event::RetentionCheck {
                bank,
                row,
                margin,
                decayed,
            } => {
                let seg = current
                    .as_mut()
                    .ok_or_else(|| malformed("retention check before device reset", index))?;
                let got = seg
                    .module
                    .check_retention(bank, *row, Cycle(rec.cycle), *margin);
                if got != *decayed {
                    return Err(divergence(
                        format!(
                            "retention check on {bank} r{row} differs: \
                             replayed {got}, recorded {decayed}"
                        ),
                        index,
                    ));
                }
            }
            Event::DeviceStats { stats_json } => {
                let seg = current
                    .take()
                    .ok_or_else(|| malformed("device stats before device reset", index))?;
                summary.flips += seg.finish(stats_json, index)?;
            }
            // Controller- and machine-level events: no device state.
            Event::TrrRefresh { .. }
            | Event::ActInterrupt { .. }
            | Event::RefreshInstr { .. }
            | Event::Remap { .. }
            | Event::FaultInjected { .. }
            | Event::SchedulerWedge { .. } => {}
        }
    }
    if current.is_some() {
        return Err(malformed(
            "trace ended with a device still open (no device-stats record)",
            records.len(),
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::DdrCommand;
    use hammertime_common::geometry::BankId;
    use hammertime_common::FaultPlan;
    use hammertime_telemetry::Tracer;

    fn bank0() -> BankId {
        BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        }
    }

    /// Records a hammer run (with a REF and a retention check mixed
    /// in) under a buffer tracer and returns the trace.
    fn record(mut cfg: DramConfig) -> Vec<TraceRecord> {
        let tracer = Tracer::buffer();
        cfg.tracer = Some(tracer.clone());
        let mut m = DramModule::new(cfg).unwrap();
        let mut now = Cycle::ZERO;
        for _ in 0..40 {
            let act = DdrCommand::Act {
                bank: bank0(),
                row: 8,
            };
            now = now.max(m.earliest(&act));
            now = m.issue(&act, now).unwrap().done;
            let pre = DdrCommand::Pre { bank: bank0() };
            now = now.max(m.earliest(&pre));
            now = m.issue(&pre, now).unwrap().done;
        }
        let rf = DdrCommand::Ref {
            channel: 0,
            rank: 0,
        };
        now = now.max(m.earliest(&rf));
        now = m.issue(&rf, now).unwrap().done;
        m.check_retention(&bank0(), 3, now, 1.0);
        assert!(m.stats().flips > 0, "fixture must generate flips");
        drop(m);
        tracer.take_records()
    }

    #[test]
    fn recorded_hammer_replays_exactly() {
        let trace = record(DramConfig::test_config(10));
        let summary = replay_records(&trace).unwrap();
        assert_eq!(summary.devices, 1);
        assert_eq!(summary.commands, 81);
        assert!(summary.flips > 0);
    }

    /// Traces recorded while `DramConfig` still had its batched-pressure
    /// switch embed `false` for it in their `DeviceReset` config.
    /// Unknown fields are ignored on load, so such a trace still
    /// rebuilds the device and replays.
    #[test]
    fn config_with_removed_batched_key_replays() {
        const OLD_KEY: &str = r#""batched_pressure":false,"faults":"#;
        let mut trace = record(DramConfig::test_config(10));
        let expected = replay_records(&trace).unwrap();
        let Event::DeviceReset { config_json } = &mut trace[0].event else {
            panic!("trace opens with a device reset");
        };
        let old = config_json.replace(r#""faults":"#, OLD_KEY);
        assert_ne!(old, *config_json, "config_json has a faults key");
        *config_json = old;
        assert_eq!(replay_records(&trace).unwrap(), expected);
        assert!(expected.flips > 0);
    }

    #[test]
    fn faulted_recording_replays_exactly() {
        let mut cfg = DramConfig::test_config(10);
        cfg.faults = Some(FaultPlan {
            seed: 7,
            dropped_ref: 0.5,
            trr_miss: 0.5,
            ..FaultPlan::default()
        });
        let trace = record(cfg);
        let summary = replay_records(&trace).unwrap();
        assert_eq!(summary.devices, 1);
        assert!(summary.flips > 0);
    }

    #[test]
    fn tampered_flip_is_caught() {
        let mut trace = record(DramConfig::test_config(10));
        let idx = trace
            .iter()
            .position(|r| matches!(r.event, Event::Flip { .. }))
            .expect("trace has flips");
        if let Event::Flip { victim_row, .. } = &mut trace[idx].event {
            *victim_row += 1;
        }
        let err = replay_records(&trace).unwrap_err();
        assert!(matches!(err, Error::Fault(_)), "{err}");
    }

    #[test]
    fn tampered_command_is_caught() {
        let mut trace = record(DramConfig::test_config(10));
        // Retarget the second ACT to a different row: downstream flips
        // no longer match the recording.
        let idx = trace
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(
                    r.event,
                    Event::Command {
                        cmd: hammertime_telemetry::CmdEvent::Act { .. }
                    }
                )
            })
            .map(|(i, _)| i)
            .nth(1)
            .expect("trace has ACTs");
        if let Event::Command {
            cmd: hammertime_telemetry::CmdEvent::Act { row, .. },
        } = &mut trace[idx].event
        {
            *row = 2;
        }
        let err = replay_records(&trace).unwrap_err();
        assert!(matches!(err, Error::Fault(_)), "{err}");
    }

    #[test]
    fn truncated_trace_is_malformed() {
        let mut trace = record(DramConfig::test_config(10));
        trace.pop(); // drop the closing DeviceStats
        let err = replay_records(&trace).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn empty_trace_replays_vacuously() {
        let summary = replay_records(&[]).unwrap();
        assert_eq!(
            summary,
            ReplaySummary {
                devices: 0,
                commands: 0,
                flips: 0
            }
        );
    }
}
