//! Offline trace linting: drive the invariant engine over a recorded
//! command trace.
//!
//! A command trace is self-describing — each [`Event::DeviceReset`]
//! embeds the full `DramConfig` of the device coming up, and each
//! [`Event::DeviceStats`] closes that device's segment with its final
//! counters — so the linter needs no out-of-band configuration: it
//! rebuilds an [`InvariantChecker`] per segment and validates every
//! command, then the conservation laws, then the refresh-deadline tail.

use crate::checker::InvariantChecker;
use crate::rules::{Rule, Violation};
use hammertime_common::Cycle;
use hammertime_dram::{DramConfig, DramStats};
use hammertime_telemetry::{CommandTrace, Event, TraceRecord};

/// The result of linting one trace: every violation found, plus the
/// coverage counters a report wants to print.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// DDR commands checked.
    pub commands: u64,
    /// Device segments (one per `DeviceReset`).
    pub devices: u64,
}

impl LintReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable JSONL: one [`Violation`] object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&serde_json::to_string(v).expect("violation serializes"));
            out.push('\n');
        }
        out
    }

    /// Rules that fired, deduplicated, in first-fired order.
    pub fn rules_fired(&self) -> Vec<Rule> {
        let mut seen = Vec::new();
        for v in &self.violations {
            if !seen.contains(&v.rule) {
                seen.push(v.rule);
            }
        }
        seen
    }
}

/// One device segment being linted.
struct Segment {
    checker: InvariantChecker,
    /// Latest cycle covered by the segment (commands or stats record).
    end: Cycle,
    /// Whether the closing `DeviceStats` was seen.
    closed: bool,
}

/// Lints a stream of trace records (the payload of a command trace).
pub fn lint_records(records: &[TraceRecord]) -> LintReport {
    let mut report = LintReport::default();
    let mut segment: Option<Segment> = None;

    let close = |seg: &mut Option<Segment>, report: &mut LintReport| {
        if let Some(mut s) = seg.take() {
            s.checker.finish(s.end);
            report.commands += s.checker.commands_checked();
            report.violations.extend(s.checker.into_violations());
        }
    };

    for rec in records {
        match &rec.event {
            Event::DeviceReset { config_json } => {
                close(&mut segment, &mut report);
                report.devices += 1;
                match serde_json::from_str::<DramConfig>(config_json) {
                    Ok(config) => {
                        segment = Some(Segment {
                            checker: InvariantChecker::new(config.geometry, config.timing),
                            end: Cycle(rec.cycle),
                            closed: false,
                        });
                    }
                    Err(e) => {
                        report.violations.push(Violation {
                            cycle: rec.cycle,
                            rule: Rule::TraceFormat,
                            bank: None,
                            detail: format!("DeviceReset config does not parse: {e}"),
                        });
                    }
                }
            }
            Event::Command { cmd } => match &mut segment {
                Some(s) if !s.closed => {
                    s.end = s.end.max(Cycle(rec.cycle));
                    s.checker.command(Cycle(rec.cycle), cmd);
                }
                _ => {
                    report.violations.push(Violation {
                        cycle: rec.cycle,
                        rule: Rule::TraceFormat,
                        bank: None,
                        detail: format!(
                            "{} command outside a device segment (no preceding DeviceReset)",
                            cmd.mnemonic()
                        ),
                    });
                }
            },
            Event::Flip { .. } => {
                if let Some(s) = &mut segment {
                    s.checker.flip();
                }
            }
            Event::DeviceStats { stats_json } => match &mut segment {
                Some(s) if !s.closed => {
                    s.end = s.end.max(Cycle(rec.cycle));
                    match serde_json::from_str::<DramStats>(stats_json) {
                        Ok(stats) => s.checker.device_stats(Cycle(rec.cycle), &stats),
                        Err(e) => report.violations.push(Violation {
                            cycle: rec.cycle,
                            rule: Rule::TraceFormat,
                            bank: None,
                            detail: format!("DeviceStats does not parse: {e}"),
                        }),
                    }
                    s.closed = true;
                }
                _ => report.violations.push(Violation {
                    cycle: rec.cycle,
                    rule: Rule::TraceFormat,
                    bank: None,
                    detail: "DeviceStats outside a device segment".into(),
                }),
            },
            // Machine-level events (interrupts, remaps, retention
            // checks, TRR actions, injected faults, wedges) carry no
            // bus-level invariants.
            _ => {}
        }
    }
    close(&mut segment, &mut report);
    report
}

/// Lints a complete [`CommandTrace`] (header + records).
pub fn lint_trace(trace: &CommandTrace) -> LintReport {
    lint_records(&trace.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::geometry::BankId;
    use hammertime_dram::{DdrCommand, DramModule};
    use hammertime_telemetry::Tracer;

    /// Drives a real traced device through a legal command sequence and
    /// returns the records — the ground-truth "clean trace" source. The
    /// MAC of 2 makes the three ACTs of row 2 flip bits in rows 1 and 3.
    fn recorded_session() -> Vec<TraceRecord> {
        let tracer = Tracer::buffer();
        let mut config = DramConfig::test_config(2);
        config.tracer = Some(tracer.clone());
        let bank = BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        };
        {
            let mut dram = DramModule::new(config).unwrap();
            let t = hammertime_dram::TimingParams::tiny_test();
            let mut now = Cycle(1);
            for _ in 0..3 {
                dram.issue(&DdrCommand::Act { bank, row: 2 }, now).unwrap();
                now += t.t_rcd;
                dram.issue(
                    &DdrCommand::Rd {
                        bank,
                        col: 0,
                        auto_pre: false,
                    },
                    now,
                )
                .unwrap();
                now += t.t_ras - t.t_rcd;
                dram.issue(&DdrCommand::Pre { bank }, now).unwrap();
                now += t.t_rc;
            }
        }
        tracer.take_records()
    }

    #[test]
    fn dropped_flip_breaks_flip_conservation() {
        let mut records = recorded_session();
        let report = lint_records(&records);
        assert!(report.is_clean(), "{:?}", report.violations);
        let idx = records
            .iter()
            .position(|r| matches!(r.event, Event::Flip { .. }))
            .expect("trace has flips");
        records.remove(idx);
        let report = lint_records(&records);
        assert_eq!(report.rules_fired(), vec![Rule::FlipConservation]);
        assert_eq!(Rule::FlipConservation.name(), "flip-conservation");
    }

    /// Traces recorded while `DramConfig` still had its batched-pressure
    /// switch embed `false` for it in their `DeviceReset` config;
    /// unknown fields are ignored, so they still lint.
    #[test]
    fn config_with_removed_batched_key_still_lints() {
        const OLD_KEY: &str = r#""batched_pressure":false,"faults":"#;
        let mut records = recorded_session();
        for rec in &mut records {
            if let Event::DeviceReset { config_json } = &mut rec.event {
                let old = config_json.replace(r#""faults":"#, OLD_KEY);
                assert_ne!(old, *config_json, "config_json has a faults key");
                *config_json = old;
            }
        }
        let report = lint_records(&records);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.devices, 1);
    }

    #[test]
    fn real_device_session_lints_clean() {
        let records = recorded_session();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, Event::DeviceStats { .. })));
        let report = lint_records(&records);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.devices, 1);
        assert!(report.commands >= 9);
    }

    #[test]
    fn command_before_reset_is_flagged() {
        let mut records = recorded_session();
        // Strip the DeviceReset: every command is now orphaned.
        records.retain(|r| !matches!(r.event, Event::DeviceReset { .. }));
        let report = lint_records(&records);
        assert!(report.rules_fired().contains(&Rule::TraceFormat));
    }

    #[test]
    fn dropped_command_breaks_conservation() {
        let mut records = recorded_session();
        let idx = records
            .iter()
            .position(|r| {
                matches!(
                    r.event,
                    Event::Command {
                        cmd: hammertime_telemetry::CmdEvent::Rd { .. }
                    }
                )
            })
            .unwrap();
        records.remove(idx);
        let report = lint_records(&records);
        assert!(report.rules_fired().contains(&Rule::CommandConservation));
    }

    #[test]
    fn jsonl_report_is_one_object_per_line() {
        let mut records = recorded_session();
        records.retain(|r| !matches!(r.event, Event::DeviceReset { .. }));
        let report = lint_records(&records);
        let jsonl = report.to_jsonl();
        assert_eq!(jsonl.lines().count(), report.violations.len());
        for line in jsonl.lines() {
            let v: Violation = serde_json::from_str(line).unwrap();
            assert_eq!(v.rule, Rule::TraceFormat);
        }
    }
}
