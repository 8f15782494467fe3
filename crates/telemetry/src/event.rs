//! The event taxonomy: everything the simulator can say about itself.
//!
//! Every record is a cycle stamp plus one [`Event`]. The taxonomy is
//! deliberately flat and closed — each variant corresponds to one
//! observable action of the modelled hardware/software stack, so a
//! trace reads like a command-bus analyser capture annotated with the
//! defense-relevant events around it (paper §4: ACT-interrupts,
//! refresh instructions, remaps, TRR actions).
//!
//! Two variants carry embedded JSON rather than structured fields:
//! [`Event::DeviceReset`] (the full device config, so a trace is
//! self-describing and replayable) and [`Event::DeviceStats`] (the
//! device's final counters, the replay harness's ground truth). The
//! telemetry crate sits *below* the device model in the dependency
//! DAG, so it cannot name those types; JSON keeps the layer boundary
//! clean without losing information.

use hammertime_common::geometry::BankId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A DDR command as recorded on the trace.
///
/// Structural mirror of the device model's `DdrCommand` (which this
/// crate cannot depend on); `hammertime-dram` provides lossless
/// conversions in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmdEvent {
    /// Activate `row` in `bank`.
    Act {
        /// Target bank.
        bank: BankId,
        /// In-bank row index.
        row: u32,
    },
    /// Precharge the open row in `bank`.
    Pre {
        /// Target bank.
        bank: BankId,
    },
    /// Precharge every bank in `rank` of `channel`.
    PreAll {
        /// Target channel.
        channel: u32,
        /// Target rank.
        rank: u32,
    },
    /// Read burst at `col` of the open row in `bank`.
    Rd {
        /// Target bank.
        bank: BankId,
        /// Column burst index.
        col: u32,
        /// Implicit precharge after the burst (RDA).
        auto_pre: bool,
    },
    /// Write burst at `col` of the open row in `bank`.
    Wr {
        /// Target bank.
        bank: BankId,
        /// Column burst index.
        col: u32,
        /// Implicit precharge after the burst (WRA).
        auto_pre: bool,
    },
    /// All-bank auto-refresh for one rank.
    Ref {
        /// Target channel.
        channel: u32,
        /// Target rank.
        rank: u32,
    },
    /// Refresh every potential victim within `radius` of `row`.
    RefNeighbors {
        /// Bank containing the aggressor.
        bank: BankId,
        /// Aggressor row.
        row: u32,
        /// Blast radius (rows each side).
        radius: u32,
    },
}

impl CmdEvent {
    /// Short mnemonic, as a bus trace would print it.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CmdEvent::Act { .. } => "ACT",
            CmdEvent::Pre { .. } => "PRE",
            CmdEvent::PreAll { .. } => "PREA",
            CmdEvent::Rd {
                auto_pre: false, ..
            } => "RD",
            CmdEvent::Rd { auto_pre: true, .. } => "RDA",
            CmdEvent::Wr {
                auto_pre: false, ..
            } => "WR",
            CmdEvent::Wr { auto_pre: true, .. } => "WRA",
            CmdEvent::Ref { .. } => "REF",
            CmdEvent::RefNeighbors { .. } => "REFN",
        }
    }
}

/// One observable action of the simulated stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A DRAM device model came up. `config_json` is the device's full
    /// serialized `DramConfig` (tracer field rendered as `null`), which
    /// makes the trace self-describing: the replay harness rebuilds an
    /// identical device — same geometry, timing, disturbance model,
    /// fault plan, and seed — from this event alone.
    DeviceReset {
        /// JSON-serialized `DramConfig` of the device.
        config_json: String,
    },
    /// A DDR command was accepted by the device.
    Command {
        /// The command, as seen on the bus.
        cmd: CmdEvent,
    },
    /// Disturbance flipped a bit. Emitted at the ACT that sampled the
    /// flip, immediately after its [`Event::Command`].
    Flip {
        /// Flat bank index of the victim.
        flat_bank: u64,
        /// Logical (post-remap) victim row.
        victim_row: u32,
        /// Logical aggressor row.
        aggressor_row: u32,
        /// Flipped bit index within the row.
        bit: u64,
    },
    /// The host asked the device whether a row has decayed past its
    /// retention margin. Recorded (with the answer) because the check
    /// mutates the device's decay counter, so replay must repeat it.
    RetentionCheck {
        /// Bank holding the row.
        bank: BankId,
        /// Logical row index.
        row: u32,
        /// Retention margin as a fraction of tREFW.
        margin: f64,
        /// Whether the device reported decay.
        decayed: bool,
    },
    /// The in-DRAM TRR engine refreshed a suspected victim row,
    /// piggybacked on a REF.
    TrrRefresh {
        /// Flat bank index.
        flat_bank: u64,
        /// Refreshed (logical) row.
        row: u32,
    },
    /// An ACT_COUNT overflow interrupt was delivered to the host OS
    /// (paper §4.2).
    ActInterrupt {
        /// Channel whose counter overflowed.
        channel: u32,
        /// Cycle the overflow occurred.
        raised_at: u64,
        /// Delivery latency in cycles (record cycle − `raised_at`).
        latency: u64,
    },
    /// A software-issued targeted `refresh` instruction reached the
    /// controller (paper §4.1).
    RefreshInstr {
        /// Target cache line.
        line: u64,
        /// Whether the controller NACKed it (injected fault).
        nacked: bool,
    },
    /// The OS remapped a victim frame away from its aggressor
    /// (software defense action).
    Remap {
        /// Frame number before the remap.
        frame: u64,
        /// Frame number after the remap.
        new_frame: u64,
    },
    /// A fault clock fired (chaos plan): the component misbehaved on
    /// purpose.
    FaultInjected {
        /// `FaultKind` name, kebab-case.
        kind: String,
    },
    /// The scheduler hit an illegal state and wedged the controller
    /// instead of panicking.
    SchedulerWedge {
        /// The wedge diagnostic.
        message: String,
    },
    /// A traced DRAM device went down; `stats_json` is its final
    /// serialized `DramStats`. The replay harness asserts its rebuilt
    /// device reproduces these counters exactly.
    DeviceStats {
        /// JSON-serialized final `DramStats` of the device.
        stats_json: String,
    },
}

impl Event {
    /// Short static name of the variant, for diffing and `trace stats`.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::DeviceReset { .. } => "device-reset",
            Event::Command { .. } => "command",
            Event::Flip { .. } => "flip",
            Event::RetentionCheck { .. } => "retention-check",
            Event::TrrRefresh { .. } => "trr-refresh",
            Event::ActInterrupt { .. } => "act-interrupt",
            Event::RefreshInstr { .. } => "refresh-instr",
            Event::Remap { .. } => "remap",
            Event::FaultInjected { .. } => "fault-injected",
            Event::SchedulerWedge { .. } => "scheduler-wedge",
            Event::DeviceStats { .. } => "device-stats",
        }
    }
}

/// A cycle-stamped event: one line of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation cycle the event was recorded at.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} ", self.cycle)?;
        match &self.event {
            Event::Command { cmd } => write!(f, "{} {:?}", cmd.mnemonic(), cmd),
            other => write!(f, "{} {:?}", other.kind(), other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        let bank = BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        };
        let events = [
            Event::DeviceReset {
                config_json: "{}".into(),
            },
            Event::Command {
                cmd: CmdEvent::Pre { bank },
            },
            Event::Flip {
                flat_bank: 0,
                victim_row: 1,
                aggressor_row: 2,
                bit: 3,
            },
            Event::RetentionCheck {
                bank,
                row: 0,
                margin: 1.0,
                decayed: false,
            },
            Event::TrrRefresh {
                flat_bank: 0,
                row: 0,
            },
            Event::ActInterrupt {
                channel: 0,
                raised_at: 0,
                latency: 0,
            },
            Event::RefreshInstr {
                line: 0,
                nacked: false,
            },
            Event::Remap {
                frame: 0,
                new_frame: 1,
            },
            Event::FaultInjected {
                kind: "ghost-ref".into(),
            },
            Event::SchedulerWedge {
                message: "boom".into(),
            },
            Event::DeviceStats {
                stats_json: "{}".into(),
            },
        ];
        let kinds: std::collections::HashSet<_> = events.iter().map(Event::kind).collect();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn record_serde_round_trips() {
        let rec = TraceRecord {
            cycle: 42,
            event: Event::Command {
                cmd: CmdEvent::Act {
                    bank: BankId {
                        channel: 1,
                        rank: 0,
                        bank_group: 2,
                        bank: 3,
                    },
                    row: 77,
                },
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
    }
}
