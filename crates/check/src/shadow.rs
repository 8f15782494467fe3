//! The live shadow observer: the invariant engine as an opt-in
//! controller sidecar.
//!
//! A [`ShadowChecker`] is threaded through `MemCtrlConfig` /
//! `MachineConfig` as `Option<ShadowChecker>`, exactly like the
//! tracer: `None` (the default) costs one `is_none()` branch per
//! issued command and nothing else, and the handle serializes as
//! `null` so a shadowed config's JSON equals an unshadowed one. The
//! controller feeds it every command it successfully issues; the
//! checker validates the stream against the same invariant catalog the
//! offline linter uses and accumulates violations for the caller to
//! assert on (tests) or report (debug runs).

use crate::checker::InvariantChecker;
use crate::rules::Violation;
use hammertime_common::Cycle;
use hammertime_dram::DramConfig;
use hammertime_telemetry::CmdEvent;
use std::fmt;
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct ShadowInner {
    checker: Option<InvariantChecker>,
    commands: u64,
}

/// A cheaply clonable handle to a live invariant checker.
///
/// All clones share one engine (like [`hammertime_telemetry::Tracer`]),
/// so the handle embedded in a controller config and the one the test
/// kept see the same violations.
#[derive(Clone, Default)]
pub struct ShadowChecker {
    inner: Arc<Mutex<ShadowInner>>,
}

impl ShadowChecker {
    /// Creates an idle shadow checker; it arms itself at the first
    /// [`ShadowChecker::on_device_reset`].
    pub fn new() -> ShadowChecker {
        ShadowChecker::default()
    }

    /// (Re-)arms the engine for a fresh device with this configuration.
    /// The controller calls this once at construction, mirroring the
    /// `DeviceReset` record a tracer would see.
    pub fn on_device_reset(&self, config: &DramConfig) {
        let mut inner = self.inner.lock().expect("shadow lock");
        inner.checker = Some(InvariantChecker::new(config.geometry, config.timing));
    }

    /// Checks one successfully issued command.
    pub fn on_command(&self, now: Cycle, cmd: &CmdEvent) {
        let mut inner = self.inner.lock().expect("shadow lock");
        inner.commands += 1;
        if let Some(c) = &mut inner.checker {
            c.command(now, cmd);
        }
    }

    /// Runs the end-of-run refresh-deadline tail check at `end`.
    pub fn finish(&self, end: Cycle) {
        let mut inner = self.inner.lock().expect("shadow lock");
        if let Some(c) = &mut inner.checker {
            c.finish(end);
        }
    }

    /// Violations detected so far.
    pub fn violations(&self) -> Vec<Violation> {
        let inner = self.inner.lock().expect("shadow lock");
        inner
            .checker
            .as_ref()
            .map(|c| c.violations().to_vec())
            .unwrap_or_default()
    }

    /// `true` when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        let inner = self.inner.lock().expect("shadow lock");
        inner
            .checker
            .as_ref()
            .is_none_or(|c| c.violations().is_empty())
    }

    /// Commands observed so far.
    pub fn commands_checked(&self) -> u64 {
        self.inner.lock().expect("shadow lock").commands
    }

    /// ACT commands observed so far — the stream-side leg of the
    /// ACT-conservation law (compare against `DramStats.acts` and the
    /// controller's summed ACT-counter increments).
    pub fn acts_observed(&self) -> u64 {
        let inner = self.inner.lock().expect("shadow lock");
        inner
            .checker
            .as_ref()
            .map_or(0, InvariantChecker::acts_observed)
    }
}

impl fmt::Debug for ShadowChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("shadow lock");
        let violations = inner.checker.as_ref().map_or(0, |c| c.violations().len());
        write!(
            f,
            "ShadowChecker(commands {}, violations {violations})",
            inner.commands
        )
    }
}

// A shadow checker is a live resource, not data: serialize as `null`
// (so a shadowed config's JSON is byte-identical to an unshadowed
// one), never deserialize — the same contract as `Tracer`.
impl serde::Serialize for ShadowChecker {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("null");
    }
}

impl serde::Deserialize for ShadowChecker {
    fn deserialize_json(_v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        Err(serde::Error::expected(
            "null (a shadow checker is a live observer and cannot be deserialized)",
            "ShadowChecker",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammertime_common::geometry::BankId;

    fn bank0() -> BankId {
        BankId {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
        }
    }

    #[test]
    fn shadow_clones_share_one_engine() {
        let shadow = ShadowChecker::new();
        let clone = shadow.clone();
        clone.on_device_reset(&DramConfig::test_config(1000));
        shadow.on_command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        shadow.on_command(
            Cycle(1),
            &CmdEvent::Act {
                bank: bank0(),
                row: 2,
            },
        );
        assert!(!clone.is_clean());
        assert_eq!(clone.commands_checked(), 2);
        assert_eq!(clone.acts_observed(), 2);
    }

    #[test]
    fn serializes_as_null_inside_option() {
        let some: Option<ShadowChecker> = Some(ShadowChecker::new());
        let none: Option<ShadowChecker> = None;
        assert_eq!(
            serde_json::to_string(&some).unwrap(),
            serde_json::to_string(&none).unwrap()
        );
    }

    #[test]
    fn unarmed_shadow_is_clean() {
        let shadow = ShadowChecker::new();
        shadow.on_command(
            Cycle(0),
            &CmdEvent::Act {
                bank: bank0(),
                row: 1,
            },
        );
        assert!(shadow.is_clean());
        assert_eq!(shadow.commands_checked(), 1);
    }
}
