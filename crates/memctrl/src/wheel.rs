//! Calendar scheduler for the fast command path.
//!
//! The controller's scheduling problem is event-driven: between
//! command issues nothing about the candidate set changes, and each
//! issue perturbs only a small, statically-known neighborhood (the
//! bank it touched, or every bank of a rank for ACT/REF timing
//! windows). [`EventWheel`] exploits that structure:
//!
//! - every bank with queued work posts its best [`Candidate`] — the
//!   next timed obligation for that bank (tRCD/tRAS/tRP expiry, tFAW
//!   and tRRD windows, throttle release, data-bus occupancy) collapses
//!   into the candidate's `issue_at` — into a time-ordered calendar;
//! - mutations mark the affected banks dirty instead of discarding the
//!   whole scan, and only dirty banks are repriced on the next query;
//! - the scheduler jumps straight to the earliest posted event with a
//!   heap peek instead of rescanning every bank.
//!
//! Rank refresh timers stay outside the calendar: the per-rank
//! `next_ref` deadline array in the controller *is* their (coarse)
//! wheel ring, and their candidates depend on every bank of the rank,
//! so they are repriced fresh on each query — there are at most
//! `channels x ranks` of them.
//!
//! Stale entries are handled by lazy deletion: an entry is trusted
//! only if it still matches its bank's slot byte-for-byte and the slot
//! is clean; otherwise it is popped and (if the bank is still live)
//! repriced. The calendar is rebuilt from the slots when stale entries
//! outnumber live ones, bounding memory at O(banks).
//!
//! Correctness contract (enforced by the differential suites): with
//! the dirty rules in `controller.rs`, a clean slot whose entry passes
//! the floor checks is exactly what repricing the bank would produce,
//! so the wheel's winner is byte-identical to a full scan — and
//! therefore to [`MemCtrl::step_reference`].
//!
//! [`MemCtrl::step_reference`]: crate::controller::MemCtrl::step_reference

use hammertime_common::Cycle;
use hammertime_dram::DdrCommand;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One schedulable command candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub issue_at: Cycle,
    /// Lower is better: 0 = refresh scheduler, 1 = CAS (row hit) and
    /// maintenance, 2 = ACT/PRE for misses.
    pub priority: u8,
    pub seq: u64,
    pub kind: CandidateKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum CandidateKind {
    /// Periodic refresh for (channel, rank): precharge-all then REF.
    RankRefresh {
        channel: u32,
        rank: u32,
        need_pre: bool,
    },
    /// Next command for the queued request with this handle.
    Request { handle: u32, cmd: DdrCommand },
}

/// FR-FCFS comparison: earliest issue first, then priority class, then
/// age. Strict, so equal tuples keep the earlier-scanned candidate —
/// the tie rule both scheduler implementations must share.
pub(crate) fn better(a: &Candidate, b: &Candidate) -> bool {
    key_of(a) < key_of(b)
}

/// The calendar ordering key of a candidate. Total order: request
/// candidates carry unique `seq`, and refresh candidates (seq 0,
/// priority 0) are never stored in the calendar.
pub(crate) fn key_of(c: &Candidate) -> SlotKey {
    (c.issue_at, c.priority, c.seq)
}

/// Calendar entry key: `(issue_at, priority, seq)` — the exact
/// comparison tuple of [`better`], so heap order is scan order.
pub(crate) type SlotKey = (Cycle, u8, u64);

/// Per-bank candidate slots plus a time-ordered calendar over them.
#[derive(Debug, Clone)]
pub(crate) struct EventWheel {
    /// Best candidate per flat bank, `None` when the bank has no
    /// issuable work. Trustworthy only when the bank is clean.
    slots: Vec<Option<Candidate>>,
    /// Banks whose slot no longer reflects controller state.
    dirty: Vec<bool>,
    /// Work list of dirty banks (each bank appears at most once).
    dirty_stack: Vec<u32>,
    /// The calendar: min-heap of `(key, bank)` entries. Entries whose
    /// key no longer matches the bank's slot are stale and lazily
    /// discarded.
    calendar: BinaryHeap<Reverse<(SlotKey, u32)>>,
    /// Calendar entries consumed (popped or repriced) over the run.
    pub events_processed: u64,
    /// High-water mark of live calendar entries.
    pub occupancy_peak: u64,
}

impl EventWheel {
    /// A wheel for `banks` flat banks, all slots empty and clean (a
    /// fresh controller has no queued work; submissions dirty banks).
    pub fn new(banks: usize) -> EventWheel {
        EventWheel {
            slots: vec![None; banks],
            dirty: vec![false; banks],
            dirty_stack: Vec::new(),
            calendar: BinaryHeap::new(),
            events_processed: 0,
            occupancy_peak: 0,
        }
    }

    /// Marks one bank's slot as out of date.
    pub fn mark_bank(&mut self, b: usize) {
        if !self.dirty[b] {
            self.dirty[b] = true;
            self.dirty_stack.push(b as u32);
        }
    }

    /// Marks a contiguous flat-bank range (one rank) out of date.
    pub fn mark_rank_range(&mut self, start: usize, len: usize) {
        for b in start..start + len {
            self.mark_bank(b);
        }
    }

    /// Marks every bank out of date (white-box device mutation, map
    /// reconfiguration, wedge).
    pub fn mark_all(&mut self) {
        self.dirty_stack.clear();
        self.calendar.clear();
        for (b, d) in self.dirty.iter_mut().enumerate() {
            *d = true;
            self.dirty_stack.push(b as u32);
        }
    }

    /// Next bank awaiting repricing, if any.
    pub fn pop_dirty(&mut self) -> Option<usize> {
        self.dirty_stack.pop().map(|b| b as usize)
    }

    /// Stores a freshly priced slot for `b`, posting it to the
    /// calendar, and marks the bank clean.
    pub fn store(&mut self, b: usize, c: Option<Candidate>) {
        self.events_processed += 1;
        self.dirty[b] = false;
        self.slots[b] = c;
        if let Some(c) = &c {
            self.calendar.push(Reverse((key_of(c), b as u32)));
            self.occupancy_peak = self.occupancy_peak.max(self.calendar.len() as u64);
        }
        // Lazy deletion bound: when stale entries dominate, rebuild
        // the calendar from the slots (at most one live entry each).
        if self.calendar.len() > (4 * self.slots.len()).max(64) {
            self.rebuild();
        }
    }

    /// The stored candidate for `b` (meaningful only when clean).
    pub fn slot(&self, b: usize) -> Option<Candidate> {
        self.slots[b]
    }

    /// Whether `b` awaits repricing.
    pub fn is_dirty(&self, b: usize) -> bool {
        self.dirty[b]
    }

    /// The earliest calendar entry, stale or not.
    pub fn peek(&self) -> Option<(SlotKey, usize)> {
        self.calendar
            .peek()
            .map(|Reverse((key, b))| (*key, *b as usize))
    }

    /// Discards the top calendar entry (stale, or invalidated by a
    /// floor that moved past it).
    pub fn pop(&mut self) {
        self.events_processed += 1;
        self.calendar.pop();
    }

    /// Live calendar entries (including not-yet-collected stale ones).
    pub fn occupancy(&self) -> u64 {
        self.calendar.len() as u64
    }

    fn rebuild(&mut self) {
        self.calendar.clear();
        for (b, slot) in self.slots.iter().enumerate() {
            if self.dirty[b] {
                continue;
            }
            if let Some(c) = slot {
                self.calendar.push(Reverse((key_of(c), b as u32)));
            }
        }
    }
}
