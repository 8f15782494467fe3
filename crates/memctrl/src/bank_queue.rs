//! Per-bank request index for the calendar scheduler.
//!
//! The scheduler prices a bank against one timing snapshot. Under that
//! snapshot every queued request whose `arrival` is at or below the
//! bank's floor (command bus and clock) falls into one of a handful of
//! command classes, and every member of a class prices to the same
//! `(issue_at, priority)` — so only the oldest (lowest `seq`) member of
//! each class can win. [`BankQueue`] keeps each class in `seq` order,
//! which makes pricing a bank O(classes) instead of O(queued requests):
//!
//! - CAS to the open row, reads and writes apart (their data-bus lead
//!   differs): the head of `(open row, direction)`;
//! - demand PRE while another row is open: the oldest row head of any
//!   other row;
//! - demand ACT while the bank is closed: the oldest row head, or one
//!   head per row while that row is throttled;
//! - refresh instructions before their ACT: PRE while open, a per-row
//!   ACT (throttled like demand) while closed;
//! - REF_NEIGHBORS, and auto-precharging refreshes whose ACT issued
//!   (always a PRE).
//!
//! A request submitted with an `arrival` past the floor prices at its
//! arrival instead, so it waits in an arrival-ordered list and joins
//! its class once the floor passes it ([`BankQueue::admit`]).
//!
//! Every list is a sorted vector of 16-byte entries: a bank queue holds
//! a handful of requests most of the time and a few hundred under
//! defense bursts, where a binary search and one contiguous shift beat
//! a tree, and the index of an idle bank stays small.

use hammertime_common::Cycle;

/// Stable handle of a queued request: its slot in the controller's
/// request slab, unchanged from submission to completion.
pub(crate) type Handle = u32;

/// The class family a queued request is indexed under, fixed by its
/// kind and phase; the bank's open row then picks the command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Demand read or write to `row`.
    Demand { row: u32, write: bool },
    /// Refresh instruction whose ACT has not issued.
    Refresh { row: u32 },
    /// REF_NEIGHBORS maintenance.
    RefNeighbors,
    /// Auto-precharging refresh instruction whose ACT issued: only its
    /// PRE is left.
    ActedPre,
}

/// Direction bit of [`Member::wseq`]; request sequence numbers stay
/// below it.
const WRITE: u64 = 1 << 63;

/// A member of a [`RowIndex`], ordered by `(row, write, seq)`.
#[derive(Debug, Clone, Copy)]
struct Member {
    row: u32,
    handle: Handle,
    /// `seq`, with [`WRITE`] set for writes: reads order first.
    wseq: u64,
}

impl Member {
    fn key(&self) -> (u32, u64) {
        (self.row, self.wseq)
    }

    fn seq(&self) -> u64 {
        self.wseq & !WRITE
    }
}

/// An entry ordered by `seq` (unique per request).
#[derive(Debug, Clone, Copy)]
struct Aged {
    seq: u64,
    /// The row, for row heads.
    row: u32,
    handle: Handle,
}

/// Inserts `x` into `v`, kept sorted by `key`.
fn insert_by<T, K: Ord>(v: &mut Vec<T>, x: T, key: impl Fn(&T) -> K) {
    let k = key(&x);
    if v.last().is_none_or(|last| key(last) < k) {
        v.push(x);
    } else {
        let i = v.partition_point(|e| key(e) < k);
        v.insert(i, x);
    }
}

/// Removes the entry with key `k` from `v`, kept sorted by `key`, and
/// returns where it was.
fn remove_by<T, K: Ord>(v: &mut Vec<T>, k: K, key: impl Fn(&T) -> K) -> Option<usize> {
    let i = v.binary_search_by(|e| key(e).cmp(&k)).ok()?;
    if i + 1 == v.len() {
        v.pop();
    } else {
        v.remove(i);
    }
    Some(i)
}

/// Members keyed by row, with each row's oldest member in a second,
/// `seq`-ordered list.
#[derive(Debug, Clone, Default)]
struct RowIndex {
    members: Vec<Member>,
    heads: Vec<Aged>,
}

impl RowIndex {
    /// The member at `i` if it belongs to `row`.
    fn row_member(&self, i: usize, row: u32) -> Option<Member> {
        self.members.get(i).copied().filter(|m| m.row == row)
    }

    /// Oldest read and oldest write to `row`.
    fn row_firsts(&self, row: u32) -> [Option<Member>; 2] {
        let i = self.members.partition_point(|m| m.row < row);
        match self.row_member(i, row) {
            None => [None, None],
            Some(m) if m.wseq & WRITE != 0 => [None, Some(m)],
            Some(m) => {
                let w = self.members.partition_point(|e| e.key() < (row, WRITE));
                [Some(m), self.row_member(w, row)]
            }
        }
    }

    fn row_head(&self, row: u32) -> Option<Member> {
        self.row_firsts(row)
            .into_iter()
            .flatten()
            .min_by_key(Member::seq)
    }

    /// Whether a member at `i` or just before it belongs to `row`: a
    /// row's members are contiguous, so this tells whether the row has
    /// any member around a position.
    fn row_near(&self, i: usize, row: u32) -> bool {
        self.row_member(i, row).is_some()
            || i.checked_sub(1)
                .is_some_and(|j| self.row_member(j, row).is_some())
    }

    fn insert(&mut self, row: u32, write: bool, seq: u64, handle: Handle) {
        debug_assert!(seq < WRITE, "request sequence number overflow");
        let m = Member {
            row,
            handle,
            wseq: seq | if write { WRITE } else { 0 },
        };
        let i = self.members.partition_point(|e| e.key() < m.key());
        let old = if self.row_near(i, row) {
            self.row_head(row)
        } else {
            None
        };
        self.members.insert(i, m);
        match old {
            Some(head) if head.seq() < seq => {}
            _ => {
                if let Some(head) = old {
                    remove_by(&mut self.heads, head.seq(), |a| a.seq);
                }
                insert_by(&mut self.heads, Aged { seq, row, handle }, |a| a.seq);
            }
        }
    }

    fn remove(&mut self, row: u32, write: bool, seq: u64) {
        let key = (row, seq | if write { WRITE } else { 0 });
        let Some(i) = remove_by(&mut self.members, key, Member::key) else {
            return;
        };
        if remove_by(&mut self.heads, seq, |a| a.seq).is_some() && self.row_near(i, row) {
            if let Some(head) = self.row_head(row) {
                let (seq, handle) = (head.seq(), head.handle);
                insert_by(&mut self.heads, Aged { seq, row, handle }, |a| a.seq);
            }
        }
    }

    /// `(row, handle)` of every row head, oldest first.
    fn heads(&self) -> impl Iterator<Item = (u32, Handle)> + '_ {
        self.heads.iter().map(|a| (a.row, a.handle))
    }
}

/// The classes most banks never see: maintenance requests and requests
/// not yet admitted. Boxed on first use, so the index of a bank that
/// only ever sees demand traffic stays two vectors.
#[derive(Debug, Clone, Default)]
struct Extra {
    /// Refresh instructions before their ACT (direction unused).
    refresh: RowIndex,
    ref_neighbors: Vec<Aged>,
    acted_pre: Vec<Aged>,
    /// `(arrival, seq, handle, class)`, `(arrival, seq)` ordered.
    pending: Vec<(Cycle, u64, Handle, Class)>,
}

/// One bank's queued requests, indexed by pricing class.
#[derive(Debug, Clone, Default)]
pub(crate) struct BankQueue {
    demand: RowIndex,
    extra: Option<Box<Extra>>,
}

impl BankQueue {
    /// Some queued request of the bank, `None` when it has none.
    pub fn any(&self) -> Option<Handle> {
        if let Some(m) = self.demand.members.first() {
            return Some(m.handle);
        }
        let e = self.extra.as_deref()?;
        e.refresh
            .members
            .first()
            .map(|m| m.handle)
            .or_else(|| e.ref_neighbors.first().map(|a| a.handle))
            .or_else(|| e.acted_pre.first().map(|a| a.handle))
            .or_else(|| e.pending.first().map(|p| p.2))
    }

    /// Indexes a request; `floor` is the bank's current pricing floor.
    pub fn insert(&mut self, h: Handle, seq: u64, arrival: Cycle, class: Class, floor: Cycle) {
        if arrival > floor {
            let pending = &mut self.extra.get_or_insert_default().pending;
            insert_by(pending, (arrival, seq, h, class), |p| (p.0, p.1));
        } else {
            self.index(h, seq, class);
        }
    }

    /// Drops a request from the index.
    pub fn remove(&mut self, seq: u64, arrival: Cycle, class: Class) {
        let Some(e) = self.extra.as_deref_mut() else {
            if let Class::Demand { row, write } = class {
                self.demand.remove(row, write, seq);
            }
            return;
        };
        if remove_by(&mut e.pending, (arrival, seq), |p| (p.0, p.1)).is_some() {
            return;
        }
        match class {
            Class::Demand { row, write } => self.demand.remove(row, write, seq),
            Class::Refresh { row } => e.refresh.remove(row, false, seq),
            Class::RefNeighbors => {
                remove_by(&mut e.ref_neighbors, seq, |a| a.seq);
            }
            Class::ActedPre => {
                remove_by(&mut e.acted_pre, seq, |a| a.seq);
            }
        }
    }

    /// Moves every pending request whose arrival the floor has reached
    /// into its class.
    pub fn admit(&mut self, floor: Cycle) {
        let Some(e) = self.extra.as_deref_mut() else {
            return;
        };
        let due = e.pending.partition_point(|p| p.0 <= floor);
        if due == 0 {
            return;
        }
        let admitted: Vec<_> = e.pending.drain(..due).collect();
        for (_, seq, h, class) in admitted {
            self.index(h, seq, class);
        }
    }

    fn index(&mut self, handle: Handle, seq: u64, class: Class) {
        let aged = Aged {
            seq,
            row: 0,
            handle,
        };
        match class {
            Class::Demand { row, write } => self.demand.insert(row, write, seq, handle),
            Class::Refresh { row } => {
                let e = self.extra.get_or_insert_default();
                e.refresh.insert(row, false, seq, handle);
            }
            Class::RefNeighbors => {
                let e = self.extra.get_or_insert_default();
                insert_by(&mut e.ref_neighbors, aged, |a| a.seq);
            }
            Class::ActedPre => {
                let e = self.extra.get_or_insert_default();
                insert_by(&mut e.acted_pre, aged, |a| a.seq);
            }
        }
    }

    /// Oldest admitted demand read and write to `row`.
    pub fn cas_heads(&self, row: u32) -> [Option<Handle>; 2] {
        self.demand.row_firsts(row).map(|m| m.map(|m| m.handle))
    }

    /// `(row, handle)` of each row's oldest admitted demand request
    /// (`refresh` false) or refresh instruction awaiting its ACT
    /// (`refresh` true), oldest first.
    pub fn row_heads(&self, refresh: bool) -> impl Iterator<Item = (u32, Handle)> + '_ {
        let index = if refresh {
            self.extra.as_deref().map(|e| &e.refresh)
        } else {
            Some(&self.demand)
        };
        index.into_iter().flat_map(RowIndex::heads)
    }

    /// Oldest admitted REF_NEIGHBORS request and oldest admitted
    /// auto-precharging refresh awaiting its closing PRE.
    pub fn maintenance_heads(&self) -> [Option<Handle>; 2] {
        let Some(e) = self.extra.as_deref() else {
            return [None, None];
        };
        [&e.ref_neighbors, &e.acted_pre].map(|v| v.first().map(|a| a.handle))
    }

    /// `(arrival, handle)` of every request not yet admitted, earliest
    /// arrival first.
    pub fn pending(&self) -> impl Iterator<Item = (Cycle, Handle)> + '_ {
        self.extra
            .as_deref()
            .into_iter()
            .flat_map(|e| e.pending.iter().map(|&(arrival, _, h, _)| (arrival, h)))
    }
}
