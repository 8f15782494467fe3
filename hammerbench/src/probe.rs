//! In-memory spans and counters for the traced passes.
//!
//! Every span wraps one call the benchmark makes into a public function
//! of a workspace crate; nothing inside the simulator is instrumented.
//! Spans live in memory until the run ends, then go to one JSON-lines
//! file in the benchmark's build directory.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// No spans: the pass the end-to-end metrics come from.
    Plain,
    /// Spans around every call into the program.
    Spans,
    /// Spans, plus `Tracer` and `ShadowChecker` attached through
    /// `MachineConfig`, plus the per-layer replays.
    Traced,
}

/// Index of a span in its probe; `NONE` in plain mode.
pub(crate) type SpanId = usize;
const NONE: SpanId = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    run: u64,
}

#[derive(Debug)]
pub(crate) struct Probe {
    pub mode: Mode,
    epoch: Instant,
    spans: Vec<Span>,
    run: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Probe {
    pub(crate) fn new(mode: Mode) -> Probe {
        Probe {
            mode,
            epoch: Instant::now(),
            spans: Vec::new(),
            run: 0,
            counters: BTreeMap::new(),
        }
    }

    pub(crate) fn traced(&self) -> bool {
        self.mode == Mode::Traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new run (one machine, or one fleet pass) and opens its
    /// root span; every span until the next call shares its run id.
    pub(crate) fn begin_run(&mut self, name: &'static str) -> SpanId {
        self.run += 1;
        self.open(name, None)
    }

    pub(crate) fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if self.mode == Mode::Plain {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|&p| p != NONE),
            run: self.run,
        });
        self.spans.len() - 1
    }

    pub(crate) fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub(crate) fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Adds `v` to a per-layer counter.
    pub(crate) fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub(crate) fn layer(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn duration_s(s: &Span) -> f64 {
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Total seconds covered by spans named `name`.
    pub(crate) fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Probe::duration_s)
            .sum()
    }

    /// Durations in milliseconds of every span named `name`.
    pub(crate) fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Probe::duration_s(s) * 1e3)
            .collect()
    }

    pub(crate) fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Self time per span name: each span's duration minus the time its
    /// child spans cover (children of one span never overlap).
    pub(crate) fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += Probe::duration_s(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_s) {
            *out.entry(s.name).or_insert(0.0) += Probe::duration_s(s) - c;
        }
        out
    }
}

/// Self time per span name over several probes, as a JSON object.
pub(crate) fn self_times_json(probes: &[&Probe]) -> String {
    let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
    for p in probes {
        for (name, s) in p.self_times() {
            *total.entry(name).or_insert(0.0) += s;
        }
    }
    let body: Vec<String> = total
        .iter()
        .map(|(n, s)| format!("\"{n}\": {}", crate::num(*s)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes every span of `probes` as JSON lines and returns the path.
/// A failed write loses only the file; the metrics are already final.
pub(crate) fn write_spans(workload: &str, seed: u64, probes: &[&Probe]) -> PathBuf {
    let dir = crate::scratch_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let mut body = Vec::new();
    for p in probes {
        let pass = match p.mode {
            Mode::Plain => "plain",
            Mode::Spans => "spans",
            Mode::Traced => "traced",
        };
        for (id, s) in p.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                body,
                "{{\"pass\": \"{pass}\", \"run\": {}, \"id\": {id}, \"parent\": {parent}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
    }
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("hammerbench: could not write {}: {e}", path.display());
    }
    path
}
