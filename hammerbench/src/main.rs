//! `hammerbench`: the end-to-end and per-layer benchmark of the
//! hammertime simulator. See `README.md` beside this crate for the
//! workloads, the metrics and why each was chosen.
//!
//! ```text
//! hammerbench --workload <defended_benign|hammer_hw|fleet_durable>
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured over repeated untraced
//! passes; with `--trace 1` they are the per-layer ones, from one
//! plain pass, one span-recording pass and one pass with the tracer
//! and shadow checker attached.

mod benign;
mod fleet;
mod hammer;
mod layers;
mod probe;
mod speed;

use probe::{Mode, Probe};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["defended_benign", "hammer_hw", "fleet_durable"];

/// Hard ceiling on the measured loop, far inside the 180 s a run may
/// take, whatever `--seconds` asks for.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// Set-ups timed per machine (and per fleet) in a plain pass.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Exact simulated counts of one pass, summed over its machines' reports.
/// A pass of one seed gives the same counts every time, traced or not;
/// a change that only speeds up the simulator must leave them identical.
/// The per-layer counts are read from here too.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counts {
    /// Final simulated cycle of every machine, summed.
    pub sim_cycles: u64,
    pub acts: u64,
    pub refs: u64,
    pub interrupts: u64,
    /// Defense actions the OS daemons executed.
    pub actions: u64,
    pub flips: u64,
    /// Reads plus writes the memory controllers completed.
    pub mc_requests: u64,
    /// The part of `mc_requests` the host issued on nobody's behalf:
    /// dirty write-backs, convoluted-refresh loads and remap copies,
    /// rebuilt from the report's counters (the controller does not
    /// split its request counts by domain).
    pub host_requests: u64,
    pub convoluted_refreshes: u64,
    pub pages_remapped: u64,
    pub remap_copy_lines: u64,
    pub lines_locked: u64,
    pub lock_fallbacks: u64,
    pub row_hits: u64,
    /// Row hits, misses and conflicts.
    pub row_accesses: u64,
    pub latency_sum: u64,
    pub throttle_events: u64,
    pub refs_forced: u64,
    pub cache_hits: u64,
    pub cache_accesses: u64,
}

impl Counts {
    pub(crate) fn add_report(&mut self, r: &hammertime::SimReport) {
        let o = &r.overhead;
        self.sim_cycles += r.cycles;
        self.acts += r.dram.acts;
        self.refs += r.dram.refs;
        self.interrupts += o.interrupts;
        self.actions += o.actions;
        self.flips += r.flips_total;
        self.mc_requests += r.mc.reads + r.mc.writes;
        self.host_requests += r.cache.writebacks + o.convoluted_refreshes + 2 * o.remap_copy_lines;
        self.convoluted_refreshes += o.convoluted_refreshes;
        self.pages_remapped += o.pages_remapped;
        self.remap_copy_lines += o.remap_copy_lines;
        self.lines_locked += o.lines_locked;
        self.lock_fallbacks += o.lock_fallbacks;
        self.row_hits += r.mc.row_hits;
        self.row_accesses += r.mc.row_hits + r.mc.row_misses + r.mc.row_conflicts;
        self.latency_sum += r.mc.latency_sum;
        self.throttle_events += r.mc.throttle_events;
        self.refs_forced += r.mc.refs_forced;
        self.cache_hits += r.cache.hits;
        self.cache_accesses += r.cache.hits + r.cache.misses;
    }

    pub(crate) fn host_request_share(&self) -> f64 {
        ratio(self.host_requests as f64, self.mc_requests as f64)
    }

    fn json(&self) -> String {
        let fields = [
            ("sim_cycles", self.sim_cycles),
            ("acts", self.acts),
            ("refs", self.refs),
            ("interrupts", self.interrupts),
            ("actions", self.actions),
            ("flips", self.flips),
            ("mc_requests", self.mc_requests),
            ("host_requests", self.host_requests),
            ("convoluted_refreshes", self.convoluted_refreshes),
            ("pages_remapped", self.pages_remapped),
            ("remap_copy_lines", self.remap_copy_lines),
            ("lines_locked", self.lines_locked),
            ("lock_fallbacks", self.lock_fallbacks),
            ("row_hits", self.row_hits),
            ("row_accesses", self.row_accesses),
            ("latency_sum", self.latency_sum),
            ("throttle_events", self.throttle_events),
            ("refs_forced", self.refs_forced),
            ("cache_hits", self.cache_hits),
            ("cache_accesses", self.cache_accesses),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        format!(
            "{{{}, \"host_request_share\": {}}}",
            body.join(", "),
            num(self.host_request_share())
        )
    }
}

/// What one pass over a workload's machines produced.
#[derive(Debug, Default, Clone)]
pub(crate) struct Pass {
    /// Host seconds per job (one machine, or one whole fleet run):
    /// `(set-up, simulation)`. Set-up builds and arms; simulation runs,
    /// reports and judges.
    pub jobs: Vec<(f64, f64)>,
    /// `hammertime::metrics::sim_cycles()` delta over the timed part.
    pub sim_cycles: u64,
    /// Machines simulated to completion.
    pub machines: u64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every machine's report (or the fleet outcome).
    pub digest: u64,
    pub counts: Counts,
    /// Reference-kernel seconds (`speed::reference_s`) measured before
    /// the first job and after every job of a plain pass, so job `i`
    /// lies between entries `i` and `i + 1`. Empty in other passes.
    pub speed: Vec<f64>,
}

impl Pass {
    /// Host seconds spent simulating, over every job of the pass.
    pub(crate) fn run_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.1).sum()
    }

    /// In a plain pass, times the reference kernel on as many threads
    /// as the job runs on, before the first job (`first`) or after any
    /// job.
    pub(crate) fn mark_speed(&mut self, mode: Mode, threads: usize, first: bool) {
        if mode == Mode::Plain && (!first || self.speed.is_empty()) {
            self.speed.push(speed::reference_s(threads));
        }
    }

    /// How much slower than the reference host the host ran during job
    /// `i`: the reference kernel's geometric mean time on either side
    /// of the job over `speed::REFERENCE_S`.
    fn slowdown(&self, i: usize) -> f64 {
        (self.speed[i] * self.speed[i + 1]).sqrt() / speed::REFERENCE_S
    }
}

/// Metric name → (value, unit), in a stable order.
pub(crate) type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// FNV-1a, 64-bit: the output digest.
pub(crate) fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a report's simulated content. The metrics snapshot is
/// left out: it exists only when a tracer is attached.
pub(crate) fn report_digest(r: &hammertime::SimReport, h: u64) -> u64 {
    let mut r = r.clone();
    r.metrics = None;
    let json = serde_json::to_string(&r).expect("SimReport serializes");
    fnv1a(json.as_bytes(), h)
}

/// SplitMix64: derives the simulator's seeds from the benchmark seed,
/// so the simulator never sees the benchmark's own numbering.
pub(crate) fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f`, turning a panic into an error so one bad machine counts
/// as a failed run instead of ending the benchmark.
pub(crate) fn guarded<T>(f: impl FnOnce() -> hammertime::common::Result<T>) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("?")
        )),
    }
}

fn run_pass(workload: &str, seed: u64, probe: &mut Probe) -> Pass {
    match workload {
        "defended_benign" => benign::pass(seed, probe),
        "hammer_hw" => hammer::pass(seed, probe),
        "fleet_durable" => fleet::pass(seed, probe),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

pub(crate) fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (0 for an empty slice).
pub(crate) fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// A finite JSON number (JSON has no NaN or infinity; an empty `f64`
/// sum is -0).
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a run may leave files: the benchmark's build directory in the
/// checkout, which `.gitignore` already names.
pub(crate) fn scratch_dir() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build"));
    base.join("hammerbench-out")
}

/// Checks every pass against the first (same digest, same counts) and
/// returns `(attempted, failed, mismatched passes)`: every run of a pass
/// whose output differs from the first pass's counts as failed.
fn tally(passes: &[Pass]) -> (u64, u64, u64) {
    let first = &passes[0];
    let (mut attempted, mut failed, mut mismatched) = (0, 0, 0);
    for (i, p) in passes.iter().enumerate() {
        attempted += p.attempted;
        if i > 0 && (p.digest != first.digest || p.counts != first.counts) {
            failed += p.attempted;
            mismatched += 1;
        } else {
            failed += p.failed;
        }
    }
    (attempted, failed, mismatched)
}

fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    out.push_str("}}");
    println!("{out}");
}

fn side_line(args: &Args, passes: &[Pass], extra: &str) {
    let p = &passes[0];
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"available_parallelism\": {threads}, \
         \"passes\": {}, \"digest\": \"{:016x}\", \"counts\": {}{extra}}}",
        args.workload,
        args.seed,
        passes.len(),
        p.digest,
        p.counts.json()
    );
}

/// Sum over job positions of the median, across passes, of
/// `part(pass, job)`.
fn job_medians(passes: &[Pass], part: impl Fn(&Pass, usize) -> f64) -> f64 {
    let jobs = passes.iter().map(|p| p.jobs.len()).min().unwrap_or(0);
    (0..jobs)
        .map(|i| median(&passes.iter().map(|p| part(p, i)).collect::<Vec<f64>>()))
        .sum()
}

fn end_to_end(args: &Args) {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds).min(MAX_MEASURE);
    let mut passes = Vec::new();
    // The reference kernel's first run is slow (cold code and heap).
    speed::reference_s(2);
    // At least two passes, so every run checks that a seed repeats.
    while passes.len() < 2 || started.elapsed() < budget {
        passes.push(run_pass(
            args.workload,
            args.seed,
            &mut Probe::new(Mode::Plain),
        ));

        if started.elapsed() >= MAX_MEASURE {
            break;
        }
    }
    let (attempted, failed, bad) = tally(&passes);

    // Other load on a shared host slows the simulator by up to a half,
    // in spells that can outlast a run. Each job's host time is divided
    // by the host's slowdown beside it, as the reference kernel measured
    // it (see `speed`), and each job keeps its median over the passes.
    // The raw host time is printed on the side line.
    let wall = job_medians(&passes, |p, i| p.jobs[i].1 / p.slowdown(i));
    let setup = job_medians(&passes, |p, i| p.jobs[i].0 / p.slowdown(i));
    let host_wall = job_medians(&passes, |p, i| p.jobs[i].1);
    let pass_slowdown =
        |p: &Pass| median(&(0..p.jobs.len()).map(|i| p.slowdown(i)).collect::<Vec<_>>());
    let first = &passes[0];
    side_line(
        args,
        &passes,
        &format!(
            ", \"samples\": {}, \"mismatched_passes\": {bad}, \"host_wall_s\": {}, \
             \"pass_wall_s\": [{}], \"pass_slowdown\": [{}]",
            passes.len(),
            num(host_wall),
            passes
                .iter()
                .map(|p| num(p.run_s()))
                .collect::<Vec<_>>()
                .join(", "),
            passes
                .iter()
                .map(|p| num(pass_slowdown(p)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    emit(
        failed == 0,
        attempted,
        failed,
        &[
            ("wall_s", wall, "s"),
            (
                "sim_cycles_per_s",
                ratio(first.sim_cycles as f64, wall),
                "1/s",
            ),
            (
                "machine_runs_per_s",
                ratio(first.machines as f64, wall),
                "1/s",
            ),
            ("setup_s", setup, "s"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    );
}

fn per_layer(args: &Args) {
    // Pass 1: untraced, the reference for the overhead ratios and the
    // counts every later pass must reproduce.
    let plain = run_pass(args.workload, args.seed, &mut Probe::new(Mode::Plain));
    // Pass 2: spans around every call into the program, nothing else.
    let mut spans = Probe::new(Mode::Spans);
    let spanned = run_pass(args.workload, args.seed, &mut spans);
    // Pass 3: tracer and shadow checker attached, then the replays.
    let mut traced = Probe::new(Mode::Traced);
    let full = run_pass(args.workload, args.seed, &mut traced);

    let passes = [plain, spanned, full];
    let (attempted, mut failed, bad) = tally(&passes);
    if traced.layer("check.violations") > 0.0 {
        failed = failed.max(1);
    }

    let metrics = layers::finish(&passes, &spans, &traced, attempted, failed);
    let written = probe::write_spans(args.workload, args.seed, &[&spans, &traced]);
    side_line(
        args,
        &passes,
        &format!(
            ", \"mismatched_passes\": {bad}, \"spans_file\": \"{}\", \"self_s\": {}",
            written.display(),
            probe::self_times_json(&[&spans, &traced])
        ),
    );
    let list: Vec<(&str, f64, &str)> = metrics.iter().map(|(n, (v, u))| (*n, *v, *u)).collect();
    emit(failed == 0, attempted, failed, &list);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hammerbench: {e}");
            std::process::exit(2);
        }
    };
    // A panic inside a guarded machine is reported as a failed run;
    // keep the default hook's message on stderr for diagnosis.
    if args.trace {
        per_layer(&args);
    } else {
        end_to_end(&args);
    }
}
