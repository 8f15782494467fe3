//! One machine's life in a pass, and the per-layer replays.
//!
//! A layer's host time is measured by calling that crate's public
//! functions from here, on inputs recorded from the machine that just
//! ran: its tenant streams, its interrupt log and its DRAM command
//! trace. Each replay is a span whose parent is the machine's run span.

use crate::probe::{Mode, Probe, SpanId};
use crate::{fnv1a, guarded, ratio, report_digest, Metrics, Pass};
use hammertime::cache::Llc;
use hammertime::common::{CacheLineAddr, Cycle, DomainId, Error, RequestSource, Result};
use hammertime::dram::{replay_records, DramConfig};
use hammertime::memctrl::{MemCtrl, MemRequest, RequestKind};
use hammertime::os::defense::anvil::{Anvil, AnvilConfig};
use hammertime::os::defense::frequency::{AggressorRemap, LineLocking};
use hammertime::os::defense::refresh::{RefreshMechanism, VictimRefresh, VictimRefreshConfig};
use hammertime::os::{
    DefenseAction, FrameAllocator, NoDefense, PlacementPolicy, SoftwareDefense, Topology,
};
use hammertime::workloads::{AccessOp, Trace};
use hammertime::{DefenseKind, Machine, MachineConfig};
use hammertime_check::ShadowChecker;
use hammertime_telemetry::{codec, CommandTrace, Event, TraceRecord, Tracer};
use std::hint::black_box;
use std::time::Instant;

/// Lines per 4 KiB page.
const LINES_PER_PAGE: u64 = 64;

/// A generous cap for recording one tenant's stream.
const MAX_STREAM_OPS: usize = 4_000_000;

/// How to build, run and judge one machine of a workload.
pub(crate) struct MachineJob<'a, P> {
    /// The untraced configuration; the traced pass adds the tracer and
    /// shadow checker to a copy.
    pub cfg: MachineConfig,
    /// Tenants whose streams the replays regenerate.
    pub tenants: &'a [DomainId],
    /// Name of the set-up span.
    pub setup_span: &'static str,
    /// The timed set-up: builds and arms the machine.
    pub setup: &'a dyn Fn(MachineConfig) -> Result<(Machine, P)>,
    /// The timed simulation, with a span around every `Machine::run`.
    pub simulate: &'a dyn Fn(&mut Machine, &mut Probe, SpanId),
    /// Judges the finished machine; the text joins the output digest.
    pub judge: &'a dyn Fn(&mut Machine, P, &mut Probe) -> String,
}

/// Runs one machine into `pass`: timed set-up, timed simulation and
/// report, output digest, and in the traced pass the replays.
pub(crate) fn run_machine<P>(job: &MachineJob<'_, P>, probe: &mut Probe, pass: &mut Pass) {
    pass.attempted += 1;
    pass.mark_speed(probe.mode, 1, true);
    let timed = pass.jobs.len();
    let root = probe.begin_run("run");
    let out = guarded(|| {
        let mut cfg = job.cfg.clone();
        let hooks = probe.traced().then(|| {
            let hooks = (Tracer::buffer(), ShadowChecker::new());
            cfg.tracer = Some(hooks.0.clone());
            cfg.shadow = Some(hooks.1.clone());
            hooks
        });
        // Set-up takes microseconds, so the plain pass times several and
        // keeps the median; the last one builds the machine that runs.
        let mut setups = Vec::new();
        if probe.mode == Mode::Plain {
            for _ in 1..crate::SETUP_REPEATS {
                let t = Instant::now();
                let built = (job.setup)(cfg.clone())?;
                setups.push(t.elapsed().as_secs_f64());
                drop(built);
            }
        }
        let t0 = Instant::now();
        let (mut m, prep) = probe.span(job.setup_span, root, || (job.setup)(cfg))?;
        let t1 = Instant::now();
        setups.push((t1 - t0).as_secs_f64());
        let c0 = hammertime::metrics::sim_cycles();
        (job.simulate)(&mut m, probe, root);
        let report = probe.span("machine.report", root, || m.report());
        let verdict = (job.judge)(&mut m, prep, probe);
        let t2 = Instant::now();
        pass.jobs
            .push((crate::median(&setups), (t2 - t1).as_secs_f64()));
        pass.sim_cycles += hammertime::metrics::sim_cycles() - c0;
        pass.machines += 1;
        pass.counts.add_report(&report);
        pass.digest = fnv1a(verdict.as_bytes(), report_digest(&report, pass.digest));
        if probe.mode != Mode::Plain {
            probe.add("memctrl.wheel_events", m.mc().wheel_counters().0 as f64);
        }
        if let Some((tracer, shadow)) = hooks {
            replay(job, probe, root, m, &tracer, &shadow)?;
        }
        Ok(())
    });
    probe.close(root);
    if let Err(e) = out {
        eprintln!("hammerbench: {} failed: {e}", job.cfg.defense.name());
        pass.failed += 1;
        if pass.jobs.len() == timed {
            pass.jobs.push((0.0, 0.0));
        }
    }
    pass.mark_speed(probe.mode, 1, false);
}

/// The per-layer replays of one traced machine.
fn replay<P>(
    job: &MachineJob<'_, P>,
    probe: &mut Probe,
    root: SpanId,
    mut ran: Machine,
    tracer: &Tracer,
    shadow: &ShadowChecker,
) -> Result<()> {
    let violations = shadow.violations().len();
    probe.add("check.commands_checked", shadow.commands_checked() as f64);
    probe.add("check.violations", violations as f64);
    let interrupts = ran.drain_interrupt_log();
    let topology = ran.topology();
    let end = ran.now();
    // Dropping the machine closes the device's trace with its stats.
    drop(ran);
    let records = tracer.take_records();
    probe.add("telemetry.records", records.len() as f64);

    let trace = CommandTrace::new(records.clone());
    black_box(probe.span("telemetry.encode", root, || codec::to_binary(&trace)));

    let summary = probe.span("dram.replay", root, || replay_records(&records))?;
    probe.add("dram.commands", summary.commands as f64);

    let shadow_violations = probe.span("check.shadow", root, || shadow_replay(&records, end));
    probe.add("check.violations", shadow_violations as f64);

    // A machine set up exactly like the one that ran, never simulated:
    // the source of the tenant streams and of a fresh controller.
    let (mut fresh, _) = (job.setup)(job.cfg.clone())?;
    let mc = fresh.mc().clone();
    let mut streams = Vec::new();
    for &domain in job.tenants {
        let pfns: Vec<(u64, u64)> = fresh.leak_pfns(domain);
        let export = fresh.detach_tenant(domain)?;
        let Some(mut workload) = export.workload else {
            continue;
        };
        let trace = probe.span("workloads.gen", root, || {
            Trace::record(workload.as_mut(), MAX_STREAM_OPS)
        });
        probe.add("workloads.ops", trace.len() as f64);
        streams.push(Stream {
            domain,
            trace,
            pfns,
        });
    }

    let mut daemon = fresh_daemon(job.cfg.defense, topology);
    let quantum = job.cfg.quantum.max(1);
    let actions = probe.span("os.daemon", root, || {
        let mut actions = Vec::new();
        for batch in interrupts.chunk_by(|a, b| a.time.raw() / quantum == b.time.raw() / quantum) {
            actions.extend(daemon.on_act_interrupts(batch));
        }
        actions
    });

    // Destinations for the daemon's page remaps, as the machine picks
    // them: `alloc_isolated` on an allocator holding the tenants' pages.
    let remaps = actions
        .iter()
        .filter(|a| matches!(a, DefenseAction::RemapFrame { .. }))
        .count();
    let mut alloc = FrameAllocator::new(PlacementPolicy::Default, mc.map().clone())?;
    for s in &streams {
        alloc.register_domain(s.domain)?;
        for _ in 0..s.pfns.len() {
            alloc.alloc(s.domain)?;
        }
    }
    let radius = job.cfg.assumed_radius;
    let targets = probe.span("os.alloc_isolated", root, || {
        (0..remaps)
            .map(|i| alloc.alloc_isolated(streams[i % streams.len()].domain, radius))
            .collect::<Result<Vec<u64>>>()
    })?;

    let requests = probe.span("cache.replay", root, || {
        cache_replay(&job.cfg, &streams, &actions, &targets)
    })?;

    let window = streams.len().max(1);
    probe.span("memctrl.replay", root, || {
        memctrl_replay(mc, &requests, window, quantum)
    })
}

/// One tenant's regenerated stream and its virtual-to-physical pages.
struct Stream {
    domain: DomainId,
    trace: Trace,
    pfns: Vec<(u64, u64)>,
}

impl Stream {
    fn physical(&self, vline: CacheLineAddr) -> Option<CacheLineAddr> {
        let vpage = vline.0 / LINES_PER_PAGE;
        self.pfns
            .iter()
            .find(|(v, _)| *v == vpage)
            .map(|(_, pfn)| CacheLineAddr(pfn * LINES_PER_PAGE + vline.0 % LINES_PER_PAGE))
    }
}

/// The daemon `Machine::new` installs for `defense`, built fresh.
fn fresh_daemon(defense: DefenseKind, topology: Topology) -> Box<dyn SoftwareDefense> {
    let refresh = |mechanism| {
        Box::new(VictimRefresh::new(
            VictimRefreshConfig {
                interrupts_before_action: 1,
                mechanism,
            },
            topology.clone(),
        )) as Box<dyn SoftwareDefense>
    };
    match defense {
        DefenseKind::AggressorRemap => Box::new(AggressorRemap::new()),
        DefenseKind::LineLocking => Box::new(LineLocking::new()),
        DefenseKind::VictimRefreshInstr => refresh(RefreshMechanism::Instruction),
        DefenseKind::VictimRefreshRefNeighbors => refresh(RefreshMechanism::RefNeighbors),
        DefenseKind::VictimRefreshConvoluted => refresh(RefreshMechanism::Convoluted),
        DefenseKind::Anvil { miss_threshold } => {
            Box::new(Anvil::new(AnvilConfig { miss_threshold }, topology.clone()))
        }
        _ => Box::new(NoDefense),
    }
}

/// Replays the recorded command stream through a fresh shadow checker;
/// returns the violations it finds.
fn shadow_replay(records: &[TraceRecord], end: Cycle) -> usize {
    let checker = ShadowChecker::new();
    for rec in records {
        match &rec.event {
            Event::DeviceReset { config_json } => {
                if let Ok(cfg) = serde_json::from_str::<DramConfig>(config_json) {
                    checker.on_device_reset(&cfg);
                }
            }
            Event::Command { cmd } => checker.on_command(Cycle(rec.cycle), cmd),
            _ => {}
        }
    }
    checker.finish(end);
    checker.violations().len()
}

/// A request on its way to the memory controller.
struct McRequest {
    line: CacheLineAddr,
    kind: RequestKind,
    domain: DomainId,
}

impl McRequest {
    fn host(line: CacheLineAddr, kind: RequestKind) -> McRequest {
        McRequest {
            line,
            kind,
            domain: DomainId::HOST,
        }
    }
}

/// Replays the tenant streams, one operation from each in turn, through
/// a fresh LLC of the machine's shape, with the daemon's actions spread
/// evenly over the stream and carried out as `Machine` does: locks and
/// flushes in the LLC, refreshes and page copies as host requests.
/// Returns what reaches the memory controller: demand misses, dirty
/// write-backs, DMA accesses (which bypass the cache) and the daemon's
/// host traffic.
fn cache_replay(
    cfg: &MachineConfig,
    streams: &[Stream],
    actions: &[DefenseAction],
    remap_targets: &[u64],
) -> Result<Vec<McRequest>> {
    let mut llc = Llc::new(cfg.cache)?;
    let total: usize = streams.iter().map(|s| s.trace.len()).sum();
    let act_every = if actions.is_empty() {
        usize::MAX
    } else {
        (total / actions.len()).max(1)
    };
    let mut actions = actions.iter();
    let mut targets = remap_targets.iter();
    let mut out = Vec::new();
    let writeback = |out: &mut Vec<McRequest>, dirty: Option<CacheLineAddr>| {
        if let Some(line) = dirty {
            out.push(McRequest::host(line, RequestKind::Write));
        }
    };
    let longest = streams.iter().map(|s| s.trace.len()).max().unwrap_or(0);
    let mut issued = 0usize;
    for i in 0..longest {
        for s in streams {
            let Some(op) = s.trace.ops.get(i) else {
                continue;
            };
            let Some(line) = s.physical(op.line()) else {
                continue;
            };
            issued += 1;
            if issued.is_multiple_of(act_every) {
                match actions.next() {
                    Some(DefenseAction::RefreshRow { line, auto_pre }) => {
                        out.push(McRequest::host(
                            *line,
                            RequestKind::Refresh {
                                auto_pre: *auto_pre,
                            },
                        ))
                    }
                    Some(DefenseAction::RefNeighbors { line, radius }) => out.push(
                        McRequest::host(*line, RequestKind::RefNeighbors { radius: *radius }),
                    ),
                    Some(DefenseAction::ConvolutedRefresh { line }) => {
                        writeback(&mut out, llc.flush(*line));
                        out.push(McRequest::host(*line, RequestKind::Read));
                    }
                    Some(DefenseAction::LockLine { line }) => {
                        let _ = llc.lock(*line);
                    }
                    Some(DefenseAction::UnlockAll) => llc.unlock_all(),
                    Some(DefenseAction::RemapFrame { frame }) => {
                        let to = targets.next().ok_or_else(|| {
                            Error::Config("cache replay: a page remap has no target".into())
                        })?;
                        for l in 0..LINES_PER_PAGE {
                            let old = CacheLineAddr(frame * LINES_PER_PAGE + l);
                            llc.flush(old);
                            out.push(McRequest::host(old, RequestKind::Read));
                            out.push(McRequest::host(
                                CacheLineAddr(to * LINES_PER_PAGE + l),
                                RequestKind::Write,
                            ));
                        }
                    }
                    None => {}
                }
            }
            let write = matches!(op, AccessOp::Write(..));
            let kind = if write {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            let demand = McRequest {
                line,
                kind,
                domain: s.domain,
            };
            if matches!(s.trace.source, RequestSource::Dma(_)) {
                if op.is_access() {
                    out.push(demand);
                }
                continue;
            }
            if let AccessOp::Flush(_) = op {
                writeback(&mut out, llc.flush(line));
                continue;
            }
            let r = llc.access(line, write);
            if !r.hit {
                out.push(demand);
            }
            writeback(&mut out, r.writeback);
        }
    }
    Ok(out)
}

/// Closed-loop replay of the request stream through a fresh controller:
/// at most `window` requests outstanding, completions serviced every
/// `quantum` cycles as the machine does. Fails unless the controller
/// accepts and completes every request.
fn memctrl_replay(
    mut mc: MemCtrl,
    requests: &[McRequest],
    window: usize,
    quantum: u64,
) -> Result<()> {
    let mut next = 0;
    let mut inflight = 0usize;
    let mut completed = 0usize;
    // Each round either submits, completes or advances the clock by a
    // quantum; the cap only guards against a wedged controller.
    let mut rounds_left = 64 * requests.len() + 1_024;
    while (next < requests.len() || inflight > 0) && rounds_left > 0 {
        rounds_left -= 1;
        while inflight < window && next < requests.len() {
            let m = &requests[next];
            mc.submit(MemRequest {
                id: next as u64 + 1,
                line: m.line,
                kind: m.kind,
                source: RequestSource::Core(0),
                domain: m.domain,
                arrival: mc.now(),
            })?;
            next += 1;
            inflight += 1;
        }
        let target = Cycle(mc.now().raw() + quantum);
        mc.run_while_busy(target);
        let done = mc.drain_completions().len();
        completed += done;
        inflight -= done;
    }
    if completed == requests.len() {
        Ok(())
    } else {
        Err(Error::Config(format!(
            "memctrl replay completed {completed} of {} requests",
            requests.len()
        )))
    }
}

/// Assembles the per-layer metrics from the three passes of a traced
/// run: `plain` (no spans), `spans` (spans only) and `traced`.
pub(crate) fn finish(
    passes: &[Pass; 3],
    spans: &Probe,
    traced: &Probe,
    attempted: u64,
    failed: u64,
) -> Metrics {
    let [plain, spanned, full] = passes;
    let mut m = Metrics::new();
    let mut put = |name: &'static str, v: f64, unit: &'static str| {
        m.insert(name, (v, unit));
    };
    let n = spanned.counts;
    let c = |v: u64| v as f64;

    // os
    put("os.interrupts", c(n.interrupts), "count");
    put("os.actions", c(n.actions), "count");
    put(
        "os.action_yield",
        ratio(c(n.actions), c(n.interrupts)),
        "ratio",
    );
    put(
        "os.convoluted_refreshes",
        c(n.convoluted_refreshes),
        "count",
    );
    put("os.pages_remapped", c(n.pages_remapped), "count");
    put("os.remap_copy_lines", c(n.remap_copy_lines), "count");
    put("os.lines_locked", c(n.lines_locked), "count");
    put("os.host_request_share", n.host_request_share(), "ratio");
    put("os.daemon_s", traced.total_s("os.daemon"), "s");
    put(
        "os.alloc_isolated_s",
        traced.total_s("os.alloc_isolated"),
        "s",
    );

    // memctrl
    put("memctrl.requests", c(n.mc_requests), "count");
    put(
        "memctrl.row_hit_ratio",
        ratio(c(n.row_hits), c(n.row_accesses)),
        "ratio",
    );
    put(
        "memctrl.avg_latency_cycles",
        ratio(c(n.latency_sum), c(n.mc_requests)),
        "cycles",
    );
    put(
        "memctrl.wheel_events",
        spans.layer("memctrl.wheel_events"),
        "count",
    );
    put("memctrl.throttle_events", c(n.throttle_events), "count");
    put("memctrl.refs_forced", c(n.refs_forced), "count");
    put("memctrl.replay_s", traced.total_s("memctrl.replay"), "s");

    // dram
    let dram_replay_s = traced.total_s("dram.replay");
    put("dram.commands", traced.layer("dram.commands"), "count");
    put("dram.acts", c(n.acts), "count");
    put("dram.refs", c(n.refs), "count");
    put("dram.flips", c(n.flips), "count");
    put("dram.replay_s", dram_replay_s, "s");
    put(
        "dram.ns_per_command",
        ratio(dram_replay_s * 1e9, traced.layer("dram.commands")),
        "ns",
    );

    // cache
    put("cache.accesses", c(n.cache_accesses), "count");
    put(
        "cache.hit_ratio",
        ratio(c(n.cache_hits), c(n.cache_accesses)),
        "ratio",
    );
    put("cache.lock_fallbacks", c(n.lock_fallbacks), "count");
    put("cache.replay_s", traced.total_s("cache.replay"), "s");

    // workloads
    put("workloads.ops", traced.layer("workloads.ops"), "count");
    put("workloads.gen_s", traced.total_s("workloads.gen"), "s");

    // core: the machine loop, from the spans-only pass.
    let run_s = spans.total_s("machine.run");
    // The controller replay drives its own device, so it already holds
    // the DRAM time; `dram.replay_s` is that part measured alone.
    let replayed_s = [
        "cache.replay",
        "memctrl.replay",
        "os.daemon",
        "workloads.gen",
    ]
    .iter()
    .map(|n| traced.total_s(n))
    .sum::<f64>();
    let windows = spans.durations_ms("machine.run");
    put("machine.run_s", run_s, "s");
    put(
        "machine.run_calls",
        spans.count("machine.run") as f64,
        "count",
    );
    put(
        "machine.window_p50_ms",
        crate::percentile(&windows, 0.5),
        "ms",
    );
    put(
        "machine.window_p99_ms",
        crate::percentile(&windows, 0.99),
        "ms",
    );
    put(
        "machine.ns_per_sim_cycle",
        ratio(run_s * 1e9, c(n.sim_cycles)),
        "ns",
    );
    put("machine.report_s", spans.total_s("machine.report"), "s");
    put("machine.self_s", run_s - replayed_s, "s");

    // attack
    put("attack.prepare_s", spans.total_s("attack.prepare"), "s");
    put(
        "attack.cross_domain_ratio",
        ratio(
            spans.layer("attack.cross_domain_runs"),
            spanned.machines as f64,
        ),
        "ratio",
    );

    // fleet
    put("fleet.machines", spans.layer("fleet.machines"), "count");
    put("fleet.epochs", spans.layer("fleet.epochs"), "count");
    put("fleet.migrations", spans.layer("fleet.migrations"), "count");
    put(
        "fleet.journal_bytes",
        traced.layer("fleet.journal_bytes"),
        "bytes",
    );
    put(
        "fleet.journal_s",
        traced.total_s("fleet.run_durable") - traced.total_s("fleet.run_plain"),
        "s",
    );
    put("fleet.resume_s", traced.total_s("fleet.resume"), "s");
    put("fleet.create_s", spans.total_s("fleet.create"), "s");

    // telemetry and check
    put(
        "telemetry.records",
        traced.layer("telemetry.records"),
        "count",
    );
    put(
        "telemetry.encode_s",
        traced.total_s("telemetry.encode"),
        "s",
    );
    // Only machine workloads attach the tracer.
    let tracer_attached = traced.count("telemetry.encode") > 0;
    put(
        "telemetry.trace_overhead_ratio",
        if tracer_attached {
            ratio(full.run_s(), spanned.run_s())
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "check.commands_checked",
        traced.layer("check.commands_checked"),
        "count",
    );
    put("check.shadow_s", traced.total_s("check.shadow"), "s");
    put(
        "check.violations",
        traced.layer("check.violations"),
        "count",
    );

    // the benchmark itself
    put(
        "bench.span_overhead_ratio",
        ratio(spanned.run_s(), plain.run_s()),
        "ratio",
    );
    put(
        "failed_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m
}
