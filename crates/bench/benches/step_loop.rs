//! Step-loop micro-benchmarks: the fast scheduler (`MemCtrl::step`,
//! memoized per-bank scan + idle fast-forward) head-to-head against
//! the pre-optimization reference linear scan, plus the device-level
//! hammer burst. The `step_loop` runner binary times the same
//! scenarios end-to-end and records them in `BENCH_step_loop.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use hammertime_bench::step_loop::{
    drive_t1_cell, fleet_sweep, hammer_burst, idle_poll, t1_defense_catalog, IDLE_QUANTUM,
};

const IDLE_CYCLES: u64 = 200_000;

fn bench_idle_poll(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_loop/idle_poll");
    group.throughput(Throughput::Elements(IDLE_CYCLES / IDLE_QUANTUM));
    for fast in [true, false] {
        let name = if fast { "fast" } else { "reference" };
        group.bench_function(name, |b| b.iter(|| black_box(idle_poll(IDLE_CYCLES, fast))));
    }
    group.finish();
}

fn bench_t1_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_loop/t1_cell");
    group.sample_size(10);
    for (name, mitigation, trr) in t1_defense_catalog() {
        for fast in [true, false] {
            let label = format!("{name}/{}", if fast { "fast" } else { "reference" });
            let m = mitigation;
            group.bench_function(label, |b| {
                b.iter(|| black_box(drive_t1_cell(m, trr, fast, true)))
            });
        }
    }
    group.finish();
}

fn bench_hammer_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_loop/hammer_burst");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("per_command", |b| b.iter(|| black_box(hammer_burst(2_000))));
    group.finish();
}

fn bench_fleet_sweep(c: &mut Criterion) {
    const MACHINES: u32 = 16;
    let mut group = c.benchmark_group("step_loop/fleet_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(MACHINES as u64));
    for jobs in [1usize, 4] {
        let name = if jobs == 1 { "serial" } else { "sharded_x4" };
        group.bench_function(name, |b| b.iter(|| black_box(fleet_sweep(MACHINES, jobs))));
    }
    group.finish();
}

criterion_group! {
    name = step_loop;
    config = Criterion::default().sample_size(20);
    targets = bench_idle_poll, bench_t1_cells, bench_hammer_burst, bench_fleet_sweep
}
criterion_main!(step_loop);
