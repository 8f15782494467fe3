//! How fast the host runs right now, from a fixed reference kernel.
//!
//! The benchmark shares its host with other machines' work, and that
//! work slows the simulator by up to a half, in spells of seconds to
//! minutes: longer than a whole run, so no choice among one run's
//! samples removes them. A pure arithmetic loop hardly slows down in
//! those spells; code that allocates small objects and calls through
//! trait objects, as the simulator does, slows down with it. This
//! kernel is such code. It lives in the benchmark, not in the program,
//! so no change to the program changes it, and it runs just before and
//! just after every job, outside the job's own timing.

use std::hint::black_box;
use std::time::Instant;

/// Kernel steps per repetition: about 3 ms on a 2-vCPU Sapphire Rapids
/// VM.
const STEPS: u64 = 80_000;

/// Repetitions per measurement; the median is kept, so one interrupted
/// repetition does not count.
const REPS: usize = 3;

/// Live closures the kernel keeps; one dropped at random per step.
const LIVE: usize = 256;

/// One repetition's time on that VM, typical of its load. A job's time
/// divided by the kernel's slowdown beside it (its time over this one)
/// is the job's time at that typical host speed.
pub(crate) const REFERENCE_S: f64 = 0.003;

fn repetition() -> f64 {
    let t0 = Instant::now();
    let mut live: Vec<Box<dyn Fn(u64) -> u64>> = Vec::with_capacity(LIVE + 1);
    let mut acc = 0u64;
    for i in 0..STEPS {
        let k = crate::derive_seed(i, 7);
        live.push(Box::new(move |y| y.wrapping_mul(k) ^ (k >> 7)));
        if live.len() > LIVE {
            drop(live.swap_remove(k as usize % live.len()));
        }
        acc = live[k as usize % live.len()](acc ^ i);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host seconds one repetition of the reference kernel takes now, on
/// each of `threads` threads at once: the mean over the threads.
pub(crate) fn reference_s(threads: usize) -> f64 {
    let on_one = || crate::median(&(0..REPS).map(|_| repetition()).collect::<Vec<f64>>());
    if threads <= 1 {
        return on_one();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(on_one)).collect();
        let times: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .collect();
        times.iter().sum::<f64>() / times.len() as f64
    })
}
