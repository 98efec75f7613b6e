//! Host-speed probe: two fixed kernels timed after every campaign call, so
//! that the reported times can be scaled to a reference host speed.
//!
//! On a shared host the simulator's throughput drifts by 30% and more over
//! minutes, with other tenants' load, and the drift hits its code harder than
//! a plain arithmetic loop. So the probe copies the shape of the two heaviest
//! layers instead: the out-of-order core's per-cycle loop (in-order commit
//! from a 128-entry reorder buffer, a completion scan, an oldest-first issue
//! scan with linear dependence look-ups, dispatch through a rename table) and
//! fault-map sampling over a 2 MB cache. It depends on nothing in the
//! repository: a change to the simulator moves the campaign times and leaves
//! the probe's.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Cycles of the core-shaped kernel per probe and thread.
const PROBE_CYCLES: u64 = 30_000;
/// Fault-map-shaped sampling passes per probe and thread.
const FAULT_PASSES: u64 = 40;

/// Median probe time, in seconds, on the reference host: the 2-vCPU Xeon VM
/// the bounds were set on, 2 threads. Times are scaled by this over the
/// run's median probe time.
pub const REFERENCE_PROBE_S: f64 = 0.27;

const ROB_ENTRIES: usize = 128;
const WIDTH: usize = 4;
const REGS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Waiting,
    Issued,
    Completed,
}

struct Entry {
    seq: u64,
    deps: [Option<u64>; 2],
    state: State,
    done: u64,
    latency: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the core-shaped kernel for `cycles` cycles; returns the
/// instructions retired.
fn core_kernel(cycles: u64) -> u64 {
    let mut rob: VecDeque<Entry> = VecDeque::with_capacity(ROB_ENTRIES);
    let mut producer = [None::<u64>; REGS];
    let (mut rng, mut next_seq, mut oldest, mut retired) = (0x9E37_79B9u64, 0u64, 0u64, 0u64);
    for cycle in 0..cycles {
        let mut commits = 0;
        while commits < WIDTH {
            match rob.front() {
                Some(head) if head.state == State::Completed && head.done <= cycle => {}
                _ => break,
            }
            let Some(head) = rob.pop_front() else { break };
            for p in &mut producer {
                if *p == Some(head.seq) {
                    *p = None;
                }
            }
            oldest = head.seq + 1;
            commits += 1;
            retired += 1;
        }
        for e in &mut rob {
            if e.state == State::Issued && e.done <= cycle {
                e.state = State::Completed;
            }
        }
        let flags: Vec<(u64, bool)> = rob
            .iter()
            .map(|e| (e.seq, e.state == State::Completed && e.done <= cycle))
            .collect();
        let mut issued = 0;
        for e in &mut rob {
            if issued >= WIDTH {
                break;
            }
            if e.state != State::Waiting {
                continue;
            }
            let ready = e.deps.iter().all(|d| match d {
                Some(d) => *d < oldest || flags.iter().find(|(s, _)| s == d).is_none_or(|f| f.1),
                None => true,
            });
            if ready {
                issued += 1;
                e.state = State::Issued;
                e.done = cycle + e.latency;
            }
        }
        for _ in 0..WIDTH {
            if rob.len() >= ROB_ENTRIES {
                break;
            }
            let r = xorshift(&mut rng);
            let deps = [
                producer[(r % 64) as usize],
                producer[((r >> 6) % 64) as usize],
            ];
            producer[((r >> 12) % 64) as usize] = Some(next_seq);
            rob.push_back(Entry {
                seq: next_seq,
                deps,
                state: State::Waiting,
                done: u64::MAX,
                latency: 1 + (r >> 20) % 4 * 3,
            });
            next_seq += 1;
        }
    }
    retired
}

/// Blocks of one fault-map-like sampling pass: a 2 MB cache of 64 B blocks.
const FAULT_BLOCKS: u64 = 32_768;
const WORDS_PER_BLOCK: u32 = 8;

/// Samples `passes` fault-map-like block arrays the way the fault layer
/// does: a smooth per-block offset, a failure probability through
/// `exp`/`ln_1p`/`exp_m1`, one uniform draw per word and per tag, and one
/// record pushed per block. Returns the faulty words seen.
fn fault_kernel(passes: u64) -> u64 {
    #[derive(Clone, Copy)]
    struct Block {
        mask: u64,
        tag_faulty: bool,
    }
    let mut rng = 0x5DEE_CE66u64;
    let mut uniform = move || (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
    let mut faulty = 0;
    for pass in 0..passes {
        let mut blocks = Vec::with_capacity(FAULT_BLOCKS as usize);
        let voltage = 0.50 + 0.01 * (pass % 8) as f64;
        for b in 0..FAULT_BLOCKS {
            let offset = 0.02 * ((b as f64 / FAULT_BLOCKS as f64) * 6.3).sin();
            let p = (-(voltage - offset) * 40.0).exp().min(0.5);
            let p_word = -f64::exp_m1(32.0 * f64::ln_1p(-p));
            let p_tag = -f64::exp_m1(24.0 * f64::ln_1p(-p));
            let mut mask = 0u64;
            for w in 0..WORDS_PER_BLOCK {
                if uniform() < p_word {
                    mask |= 1 << w;
                }
            }
            blocks.push(Block {
                mask,
                tag_faulty: uniform() < p_tag,
            });
        }
        faulty += black_box(&blocks)
            .iter()
            .map(|b| u64::from(b.mask.count_ones()) + u64::from(b.tag_faulty))
            .sum::<u64>();
    }
    faulty
}

/// Wall time of one probe: both kernels, one after the other, on each of
/// `threads` threads at once, as the campaigns use them.
pub fn probe_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    core_kernel(black_box(PROBE_CYCLES)) + fault_kernel(black_box(FAULT_PASSES))
                })
            })
            .collect();
        for w in workers {
            black_box(w.join().expect("probe kernel panicked"));
        }
    });
    t.elapsed().as_secs_f64()
}
