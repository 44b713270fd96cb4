//! The host-speed reference: a fixed synthetic event loop, timed next
//! to every round, that turns a round's wall time into a time on a host
//! of nominal speed.
//!
//! On a VM that shares its cores with other tenants, the simulator's
//! speed drifts by up to 2× over minutes, far more than any one run
//! lasts, so no choice of rounds within a run removes it. The reference
//! slows down with it: it does the same kind of work as the simulator
//! (a binary-heap event queue, handlers behind `dyn` calls, random
//! reads and writes into a node table larger than the private caches),
//! and it is this benchmark's own code, so a change to the simulator
//! does not move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// A pass's time on the host the normalised figures are quoted for.
/// It is a fixed scale, not a measurement: normalised time is
/// `wall × NOMINAL_S ÷ reference time`.
pub const NOMINAL_S: f64 = 0.25;

/// Events one pass dispatches.
const EVENTS: u64 = 2_000_000;
/// Node table entries (4 MB of `u32`).
const NODES: usize = 1 << 20;
/// Events pending in the queue at any time.
const PENDING: u64 = 5_000;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// One event kind: touches the node table and returns the delay of the
/// event it schedules.
trait Handler {
    fn handle(&self, nodes: &mut [u32], x: &mut u64) -> u64;
}

/// Bumps one random node.
struct Bump;
/// Sums a run of sixteen neighbouring nodes.
struct Scan;
/// Branches on one random node.
struct Test;

impl Handler for Bump {
    fn handle(&self, nodes: &mut [u32], x: &mut u64) -> u64 {
        let i = lcg(x) as usize % nodes.len();
        nodes[i] = nodes[i].wrapping_add(1);
        u64::from(nodes[i]) & 1023
    }
}

impl Handler for Scan {
    fn handle(&self, nodes: &mut [u32], x: &mut u64) -> u64 {
        let i = lcg(x) as usize % (nodes.len() - 16);
        nodes[i..i + 16].iter().map(|&v| u64::from(v)).sum::<u64>() & 4095
    }
}

impl Handler for Test {
    fn handle(&self, nodes: &mut [u32], x: &mut u64) -> u64 {
        let i = lcg(x) as usize % nodes.len();
        if nodes[i].is_multiple_of(3) {
            7
        } else {
            lcg(x) & 63
        }
    }
}

/// One pass of the reference loop; returns its wall time in seconds.
pub fn pass() -> f64 {
    let start = Instant::now();
    let handlers: [Box<dyn Handler>; 3] = [Box::new(Bump), Box::new(Scan), Box::new(Test)];
    let mut nodes = vec![0u32; NODES];
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> =
        (0..PENDING).map(|i| Reverse((i, i % 3))).collect();
    let mut x = 11;
    let mut acc = 0;
    for _ in 0..EVENTS {
        let Reverse((t, kind)) = queue.pop().expect("the queue never drains");
        let delay = handlers[kind as usize].handle(&mut nodes, &mut x);
        acc ^= delay;
        queue.push(Reverse((t + delay + 1, lcg(&mut x) % 3)));
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The host's reference time now, for a workload that keeps `threads`
/// cores busy: every thread makes one pass at once and the slowest
/// counts, as the slowest worker sets a parallel round's end. The
/// faster of two such measurements is kept.
pub fn measure(threads: usize) -> f64 {
    let once = || {
        if threads <= 1 {
            // On the calling thread, which is the one that ran the round.
            return pass();
        }
        std::thread::scope(|s| {
            let passes: Vec<_> = (0..threads).map(|_| s.spawn(pass)).collect();
            passes
                .into_iter()
                .map(|p| p.join().expect("a reference pass panicked"))
                .fold(0.0, f64::max)
        })
    };
    once().min(once())
}
