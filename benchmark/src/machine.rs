//! A machine-speed probe: a fixed piece of interpreter-shaped work timed
//! beside every measured interval, so that a reading can be scaled to what
//! it would have been on the quiet machine.
//!
//! Why: on the shared two-core container the whole machine slows down by up
//! to 50% for minutes at a time. User time grows; page faults and system
//! time do not; a single dependent ALU chain barely notices, while
//! high-throughput branchy code and anything that misses cache slows a lot
//! — a neighbour is using the core's shared resources. No statistic inside a
//! 15-second run can average that away (iteration p10 moved as much as p50),
//! but an independent piece of similar work slows with it. Scaling by the
//! probe took the run-to-run spread of `iter_ms_p50` in the noisy state from
//! 17–24% to 2–5% (README, "Noise").
//!
//! The probe shares no code with the crates under test, so making them
//! faster cannot make the probe faster.

use std::hint::black_box;
use std::time::Instant;

/// What [`Probe::run`] takes on this container when nothing else uses the
/// machine. Only a scale: it keeps scaled readings in familiar milliseconds.
pub const QUIET_PROBE_MS: f64 = 8.5;

/// The workloads slow down by more than the probe does: across the five
/// workloads the slope of log(iteration time) over log(probe time) was
/// 1.1–1.6, so a reading is scaled by the probe's factor to this power.
pub const SENSITIVITY: f64 = 1.3;

const CLOSURES: usize = 50_000;
const CLOSURE_PASSES: usize = 6;
const VM_TRIPS: i64 = 150_000;
const VM_MEMORY: usize = 8192;

/// Instruction of the probe's small register machine.
#[derive(Clone, Copy)]
enum Ins {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    AndI(u8, u8, i64),
    AddI(u8, u8, i64),
    Load(u8, u8),
    Store(u8, u8),
    Jnz(u8, u16),
    Jlt(u8, u8, u16),
    Halt,
}

pub struct Probe {
    /// Indirect calls in a random order over separately boxed closures: the
    /// shape of the simulator's closure tier and of any tree of boxed nodes.
    closures: Vec<Box<dyn Fn(u64) -> u64>>,
    order: Vec<u32>,
    /// A bytecode loop with loads, stores and a data-dependent branch,
    /// dispatched through one `match`: the shape of the plan interpreter and
    /// of a pass walking ops.
    program: Vec<Ins>,
    /// Resident memory the probe itself holds, so `peak_rss_mb` can leave it
    /// out.
    pub resident_mb: f64,
}

/// Reset this process's `VmHWM` to its current resident size (Linux 4.0+),
/// so that the next reading is the peak since now. Where the file cannot be
/// written the peak simply keeps accumulating.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A permutation of `0..n` that is one cycle (Sattolo), from a fixed LCG.
fn single_cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut r = 12345u64;
    for i in (1..n).rev() {
        r = r
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        next.swap(i, (r >> 33) as usize % i);
    }
    next
}

/// `VmRSS:` or `VmHWM:` of this process in MB.
pub fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

impl Probe {
    pub fn new() -> Probe {
        let before = status_mb("VmRSS:");
        let closures = (0..CLOSURES as u64)
            .map(|i| -> Box<dyn Fn(u64) -> u64> {
                match i % 4 {
                    0 => Box::new(move |x| x.wrapping_add(i)),
                    1 => Box::new(move |x| x ^ (i << 3)),
                    2 => Box::new(move |x| x.wrapping_mul(i | 1)),
                    _ => Box::new(move |x| x.rotate_left((i % 63) as u32)),
                }
            })
            .collect();
        // r0 = i, r1 = trips, r2 = acc, r3 = tmp, r4 = addr, r5 = 3, r6 = 7,
        // r7 = val.
        let mask = VM_MEMORY as i64 - 1;
        let program = vec![
            Ins::Mul(3, 0, 6),     //  0: tmp = i * 7
            Ins::AndI(4, 3, mask), //  1: addr = tmp & mask
            Ins::Load(7, 4),       //  2: val = mem[addr]
            Ins::Mul(7, 7, 5),     //  3: val *= 3
            Ins::Add(7, 7, 0),     //  4: val += i
            Ins::AndI(3, 7, 1),    //  5: tmp = val & 1
            Ins::Jnz(3, 8),        //  6: if odd, skip the xor
            Ins::Xor(2, 2, 7),     //  7: acc ^= val
            Ins::AndI(4, 0, mask), //  8: addr = i & mask
            Ins::Store(7, 4),      //  9: mem[addr] = val
            Ins::AddI(0, 0, 1),    // 10: i += 1
            Ins::Jlt(0, 1, 0),     // 11: loop while i < trips
            Ins::Halt,
        ];
        let mut probe = Probe {
            closures,
            order: single_cycle(CLOSURES),
            program,
            resident_mb: 0.0,
        };
        probe.resident_mb = (status_mb("VmRSS:") - before).max(0.0);
        probe
    }

    /// Do the fixed work; returns the milliseconds it took.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        let mut x = 1u64;
        for _ in 0..CLOSURE_PASSES {
            for &i in &self.order {
                x = (self.closures[i as usize])(x);
            }
        }
        black_box(x);
        black_box(self.interpret());
        start.elapsed().as_secs_f64() * 1e3
    }

    fn interpret(&self) -> i64 {
        let mut mem: Vec<i64> = (0..VM_MEMORY as i64).collect();
        let mut r = [0i64; 8];
        (r[1], r[5], r[6]) = (VM_TRIPS, 3, 7);
        let mut pc = 0usize;
        loop {
            match self.program[pc] {
                Ins::Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
                Ins::Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]),
                Ins::Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
                Ins::AndI(d, a, k) => r[d as usize] = r[a as usize] & k,
                Ins::AddI(d, a, k) => r[d as usize] = r[a as usize].wrapping_add(k),
                Ins::Load(d, a) => r[d as usize] = mem[r[a as usize] as usize],
                Ins::Store(s, a) => mem[r[a as usize] as usize] = r[s as usize],
                Ins::Jnz(c, to) => {
                    if r[c as usize] != 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                Ins::Jlt(a, b, to) => {
                    if r[a as usize] < r[b as usize] {
                        pc = to as usize;
                        continue;
                    }
                }
                Ins::Halt => return r[2],
            }
            pc += 1;
        }
    }
}

/// Probe readings on each side of an interval that set its machine-speed
/// level (their median): a single reading is 8 ms long and one timer tick
/// can throw it off by 10%, while the machine's state changes over seconds.
const LEVEL_WINDOW: usize = 3;

/// Scale every interval to the quiet machine. `readings[i]` was taken just
/// before interval `i` and `readings[i + 1]` just after it, so there is one
/// more reading than there are intervals.
pub fn scale_series(walls: &[f64], readings: &[f64]) -> Vec<f64> {
    assert_eq!(readings.len(), walls.len() + 1, "a reading on each side");
    walls
        .iter()
        .enumerate()
        .map(|(i, wall)| {
            let from = (i + 1).saturating_sub(LEVEL_WINDOW);
            let to = (i + 1 + LEVEL_WINDOW).min(readings.len());
            let slowdown = crate::stats::median(&readings[from..to]) / QUIET_PROBE_MS;
            wall / slowdown.powf(SENSITIVITY)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_one_cycle() {
        let next = single_cycle(1000);
        let (mut at, mut steps) = (0u32, 0);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, 1000);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let probe = Probe::new();
        assert_eq!(probe.interpret(), probe.interpret());
        assert!(probe.run() > 0.0);
    }

    #[test]
    fn scaling_divides_by_the_slowdown_to_the_sensitivity() {
        let q = QUIET_PROBE_MS;
        assert_eq!(
            scale_series(&[500.0, 300.0], &[q, q, q]),
            vec![500.0, 300.0]
        );
        let slow = q * 1.25;
        let want = 500.0 / 1.25f64.powf(SENSITIVITY);
        let got = scale_series(&[500.0], &[slow, slow]);
        assert!((got[0] - want).abs() < 1e-9);
    }

    #[test]
    fn one_wild_reading_does_not_move_the_level() {
        let q = QUIET_PROBE_MS;
        // Six readings surround the middle interval; the outlier is outvoted.
        let readings = [q, q, q, q * 3.0, q, q, q];
        let got = scale_series(&[1.0; 6], &readings);
        assert_eq!(got[2], 1.0);
        // At the ends the window is clipped to the readings that exist.
        assert_eq!(scale_series(&[1.0], &[q, q]), vec![1.0]);
    }
}
