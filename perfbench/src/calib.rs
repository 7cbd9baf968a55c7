//! Calibration: how fast is the machine right now?
//!
//! The box the bounds were measured on is a 2-vCPU virtual machine on a
//! shared host, and its speed drifts for minutes at a time. In two sets
//! of ten runs of one build (`PROBES.md`, probe 1) the clock's seconds
//! for one `vertical_join` iteration had a median of 0.56 s in one set
//! and 0.78 s in the next, half an hour later, and single
//! `wire_manystmt` runs read anything from 0.057 s to 0.199 s per
//! iteration. No statistic of raw samples survives a slow spell that
//! outlasts the run, and no bound the contract allows would accept it.
//!
//! So every timed sample is bracketed by a small fixed *kernel* — work
//! of the same kind as the engine's (hashing, allocation, floating
//! point, dependent loads), written here and calling none of the code
//! under test — and the sample is divided by how much slower than its
//! nominal time the kernel ran just before and just after it. The
//! kernel matches the executor in the two ways the probes showed to
//! matter (`PROBES.md`). On the wire workload it adds loopback round
//! trips: a compute-only kernel left that workload's 21 % drift between
//! two sets of runs uncorrected, with round trips it fell to 6 %. On
//! the sharded workload it runs twice, on one thread and on as many as
//! there are shards, and a phase is corrected by the mix of the two
//! that matches how parallel its work is: with one vCPU taken by
//! another process the two-thread kernel slows 1.8× and the one-thread
//! kernel not at all, and so do two-thread and one-thread work.
//!
//! The end-to-end timings are therefore seconds *on a machine that runs
//! the kernel in its nominal time*. The nominal times only fix that
//! unit: both sides of any comparison are divided by the same
//! constants. Interference from the host moves kernel and sample alike;
//! a change to the program moves the kernel only through what the two
//! share, the allocator's state and the caches. The correction is good
//! to about a tenth, not exact: the kernel sees 13 ms at each edge of a
//! sample that can last 0.6 s, and its mix is not the engine's.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::workload::{Executor, SHARDS};

/// Nominal seconds of the compute kernel: its quiet time on the box the
/// bounds were measured on. Fixes the unit of the calibrated timings,
/// nothing else.
const COMPUTE_NOMINAL_S: f64 = 0.0120;

/// Nominal seconds of [`ROUND_TRIPS`] loopback round trips, likewise.
const ROUND_TRIPS_NOMINAL_S: f64 = 0.0050;

/// Round trips in the wire kernel.
const ROUND_TRIPS: usize = 100;

/// Entries of the pointer-chase ring: 4 MiB of `u32`, beyond the
/// private caches, so each step waits on the shared memory system the
/// way a probe of a large join table does — yet small enough to add
/// little to the peak RSS the run reports.
const RING: usize = 1 << 20;

/// One cycle through every slot of a [`RING`]-entry table, in an order
/// the prefetcher cannot guess.
fn ring() -> Vec<u32> {
    // Stepping by an odd constant modulo a power of two visits every
    // slot once; the large stride defeats adjacent-line prefetch.
    const STRIDE: usize = 0x9_E377;
    let mut next = vec![0u32; RING];
    let mut at = 0usize;
    for _ in 0..RING {
        let to = (at + STRIDE) & (RING - 1);
        next[at] = to as u32;
        at = to;
    }
    next
}

/// Hashing, allocation, floating point and dependent memory loads in
/// roughly the mix the SQL engine spends its time on.
fn compute_kernel(ring: &[u32]) -> f64 {
    let mut acc = 0.0f64;
    let mut at = 0u32;
    for _ in 0..40_000 {
        at = ring[at as usize];
    }
    acc += at as f64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 50_000
    };
    let mut map: HashMap<u64, f64> = HashMap::new();
    for i in 0..20_000 {
        map.insert(next(), i as f64);
    }
    for _ in 0..60_000 {
        if let Some(v) = map.get(&next()) {
            acc += *v;
        }
    }
    let rows: Vec<Box<[f64]>> = (0..20_000)
        .map(|i| vec![i as f64; 8].into_boxed_slice())
        .collect();
    acc += rows.iter().map(|r| r[3]).sum::<f64>();
    drop(rows);
    let mut y = 1.0001f64;
    for i in 0..100_000 {
        y = (y * 1.000001 + (i as f64).sqrt() * 1e-9).ln_1p().exp();
    }
    black_box(acc + y)
}

/// An echo thread on the loopback interface and a stream to it.
struct Echo {
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::spawn(move || {
            let Ok((mut peer, _)) = listener.accept() else {
                return;
            };
            let _ = peer.set_nodelay(true);
            let mut buf = [0u8; 64];
            // Ends when the calibrator drops its stream.
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            thread: Some(thread),
        })
    }

    fn round_trips(&mut self, n: usize) -> std::io::Result<()> {
        let mut buf = [7u8; 64];
        for _ in 0..n {
            self.stream.write_all(&buf)?;
            self.stream.read_exact(&mut buf)?;
        }
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Runs the kernel that matches one kind of executor.
pub struct Calibrator {
    /// Threads the compute kernel runs on at once.
    threads: usize,
    /// The wire kernel's echo peer.
    echo: Option<Echo>,
    /// The pointer-chase table, shared by the kernel's threads.
    ring: Vec<u32>,
    /// Seconds the whole kernel takes on the nominal machine.
    nominal_s: f64,
}

impl Calibrator {
    /// The kernel for a workload on `executor`: compute on as many
    /// threads as the executor keeps busy, plus round trips when the
    /// executor is across a socket.
    pub fn new(executor: Executor) -> Result<Calibrator, String> {
        let (threads, wire) = match executor {
            Executor::Embedded => (1, false),
            Executor::Wire => (1, true),
            Executor::Sharded => (SHARDS, false),
        };
        let echo = if wire {
            Some(Echo::start().map_err(|e| format!("calibration echo: {e}"))?)
        } else {
            None
        };
        Ok(Calibrator {
            threads,
            nominal_s: COMPUTE_NOMINAL_S + if wire { ROUND_TRIPS_NOMINAL_S } else { 0.0 },
            echo,
            ring: ring(),
        })
    }

    /// Run the kernel now; returns how many times slower than nominal
    /// the machine ran it (1 = nominal speed), on one thread and on all
    /// of [`Calibrator::threads`] at once. The two differ when the host
    /// starves one vCPU; which of them a phase feels depends on how
    /// parallel the phase is, which [`Slowdown::at`] takes into account.
    pub fn slowdown(&mut self) -> Result<Slowdown, String> {
        let serial = self.run(1)?;
        let parallel = if self.threads > 1 {
            self.run(self.threads)?
        } else {
            serial
        };
        Ok(Slowdown { serial, parallel })
    }

    fn run(&mut self, threads: usize) -> Result<f64, String> {
        let t0 = Instant::now();
        let ring = &self.ring;
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(|| compute_kernel(ring));
            }
            compute_kernel(ring);
        });
        if let Some(echo) = &mut self.echo {
            echo.round_trips(ROUND_TRIPS)
                .map_err(|e| format!("calibration round trip: {e}"))?;
        }
        Ok(t0.elapsed().as_secs_f64() / self.nominal_s)
    }
}

/// The machine's slowdown at one moment, for serial and for fully
/// parallel work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Kernel on one thread.
    pub serial: f64,
    /// Kernel on every thread at once.
    pub parallel: f64,
}

impl Slowdown {
    /// The slowdown felt by work of which the share `parallel_share`
    /// (0–1) runs on every thread at once and the rest on one.
    pub fn at(&self, parallel_share: f64) -> f64 {
        self.serial + (self.parallel - self.serial) * parallel_share
    }

    /// The mean of two moments.
    pub fn mean(a: Slowdown, b: Slowdown) -> Slowdown {
        Slowdown {
            serial: (a.serial + b.serial) / 2.0,
            parallel: (a.parallel + b.parallel) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_runs_and_reports_a_positive_slowdown() {
        for executor in [Executor::Embedded, Executor::Wire, Executor::Sharded] {
            let mut calibrator = Calibrator::new(executor).unwrap();
            let s = calibrator.slowdown().unwrap();
            for share in [0.0, 0.5, 1.0] {
                let at = s.at(share);
                assert!(at.is_finite() && at > 0.0, "{executor:?}: {s:?}");
            }
            assert_eq!(s.at(0.0), s.serial);
            assert_eq!(s.at(1.0), s.parallel);
        }
    }

    #[test]
    fn the_compute_kernel_is_deterministic() {
        let ring = ring();
        assert_eq!(
            compute_kernel(&ring).to_bits(),
            compute_kernel(&ring).to_bits()
        );
    }
}
