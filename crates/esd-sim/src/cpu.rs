//! The CPU-side model: instruction progress, memory stalls, write-buffer
//! admission, and IPC.
//!
//! The trace encodes the aggregate instruction gap between successive
//! last-level-cache misses/evictions; the CPU model turns those gaps into
//! simulated time at the configured base IPC and charges stalls:
//!
//! * a **read** stalls the core until data returns (demand misses block);
//! * a **write** (LLC eviction) stalls only until the memory controller's
//!   write pipeline has accepted it — the paper's "critical write path"
//!   (fingerprinting, lookups, comparisons) — and until a write-buffer slot
//!   frees up if the buffer is full. The device write itself proceeds in the
//!   background, occupying its slot until completion.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::CpuConfig;
use crate::time::Ps;

/// Cumulative CPU-side time accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Time spent executing instructions.
    pub compute_time: Ps,
    /// Time stalled waiting for read data.
    pub read_stall: Ps,
    /// Time stalled on the write path (processing + buffer-full waits).
    pub write_stall: Ps,
}

/// The CPU model.
///
/// # Examples
///
/// ```
/// use esd_sim::{CpuConfig, CpuModel, Ps};
/// let mut cpu = CpuModel::new(CpuConfig::default(), 4);
/// cpu.execute(1200);
/// let t = cpu.now();
/// cpu.complete_read(t + Ps::from_ns(79));
/// assert!(cpu.ipc() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CpuModel {
    config: CpuConfig,
    now: Ps,
    instructions: u64,
    carry_ps: f64,
    stats: CpuStats,
    write_buffer: BinaryHeap<Reverse<u64>>,
    write_buffer_depth: usize,
    outstanding_reads: BinaryHeap<Reverse<u64>>,
    read_mshrs: usize,
}

impl CpuModel {
    /// Creates a CPU at time zero with an empty write buffer.
    ///
    /// # Panics
    ///
    /// Panics if `write_buffer_depth` is zero or `base_ipc` is not positive.
    #[must_use]
    pub fn new(config: CpuConfig, write_buffer_depth: u32) -> Self {
        assert!(
            write_buffer_depth > 0,
            "write buffer needs at least one slot"
        );
        assert!(config.base_ipc > 0.0, "base IPC must be positive");
        CpuModel {
            config,
            now: Ps::ZERO,
            instructions: 0,
            carry_ps: 0.0,
            stats: CpuStats::default(),
            write_buffer: BinaryHeap::new(),
            write_buffer_depth: write_buffer_depth as usize,
            outstanding_reads: BinaryHeap::new(),
            read_mshrs: config.read_mshrs.max(1) as usize,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Time accounting.
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Executes `instructions` across all cores at the base IPC, advancing
    /// time.
    pub fn execute(&mut self, instructions: u64) {
        self.instructions += instructions;
        let throughput = self.config.base_ipc * f64::from(self.config.cores);
        let cycles = instructions as f64 / throughput;
        let exact_ps = cycles * self.config.clock.cycle().as_ps() as f64 + self.carry_ps;
        // `exact_ps` is finite and never negative, so truncation is
        // `floor` without the libm call, and `whole as f64` is exact.
        let whole = exact_ps as u64;
        self.carry_ps = exact_ps - whole as f64;
        let dt = Ps(whole);
        self.now += dt;
        self.stats.compute_time += dt;
    }

    /// Registers a demand read completing at `finish`. Out-of-order cores
    /// overlap misses: the core only stalls once all aggregate MSHRs are
    /// occupied by still-outstanding reads.
    pub fn complete_read(&mut self, finish: Ps) {
        if finish <= self.now {
            return; // data already available; no MSHR occupied
        }
        while let Some(&Reverse(earliest)) = self.outstanding_reads.peek() {
            if Ps(earliest) <= self.now {
                self.outstanding_reads.pop();
            } else {
                break;
            }
        }
        if self.outstanding_reads.len() >= self.read_mshrs {
            let Reverse(earliest) = self
                .outstanding_reads
                .pop()
                .expect("full MSHRs imply outstanding reads");
            let free_at = Ps(earliest);
            if free_at > self.now {
                self.stats.read_stall += free_at - self.now;
                self.now = free_at;
            }
        }
        if finish > self.now {
            self.outstanding_reads.push(Reverse(finish.as_ps()));
        }
    }

    /// Admits a write (LLC eviction) whose buffer slot frees at `release` —
    /// the time the controller finished with the line (dedup decision, and
    /// device write if one was needed).
    ///
    /// Evictions are posted asynchronously: the core never waits for the
    /// write path itself, only for a free write-buffer slot. Saturated
    /// devices therefore back-pressure the core through buffer occupancy,
    /// which is how write-heavy phases depress IPC.
    pub fn admit_write(&mut self, release: Ps) {
        // Drain completed writes, then block if the buffer is still full.
        while let Some(&Reverse(earliest)) = self.write_buffer.peek() {
            if Ps(earliest) <= self.now {
                self.write_buffer.pop();
            } else {
                break;
            }
        }
        if self.write_buffer.len() >= self.write_buffer_depth {
            let Reverse(earliest) = self
                .write_buffer
                .pop()
                .expect("buffer full implies nonempty");
            let free_at = Ps(earliest);
            if free_at > self.now {
                self.stats.write_stall += free_at - self.now;
                self.now = free_at;
            }
        }
        if release > self.now {
            self.write_buffer.push(Reverse(release.as_ps()));
        }
    }

    /// Stalls the core until `finish`, charging the wait as read stall —
    /// the core is blocked on memory-controller recovery exactly as it
    /// would be on demand-read data.
    pub fn stall_until(&mut self, finish: Ps) {
        if finish > self.now {
            self.stats.read_stall += finish - self.now;
            self.now = finish;
        }
    }

    /// Write-buffer slots currently occupied: admitted writes whose device
    /// completion lies in the future of the CPU clock.
    #[must_use]
    pub fn write_buffer_occupancy(&self) -> usize {
        self.write_buffer
            .iter()
            .filter(|&&Reverse(release)| Ps(release) > self.now)
            .count()
    }

    /// Instructions per cycle over the whole run, or zero before any time
    /// has elapsed.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        let cycles = self.config.clock.ps_to_cycles_f64(self.now);
        if cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> CpuModel {
        CpuModel::new(CpuConfig::default(), 2)
    }

    #[test]
    fn execute_advances_time_at_base_ipc() {
        let mut cpu = cpu();
        // 8 cores * 1.5 IPC = 12 instr/cycle; 1200 instr = 100 cycles = 50ns.
        cpu.execute(1200);
        assert_eq!(cpu.now(), Ps::from_ns(50));
        assert_eq!(cpu.instructions(), 1200);
        assert!((cpu.ipc() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_cycles_carry_without_loss() {
        let mut cpu = cpu();
        for _ in 0..12 {
            cpu.execute(1); // each is 1/12 cycle
        }
        // 12 instructions at 12/cycle = 1 cycle = 500ps (±1ps float rounding).
        assert!(
            (499..=501).contains(&cpu.now().as_ps()),
            "now = {}",
            cpu.now()
        );
    }

    #[test]
    fn truncating_clock_equals_the_floor_formula() {
        // The `f64::floor` formula, the reference the truncating clock
        // must match bit for bit.
        struct FloorClock {
            now: u64,
            carry_ps: f64,
        }
        impl FloorClock {
            fn execute(&mut self, config: &CpuConfig, instructions: u64) {
                let throughput = config.base_ipc * f64::from(config.cores);
                let cycles = instructions as f64 / throughput;
                let exact_ps = cycles * config.clock.cycle().as_ps() as f64 + self.carry_ps;
                let whole = exact_ps.floor();
                self.carry_ps = exact_ps - whole;
                self.now += whole as u64;
            }
        }
        let configs = [
            CpuConfig::default(),
            CpuConfig {
                base_ipc: 0.7,
                cores: 3,
                ..CpuConfig::default()
            },
        ];
        for config in configs {
            let mut cpu = CpuModel::new(config, 2);
            let mut reference = FloorClock {
                now: 0,
                carry_ps: 0.0,
            };
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..20_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mostly small gaps (the replay's), now and then a huge one.
                let gap = if step % 97 == 0 { x >> 20 } else { x % 64 };
                cpu.execute(gap);
                reference.execute(&config, gap);
                assert_eq!(cpu.now().as_ps(), reference.now, "step {step}");
                assert_eq!(
                    cpu.carry_ps.to_bits(),
                    reference.carry_ps.to_bits(),
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn reads_overlap_until_mshrs_fill() {
        let config = CpuConfig {
            read_mshrs: 2,
            ..CpuConfig::default()
        };
        let mut cpu = CpuModel::new(config, 2);
        cpu.complete_read(Ps::from_ns(100));
        cpu.complete_read(Ps::from_ns(200));
        assert_eq!(cpu.now(), Ps::ZERO, "two misses overlap");
        // Third miss: MSHRs full, stall until the earliest (100ns) retires.
        cpu.complete_read(Ps::from_ns(300));
        assert_eq!(cpu.now(), Ps::from_ns(100));
        assert_eq!(cpu.stats().read_stall, Ps::from_ns(100));
        // A read that already finished does not occupy an MSHR.
        cpu.complete_read(Ps::from_ns(50));
        assert_eq!(cpu.now(), Ps::from_ns(100));
    }

    #[test]
    fn writes_are_posted_without_blocking() {
        let mut cpu = cpu();
        cpu.admit_write(Ps::from_ns(321));
        assert_eq!(cpu.now(), Ps::ZERO, "eviction posting is asynchronous");
        assert_eq!(cpu.stats().write_stall, Ps::ZERO);
    }

    #[test]
    fn write_buffer_occupancy_counts_only_pending_slots() {
        let mut cpu = cpu();
        assert_eq!(cpu.write_buffer_occupancy(), 0);
        cpu.admit_write(Ps::from_ns(10));
        cpu.admit_write(Ps::from_ns(2_000));
        assert_eq!(cpu.write_buffer_occupancy(), 2);
        cpu.execute(24_000); // 2000 cycles = 1us; the 10ns write has drained
        assert_eq!(cpu.write_buffer_occupancy(), 1);
    }

    #[test]
    fn full_write_buffer_stalls_until_slot_frees() {
        let mut cpu = cpu(); // depth 2
        cpu.admit_write(Ps::from_ns(150));
        cpu.admit_write(Ps::from_ns(300));
        // Third write: buffer full; earliest slot frees at 150ns.
        cpu.admit_write(Ps::from_ns(450));
        assert_eq!(cpu.now(), Ps::from_ns(150));
        assert_eq!(cpu.stats().write_stall, Ps::from_ns(150));
    }

    #[test]
    fn completed_writes_free_slots_without_stall() {
        let mut cpu = cpu();
        cpu.admit_write(Ps::from_ns(10));
        cpu.admit_write(Ps::from_ns(20));
        cpu.execute(24_000); // 2000 cycles = 1us; both writes are done
        let before = cpu.now();
        cpu.admit_write(before + Ps::from_ns(150));
        assert_eq!(cpu.now(), before, "no stall when slots already free");
    }

    #[test]
    #[should_panic(expected = "write buffer needs at least one slot")]
    fn zero_depth_panics() {
        let _ = CpuModel::new(CpuConfig::default(), 0);
    }

    #[test]
    fn stall_until_charges_read_stall() {
        let mut cpu = cpu();
        cpu.stall_until(Ps::from_ns(120));
        assert_eq!(cpu.now(), Ps::from_ns(120));
        assert_eq!(cpu.stats().read_stall, Ps::from_ns(120));
        // Stalling to the past is a no-op.
        cpu.stall_until(Ps::from_ns(20));
        assert_eq!(cpu.now(), Ps::from_ns(120));
        assert_eq!(cpu.stats().read_stall, Ps::from_ns(120));
    }
}
