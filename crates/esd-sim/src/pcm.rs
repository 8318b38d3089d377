//! The PCM device model: banks, bus, timing and energy.
//!
//! Cycle-approximate rather than cycle-accurate: each bank is a resource
//! with a `busy_until` horizon, and the shared data bus serializes 64-byte
//! transfers. This captures the two effects the paper's results hinge on —
//! queueing behind slow (150 ns) writes, and read/write interference on
//! shared banks — without simulating PCM micro-operations.

use crate::config::{PcmConfig, LINE_BYTES};
use crate::energy::Energy;
use crate::time::Ps;

/// Kind of device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcmOp {
    /// A 64-byte array read.
    Read,
    /// A 64-byte array write.
    Write,
}

/// What an access is for — data or deduplication metadata. Kept separate in
/// the statistics so metadata traffic (fingerprint NVMM lookups, AMT spills)
/// can be reported on its own, as the paper's Figure 5 does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Application cache-line data.
    Data,
    /// Deduplication metadata (fingerprint store, address-mapping table).
    Metadata,
    /// Background scrub traffic (patrol reads and corrective rewrites).
    Scrub,
}

/// Completion report for one device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the device began servicing the access (after bank/bus waits).
    pub start: Ps,
    /// When the data was available (read) or durable (write).
    pub finish: Ps,
}

impl Completion {
    /// Total service latency including queueing, relative to `submit`.
    #[must_use]
    pub fn latency_from(&self, submit: Ps) -> Ps {
        self.finish.saturating_sub(submit)
    }
}

/// Per-class access and energy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcmCounters {
    /// Number of 64-byte reads serviced.
    pub reads: u64,
    /// Number of 64-byte writes serviced.
    pub writes: u64,
    /// Total energy consumed by those accesses.
    pub energy: Energy,
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcmStats {
    /// Data-class traffic.
    pub data: PcmCounters,
    /// Metadata-class traffic.
    pub metadata: PcmCounters,
    /// Background-scrub traffic (patrol reads, corrective rewrites).
    pub scrub: PcmCounters,
    /// Total picoseconds any bank spent busy (utilization numerator).
    pub busy_time: Ps,
}

impl PcmStats {
    /// All reads regardless of class.
    #[must_use]
    pub fn total_reads(&self) -> u64 {
        self.data.reads + self.metadata.reads + self.scrub.reads
    }

    /// All writes regardless of class.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.data.writes + self.metadata.writes + self.scrub.writes
    }

    /// All energy regardless of class.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.data.energy + self.metadata.energy + self.scrub.energy
    }
}

/// The PCM main-memory device.
///
/// # Examples
///
/// ```
/// use esd_sim::{AccessClass, PcmConfig, PcmDevice, PcmOp, Ps};
///
/// let mut pcm = PcmDevice::new(PcmConfig::default());
/// let c = pcm.access(Ps::ZERO, 0x0, PcmOp::Read, AccessClass::Data);
/// assert_eq!(c.latency_from(Ps::ZERO).as_ns(), 79); // 75ns array + 4ns bus
/// ```
#[derive(Debug, Clone)]
pub struct PcmDevice {
    config: PcmConfig,
    bank_busy_until: Vec<Ps>,
    /// Line currently held in each bank's row buffer.
    bank_open_line: Vec<Option<u64>>,
    bus_busy_until: Ps,
    stats: PcmStats,
}

impl PcmDevice {
    /// Creates a device with all banks idle.
    ///
    /// # Panics
    ///
    /// Panics if the configuration specifies zero banks.
    #[must_use]
    pub fn new(config: PcmConfig) -> Self {
        assert!(config.banks > 0, "PCM device needs at least one bank");
        PcmDevice {
            bank_busy_until: vec![Ps::ZERO; config.banks as usize],
            bank_open_line: vec![None; config.banks as usize],
            bus_busy_until: Ps::ZERO,
            config,
            stats: PcmStats::default(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &PcmConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &PcmStats {
        &self.stats
    }

    /// The bank servicing a line address (line-interleaved mapping).
    #[must_use]
    pub fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES as u64) % u64::from(self.config.banks)) as usize
    }

    /// Number of banks still servicing an access at instant `now`.
    #[must_use]
    pub fn busy_banks(&self, now: Ps) -> usize {
        self.bank_busy_until.iter().filter(|&&b| b > now).count()
    }

    /// Performs one 64-byte access, advancing the bank and bus horizons and
    /// charging energy.
    pub fn access(&mut self, now: Ps, line_addr: u64, op: PcmOp, class: AccessClass) -> Completion {
        let bank = self.bank_of(line_addr);
        let row_hit = self.bank_open_line[bank] == Some(line_addr);
        let array_latency = match op {
            PcmOp::Read if row_hit => self.config.row_hit_latency,
            PcmOp::Read => self.config.read_latency,
            PcmOp::Write => self.config.write_latency,
        };

        // Writes move data over the shared bus *to* the device before the
        // array operation; reads produce data over the bus *after* it. The
        // bus is therefore released early for writes, avoiding head-of-line
        // blocking of later reads behind posted writes.
        let (start, finish) = match op {
            PcmOp::Write => {
                let bus_start = now.max(self.bus_busy_until);
                let bus_done = bus_start + self.config.bus_transfer;
                self.bus_busy_until = bus_done;
                let start = bus_done.max(self.bank_busy_until[bank]);
                let finish = start + array_latency;
                self.bank_busy_until[bank] = finish;
                (start, finish)
            }
            PcmOp::Read => {
                let start = now.max(self.bank_busy_until[bank]);
                let array_done = start + array_latency;
                // The bank frees once the array read completes; the data
                // then streams over the bus.
                self.bank_busy_until[bank] = array_done;
                let bus_start = array_done.max(self.bus_busy_until);
                let finish = bus_start + self.config.bus_transfer;
                self.bus_busy_until = finish;
                (start, finish)
            }
        };
        self.bank_open_line[bank] = Some(line_addr);
        self.stats.busy_time += finish - start;

        let energy = match op {
            PcmOp::Read if row_hit => self.config.row_hit_energy,
            _ => self.energy_of(op),
        };
        let counters = match class {
            AccessClass::Data => &mut self.stats.data,
            AccessClass::Metadata => &mut self.stats.metadata,
            AccessClass::Scrub => &mut self.stats.scrub,
        };
        match op {
            PcmOp::Read => counters.reads += 1,
            PcmOp::Write => counters.writes += 1,
        }
        counters.energy += energy;

        Completion { start, finish }
    }

    fn energy_of(&self, op: PcmOp) -> Energy {
        match op {
            PcmOp::Read => self.config.read_energy,
            PcmOp::Write => self.config.write_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> PcmDevice {
        PcmDevice::new(PcmConfig::default())
    }

    #[test]
    fn idle_read_and_write_latencies() {
        let mut pcm = device();
        let r = pcm.access(Ps::ZERO, 0, PcmOp::Read, AccessClass::Data);
        assert_eq!(r.latency_from(Ps::ZERO), Ps::from_ns(79));
        let w = pcm.access(Ps::from_us(1), 64, PcmOp::Write, AccessClass::Data);
        assert_eq!(w.latency_from(Ps::from_us(1)), Ps::from_ns(154));
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut pcm = device();
        let banks = u64::from(pcm.config().banks);
        let addr = 0u64;
        let same_bank = addr + banks * 64; // maps to the same bank
        assert_eq!(pcm.bank_of(addr), pcm.bank_of(same_bank));

        let first = pcm.access(Ps::ZERO, addr, PcmOp::Write, AccessClass::Data);
        let second = pcm.access(Ps::ZERO, same_bank, PcmOp::Read, AccessClass::Data);
        assert!(
            second.start >= first.finish,
            "read must wait behind the write"
        );
    }

    #[test]
    fn different_banks_overlap_in_arrays_but_share_bus() {
        let mut pcm = device();
        let a = pcm.access(Ps::ZERO, 0, PcmOp::Read, AccessClass::Data);
        let b = pcm.access(Ps::ZERO, 64, PcmOp::Read, AccessClass::Data);
        // Both start immediately (different banks)...
        assert_eq!(a.start, Ps::ZERO);
        assert_eq!(b.start, Ps::ZERO);
        // ...but the second's transfer waits for the bus.
        assert_eq!(b.finish, a.finish + pcm.config().bus_transfer);
    }

    #[test]
    fn energy_and_counters_accumulate_by_class() {
        let mut pcm = device();
        pcm.access(Ps::ZERO, 0, PcmOp::Write, AccessClass::Data);
        pcm.access(Ps::ZERO, 64, PcmOp::Read, AccessClass::Metadata);
        pcm.access(Ps::ZERO, 128, PcmOp::Read, AccessClass::Scrub);
        let stats = pcm.stats();
        assert_eq!(stats.data.writes, 1);
        assert_eq!(stats.metadata.reads, 1);
        assert_eq!(stats.scrub.reads, 1);
        assert_eq!(stats.data.energy.as_pj(), 6750);
        assert_eq!(stats.metadata.energy.as_pj(), 1490);
        assert_eq!(stats.scrub.energy.as_pj(), 1490);
        assert_eq!(stats.total_reads(), 2);
        assert_eq!(stats.total_writes(), 1);
        assert_eq!(stats.total_energy().as_pj(), 9730);
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        let pcm = device();
        assert_eq!(pcm.bank_of(0), 0);
        assert_eq!(pcm.bank_of(64), 1);
        assert_eq!(pcm.bank_of(64 * 16), 0);
    }
}
