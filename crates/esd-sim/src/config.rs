//! System configuration — Table I of the paper.

use crate::energy::Energy;
use crate::time::{Clock, Ps};

/// Cache-line size in bytes (fixed by the CPU core, per the paper).
pub const LINE_BYTES: usize = 64;

/// One level of the on-chip cache hierarchy (documentation of Table I and
/// input to the CPU model's hit-time accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency_cycles: u32,
}

/// PCM device timing and energy (Table I: 75 ns / 150 ns, 1.49 nJ / 6.75 nJ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcmConfig {
    /// Device capacity in bytes.
    pub capacity_bytes: u64,
    /// Number of independently schedulable banks.
    pub banks: u32,
    /// Array read latency.
    pub read_latency: Ps,
    /// Array write latency.
    pub write_latency: Ps,
    /// Data-bus occupancy per 64-byte transfer (burst time).
    pub bus_transfer: Ps,
    /// Array-read latency when the line is already in the bank's row buffer
    /// (repeated reads of a hot line, e.g. dedup compare reads).
    pub row_hit_latency: Ps,
    /// Energy per 64-byte read.
    pub read_energy: Energy,
    /// Energy per 64-byte write.
    pub write_energy: Energy,
    /// Energy for a row-buffer-hit read.
    pub row_hit_energy: Energy,
    /// Raw bit-error rate of the array, expressed as expected flipped bits
    /// per 10^12 bit-reads (`0` disables fault injection entirely). Each
    /// data-line read Bernoulli-samples every stored bit — 512 data bits
    /// plus the 64-bit packed ECC — and flips persist in the medium until
    /// the line is rewritten (read-disturb / drift accumulation).
    pub rber_per_tbit: u64,
    /// Seed of the deterministic fault-injection RNG; reruns with the same
    /// seed, config and trace reproduce the exact same flips.
    pub rber_seed: u64,
}

impl Default for PcmConfig {
    fn default() -> Self {
        PcmConfig {
            capacity_bytes: 16 << 30,
            banks: 8,
            read_latency: Ps::from_ns(75),
            write_latency: Ps::from_ns(150),
            bus_transfer: Ps::from_ns(4),
            row_hit_latency: Ps::from_ns(15),
            read_energy: Energy::from_nj_milli(1490),
            write_energy: Energy::from_nj_milli(6750),
            row_hit_energy: Energy::from_nj_milli(370),
            rber_per_tbit: 0,
            rber_seed: 0xE5D,
        }
    }
}

/// Memory-controller parameters: metadata SRAM and queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Capacity of the EFIT (or fingerprint) cache in bytes.
    pub fingerprint_cache_bytes: u64,
    /// Capacity of the AMT (address-mapping) cache in bytes.
    pub mapping_cache_bytes: u64,
    /// SRAM metadata-cache probe latency.
    pub sram_latency: Ps,
    /// SRAM probe energy.
    pub sram_energy: Energy,
    /// Depth of the controller write buffer; the CPU stalls on a full buffer.
    pub write_buffer_depth: u32,
    /// Capacity of the encryption counter cache in bytes; `0` models the
    /// paper's assumption of always-resident counters.
    pub counter_cache_bytes: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            fingerprint_cache_bytes: 512 << 10,
            mapping_cache_bytes: 512 << 10,
            sram_latency: Ps::from_ns(2),
            sram_energy: Energy::from_pj(25),
            write_buffer_depth: 32,
            counter_cache_bytes: 0,
        }
    }
}

/// CPU model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Number of cores (Table I: 8). The simulator models the aggregate
    /// memory stream; `cores` scales the instruction throughput.
    pub cores: u32,
    /// Core clock.
    pub clock: Clock,
    /// Peak IPC per core when no memory stall is pending.
    pub base_ipc: f64,
    /// Outstanding demand reads the cores can sustain before stalling
    /// (aggregate MSHR capacity — the memory-level parallelism of eight
    /// out-of-order cores).
    pub read_mshrs: u32,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 8,
            clock: Clock::default(),
            base_ipc: 1.5,
            read_mshrs: 8,
        }
    }
}

/// The full system configuration (Table I of the paper).
///
/// # Examples
///
/// ```
/// use esd_sim::SystemConfig;
/// let config = SystemConfig::default();
/// assert_eq!(config.pcm.read_latency.as_ns(), 75);
/// assert_eq!(config.pcm.write_latency.as_ns(), 150);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// CPU parameters.
    pub cpu: CpuConfig,
    /// Private L1 data cache (32 KB, 8-way, 2 cycles).
    pub l1: CacheLevelConfig,
    /// Private L2 cache (256 KB, 8-way, 8 cycles).
    pub l2: CacheLevelConfig,
    /// Shared L3 cache (16 MB, 8-way, 25 cycles).
    pub l3: CacheLevelConfig,
    /// Main-memory PCM device.
    pub pcm: PcmConfig,
    /// Memory-controller metadata caches and buffers.
    pub controller: ControllerConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cpu: CpuConfig::default(),
            l1: CacheLevelConfig {
                capacity_bytes: 32 << 10,
                ways: 8,
                latency_cycles: 2,
            },
            l2: CacheLevelConfig {
                capacity_bytes: 256 << 10,
                ways: 8,
                latency_cycles: 8,
            },
            l3: CacheLevelConfig {
                capacity_bytes: 16 << 20,
                ways: 8,
                latency_cycles: 25,
            },
            pcm: PcmConfig::default(),
            controller: ControllerConfig::default(),
        }
    }
}

impl SystemConfig {
    /// Number of cache lines the PCM device can hold.
    #[must_use]
    pub fn pcm_lines(&self) -> u64 {
        self.pcm.capacity_bytes / LINE_BYTES as u64
    }

    /// Renders the configuration as the paper's Table I.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Processor and Cache\n");
        out.push_str(&format!(
            "  CPU                 {} cores, {:.1} GHz clock, base IPC {}\n",
            self.cpu.cores,
            1000.0 / self.cpu.clock.cycle().as_ps() as f64,
            self.cpu.base_ipc
        ));
        for (name, level) in [("L1", &self.l1), ("L2", &self.l2), ("L3", &self.l3)] {
            out.push_str(&format!(
                "  {name} cache            {} KB, {}-way, {}-cycle latency\n",
                level.capacity_bytes >> 10,
                level.ways,
                level.latency_cycles
            ));
        }
        out.push_str(&format!("  Cache line size     {LINE_BYTES} B\n"));
        out.push_str("Main Memory (PCM)\n");
        out.push_str(&format!(
            "  Capacity            {} GB, {} banks\n",
            self.pcm.capacity_bytes >> 30,
            self.pcm.banks
        ));
        out.push_str(&format!(
            "  PCM latency         read {} / write {}\n",
            self.pcm.read_latency, self.pcm.write_latency
        ));
        out.push_str(&format!(
            "  PCM energy          read {} / write {}\n",
            self.pcm.read_energy, self.pcm.write_energy
        ));
        out.push_str(&format!(
            "  Metadata cache      EFIT {} KB, AMT {} KB\n",
            self.controller.fingerprint_cache_bytes >> 10,
            self.controller.mapping_cache_bytes >> 10
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_one() {
        let c = SystemConfig::default();
        assert_eq!(c.cpu.cores, 8);
        assert_eq!(c.cpu.clock.cycle(), Ps(500));
        assert_eq!(c.l1.capacity_bytes, 32 << 10);
        assert_eq!(c.l2.capacity_bytes, 256 << 10);
        assert_eq!(c.l3.capacity_bytes, 16 << 20);
        assert_eq!(c.pcm.capacity_bytes, 16u64 << 30);
        assert_eq!(c.pcm.read_latency, Ps::from_ns(75));
        assert_eq!(c.pcm.write_latency, Ps::from_ns(150));
        assert_eq!(c.pcm.read_energy.as_pj(), 1490);
        assert_eq!(c.pcm.write_energy.as_pj(), 6750);
        assert_eq!(c.controller.fingerprint_cache_bytes, 512 << 10);
        assert_eq!(c.controller.mapping_cache_bytes, 512 << 10);
        assert_eq!(c.pcm.rber_per_tbit, 0, "fault injection is off by default");
    }

    #[test]
    fn pcm_lines_counts_64b_lines() {
        let c = SystemConfig::default();
        assert_eq!(c.pcm_lines(), (16u64 << 30) / 64);
    }

    #[test]
    fn table_rendering_mentions_key_values() {
        let table = SystemConfig::default().to_table();
        assert!(table.contains("8 cores"));
        assert!(table.contains("75.000ns"));
        assert!(table.contains("150.000ns"));
        assert!(table.contains("EFIT 512 KB"));
    }

    #[test]
    fn config_is_copy_and_comparable() {
        let a = SystemConfig::default();
        let b = a;
        assert_eq!(a, b);
    }
}
