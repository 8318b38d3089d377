#![warn(missing_docs)]
#![deny(unsafe_code)]

//! A cycle-approximate simulator for encrypted non-volatile main memory
//! (PCM), in the style of NVMain: device timing and energy, bank/bus
//! contention, a content-bearing medium, metadata-cache statistics, and a
//! CPU model that turns memory stalls into IPC.
//!
//! This crate is the substrate under the ESD deduplication schemes
//! (`esd-core`). It deliberately models the effects the paper's evaluation
//! depends on:
//!
//! * asymmetric PCM timing (75 ns reads, 150 ns writes — Table I) and energy
//!   (1.49 nJ / 6.75 nJ per 64-byte access);
//! * queueing and read/write interference on shared banks and the data bus;
//! * a write buffer whose occupancy back-pressures the core;
//! * separate accounting for data vs deduplication-metadata traffic;
//! * latency histograms fine enough for tail-latency CDFs (Figure 15).
//!
//! # Examples
//!
//! ```
//! use esd_sim::{NvmmSystem, PcmConfig, Ps, SystemConfig};
//!
//! let config = SystemConfig::default();
//! let mut nvmm = NvmmSystem::new(config.pcm);
//! let write = nvmm.write_line(Ps::ZERO, 0x40, [1u8; 64], 0);
//! assert_eq!(write.latency_from(Ps::ZERO).as_ns(), 154);
//! ```

mod config;
mod cpu;
mod energy;
mod medium;
mod pcm;
mod sram;
mod stats;
mod system;
mod time;
mod wearlevel;

pub use config::{
    CacheLevelConfig, ControllerConfig, CpuConfig, PcmConfig, SystemConfig, LINE_BYTES,
};
pub use cpu::{CpuModel, CpuStats};
pub use energy::Energy;
pub use medium::{FaultStats, Medium, StoredLine};
pub use pcm::{AccessClass, Completion, PcmCounters, PcmDevice, PcmOp, PcmStats};
pub use sram::CacheStats;
pub use stats::{LatencyHistogram, WriteLatencyBreakdown};
pub use system::NvmmSystem;
pub use time::{Clock, Ps};
pub use wearlevel::{GapMove, StartGap};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NvmmSystem>();
        assert_send_sync::<CpuModel>();
        assert_send_sync::<LatencyHistogram>();
        assert_send_sync::<SystemConfig>();
    }
}
