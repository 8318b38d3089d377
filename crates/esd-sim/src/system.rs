//! The NVMM system: PCM timing model plus the content-bearing medium.

use crate::config::{PcmConfig, LINE_BYTES};
use crate::medium::{Medium, StoredLine};
use crate::pcm::{AccessClass, Completion, PcmDevice, PcmOp, PcmStats};
use crate::time::Ps;
use crate::wearlevel::StartGap;

/// A timing-and-content model of the encrypted NVMM main memory.
///
/// Deduplication schemes issue three flavors of traffic:
///
/// * data reads/writes ([`NvmmSystem::read_line`], [`NvmmSystem::write_line`]),
///   which move real bytes and are charged full device timing;
/// * metadata accesses ([`NvmmSystem::metadata_read`],
///   [`NvmmSystem::metadata_write`]), which are timing/energy-only (the
///   schemes hold metadata content in their own structures).
///
/// # Examples
///
/// ```
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// let write = nvmm.write_line(Ps::ZERO, 0x40, [7u8; 64], 0xECC);
/// let (read, line) = nvmm.read_line(write.finish, 0x40);
/// assert_eq!(line.unwrap().data[0], 7);
/// assert!(read.finish > write.finish);
/// ```
#[derive(Debug, Clone)]
pub struct NvmmSystem {
    pcm: PcmDevice,
    medium: Medium,
    leveler: Option<StartGap>,
}

impl NvmmSystem {
    /// Creates an empty system with the given device configuration.
    #[must_use]
    pub fn new(config: PcmConfig) -> Self {
        let mut medium = Medium::new();
        if config.rber_per_tbit > 0 {
            medium.enable_fault_injection(config.rber_per_tbit, config.rber_seed);
        }
        NvmmSystem {
            pcm: PcmDevice::new(config),
            medium,
            leveler: None,
        }
    }

    /// Enables Start-Gap wear leveling over the first `region_lines` data
    /// lines, moving the gap every `gap_interval` data writes. Gap moves
    /// copy real content (one read plus one write of device traffic).
    ///
    /// Addresses outside the region (e.g. metadata) pass through untouched.
    ///
    /// # Panics
    ///
    /// Panics on zero `region_lines` or `gap_interval`, or if lines were
    /// already stored (leveling must be configured before first use).
    pub fn enable_wear_leveling(&mut self, region_lines: u64, gap_interval: u32) {
        assert_eq!(
            self.medium.lines_stored(),
            0,
            "enable wear leveling before writing data"
        );
        self.leveler = Some(StartGap::new(region_lines, gap_interval));
    }

    /// The wear leveler, if enabled.
    #[must_use]
    pub fn wear_leveler(&self) -> Option<&StartGap> {
        self.leveler.as_ref()
    }

    /// Maps a line address through the wear leveler (identity outside the
    /// leveled region or when leveling is off).
    fn device_addr(&self, line_addr: u64) -> u64 {
        match &self.leveler {
            Some(leveler) if (line_addr / LINE_BYTES as u64) < leveler.lines() => {
                leveler.translate(line_addr / LINE_BYTES as u64) * LINE_BYTES as u64
            }
            _ => line_addr,
        }
    }

    /// The device timing statistics.
    #[must_use]
    pub fn stats(&self) -> &PcmStats {
        self.pcm.stats()
    }

    /// The content store (wear counters, fault injection, inspection).
    #[must_use]
    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    /// Mutable access to the content store (for fault injection in tests).
    pub fn medium_mut(&mut self) -> &mut Medium {
        &mut self.medium
    }

    /// The underlying timing model.
    #[must_use]
    pub fn pcm(&self) -> &PcmDevice {
        &self.pcm
    }

    /// Reads a data line: device timing plus stored content (which is `None`
    /// for never-written addresses). When fault injection is on, the read
    /// first runs the RBER sampler over the line, so returned content may
    /// carry (persistent) bit flips for the ECC path to handle.
    pub fn read_line(&mut self, now: Ps, line_addr: u64) -> (Completion, Option<StoredLine>) {
        let device = self.device_addr(line_addr);
        let completion = self.pcm.access(now, device, PcmOp::Read, AccessClass::Data);
        self.medium.degrade(device);
        (completion, self.medium.load(device).copied())
    }

    /// The line's fault-free ground truth (see [`Medium::pristine`]);
    /// `None` when fault injection is off or the address was never written.
    #[must_use]
    pub fn pristine_line(&self, line_addr: u64) -> Option<&StoredLine> {
        self.medium.pristine(self.device_addr(line_addr))
    }

    /// Writes a data line: device timing plus content update and wear.
    /// Under wear leveling this may additionally trigger a gap move, which
    /// copies one line (a metadata-class read plus write).
    pub fn write_line(
        &mut self,
        now: Ps,
        line_addr: u64,
        data: [u8; LINE_BYTES],
        ecc: u64,
    ) -> Completion {
        let device = self.device_addr(line_addr);
        let completion = self
            .pcm
            .access(now, device, PcmOp::Write, AccessClass::Data);
        self.medium.store(device, data, ecc);
        if let Some(mv) = self.leveler.as_mut().and_then(StartGap::on_write) {
            let from = mv.from * LINE_BYTES as u64;
            let to = mv.to * LINE_BYTES as u64;
            self.pcm
                .access(completion.finish, from, PcmOp::Read, AccessClass::Metadata);
            self.pcm
                .access(completion.finish, to, PcmOp::Write, AccessClass::Metadata);
            self.medium.copy_line(from, to);
        }
        completion
    }

    /// A patrol read issued by the background scrub engine. Operates on a
    /// *device* address (scrubbing walks the physical array, so wear-level
    /// translation is not re-applied) and is charged under
    /// [`AccessClass::Scrub`]. The patrol read itself does not run the RBER
    /// sampler — the scrubber models an idealized maintenance read.
    pub fn scrub_read(&mut self, now: Ps, device_addr: u64) -> (Completion, Option<StoredLine>) {
        let completion = self
            .pcm
            .access(now, device_addr, PcmOp::Read, AccessClass::Scrub);
        (completion, self.medium.load(device_addr).copied())
    }

    /// A corrective rewrite issued by the scrub engine at a *device*
    /// address, charged under [`AccessClass::Scrub`]. Rewriting clears any
    /// accumulated fault drift on the line — but if the rewritten content
    /// differs from the injector's recorded ground truth (the decode the
    /// scrubber trusted was a miscorrection), the pristine shadow survives
    /// so later reads can still flag the line.
    pub fn scrub_write(
        &mut self,
        now: Ps,
        device_addr: u64,
        data: [u8; LINE_BYTES],
        ecc: u64,
    ) -> Completion {
        let completion = self
            .pcm
            .access(now, device_addr, PcmOp::Write, AccessClass::Scrub);
        self.medium.store_scrubbed(device_addr, data, ecc);
        completion
    }

    /// A metadata read (fingerprint NVMM lookup, AMT miss fill): timing and
    /// energy only.
    pub fn metadata_read(&mut self, now: Ps, line_addr: u64) -> Completion {
        self.pcm
            .access(now, line_addr, PcmOp::Read, AccessClass::Metadata)
    }

    /// A metadata write (fingerprint store insert, AMT spill): timing and
    /// energy only.
    pub fn metadata_write(&mut self, now: Ps, line_addr: u64) -> Completion {
        self.pcm
            .access(now, line_addr, PcmOp::Write, AccessClass::Metadata)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_returns_content() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        let w = nvmm.write_line(Ps::ZERO, 0, [3u8; LINE_BYTES], 99);
        let (r, line) = nvmm.read_line(w.finish, 0);
        let line = line.unwrap();
        assert_eq!(line.data, [3u8; LINE_BYTES]);
        assert_eq!(line.ecc, 99);
        assert!(r.start >= w.finish);
    }

    #[test]
    fn read_of_unwritten_line_is_none_but_still_timed() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        let (c, line) = nvmm.read_line(Ps::ZERO, 0x1000);
        assert!(line.is_none());
        assert!(c.finish > Ps::ZERO);
        assert_eq!(nvmm.stats().data.reads, 1);
    }

    #[test]
    fn metadata_accesses_are_classified_separately() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        nvmm.metadata_read(Ps::ZERO, 0);
        nvmm.metadata_write(Ps::ZERO, 64);
        assert_eq!(nvmm.stats().metadata.reads, 1);
        assert_eq!(nvmm.stats().metadata.writes, 1);
        assert_eq!(nvmm.stats().data.reads, 0);
        assert_eq!(
            nvmm.medium().lines_stored(),
            0,
            "metadata writes carry no content"
        );
    }

    #[test]
    fn wear_leveling_preserves_content_across_rotations() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        nvmm.enable_wear_leveling(16, 1); // gap moves on every write
        let mut now = Ps::ZERO;
        // Write distinct content to every leveled line, repeatedly, so the
        // mapping rotates through several full sweeps.
        for round in 0..8u8 {
            for line in 0..16u64 {
                let addr = line * 64;
                nvmm.write_line(now, addr, [round * 16 + line as u8; LINE_BYTES], 7);
                now += Ps::from_us(1);
            }
        }
        assert!(nvmm.wear_leveler().unwrap().total_moves() > 100);
        for line in 0..16u64 {
            let (_, stored) = nvmm.read_line(now, line * 64);
            assert_eq!(
                stored.unwrap().data,
                [7 * 16 + line as u8; LINE_BYTES],
                "line {line} content survived rotation"
            );
        }
    }

    #[test]
    fn wear_leveling_spreads_hot_line_writes() {
        let mut leveled = NvmmSystem::new(PcmConfig::default());
        leveled.enable_wear_leveling(64, 1);
        let mut plain = NvmmSystem::new(PcmConfig::default());
        let mut now = Ps::ZERO;
        for i in 0..3000u64 {
            leveled.write_line(now, 0, [i as u8; LINE_BYTES], 0);
            plain.write_line(now, 0, [i as u8; LINE_BYTES], 0);
            now += Ps::from_ns(500);
        }
        assert_eq!(plain.medium().max_wear(), 3000);
        assert!(
            leveled.medium().max_wear() < 1500,
            "leveling must spread the hot line (max wear {})",
            leveled.medium().max_wear()
        );
    }

    #[test]
    fn metadata_addresses_bypass_the_leveler() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        nvmm.enable_wear_leveling(16, 1);
        // An address far outside the leveled region is untouched.
        let far = 1u64 << 44;
        nvmm.write_line(Ps::ZERO, far, [9u8; LINE_BYTES], 0);
        let (_, stored) = nvmm.read_line(Ps::from_us(1), far);
        assert_eq!(stored.unwrap().data, [9u8; LINE_BYTES]);
    }

    #[test]
    #[should_panic(expected = "enable wear leveling before writing data")]
    fn late_leveling_enable_panics() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        nvmm.write_line(Ps::ZERO, 0, [0u8; LINE_BYTES], 0);
        nvmm.enable_wear_leveling(16, 1);
    }

    #[test]
    fn wear_visible_through_medium() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        nvmm.write_line(Ps::ZERO, 0, [0u8; LINE_BYTES], 0);
        nvmm.write_line(Ps::ZERO, 0, [1u8; LINE_BYTES], 1);
        assert_eq!(nvmm.medium().wear(0), 2);
    }
}
