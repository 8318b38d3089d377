//! The background scrub engine: patrol-reads the medium, re-decodes every
//! stored line against its ECC, and rewrites lines whose errors are still
//! correctable before they accumulate into uncorrectable ones.
//!
//! Scrubbing is the standard mitigation for the persistent read-disturb /
//! drift model the RBER injector implements: a single-bit error caught by a
//! patrol read is repaired (one scrub-class read plus one scrub-class
//! write, both charged to the PCM timing/energy model); a line left alone
//! keeps accumulating flips until SEC-DED can no longer correct it.
//! Uncorrectable lines are counted and left in place — the scrubber has no
//! ground truth to restore them from.
//!
//! The walk visits stored *device* addresses in ascending order and resumes
//! from a cursor, so interleaving scrub ticks with demand traffic is
//! deterministic regardless of hash-map iteration order.

use esd_sim::{NvmmSystem, Ps};

/// Cumulative counters for one [`Scrubber`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Scrub ticks executed.
    pub ticks: u64,
    /// Stored lines patrol-read.
    pub lines_scanned: u64,
    /// Lines found with correctable errors and rewritten clean.
    pub lines_corrected: u64,
    /// 8-byte words corrected across all rewritten lines.
    pub words_corrected: u64,
    /// Lines found uncorrectable (left in place, counted).
    pub lines_uncorrectable: u64,
    /// Rewrites whose decode was a *miscorrection* (rewritten content
    /// differs from the fault injector's ground truth). The scrubber — like
    /// real hardware — cannot tell and rewrites anyway, but the medium
    /// keeps the pristine shadow so later demand reads flag the line as
    /// miscorrected instead of presenting laundered wrong data as clean.
    /// Always zero when fault injection is off (no ground truth to check).
    pub lines_miscorrected: u64,
}

/// An incremental background scrubber over one NVMM system.
///
/// # Examples
///
/// ```
/// use esd_core::Scrubber;
/// use esd_sim::{NvmmSystem, PcmConfig, Ps};
///
/// let mut nvmm = NvmmSystem::new(PcmConfig::default());
/// let ecc = esd_ecc::encode_line(&[7u8; 64]).to_u64();
/// nvmm.write_line(Ps::ZERO, 0x40, [7u8; 64], ecc);
/// nvmm.medium_mut().inject_bit_flip(0x40, 0, 0);
///
/// let mut scrubber = Scrubber::new(usize::MAX);
/// scrubber.tick(&mut nvmm, Ps::from_us(1));
/// assert_eq!(scrubber.stats().lines_corrected, 1);
/// assert_eq!(nvmm.medium().load(0x40).unwrap().data, [7u8; 64]);
/// ```
#[derive(Debug, Clone)]
pub struct Scrubber {
    /// Stored lines visited per tick (`usize::MAX` for a full pass).
    lines_per_tick: usize,
    /// Resume point: the next tick starts at the first stored address
    /// strictly greater than this, wrapping to the lowest address.
    cursor: Option<u64>,
    stats: ScrubStats,
}

impl Scrubber {
    /// Creates a scrubber visiting at most `lines_per_tick` stored lines
    /// per [`Scrubber::tick`].
    ///
    /// # Panics
    ///
    /// Panics if `lines_per_tick` is zero.
    #[must_use]
    pub fn new(lines_per_tick: usize) -> Self {
        assert!(
            lines_per_tick > 0,
            "a scrub tick must visit at least one line"
        );
        Scrubber {
            lines_per_tick,
            cursor: None,
            stats: ScrubStats::default(),
        }
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> ScrubStats {
        self.stats
    }

    /// Runs one scrub tick starting at `now`: patrol-reads up to
    /// `lines_per_tick` stored lines (resuming from the previous tick's
    /// cursor), rewrites any correctable line with freshly re-encoded ECC,
    /// and counts uncorrectable ones. Device timing and energy are charged
    /// under [`esd_sim::AccessClass::Scrub`]. Returns the completion time
    /// of the last scrub operation (`now` if nothing was stored).
    pub fn tick(&mut self, nvmm: &mut NvmmSystem, now: Ps) -> Ps {
        self.stats.ticks += 1;
        let addrs = nvmm.medium().addresses_sorted();
        if addrs.is_empty() {
            return now;
        }
        // Resume after the cursor, wrapping: rotate the walk so it starts
        // at the first address beyond the last visited one.
        let start = match self.cursor {
            Some(cursor) => addrs.partition_point(|&a| a <= cursor) % addrs.len(),
            None => 0,
        };
        let count = self.lines_per_tick.min(addrs.len());
        let mut t = now;
        let mut last = None;
        for i in 0..count {
            let addr = addrs[(start + i) % addrs.len()];
            last = Some(addr);
            self.stats.lines_scanned += 1;
            let (completion, stored) = nvmm.scrub_read(t, addr);
            t = completion.finish;
            let Some(stored) = stored else { continue };
            match esd_ecc::decode_line(&stored.data, esd_ecc::LineEcc::from_u64(stored.ecc)) {
                Ok(decoded) if decoded.corrected_words > 0 => {
                    // Rewrite the corrected content with freshly encoded
                    // ECC: this clears accumulated data *and* ECC-bit
                    // drift. If the decode was actually a miscorrection
                    // (ground truth available and differing), the medium
                    // preserves its pristine shadow so the laundered line
                    // is still flagged on later demand reads.
                    if nvmm
                        .medium()
                        .pristine(addr)
                        .is_some_and(|p| p.data != decoded.line)
                    {
                        self.stats.lines_miscorrected += 1;
                    }
                    let ecc = esd_ecc::encode_line(&decoded.line).to_u64();
                    let completion = nvmm.scrub_write(t, addr, decoded.line, ecc);
                    t = completion.finish;
                    self.stats.lines_corrected += 1;
                    self.stats.words_corrected += decoded.corrected_words as u64;
                }
                Ok(_) => {}
                Err(_) => self.stats.lines_uncorrectable += 1,
            }
        }
        self.cursor = last;
        t
    }
}

#[cfg(test)]
mod tests {
    use esd_sim::{PcmConfig, LINE_BYTES};

    use super::*;

    fn write(nvmm: &mut NvmmSystem, addr: u64, fill: u8) {
        let data = [fill; LINE_BYTES];
        let ecc = esd_ecc::encode_line(&data).to_u64();
        nvmm.write_line(Ps::ZERO, addr, data, ecc);
    }

    #[test]
    fn corrects_single_flips_and_leaves_double_flips() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        write(&mut nvmm, 0x00, 1); // stays clean
        write(&mut nvmm, 0x40, 2); // single data flip -> repaired
        write(&mut nvmm, 0x80, 3); // single stored-ECC flip -> repaired
        write(&mut nvmm, 0xC0, 4); // double flip -> uncorrectable
        nvmm.medium_mut().inject_bit_flip(0x40, 9, 3);
        nvmm.medium_mut().inject_bit_flip(0x80, LINE_BYTES + 2, 6);
        nvmm.medium_mut().inject_bit_flip(0xC0, 0, 0);
        nvmm.medium_mut().inject_bit_flip(0xC0, 0, 1);

        let mut scrubber = Scrubber::new(usize::MAX);
        let finish = scrubber.tick(&mut nvmm, Ps::from_us(1));
        assert!(finish > Ps::from_us(1), "scrub work takes device time");

        let s = scrubber.stats();
        assert_eq!(s.lines_scanned, 4);
        assert_eq!(s.lines_corrected, 2);
        assert_eq!(s.words_corrected, 2);
        assert_eq!(s.lines_uncorrectable, 1);
        // The repaired lines decode clean again (drift cleared).
        for (addr, fill) in [(0x40u64, 2u8), (0x80, 3)] {
            let stored = *nvmm.medium().load(addr).unwrap();
            let d =
                esd_ecc::decode_line(&stored.data, esd_ecc::LineEcc::from_u64(stored.ecc)).unwrap();
            assert_eq!(d.corrected_words, 0, "line {addr:#x} is clean");
            assert_eq!(d.line, [fill; LINE_BYTES]);
        }
        // Scrub traffic was charged to its own class.
        assert_eq!(nvmm.stats().scrub.reads, 4);
        assert_eq!(nvmm.stats().scrub.writes, 2);
        assert!(nvmm.stats().scrub.energy.as_pj() > 0);
    }

    #[test]
    fn incremental_ticks_cover_the_medium_in_address_order() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        for i in 0..6u64 {
            write(&mut nvmm, i * 64, i as u8);
            nvmm.medium_mut().inject_bit_flip(i * 64, 0, 0);
        }
        let mut scrubber = Scrubber::new(2);
        let mut now = Ps::from_us(1);
        for _ in 0..3 {
            now = scrubber.tick(&mut nvmm, now);
        }
        let s = scrubber.stats();
        assert_eq!(s.ticks, 3);
        assert_eq!(s.lines_scanned, 6);
        assert_eq!(
            s.lines_corrected, 6,
            "three 2-line ticks cover all six lines"
        );
    }

    #[test]
    fn miscorrective_rewrite_is_counted_and_does_not_launder_ground_truth() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        // Pristine tracking only (no random flips), so targeted injections
        // below are recorded as drift away from known ground truth.
        nvmm.medium_mut().enable_fault_injection(0, 0);
        write(&mut nvmm, 0x40, 9);
        // Data bits 0,1,2 of word 0 sit at Hamming codeword positions
        // 3, 5 and 6; their syndromes XOR to zero, leaving odd overall
        // parity — SEC-DED "corrects" the parity bit and returns wrong
        // data while claiming success.
        for bit in 0..3 {
            nvmm.medium_mut().inject_bit_flip(0x40, 0, bit);
        }

        let mut scrubber = Scrubber::new(usize::MAX);
        scrubber.tick(&mut nvmm, Ps::from_us(1));
        assert_eq!(scrubber.stats().lines_corrected, 1);
        assert_eq!(scrubber.stats().lines_miscorrected, 1);

        // The rewritten line decodes clean but carries wrong content; the
        // preserved pristine shadow is what lets demand reads flag it.
        let stored = *nvmm.medium().load(0x40).unwrap();
        let d = esd_ecc::decode_line(&stored.data, esd_ecc::LineEcc::from_u64(stored.ecc))
            .expect("laundered line decodes");
        assert_eq!(d.corrected_words, 0);
        assert_ne!(d.line, [9u8; LINE_BYTES], "content is wrong");
        let pristine = nvmm.medium().pristine(0x40).unwrap();
        assert_eq!(pristine.data, [9u8; LINE_BYTES], "ground truth survives");
    }

    #[test]
    fn empty_medium_is_a_cheap_no_op() {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        let mut scrubber = Scrubber::new(8);
        assert_eq!(scrubber.tick(&mut nvmm, Ps::from_us(3)), Ps::from_us(3));
        assert_eq!(scrubber.stats().lines_scanned, 0);
        assert_eq!(nvmm.stats().scrub.reads, 0);
    }
}
