//! Start-Gap wear leveling (Qureshi et al., MICRO'09) — the standard
//! low-overhead address-rotation scheme for PCM endurance.
//!
//! Deduplication reduces *total* writes; wear leveling spreads the
//! remaining writes evenly. Start-Gap keeps one spare ("gap") line and two
//! registers: every `gap_interval` writes the gap swaps with its neighbor,
//! slowly rotating the logical-to-physical mapping so no physical line
//! stays under a write hot spot. The mapping is computable from the two
//! registers alone — no table.

/// A gap movement: the caller must copy `from`'s content into `to`
/// (one device read plus one device write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMove {
    /// Physical line index whose content moves.
    pub from: u64,
    /// Physical line index that receives it (the old gap).
    pub to: u64,
}

/// The Start-Gap wear-leveling engine over a region of `lines` logical
/// lines (using `lines + 1` physical lines).
///
/// # Examples
///
/// ```
/// use esd_sim::StartGap;
/// let mut sg = StartGap::new(8, 4);
/// let before = sg.translate(3);
/// // Enough writes to move the gap through several positions:
/// for _ in 0..40 {
///     let _ = sg.on_write();
/// }
/// assert_ne!(sg.translate(3), before, "mapping rotates over time");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartGap {
    lines: u64,
    gap: u64,
    start: u64,
    gap_interval: u32,
    writes_since_move: u32,
    total_moves: u64,
}

impl StartGap {
    /// Creates a wear leveler for `lines` logical lines, moving the gap
    /// every `gap_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `gap_interval` is zero.
    #[must_use]
    pub fn new(lines: u64, gap_interval: u32) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(gap_interval > 0, "gap interval must be nonzero");
        StartGap {
            lines,
            gap: lines, // physical index `lines` starts as the spare
            start: 0,
            gap_interval,
            writes_since_move: 0,
            total_moves: 0,
        }
    }

    /// Number of logical lines covered.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Total gap movements so far (each cost one read + one write).
    #[must_use]
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Translates a logical line index to its current physical line index.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    #[must_use]
    pub fn translate(&self, logical: u64) -> u64 {
        assert!(logical < self.lines, "logical line out of range");
        let rotated = (logical + self.start) % self.lines;
        if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        }
    }

    /// Notifies the leveler of one write. Every `gap_interval` writes it
    /// returns a [`GapMove`] the caller must perform (copy one line).
    pub fn on_write(&mut self) -> Option<GapMove> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.gap_interval {
            return None;
        }
        self.writes_since_move = 0;
        self.total_moves += 1;
        let mv = if self.gap == 0 {
            // Wrap: the gap jumps back to the top and the rotation register
            // advances, shifting every logical line by one. The line at the
            // top physical slot moves into the old gap at position 0.
            self.gap = self.lines;
            self.start = (self.start + 1) % self.lines;
            GapMove {
                from: self.lines,
                to: 0,
            }
        } else {
            let mv = GapMove {
                from: self.gap - 1,
                to: self.gap,
            };
            self.gap -= 1;
            mv
        };
        Some(mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn translation_is_a_bijection_at_every_rotation_state() {
        let mut sg = StartGap::new(16, 1);
        for _step in 0..200 {
            let mapped: HashSet<u64> = (0..16).map(|l| sg.translate(l)).collect();
            assert_eq!(mapped.len(), 16, "mapping must stay injective");
            for p in &mapped {
                assert!(*p <= 16, "physical index in range");
                assert_ne!(*p, sg.gap, "nothing maps onto the gap");
            }
            sg.on_write();
        }
    }

    #[test]
    fn gap_moves_every_interval() {
        let mut sg = StartGap::new(8, 4);
        for i in 1..=12 {
            let mv = sg.on_write();
            if i % 4 == 0 {
                assert!(mv.is_some(), "write {i}");
            } else {
                assert!(mv.is_none(), "write {i}");
            }
        }
        assert_eq!(sg.total_moves(), 3);
    }

    #[test]
    fn gap_move_copies_neighbor_into_gap() {
        let mut sg = StartGap::new(4, 1);
        // Gap starts at 4; first move copies 3 -> 4.
        assert_eq!(sg.on_write(), Some(GapMove { from: 3, to: 4 }));
        assert_eq!(sg.on_write(), Some(GapMove { from: 2, to: 3 }));
    }

    #[test]
    fn wrap_move_carries_top_line_into_slot_zero() {
        let lines = 4u64;
        let mut sg = StartGap::new(lines, 1);
        for _ in 0..lines {
            sg.on_write(); // gap walks 4 -> 3 -> 2 -> 1 -> 0
        }
        assert_eq!(
            sg.on_write(),
            Some(GapMove { from: lines, to: 0 }),
            "wrap must move the top physical line into the old gap at 0"
        );
    }

    #[test]
    fn moves_keep_translation_consistent_with_content() {
        // Simulate the physical array: content[PA] holds the logical id.
        // After every move (applied as the caller would), translate(L) must
        // point at L's content.
        let lines = 6u64;
        let mut sg = StartGap::new(lines, 1);
        let mut content: Vec<Option<u64>> = vec![None; lines as usize + 1];
        for l in 0..lines {
            content[sg.translate(l) as usize] = Some(l);
        }
        for step in 0..200 {
            if let Some(mv) = sg.on_write() {
                content[mv.to as usize] = content[mv.from as usize];
            }
            for l in 0..lines {
                assert_eq!(
                    content[sg.translate(l) as usize],
                    Some(l),
                    "logical {l} lost at step {step}"
                );
            }
        }
    }

    #[test]
    fn full_rotation_shifts_the_mapping() {
        let lines = 4u64;
        let mut sg = StartGap::new(lines, 1);
        let initial: Vec<u64> = (0..lines).map(|l| sg.translate(l)).collect();
        // One full gap sweep = lines + 1 moves returns the gap to the top
        // with start advanced by one.
        for _ in 0..(lines + 1) {
            sg.on_write();
        }
        let after: Vec<u64> = (0..lines).map(|l| sg.translate(l)).collect();
        assert_ne!(initial, after, "rotation must shift the map");
    }

    #[test]
    fn hot_line_wear_spreads_over_time() {
        // Hammer one logical line long enough for many full gap sweeps
        // (`start` advances once per `lines + 1` gap moves): its physical
        // target must migrate across most of the region.
        let mut sg = StartGap::new(64, 1);
        let mut targets = HashSet::new();
        for _ in 0..65 * 64 {
            targets.insert(sg.translate(5));
            sg.on_write();
        }
        assert!(
            targets.len() > 32,
            "hot logical line hit only {} physical lines",
            targets.len()
        );
    }

    #[test]
    #[should_panic(expected = "logical line out of range")]
    fn out_of_range_translation_panics() {
        let sg = StartGap::new(4, 1);
        let _ = sg.translate(4);
    }
}
