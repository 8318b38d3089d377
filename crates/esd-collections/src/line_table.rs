//! A table keyed by 64-byte line address: an indexed array over the dense
//! prefix of line numbers, a hash map for everything beyond it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::fx::FxBuildHasher;

/// Bytes per line are `1 << LINE_SHIFT`.
const LINE_SHIFT: u32 = 6;

/// Possible bit widths of a line number: `0..=64 - LINE_SHIFT`.
const WIDTHS: usize = (u64::BITS - LINE_SHIFT) as usize + 1;

/// The line number of a 64-byte line address.
#[inline]
fn line_of(addr: u64) -> u64 {
    debug_assert!(
        addr.trailing_zeros() >= LINE_SHIFT,
        "{addr:#x} is not a 64-byte line address"
    );
    addr >> LINE_SHIFT
}

/// Bit width of a line number (`0` for line 0).
#[inline]
fn width_of(line: u64) -> usize {
    (u64::BITS - line.leading_zeros()) as usize
}

/// Per-line state keyed by 64-byte line address.
///
/// Lines `[0, n)` live in a plain array indexed by line number, so a
/// look-up is one bounds check, one occupancy bit and one load. Any line at
/// or beyond `n` lives in a `HashMap` with [`FxBuildHasher`]. `n` only
/// grows, to the smallest power of two that covers a new line, and only if
/// the array is then at least half full; growing moves the map entries it
/// covers into the array.
/// Addresses handed out densely from zero (the physical allocator's) thus
/// all land in the array, while scattered ones (identity-mapped logical
/// addresses, tenant-namespaced ones) stay in the map at what a map costs.
/// The map is the standard one rather than [`crate::U64Map`] because values
/// can be large (a medium cell is 80 bytes): it probes one-byte control
/// tags, where a linear probe over `U64Map`'s slots reads whole values.
///
/// Keys must be multiples of 64: the table indexes by line number, so an
/// unaligned address would alias its line. Debug builds assert it; callers
/// refuse unaligned addresses from outside the program where they enter.
///
/// The array reserves room for `n` lines but is filled only up to the
/// highest line stored, so memory not yet reached is never touched.
/// Vacant slots below it hold `V::default()`. There is no removal, and
/// iteration runs over the array in address order, then the map.
///
/// # Examples
///
/// ```
/// use esd_collections::LineTable;
/// let mut table: LineTable<u64> = LineTable::new();
/// *table.get_or_default(0x40) += 1;
/// *table.get_or_default(7 << 48) += 2; // far beyond the dense prefix
/// assert_eq!(table.get(0x40), Some(&1));
/// assert_eq!(table.get(0x80), None);
/// assert_eq!(table.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LineTable<V> {
    /// Lines `[0, span)` belong to the array; `span` is zero or a power of
    /// two.
    span: usize,
    /// Values of lines `[0, dense.len())`, `dense.len() <= span`; vacant
    /// ones hold the default.
    dense: Vec<V>,
    /// One bit per line below `span`, set where the line holds a value.
    present: Vec<u64>,
    /// Lines held in the array.
    dense_count: usize,
    /// Lines at or beyond `span`, keyed by address.
    sparse: HashMap<u64, V, FxBuildHasher>,
    /// `sparse` entries counted by the bit width of their line number, so
    /// a growth check knows how many entries it would take in without
    /// walking the map.
    sparse_widths: [usize; WIDTHS],
}

impl<V> Default for LineTable<V> {
    fn default() -> Self {
        LineTable::new()
    }
}

impl<V> LineTable<V> {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        LineTable {
            span: 0,
            dense: Vec::new(),
            present: Vec::new(),
            dense_count: 0,
            sparse: HashMap::default(),
            sparse_widths: [0; WIDTHS],
        }
    }

    /// Creates an empty table whose array already covers lines `[0, n)`,
    /// `n` being `lines` rounded up to a power of two (zero for zero), as
    /// if that many lines had been stored. For a caller that knows its keys
    /// fall densely in that range before it has stored them: the half-full
    /// rule would otherwise leave the high part of the range in the map
    /// until the table holds half of it. The array's memory is still
    /// touched only up to the highest line stored; lines from `n` on go to
    /// the map and grow the array by the usual rule.
    ///
    /// # Examples
    ///
    /// ```
    /// use esd_collections::LineTable;
    /// let mut table: LineTable<u32> = LineTable::with_dense_span(1_000);
    /// *table.get_or_default(1_023 * 64) = 7; // the array's last line
    /// *table.get_or_default(1_024 * 64) = 8; // the map's first
    /// assert_eq!(table.get(1_023 * 64), Some(&7));
    /// assert_eq!(table.len(), 2);
    /// ```
    #[must_use]
    pub fn with_dense_span(lines: usize) -> Self {
        let span = if lines == 0 {
            0
        } else {
            lines.next_power_of_two()
        };
        LineTable {
            span,
            dense: Vec::with_capacity(span),
            present: vec![0; span.div_ceil(64)],
            ..LineTable::new()
        }
    }

    /// Number of lines holding a value.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dense_count + self.sparse.len()
    }

    /// Whether no line holds a value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The array index of `line`, if the array covers it.
    #[inline]
    fn dense_index(&self, line: u64) -> Option<usize> {
        (line < self.span as u64).then_some(line as usize)
    }

    #[inline]
    fn is_present(&self, index: usize) -> bool {
        self.present[index / 64] & (1 << (index % 64)) != 0
    }

    /// The value of the line at `addr`.
    #[inline]
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<&V> {
        match self.dense_index(line_of(addr)) {
            Some(i) => self.is_present(i).then(|| &self.dense[i]),
            None => self.sparse.get(&addr),
        }
    }

    /// A mutable reference to the value of the line at `addr`.
    #[inline]
    #[must_use]
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut V> {
        match self.dense_index(line_of(addr)) {
            Some(i) => self.is_present(i).then(|| &mut self.dense[i]),
            None => self.sparse.get_mut(&addr),
        }
    }

    /// Iterates over `(address, &value)`: the array in address order, then
    /// the map in its own (deterministic) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.is_present(i))
            .map(|(i, value)| ((i as u64) << LINE_SHIFT, value))
            .chain(self.sparse.iter().map(|(&addr, value)| (addr, value)))
    }

    /// Iterates over `(address, &mut value)` in [`LineTable::iter`]'s order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> {
        let present = &self.present;
        self.dense
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| present[i / 64] & (1 << (i % 64)) != 0)
            .map(|(i, value)| ((i as u64) << LINE_SHIFT, value))
            .chain(self.sparse.iter_mut().map(|(&addr, value)| (addr, value)))
    }
}

impl<V: Default> LineTable<V> {
    /// A mutable reference to the value of the line at `addr`, inserting
    /// `V::default()` first if the line holds none.
    #[inline]
    pub fn get_or_default(&mut self, addr: u64) -> &mut V {
        let line = line_of(addr);
        if self.dense_index(line).is_some() || self.grow_over(line, addr) {
            return self.occupy(line as usize);
        }
        match self.sparse.entry(addr) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(entry) => {
                self.sparse_widths[width_of(line)] += 1;
                entry.insert(V::default())
            }
        }
    }

    /// The array slot of line `i < span`, extending the filled part over
    /// it and marking it present.
    fn occupy(&mut self, i: usize) -> &mut V {
        if !self.is_present(i) {
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, V::default);
            }
            self.present[i / 64] |= 1 << (i % 64);
            self.dense_count += 1;
        }
        &mut self.dense[i]
    }

    /// For a line at or beyond the array that the map does not hold yet:
    /// widens the array to the smallest power of two covering `line` if it
    /// would then be at least half full (counting a new entry at `line`),
    /// moving the map entries it now covers. Returns whether it grew.
    #[inline]
    fn grow_over(&mut self, line: u64, addr: u64) -> bool {
        // An array covering `line` spans more than `line` slots: it cannot
        // be half full unless the table holds about `line / 2` lines. Far
        // keys, the map's usual traffic, stop here.
        line < (self.len() as u64 + 1) * 2
            && !self.sparse.contains_key(&addr)
            && self.grow_to_cover(line)
    }

    /// [`LineTable::grow_over`] past its first test.
    #[inline(never)]
    fn grow_to_cover(&mut self, line: u64) -> bool {
        let span = (line + 1).next_power_of_two();
        if (self.len() + 1) as u64 * 2 < span {
            return false; // too far even if every entry fell below it
        }
        // The map's lines are at least `self.span`, so at least as wide as
        // it, and the lines below `2^k` are exactly those at most `k` wide.
        let widths = width_of(self.span as u64)..=span.trailing_zeros() as usize;
        let covered: usize = self.sparse_widths[widths].iter().sum();
        if (self.dense_count + covered + 1) as u64 * 2 < span {
            return false;
        }
        self.span = span as usize;
        self.dense.reserve_exact(self.span - self.dense.len());
        self.present.resize(self.span.div_ceil(64), 0);
        if covered > 0 {
            let moving: Vec<u64> = self
                .sparse
                .keys()
                .copied()
                .filter(|&addr| line_of(addr) < span)
                .collect();
            for addr in moving {
                let line = line_of(addr);
                self.sparse_widths[width_of(line)] -= 1;
                let value = self.sparse.remove(&addr).expect("a listed key is present");
                *self.occupy(line as usize) = value;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn matches_std_hashmap_over_dense_far_and_overtaken_keys() {
        // Three key populations: lines allocated densely from zero, far
        // tenant-namespaced lines `t << 48`, and a scattered band the
        // dense prefix only grows over once the allocator reaches it.
        let mut table: LineTable<u64> = LineTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x5EED_1234_ABCD_0001u64;
        let mut next_line = 0u64;
        for step in 0..60_000u64 {
            let draw = xorshift(&mut x);
            let addr = match draw % 8 {
                0..=2 => {
                    next_line += 1;
                    (next_line - 1) * 64
                }
                3 => (((draw >> 8) % 16) << 48) | ((draw >> 16) % 512 * 64),
                4 => (4_096 + (draw >> 8) % 8_192) * 64,
                _ => (draw >> 8) % (next_line + 1) * 64,
            };
            match (draw >> 40) % 4 {
                0 | 1 => {
                    *table.get_or_default(addr) += step;
                    *model.entry(addr).or_default() += step;
                }
                2 => {
                    if let Some(v) = table.get_mut(addr) {
                        *v ^= step;
                    }
                    if let Some(v) = model.get_mut(&addr) {
                        *v ^= step;
                    }
                }
                _ => {}
            }
            assert_eq!(table.get(addr), model.get(&addr), "step {step} {addr:#x}");
            assert_eq!(table.len(), model.len());
        }
        assert!(table.span >= 8_192 + 4_096, "the array grew over the band");
        assert!(!table.sparse.is_empty(), "far keys stay in the map");
        for (_, v) in table.iter_mut() {
            *v = v.wrapping_mul(3);
        }
        for v in model.values_mut() {
            *v = v.wrapping_mul(3);
        }
        let mut entries: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
        let dense_part = table.dense_count;
        assert!(
            entries[..dense_part].windows(2).all(|w| w[0].0 < w[1].0),
            "the array iterates in address order"
        );
        entries.sort_unstable();
        let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(entries, expected);
    }

    #[test]
    fn array_grows_only_while_half_full() {
        let mut table: LineTable<u8> = LineTable::new();
        *table.get_or_default(0) = 1;
        *table.get_or_default(7 * 64) = 1; // 2 of 8: stays in the map
        assert_eq!(table.span, 1);
        *table.get_or_default(2 * 64) = 1; // 3 of 4: grows, then 7 stays out
        assert_eq!(table.span, 4);
        *table.get_or_default(5 * 64) = 1; // 4 of 8: grows and takes line 7
        assert_eq!(table.span, 8);
        assert!(table.sparse.is_empty());
        assert_eq!(table.len(), 4);
        let keys: Vec<u64> = table.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, [0, 2 * 64, 5 * 64, 7 * 64]);
    }

    #[test]
    fn a_preset_span_holds_its_lines_in_the_array_from_the_first() {
        let mut table: LineTable<u32> = LineTable::with_dense_span(100);
        assert_eq!(table.span, 128);
        assert!(table.dense.is_empty(), "nothing is filled before a store");
        *table.get_or_default(127 * 64) = 1;
        *table.get_or_default(128 * 64) = 2;
        *table.get_or_default(3 << 48) = 3;
        assert_eq!(table.dense_count, 1);
        assert_eq!(table.sparse.len(), 2);
        assert_eq!(table.span, 128);
        let entries: Vec<(u64, u32)> = table.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(entries[0], (127 * 64, 1));
        assert_eq!(table.get(128 * 64), Some(&2));
        assert_eq!(table.get(3 << 48), Some(&3));
        assert_eq!(table.get(0), None);
        assert_eq!(LineTable::<u32>::with_dense_span(0).span, 0);
    }

    #[test]
    fn tenant_namespaced_keys_never_grow_the_array() {
        let mut table: LineTable<u64> = LineTable::new();
        for tenant in 1..=64u64 {
            for line in 0..64u64 {
                *table.get_or_default((tenant << 48) | (line * 64)) += 1;
            }
        }
        assert_eq!(table.span, 0);
        assert_eq!(table.len(), 64 * 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not a 64-byte line address")]
    fn unaligned_keys_are_refused_in_debug_builds() {
        let mut table: LineTable<u64> = LineTable::new();
        table.get_or_default(0x41);
    }
}
