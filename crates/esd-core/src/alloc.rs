//! Physical line allocation and reference counting for deduplicated NVMM.
//!
//! In a deduplication-based NVMM the logical (`initAddr`) space and the
//! physical line space diverge: many logical lines map onto one stored
//! physical line. The allocator hands out physical lines, counts references
//! from the address-mapping table, and recycles lines whose last reference
//! dropped.

use esd_sim::LINE_BYTES;

const LINE: u64 = LINE_BYTES as u64;

/// Allocates physical line addresses and tracks per-line reference counts.
///
/// # Examples
///
/// ```
/// use esd_core::PhysicalAllocator;
/// let mut alloc = PhysicalAllocator::new();
/// let line = alloc.allocate();
/// alloc.incref(line);
/// assert!(!alloc.decref(line)); // one reference left
/// assert!(alloc.decref(line));  // freed
/// ```
#[derive(Debug, Clone, Default)]
pub struct PhysicalAllocator {
    next: u64,
    free: Vec<u64>,
    /// Reference count of line `addr / LINE_BYTES`, zero while the line is
    /// unallocated. Lines are handed out densely from address zero, so the
    /// table is exactly `next / LINE_BYTES` long.
    counts: Vec<u32>,
    live: usize,
}

impl PhysicalAllocator {
    /// Creates an allocator with no lines handed out.
    #[must_use]
    pub fn new() -> Self {
        PhysicalAllocator::default()
    }

    /// Allocates a physical line with an initial reference count of one.
    pub fn allocate(&mut self) -> u64 {
        let addr = self.free.pop().unwrap_or_else(|| {
            let addr = self.next;
            self.next += LINE;
            self.counts.push(0);
            addr
        });
        self.counts[(addr / LINE) as usize] = 1;
        self.live += 1;
        addr
    }

    /// The count of an allocated line; `None` for a free, never handed
    /// out or misaligned address.
    fn count_mut(&mut self, addr: u64) -> Option<&mut u32> {
        let count = self.counts.get_mut((addr / LINE) as usize)?;
        (addr.is_multiple_of(LINE) && *count != 0).then_some(count)
    }

    /// Adds a reference to an allocated line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not currently allocated.
    pub fn incref(&mut self, addr: u64) {
        let count = self
            .count_mut(addr)
            .expect("incref of unallocated physical line");
        *count += 1;
    }

    /// Drops a reference; returns `true` when the line became free.
    ///
    /// # Panics
    ///
    /// Panics if the line is not currently allocated.
    pub fn decref(&mut self, addr: u64) -> bool {
        let count = self
            .count_mut(addr)
            .expect("decref of unallocated physical line");
        *count -= 1;
        if *count == 0 {
            self.live -= 1;
            self.free.push(addr);
            true
        } else {
            false
        }
    }

    /// Current reference count of a line (zero if unallocated).
    #[must_use]
    pub fn refcount(&self, addr: u64) -> u32 {
        match self.counts.get((addr / LINE) as usize) {
            Some(&count) if addr.is_multiple_of(LINE) => count,
            _ => 0,
        }
    }

    /// Number of physical lines currently allocated.
    #[must_use]
    pub fn live_lines(&self) -> usize {
        self.live
    }

    /// Highest physical address ever handed out (capacity watermark).
    #[must_use]
    pub fn high_watermark(&self) -> u64 {
        self.next
    }

    /// Iterates `(physical, refcount)` for every currently allocated line
    /// in address order (crash-recovery audit).
    pub fn refcounts(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count != 0)
            .map(|(line, &count)| (line as u64 * LINE, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_line_aligned_and_monotone() {
        let mut a = PhysicalAllocator::new();
        let p0 = a.allocate();
        let p1 = a.allocate();
        assert_eq!(p0, 0);
        assert_eq!(p1, 64);
        assert_eq!(a.live_lines(), 2);
        assert_eq!(a.high_watermark(), 128);
    }

    #[test]
    fn freed_lines_are_recycled() {
        let mut a = PhysicalAllocator::new();
        let p0 = a.allocate();
        assert!(a.decref(p0));
        let p1 = a.allocate();
        assert_eq!(p0, p1, "free list should be reused");
        assert_eq!(a.high_watermark(), 64);
    }

    #[test]
    fn refcounts_balance() {
        let mut a = PhysicalAllocator::new();
        let p = a.allocate();
        a.incref(p);
        a.incref(p);
        assert_eq!(a.refcount(p), 3);
        assert!(!a.decref(p));
        assert!(!a.decref(p));
        assert!(a.decref(p));
        assert_eq!(a.refcount(p), 0);
        assert_eq!(a.live_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "decref of unallocated")]
    fn decref_of_free_line_panics() {
        let mut a = PhysicalAllocator::new();
        a.decref(0);
    }

    #[test]
    #[should_panic(expected = "incref of unallocated")]
    fn incref_of_recycled_line_panics() {
        let mut a = PhysicalAllocator::new();
        let p = a.allocate();
        a.decref(p);
        a.incref(p);
    }

    #[test]
    #[should_panic(expected = "incref of unallocated")]
    fn incref_inside_an_allocated_line_panics() {
        // A dense table indexed by `addr / LINE_BYTES` must not let a
        // misaligned address alias the line it falls in.
        let mut a = PhysicalAllocator::new();
        let p = a.allocate();
        assert_eq!(a.refcount(p + 8), 0);
        a.incref(p + 8);
    }
}
