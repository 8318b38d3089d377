//! Memory-access records: the LLC-miss/eviction stream a trace replays.

use crate::line::CacheLine;

/// Whether an access is a demand read (LLC miss) or a write-back (eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Demand read that missed the whole cache hierarchy.
    Read,
    /// Dirty-line eviction from the LLC toward main memory.
    Write,
}

/// One record of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Read or write.
    pub kind: AccessKind,
    /// Line-aligned *logical* address (the `initAddr` of the paper's AMT).
    pub addr: u64,
    /// Content being written. `None` for reads (the content comes back from
    /// the memory system).
    pub data: Option<CacheLine>,
    /// Aggregate instructions executed since the previous record.
    pub instruction_gap: u32,
}

impl Access {
    /// Creates a read record.
    #[must_use]
    pub fn read(addr: u64, instruction_gap: u32) -> Self {
        Access {
            kind: AccessKind::Read,
            addr,
            data: None,
            instruction_gap,
        }
    }

    /// Creates a write record.
    #[must_use]
    pub fn write(addr: u64, data: CacheLine, instruction_gap: u32) -> Self {
        Access {
            kind: AccessKind::Write,
            addr,
            data: Some(data),
            instruction_gap,
        }
    }
}

/// A complete trace: the access stream plus the name of the workload that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Workload name (e.g. `"lbm"`).
    pub name: String,
    /// The access stream, in program order.
    pub accesses: Vec<Access>,
}

impl Trace {
    /// Creates an empty trace for a named workload.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            accesses: Vec::new(),
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates over the records in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// Number of write records.
    #[must_use]
    pub fn write_count(&self) -> usize {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count()
    }

    /// Number of read records.
    #[must_use]
    pub fn read_count(&self) -> usize {
        self.len() - self.write_count()
    }

    /// Total instructions across all gaps.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.accesses
            .iter()
            .map(|a| u64::from(a.instruction_gap))
            .sum()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl Extend<Access> for Trace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_payload() {
        let r = Access::read(0x40, 100);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(r.data.is_none());
        let w = Access::write(0x80, CacheLine::from_fill(1), 200);
        assert_eq!(w.kind, AccessKind::Write);
        assert!(w.data.is_some());
    }

    #[test]
    fn trace_counts() {
        let mut t = Trace::new("demo");
        t.extend([
            Access::read(0, 10),
            Access::write(64, CacheLine::ZERO, 20),
            Access::write(128, CacheLine::ZERO, 30),
        ]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.write_count(), 2);
        assert_eq!(t.read_count(), 1);
        assert_eq!(t.total_instructions(), 60);
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
    }
}
