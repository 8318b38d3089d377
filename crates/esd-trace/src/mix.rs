//! Multi-programmed workload mixes: interleave several applications'
//! access streams the way co-running processes share one memory controller.
//!
//! The paper's system has eight cores; mixes let the dedup schemes face
//! content from *different* applications simultaneously — cross-application
//! duplicates (zero lines, shared constants) still dedup, while each
//! application's private content competes for EFIT/AMT capacity.

use crate::access::Trace;

/// Interleaves traces by simulated progress: at each step the stream whose
/// cursor has consumed the fewest instructions emits its next access.
/// Address spaces are disambiguated by offsetting each input trace into its
/// own region (`region_bytes` apart); contents are left untouched, so
/// cross-application duplicates remain duplicates.
///
/// # Panics
///
/// Panics if `traces` is empty or `region_bytes` is not 64-byte aligned.
///
/// # Examples
///
/// ```
/// use esd_trace::{generate_trace, interleave_traces, AppProfile};
/// let a = generate_trace(&AppProfile::by_name("gcc").unwrap(), 1, 100);
/// let b = generate_trace(&AppProfile::by_name("lbm").unwrap(), 1, 200);
/// let mix = interleave_traces(&[a, b], 1 << 32);
/// assert_eq!(mix.len(), 300);
/// assert_eq!(mix.name, "mix(gcc+lbm)");
/// ```
#[must_use]
pub fn interleave_traces(traces: &[Trace], region_bytes: u64) -> Trace {
    assert!(!traces.is_empty(), "need at least one trace to mix");
    assert_eq!(region_bytes % 64, 0, "regions must be line-aligned");

    let name = format!(
        "mix({})",
        traces
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join("+")
    );
    let mut mixed = Trace::new(name);
    mixed.accesses.reserve(traces.iter().map(Trace::len).sum());

    // Per-stream cursor and instruction progress.
    let mut cursors = vec![0usize; traces.len()];
    let mut progress = vec![0u64; traces.len()];

    loop {
        // The least-advanced stream with records remaining goes next.
        let next = (0..traces.len())
            .filter(|&i| cursors[i] < traces[i].len())
            .min_by_key(|&i| progress[i]);
        let Some(i) = next else { break };
        let mut access = traces[i].accesses[cursors[i]];
        access.addr += region_bytes * i as u64;
        progress[i] += u64::from(access.instruction_gap);
        cursors[i] += 1;
        mixed.accesses.push(access);
    }
    mixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Access, AccessKind};
    use crate::line::CacheLine;

    fn trace_of(name: &str, gaps: &[u32]) -> Trace {
        let mut t = Trace::new(name);
        for (i, &gap) in gaps.iter().enumerate() {
            t.accesses
                .push(Access::write((i as u64) * 64, CacheLine::from_fill(1), gap));
        }
        t
    }

    #[test]
    fn all_records_survive_the_mix() {
        let a = trace_of("a", &[10, 10, 10]);
        let b = trace_of("b", &[5, 5]);
        let mix = interleave_traces(&[a, b], 1 << 20);
        assert_eq!(mix.len(), 5);
        assert_eq!(mix.name, "mix(a+b)");
    }

    #[test]
    fn interleaving_follows_instruction_progress() {
        // Stream a issues every 100 instructions, stream b every 10: b
        // should emit ~10 records per record of a.
        let a = trace_of("a", &[100; 3]);
        let b = trace_of("b", &[10; 30]);
        let mix = interleave_traces(&[a, b], 1 << 20);
        // The first 10 records must be dominated by stream b (offset region).
        let early_b = mix.accesses[..10]
            .iter()
            .filter(|acc| acc.addr >= 1 << 20)
            .count();
        assert!(early_b >= 8, "only {early_b} of the first 10 came from b");
    }

    #[test]
    fn regions_do_not_collide() {
        let a = trace_of("a", &[1; 4]);
        let b = trace_of("b", &[1; 4]);
        let mix = interleave_traces(&[a, b], 1 << 20);
        let regions: std::collections::HashSet<u64> =
            mix.accesses.iter().map(|acc| acc.addr >> 20).collect();
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn content_is_untouched_so_cross_app_dups_remain() {
        let a = trace_of("a", &[1; 2]);
        let b = trace_of("b", &[1; 2]);
        let mix = interleave_traces(&[a, b], 1 << 20);
        assert!(mix
            .accesses
            .iter()
            .all(|acc| acc.kind == AccessKind::Write && acc.data == Some(CacheLine::from_fill(1))));
        assert!(crate::analysis::duplicate_rate(&mix) > 0.7);
    }

    #[test]
    #[should_panic(expected = "need at least one trace")]
    fn empty_mix_panics() {
        let _ = interleave_traces(&[], 1 << 20);
    }
}
