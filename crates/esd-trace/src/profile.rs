//! Per-application workload profiles, calibrated to the ESD paper's
//! workload characterization (Figures 1 and 3).
//!
//! The paper drives its evaluation with 12 SPEC CPU 2017 applications and 8
//! PARSEC 2.1 applications whose duplicate cache-line rates range from 33.1%
//! (*leela*) to 99.9% (*deepsjeng*, *roms*), averaging 62.9%, and whose
//! duplicate references are heavily skewed (content locality). We cannot
//! ship SPEC/PARSEC binaries or gem5 traces, so each application is
//! summarized by the statistical profile below and regenerated synthetically
//! — the substitution recorded in `DESIGN.md`.

/// Which benchmark suite an application belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU 2017.
    Spec2017,
    /// PARSEC 2.1.
    Parsec,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Spec2017 => f.write_str("SPEC CPU 2017"),
            Suite::Parsec => f.write_str("PARSEC 2.1"),
        }
    }
}

/// Statistical profile of one application's LLC-eviction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name as used in the paper's figures.
    pub name: String,
    /// Source suite.
    pub suite: Suite,
    /// Fraction of written lines whose content was written before
    /// (the paper's Figure 1 duplicate rate).
    pub dup_rate: f64,
    /// Fraction of all writes that carry the all-zero line.
    pub zero_fraction: f64,
    /// Age-bias exponent for duplicate-content draws (content locality,
    /// Figure 3): duplicate writes pick among previously written contents
    /// with probability density skewed toward the *oldest* contents by this
    /// exponent, so larger values concentrate references on fewer lines.
    pub content_skew: f64,
    /// Distinct line addresses the application touches.
    pub working_set_lines: usize,
    /// Fraction of accesses that are demand reads.
    pub read_fraction: f64,
    /// Mean aggregate instructions between successive memory accesses
    /// (lower = more memory-bound).
    pub mean_instruction_gap: u32,
}

impl AppProfile {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &str,
        suite: Suite,
        dup_rate: f64,
        zero_fraction: f64,
        content_skew: f64,
        working_set_lines: usize,
        read_fraction: f64,
        mean_instruction_gap: u32,
    ) -> Self {
        assert!((0.0..=1.0).contains(&dup_rate));
        assert!((0.0..=1.0).contains(&zero_fraction));
        assert!(
            zero_fraction <= dup_rate + 1e-9,
            "zero lines are duplicates"
        );
        assert!((0.0..1.0).contains(&read_fraction));
        AppProfile {
            name: name.to_owned(),
            suite,
            dup_rate,
            zero_fraction,
            content_skew,
            working_set_lines,
            read_fraction,
            mean_instruction_gap,
        }
    }

    /// The 12 SPEC CPU 2017 applications used in the paper.
    #[must_use]
    pub fn spec2017() -> Vec<AppProfile> {
        use Suite::Spec2017 as S;
        vec![
            AppProfile::new("cactuBSSN", S, 0.47, 0.10, 2.2, 192 << 10, 0.58, 650),
            AppProfile::new("deepsjeng", S, 0.999, 0.90, 4.0, 96 << 10, 0.52, 950),
            AppProfile::new("gcc", S, 0.56, 0.15, 2.5, 256 << 10, 0.60, 750),
            AppProfile::new("imagick", S, 0.50, 0.12, 2.0, 160 << 10, 0.55, 800),
            AppProfile::new("lbm", S, 0.86, 0.05, 3.5, 224 << 10, 0.45, 225),
            AppProfile::new("leela", S, 0.331, 0.08, 1.6, 128 << 10, 0.62, 1050),
            AppProfile::new("mcf", S, 0.83, 0.10, 3.2, 288 << 10, 0.48, 300),
            AppProfile::new("nab", S, 0.42, 0.08, 2.0, 144 << 10, 0.57, 850),
            AppProfile::new("namd", S, 0.45, 0.10, 2.0, 160 << 10, 0.56, 825),
            AppProfile::new("roms", S, 0.999, 0.85, 4.0, 112 << 10, 0.50, 500),
            AppProfile::new("wrf", S, 0.61, 0.15, 2.5, 208 << 10, 0.55, 700),
            AppProfile::new("xalancbmk", S, 0.53, 0.12, 2.2, 176 << 10, 0.60, 775),
        ]
    }

    /// The 8 PARSEC 2.1 applications used in the paper.
    #[must_use]
    pub fn parsec() -> Vec<AppProfile> {
        use Suite::Parsec as P;
        vec![
            AppProfile::new("blackscholes", P, 0.72, 0.25, 3.2, 96 << 10, 0.55, 875),
            AppProfile::new("bodytrack", P, 0.58, 0.15, 2.2, 128 << 10, 0.58, 750),
            AppProfile::new("dedup", P, 0.78, 0.20, 3.4, 192 << 10, 0.50, 450),
            AppProfile::new("facesim", P, 0.66, 0.18, 2.6, 160 << 10, 0.54, 625),
            AppProfile::new("fluidanimate", P, 0.63, 0.15, 2.6, 176 << 10, 0.52, 550),
            AppProfile::new("rtview", P, 0.55, 0.12, 2.2, 144 << 10, 0.60, 800),
            AppProfile::new("swaptions", P, 0.49, 0.10, 2.0, 112 << 10, 0.57, 900),
            AppProfile::new("x264", P, 0.69, 0.18, 2.8, 160 << 10, 0.53, 600),
        ]
    }

    /// All 20 applications, SPEC first, in the paper's figure order.
    #[must_use]
    pub fn all() -> Vec<AppProfile> {
        let mut v = AppProfile::spec2017();
        v.extend(AppProfile::parsec());
        v
    }

    /// Looks up a profile by its figure name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<AppProfile> {
        AppProfile::all().into_iter().find(|p| p.name == name)
    }

    /// A small fast-running profile for examples and tests.
    #[must_use]
    pub fn demo() -> AppProfile {
        AppProfile::new("demo", Suite::Spec2017, 0.60, 0.20, 2.5, 4096, 0.5, 200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_applications_in_paper_order() {
        let all = AppProfile::all();
        assert_eq!(all.len(), 20);
        assert_eq!(all[0].name, "cactuBSSN");
        assert_eq!(all[12].name, "blackscholes");
        assert!(all[..12].iter().all(|p| p.suite == Suite::Spec2017));
        assert!(all[12..].iter().all(|p| p.suite == Suite::Parsec));
    }

    #[test]
    fn duplicate_rates_match_paper_envelope() {
        let all = AppProfile::all();
        let mean: f64 = all.iter().map(|p| p.dup_rate).sum::<f64>() / all.len() as f64;
        // Paper: 33.1%..99.9% with an average of 62.9%.
        assert!((0.55..=0.70).contains(&mean), "mean dup rate {mean}");
        let min = all.iter().map(|p| p.dup_rate).fold(1.0f64, f64::min);
        let max = all.iter().map(|p| p.dup_rate).fold(0.0f64, f64::max);
        assert!((min - 0.331).abs() < 1e-9, "min must be leela's 33.1%");
        assert!(max > 0.99, "deepsjeng/roms are ~99.9% duplicate");
    }

    #[test]
    fn zero_heavy_apps_are_deepsjeng_and_roms() {
        for name in ["deepsjeng", "roms"] {
            let p = AppProfile::by_name(name).unwrap();
            assert!(p.zero_fraction > 0.8, "{name} is dominated by zero lines");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(AppProfile::by_name("lbm").is_some());
        assert!(AppProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn suite_display() {
        assert_eq!(Suite::Spec2017.to_string(), "SPEC CPU 2017");
        assert_eq!(Suite::Parsec.to_string(), "PARSEC 2.1");
    }
}
