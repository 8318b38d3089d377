//! Internal calibration probe (not part of the figure suite).
fn main() {
    let accesses = 500_000;
    let config = esd_sim::SystemConfig::default();
    for name in ["gcc", "leela", "x264"] {
        let p = esd_trace::AppProfile::by_name(name).unwrap();
        let trace = esd_trace::generate_trace(&p, 42, accesses);
        for (label, policy, decay) in [
            ("lrcu-8k", esd_core::EfitPolicy::Lrcu, 8192u64),
            ("lrcu-64k", esd_core::EfitPolicy::Lrcu, 65536),
            ("lrcu-never", esd_core::EfitPolicy::Lrcu, u64::MAX),
            ("lru", esd_core::EfitPolicy::Lru, 8192),
        ] {
            let mut s = esd_core::Scheme::with_policy(&config, policy);
            s.efit_decay_interval(decay);
            let r = esd_core::run_trace(&s, &trace, &config, false).unwrap();
            println!("{name}/{label}: efit_hit {:.4} dedup {}",
                r.fingerprint_cache.map_or(0.0,|c| c.hit_rate()),
                r.stats.writes_deduplicated);
        }
    }
}
