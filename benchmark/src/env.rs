//! Pinning the environment: no ambient `ESD_*` variable may reach the
//! measured crates, and what the numbers were taken on is recorded.

use esd_core::RunOptions;
use esd_kernels::KernelBackend;
use esd_sim::SystemConfig;

/// Removes every `ESD_*` variable from this process's environment.
/// `RunOptions::default()` and `Sweep::new` read eight of them, so an
/// ambient `ESD_SHARDS=4` would silently change every number. Call before
/// any crate call and before any thread starts.
pub fn scrub() {
    let ambient: Vec<_> = std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("ESD_"))
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }
}

/// Logical cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The replay options every end-to-end replay uses, field by field (no
/// `..RunOptions::default()`, which would read the environment).
pub fn replay_options() -> RunOptions {
    RunOptions {
        verify: true,
        scrub_interval: None,
        scrub_lines_per_tick: 1024,
        observe: false,
        trace_capacity: 0,
        epoch_interval: None,
        shards: 1,
        batch: esd_core::DEFAULT_BATCH,
        quantum: esd_core::DEFAULT_QUANTUM,
        crash_at: None,
        journal_every: None,
        kernels: KernelBackend::Auto,
    }
}

/// `VmHWM` of this process in MB (peak resident set size).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// What the numbers were measured on, as JSON object fields (no braces).
pub fn fingerprint_json() -> String {
    esd_kernels::set_backend(KernelBackend::Auto);
    let features = esd_kernels::cpu_features();
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    let options = replay_options();
    let config = SystemConfig::default();
    format!(
        "\"nproc\": {}, \"cpu_features\": {{\"aes\": {}, \"sha\": {}, \"avx2\": {}, \"ssse3\": {}}}, \
         \"kernel_dispatch\": \"{}\", \"rustc\": \"{}\", \"esd_env_vars\": \"all removed\", \
         \"run_options\": {{\"verify\": {}, \"shards\": {}, \"batch\": {}, \"quantum\": {}, \
         \"kernels\": \"{}\", \"observe\": {}, \"scrub_interval\": null, \"epoch_interval\": null, \
         \"crash_at\": null, \"journal_every\": null}}, \
         \"system\": {{\"pcm_banks\": {}, \"fingerprint_cache_bytes\": {}, \"mapping_cache_bytes\": {}, \
         \"write_buffer_depth\": {}, \"rber_per_tbit\": {}}}",
        nproc(),
        features.aes,
        features.sha,
        features.avx2,
        features.ssse3,
        esd_kernels::dispatch_report().replace('\n', "; ").replace('"', "'"),
        rustc,
        options.verify,
        options.shards,
        options.batch,
        options.quantum,
        options.kernels,
        options.observe,
        config.pcm.banks,
        config.controller.fingerprint_cache_bytes,
        config.controller.mapping_cache_bytes,
        config.controller.write_buffer_depth,
        config.pcm.rber_per_tbit,
    )
}
