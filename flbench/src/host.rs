//! The host fingerprint printed beside every result, so a number can be
//! traced to the machine, toolchain, revision and settings it came from.

use serde::Serialize;

/// Where and how a result was measured.
#[derive(Debug, Clone, Serialize)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism` (what `nproc` reports).
    pub nproc: usize,
    /// Vector extensions this binary was compiled to use.
    pub target_features: Vec<&'static str>,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Short git revision, or `none` for a source checkout without git.
    pub git_rev: &'static str,
    /// Worker threads the timed runs used.
    pub threads: usize,
    /// Value of `FLOAT_THREADS` found at start-up (it is cleared, since it
    /// would override the workload's thread count).
    pub float_threads_env: Option<String>,
}

/// Vector extensions enabled at compile time, in a fixed order.
fn target_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if cfg!(target_feature = $name) {
                f.push($name);
            }
        )*};
    }
    probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "neon");
    f
}

impl Fingerprint {
    /// Fingerprint this process; `float_threads_env` is the value cleared
    /// from the environment at start-up.
    pub fn capture(threads: usize, float_threads_env: Option<String>) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            target_features: target_features(),
            rustc: env!("FLBENCH_RUSTC"),
            git_rev: env!("FLBENCH_GIT_REV"),
            threads,
            float_threads_env,
        }
    }
}
