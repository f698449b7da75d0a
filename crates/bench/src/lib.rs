//! Reproduction harness for every table and figure in the paper's
//! evaluation (§3), plus the ablation studies DESIGN.md calls out.
//!
//! The `repro-*` binaries print the regenerated tables side by side with
//! the paper's published numbers; the Criterion benches under `benches/`
//! wrap the same measurements for tracked, repeatable runs. Absolute
//! MFLOPS are simulated at the paper's machine parameters (40 ns clock,
//! 3-cycle FPU, 64 KB caches); the claim being reproduced is *shape* —
//! who wins, by roughly what factor, and where the crossovers sit.

pub mod fault;
pub mod json;
// The parallel sweep driver moved down to `mt-dse` (the dse engine sits
// below the bench layer); re-exported so every `mt_bench::sweep::sweep`
// caller keeps compiling unchanged.
pub use mt_dse::sweep;

use mt_kernels::{harness, livermore, Kernel, KernelReport};
use mt_sim::SimConfig;

/// Runs one kernel under the default configuration, panicking with context
/// on any failure (benches want loud failures).
pub fn run(kernel: &Kernel) -> KernelReport {
    harness::run_kernel(kernel).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one kernel under a custom configuration.
pub fn run_with(kernel: &Kernel, config: SimConfig) -> KernelReport {
    harness::run_kernel_with(kernel, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Measured cold/warm MFLOPS for all 24 Livermore loops, in order
/// (simulated in parallel across cores; results are deterministic).
pub fn livermore_mflops() -> Vec<(u8, f64, f64)> {
    livermore_reports()
        .iter()
        .zip(1..)
        .map(|(r, n)| (n, r.mflops_cold(), r.mflops_warm()))
        .collect()
}

/// All 24 Livermore loop reports under the default configuration,
/// simulated in parallel (deterministic input order, as [`sweep::sweep`]
/// guarantees — `BENCH_sim.json` is built from this).
pub fn livermore_reports() -> Vec<KernelReport> {
    let loops: Vec<u8> = (1..=24).collect();
    sweep::sweep(&loops, |&n| run(&livermore::by_number(n)))
}

/// Formats one row of a fixed-width table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// `x.y` with one decimal, the paper's table format.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formats_right_aligned() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a    bb");
    }

    #[test]
    fn one_kernel_roundtrips_through_the_helper() {
        let r = run(&mt_kernels::reductions::fibonacci(8));
        assert!(r.warm.cycles > 0);
    }
}
