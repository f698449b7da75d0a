//! The repository's benchmark: one command runs a named workload, checks
//! every output, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload livermore|fault|serve-miss|serve-hit --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around every call into a layer and reports the
//! per-layer metrics instead. NOTES.md says what each metric measures and
//! which end-to-end metric each layer metric should move.

mod checks;
mod fault;
mod livermore;
mod report;
mod serve;
mod spans;
mod stats;

use std::time::Duration;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("bad --seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans and tables (ignored by git).
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a text artifact of a traced run; a failed write is reported, not
/// fatal, since the metrics line carries the results.
pub fn write_out(name: &str, text: &str) {
    let path = out_dir().join(name);
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, text));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Writes a traced run's spans as JSON lines: the first 100 000, which
/// bounds the file while covering many passes, campaigns or requests.
pub fn write_spans(workload: &str, tr: &spans::Tracer) {
    let path = out_dir().join(format!("{workload}-spans.jsonl"));
    if let Err(e) = tr.write_jsonl(&path, 100_000) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Reports each layer's share of the traced self time.
pub fn set_self_shares(self_ns: &std::collections::BTreeMap<&str, u64>, report: &mut Report) {
    let total = self_ns.values().sum::<u64>().max(1) as f64;
    for (layer, name) in [
        ("bench", "self.bench_share"),
        ("kernels", "self.kernels_share"),
        ("sim", "self.sim_share"),
        ("fault", "self.fault_share"),
        ("client", "self.client_share"),
    ] {
        report.set(
            name,
            self_ns.get(layer).copied().unwrap_or(0) as f64 / total,
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Allocates and frees one block of just under 32 MiB before the workload
/// starts. Freeing a block that glibc's malloc served by `mmap` raises its
/// `mmap` threshold to that block's size, up to 32 MiB; this sets it to the
/// maximum at once, where a long-running process ends up anyway. Left to
/// the workload, the threshold rises at a moment that depends on the order
/// of its allocations, and with it the heap's high-water mark: over ten
/// `fault` seeds, `peak_rss_mib` spread 0.15 of its median, against 0.06
/// after this warm-up. The block is never written, so it adds no resident
/// pages.
fn warm_allocator() {
    drop(std::hint::black_box(Vec::<u8>::with_capacity(
        32 * 1024 * 1024 - 8192,
    )));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    warm_allocator();
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "livermore" => livermore::run(&args, &mut report),
        "fault" => fault::run(&args, &mut report),
        "serve-miss" => serve::run(&args, serve::Mix::Miss, &mut report),
        "serve-hit" => serve::run(&args, serve::Mix::Hit, &mut report),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (livermore, fault, serve-miss, serve-hit)"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    match peak_rss_mib() {
        Ok(v) => report.set("peak_rss_mib", v),
        Err(e) => report.fail(e),
    }
    let line = report.result_line(args.trace);
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{line}");
    if !report.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload fault --seed 0xA5 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, "fault");
        assert_eq!(a.seed, 0xA5);
        assert_eq!(a.seconds, Duration::from_millis(2500));
        assert!(a.trace);
        assert_eq!(args("--workload x --seed 7").unwrap().seed, 7);
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload").is_err());
        assert!(args("--workload x --bogus 1").is_err());
    }
}
