//! Regenerates Fig. 14: "Uniprocessor Livermore Loops (MFLOPS)".
//!
//! Prints the simulated MultiTitan cold/warm-cache MFLOPS for all 24 loops
//! next to the paper's published MultiTitan and Cray columns, with the
//! harmonic means the paper reports. Run with `cargo run --release -p
//! mt-bench --bin repro-livermore`. With `--json`, emits the full
//! `mt-bench-v1` document instead (CI commits it as `BENCH_sim.json`).

use mt_baseline::published::{
    harmonic_mean, PUBLISHED_HARMONIC_13_24, PUBLISHED_HARMONIC_1_12, PUBLISHED_HARMONIC_1_24,
    PUBLISHED_LIVERMORE,
};
use mt_bench::{f1, livermore_mflops, row};

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_report();
        return;
    }
    if std::env::args().any(|a| a == "--stalls") {
        stall_attribution();
        return;
    }
    println!("Figure 14 — Uniprocessor Livermore Loops (MFLOPS)");
    println!("  measured = this reproduction; paper = published WRL 89/8 values");
    println!("  (* = loop vectorized on the Cray, per the paper)\n");

    let widths = [5usize, 9, 9, 9, 9, 9, 9];
    println!(
        "{}",
        row(
            &[
                "loop".into(),
                "cold".into(),
                "warm".into(),
                "cold*".into(),
                "warm*".into(),
                "Cray-1S".into(),
                "X-MP".into(),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "".into(),
                "meas.".into(),
                "meas.".into(),
                "paper".into(),
                "paper".into(),
                "paper".into(),
                "paper".into(),
            ],
            &widths
        )
    );

    let measured = livermore_mflops();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for ((n, c, w), pubrow) in measured.iter().zip(PUBLISHED_LIVERMORE.iter()) {
        let star = if pubrow.cray_vectorized { "*" } else { " " };
        println!(
            "{}",
            row(
                &[
                    format!("{n}{star}"),
                    f1(*c),
                    f1(*w),
                    f1(pubrow.mt_cold),
                    f1(pubrow.mt_warm),
                    f1(pubrow.cray_1s),
                    f1(pubrow.cray_xmp),
                ],
                &widths
            )
        );
        cold.push(*c);
        warm.push(*w);
        if *n == 12 {
            print_hmean("hm 1-12", &cold, &warm, &PUBLISHED_HARMONIC_1_12, &widths);
        }
    }
    print_hmean(
        "hm 13-24",
        &cold[12..],
        &warm[12..],
        &PUBLISHED_HARMONIC_13_24,
        &widths,
    );
    print_hmean("hm 1-24", &cold, &warm, &PUBLISHED_HARMONIC_1_24, &widths);

    let warm_hm = harmonic_mean(&warm);
    println!(
        "\nOverall: measured warm harmonic mean {:.1} MFLOPS vs paper {:.1}; paper's Cray-1S {:.1} ⇒ \
         measured/Cray-1S ratio {:.2} (paper: ~0.5), measured/X-MP {:.2} (paper: ~0.33)",
        warm_hm,
        PUBLISHED_HARMONIC_1_24[1],
        PUBLISHED_HARMONIC_1_24[2],
        warm_hm / PUBLISHED_HARMONIC_1_24[2],
        warm_hm / PUBLISHED_HARMONIC_1_24[3],
    );
}

/// `--json`: the deterministic `mt-bench-v1` document over all 24 loops
/// (simulated in parallel; results collected in loop order), plus a
/// `harmonic_mean_mflops` section matching the printed table's summary
/// rows and a `sim_throughput` section recording how fast the simulator
/// itself ran.
/// Every field except `cycles_per_second` is byte-stable; `./ci` compares
/// the regenerated document against `BENCH_sim.json` with
/// `repro-benchdiff`, holding `cycles_per_second` to a relative band and
/// everything else exact.
fn json_report() {
    let wall = std::time::Instant::now();
    let reports = mt_bench::livermore_reports();
    let elapsed = wall.elapsed();
    let simulated: u64 = reports.iter().map(|r| r.cold.cycles + r.warm.cycles).sum();
    let mut doc = mt_bench::json::bench_json("livermore", &reports);
    doc.push(
        "sim_throughput",
        mt_trace::Json::obj([
            ("simulated_cycles", mt_trace::Json::U64(simulated)),
            (
                "cycles_per_second",
                mt_trace::Json::F64((simulated as f64 / elapsed.as_secs_f64().max(1e-9)).round()),
            ),
        ]),
    );
    let warm: Vec<f64> = reports.iter().map(|r| r.mflops_warm()).collect();
    let cold: Vec<f64> = reports.iter().map(|r| r.mflops_cold()).collect();
    doc.push(
        "harmonic_mean_mflops",
        mt_trace::Json::obj([
            ("cold_1_24", mt_trace::Json::F64(harmonic_mean(&cold))),
            ("warm_1_24", mt_trace::Json::F64(harmonic_mean(&warm))),
            ("warm_1_12", mt_trace::Json::F64(harmonic_mean(&warm[..12]))),
            (
                "warm_13_24",
                mt_trace::Json::F64(harmonic_mean(&warm[12..])),
            ),
        ]),
    );
    println!("{}", doc.pretty());
}

/// `--stalls`: where each loop's warm cycles go — the §3.2 bottleneck
/// analysis ("the primary bottleneck … is its limited memory bandwidth").
fn stall_attribution() {
    println!("Warm-cache stall attribution (cycles %):\n");
    println!("loop    cycles   ls-port  fpu-hzd  ir-busy  int-hzd   branch  sb-stall");
    for n in 1..=24u8 {
        let r = mt_bench::run(&mt_kernels::livermore::by_number(n));
        let w = &r.warm;
        let pct = |v: u64| 100.0 * v as f64 / w.cycles as f64;
        println!(
            "{n:>4}  {:>8}   {:>6.1}   {:>6.1}   {:>6.1}   {:>6.1}   {:>6.1}   {:>6.1}",
            w.cycles,
            pct(w.stalls.ls_port_busy),
            pct(w.stalls.fpu_reg_hazard),
            pct(w.stalls.ir_busy),
            pct(w.stalls.int_load_hazard),
            pct(w.stalls.branch),
            pct(w.fpu.scoreboard_stall_cycles),
        );
    }
    println!("\n(ls-port: the single memory port — the paper's stated bottleneck)");
}

fn print_hmean(label: &str, cold: &[f64], warm: &[f64], paper: &[f64; 4], widths: &[usize]) {
    println!(
        "{}",
        mt_bench::row(
            &[
                label.into(),
                f1(harmonic_mean(cold)),
                f1(harmonic_mean(warm)),
                f1(paper[0]),
                f1(paper[1]),
                f1(paper[2]),
                f1(paper[3]),
            ],
            widths
        )
    );
}
