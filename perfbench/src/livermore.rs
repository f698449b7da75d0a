//! `livermore`: the 24 Livermore loops under the §3.2 cold/warm protocol,
//! pass after pass, on one thread.

use std::time::Instant;

use mt_fault::SplitMix64;
use mt_fparith::{op::ALL_OPS, FpOp};
use mt_kernels::{livermore, Kernel};
use mt_sim::{Backend, Machine, RunStats, SimConfig};
use mt_trace::{EventKind, EventSink, TraceEvent};

use crate::checks::{self, Counts, LoopExpect};
use crate::report::Report;
use crate::spans::{self_time_by_layer, Tracer};
use crate::stats::{median, ns_per_call, Chunked};
use crate::Args;

/// Kernel-construction repetitions behind `setup_s`.
const SETUP_REPS: usize = 21;
/// Loops whose host cost per simulated cycle is reported on its own: the
/// three slowest per pass.
const SLOW_LOOPS: [(u8, &str); 3] = [
    (15, "sim.host_ns_per_cycle.ll15"),
    (18, "sim.host_ns_per_cycle.ll18"),
    (21, "sim.host_ns_per_cycle.ll21"),
];

/// Run ids of one loop execution: `pass * RUN_STRIDE + loop number`.
const RUN_STRIDE: u64 = 100;

/// The simulator configuration the repository's tools run the loops under.
fn sim_config() -> SimConfig {
    SimConfig {
        backend: Backend::Xlate,
        ..SimConfig::default()
    }
}

/// One loop under the §3.2 protocol on a fresh machine: install, init,
/// cold run, verify, init, rerun reset, warm run, verify.
fn protocol(k: &Kernel, tr: &mut Tracer, run: u64) -> Result<(RunStats, RunStats), String> {
    let tag = |e: String| format!("{}: {e}", k.name);
    let mut m = tr.time("sim.new", run, || Machine::new(sim_config()));
    tr.time("sim.install", run, || k.routine.install(&mut m));
    tr.time("kernels.init", run, || (k.init)(&mut m));
    let cold = tr
        .time("sim.run_cold", run, || m.run())
        .map_err(|e| tag(e.to_string()))?;
    tr.time("kernels.verify", run, || (k.verify)(&m))
        .map_err(tag)?;
    tr.time("kernels.init", run, || (k.init)(&mut m));
    tr.time("sim.reset_for_rerun", run, || m.reset_for_rerun());
    let warm = tr
        .time("sim.run_warm", run, || m.run())
        .map_err(|e| tag(e.to_string()))?;
    tr.time("kernels.verify", run, || (k.verify)(&m))
        .map_err(tag)?;
    Ok((cold, warm))
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let expected = checks::livermore_expected()?;
    let mut tr = Tracer::new(args.trace, Instant::now());

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut kernels = Vec::new();
    for rep in 0..SETUP_REPS as u64 {
        let t = Instant::now();
        kernels = (1..=24u8)
            .map(|n| tr.time("kernels.build", rep, || livermore::by_number(n)))
            .collect::<Vec<Kernel>>();
        setup.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup).expect("setup ran"));

    // One untimed pass fills the host caches and checks the loops once.
    let mut untraced = Tracer::new(false, Instant::now());
    for k in &kernels {
        protocol(k, &mut untraced, 0)?;
    }

    let mut rng = SplitMix64::new(args.seed);
    let mut order: Vec<usize> = (0..kernels.len()).collect();
    let mut cycles = 0u64;
    let mut latency_us = Chunked::default();
    let mut suite = Counts::default();
    let start = Instant::now();
    let mut pass = 0u64;
    // Whole passes only, at least one.
    loop {
        // The seed fixes the loop order of each pass.
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for &i in &order {
            let run_id = pass * RUN_STRIDE + i as u64 + 1;
            let t = Instant::now();
            tr.enter("bench.loop", run_id);
            let result = protocol(&kernels[i], &mut tr, run_id);
            tr.exit();
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            report.attempted += 1;
            match result {
                Ok((cold, warm)) => {
                    let (cold, warm) = (Counts::of(&cold), Counts::of(&warm));
                    report.check(checks::check_loop(&expected[i], &cold, &warm));
                    cycles += cold.cycles + warm.cycles;
                    if pass == 0 {
                        suite.add(&cold);
                        suite.add(&warm);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.fail(e);
                }
            }
        }
        pass += 1;
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let tput = cycles as f64 / start.elapsed().as_secs_f64();
    report.set("throughput_per_s", tput);
    report.set(
        "latency_p50_us",
        latency_us.p50().ok_or("too few loops for a p99")?,
    );
    report.set(
        "latency_p99_us",
        latency_us.p99().ok_or("too few loops for a p99")?,
    );
    if args.trace {
        report.set("traced.throughput_per_s", tput);
        layers(&kernels, &expected, &tr, &suite, report)?;
        crate::write_spans(&args.workload, &tr);
    }
    Ok(())
}

/// Counts element issues per operation.
#[derive(Default)]
struct OpMix([u64; 8]);

impl EventSink for OpMix {
    fn event(&mut self, ev: &TraceEvent) {
        if let EventKind::ElementIssue { op, .. } = ev.kind {
            self.0[op_index(op)] += 1;
        }
    }
}

fn op_index(op: FpOp) -> usize {
    ALL_OPS
        .iter()
        .position(|&o| o == op)
        .expect("op is in ALL_OPS")
}

fn op_metric(op: FpOp) -> &'static str {
    match op {
        FpOp::Add => "fparith.add_ns",
        FpOp::Sub => "fparith.sub_ns",
        FpOp::Float => "fparith.float_ns",
        FpOp::Truncate => "fparith.truncate_ns",
        FpOp::Mul => "fparith.mul_ns",
        FpOp::IntMul => "fparith.intmul_ns",
        FpOp::IterStep => "fparith.iterstep_ns",
        FpOp::Recip => "fparith.recip_ns",
    }
}

/// The per-layer metrics of a traced run: span medians, the exact work
/// counts, replayed per-operation costs, and the ledger that sets
/// Σ count × cost against the measured run time.
fn layers(
    kernels: &[Kernel],
    expected: &[LoopExpect],
    tr: &Tracer,
    suite: &Counts,
    report: &mut Report,
) -> Result<(), String> {
    let spans = tr.spans();
    // Per-suite totals: summed over one rep (build) or one pass (the rest).
    let per_group = |name: &str, group: fn(u64) -> u64| -> f64 {
        let mut sums = std::collections::BTreeMap::<u64, f64>::new();
        for s in spans.iter().filter(|s| s.name == name) {
            *sums.entry(group(s.run)).or_default() += s.dur_ns() as f64 / 1e3;
        }
        median(&sums.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let by_pass = |run: u64| run / RUN_STRIDE;
    report.set("kernels.build_us", per_group("kernels.build", |rep| rep));
    report.set("sim.install_us", per_group("sim.install", by_pass));
    report.set("sim.run_cold_us", per_group("sim.run_cold", by_pass));
    report.set("sim.run_warm_us", per_group("sim.run_warm", by_pass));

    // Host time per simulated cycle, per loop, from the run spans.
    let mut run_ns = [0f64; 25];
    let mut passes = 0u64;
    for s in spans
        .iter()
        .filter(|s| s.name == "sim.run_cold" || s.name == "sim.run_warm")
    {
        run_ns[(s.run % RUN_STRIDE) as usize] += s.dur_ns() as f64;
        passes = passes.max(s.run / RUN_STRIDE + 1);
    }
    let loop_cycles = |n: usize| (expected[n - 1].cold.cycles + expected[n - 1].warm.cycles) as f64;
    let total_ns: f64 = run_ns.iter().sum();
    report.set(
        "sim.host_ns_per_cycle",
        total_ns / (suite.cycles as f64 * passes as f64),
    );
    for (n, name) in SLOW_LOOPS {
        report.set(
            name,
            run_ns[n as usize] / (loop_cycles(n as usize) * passes as f64),
        );
    }

    for (name, v) in [
        ("sim.cycles", suite.cycles),
        ("sim.instructions", suite.instructions),
        ("sim.stall_cycles", suite.stall_cycles),
        ("sim.drain_cycles", suite.drain_cycles),
        ("core.elements", suite.elements),
        ("fparith.flops", suite.flops),
        ("mem.dcache_accesses", suite.dcache_accesses),
        ("mem.dcache_misses", suite.dcache_misses),
        ("mem.icache_accesses", suite.icache_accesses),
        ("mem.ibuffer_accesses", suite.ibuffer_accesses),
    ] {
        report.set(name, v as f64);
    }

    // Replays of single layers on the suite's own inputs.
    let programs: Vec<&mt_sim::Program> = kernels.iter().map(|k| &k.routine.program).collect();
    let translate_us = (0..9)
        .map(|_| {
            let t = Instant::now();
            for p in &programs {
                std::hint::black_box(mt_xlate::TranslatedProgram::translate(p));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect::<Vec<_>>();
    report.set(
        "xlate.translate_us",
        median(&translate_us).expect("replayed"),
    );

    let words: Vec<u32> = programs
        .iter()
        .flat_map(|p| p.words.iter().copied())
        .collect();
    report.set(
        "isa.decode_ns",
        ns_per_call(9, words.len() * 20, |i| {
            let _ = std::hint::black_box(mt_isa::Instr::decode(std::hint::black_box(
                words[i % words.len()],
            )));
        }),
    );

    let mut rng = SplitMix64::new(0x0DD5);
    let operands: Vec<(u64, u64)> = (0..1024)
        .map(|_| {
            let mut draw =
                || (1.0 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 999.0).to_bits();
            (draw(), draw())
        })
        .collect();
    let mut op_ns = [0f64; 8];
    for op in ALL_OPS {
        let ns = ns_per_call(9, 20_000, |i| {
            let (a, b) = operands[i % operands.len()];
            std::hint::black_box(mt_fparith::op::execute(
                op,
                std::hint::black_box(a),
                std::hint::black_box(b),
            ));
        });
        op_ns[op_index(op)] = ns;
        report.set(op_metric(op), ns);
    }

    // The data cache's geometry over a sequential walk of half its
    // capacity: cold misses on the first lap, hits after, as in a warm run.
    let geometry = sim_config().machine.mem.data_cache;
    let mut cache = mt_mem::Cache::new(geometry);
    let span = geometry.size_bytes / 2;
    let cache_ns = ns_per_call(9, 200_000, |i| {
        let addr = 0x10_0000 + (i as u32 * 8) % span;
        std::hint::black_box(cache.access(std::hint::black_box(addr), mt_mem::AccessKind::Read));
    });
    report.set("mem.cache_access_ns", cache_ns);

    // The ledger, per loop and over the suite.
    let mut rows = String::from("loop\trun_cold_us\trun_warm_us\texplained_us\texplained_share\n");
    let mut explained_total = 0.0;
    for (i, k) in kernels.iter().enumerate() {
        let n = i + 1;
        let mut mix = OpMix::default();
        let mut m = Machine::new(sim_config());
        k.routine.install(&mut m);
        (k.init)(&mut m);
        let cold = m.run_with_sink(&mut mix).map_err(|e| e.to_string())?;
        (k.init)(&mut m);
        m.reset_for_rerun();
        let warm = m.run_with_sink(&mut mix).map_err(|e| e.to_string())?;
        let accesses: u64 = [cold, warm]
            .iter()
            .map(|s| s.dcache.accesses() + s.icache.accesses() + s.ibuffer.accesses())
            .sum();
        let explained_ns = mix
            .0
            .iter()
            .zip(&op_ns)
            .map(|(&c, &ns)| c as f64 * ns)
            .sum::<f64>()
            + accesses as f64 * cache_ns;
        let pass_ns = |name: &str| -> f64 {
            let xs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && (s.run % RUN_STRIDE) as usize == n)
                .map(|s| s.dur_ns() as f64)
                .collect();
            median(&xs).unwrap_or(0.0)
        };
        let (cold_ns, warm_ns) = (pass_ns("sim.run_cold"), pass_ns("sim.run_warm"));
        explained_total += explained_ns;
        rows += &format!(
            "LL{n}\t{:.1}\t{:.1}\t{:.1}\t{:.3}\n",
            cold_ns / 1e3,
            warm_ns / 1e3,
            explained_ns / 1e3,
            explained_ns / (cold_ns + warm_ns)
        );
    }
    // Over the suite, against the reported per-pass run times.
    let run_us =
        report.get("sim.run_cold_us").unwrap_or(0.0) + report.get("sim.run_warm_us").unwrap_or(0.0);
    let share = explained_total / 1e3 / run_us;
    rows += &format!("suite\t\t\t{:.1}\t{share:.3}\n", explained_total / 1e3);
    report.set("ledger.explained_share", share);
    eprint!("{rows}");
    crate::write_out("livermore-ledger.tsv", &rows);

    crate::set_self_shares(&self_time_by_layer(spans), report);
    Ok(())
}
