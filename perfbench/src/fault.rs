//! `fault`: the seeded fault-injection campaign over the standard fault
//! kernels, run as a stream of fixed-size campaign calls.

use std::time::Instant;

use mt_bench::fault::standard_fault_kernels;
use mt_fault::{
    apply, draw_injection, run_campaign, text_region, CampaignConfig, CampaignResult, Injection,
    Outcome, PlanBounds, SplitMix64, Workload,
};
use mt_kernels::{layout::DATA_BASE, Kernel};
use mt_sim::{Machine, RunError};

use crate::checks::{self, Tally};
use crate::report::Report;
use crate::spans::{self_time_by_layer, Tracer};
use crate::stats::{median, Chunked, CHUNK};
use crate::Args;

/// Preparation repetitions behind `setup_s`.
const SETUP_REPS: usize = 21;
/// Injections per campaign call: the benchmark's unit of work.
const BATCH: usize = 25;
/// Campaigns whose outcomes a traced run reports exactly and replays phase
/// by phase.
const KEPT: usize = 64;
/// Campaigns re-run after the measured window to check that a repeated
/// campaign ends exactly as it did the first time.
const REPEATED: usize = 8;
/// Words in the data window memory faults sample from: the 64 KB the
/// kernel harness allocates from, as `mt_bench::fault` uses.
const DATA_WORDS: u32 = 16 * 1024;

/// Parks each kernel at its pre-run checkpoint and runs its golden pass,
/// exactly as `mt_bench::fault::run_kernel_campaign` does.
fn prepare<'k>(kernels: &'k [Kernel], cfg: &CampaignConfig) -> Result<Vec<Workload<'k>>, String> {
    kernels
        .iter()
        .map(|k| {
            let mut m = Machine::new(cfg.sim_config());
            k.routine.install(&mut m);
            (k.init)(&mut m);
            let regions = regions(k);
            let verify = &k.verify;
            Workload::prepare(k.name.clone(), m, regions, Box::new(move |m| verify(m)))
        })
        .collect()
}

fn regions(k: &Kernel) -> Vec<(u32, u32)> {
    vec![text_region(&k.routine.program), (DATA_BASE, DATA_WORDS)]
}

/// One of the first campaigns of a run, kept for the checks and the
/// traced replay.
struct Kept {
    seed: u64,
    tally: Tally,
    /// Each injection and how the campaign classified it (traced runs only).
    plan: Vec<(Injection, Outcome)>,
}

fn tally(r: &CampaignResult) -> Tally {
    let c = r.counts;
    [c.masked, c.detected, c.sdc, c.crash, c.hang]
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new(args.trace, Instant::now());
    let base_cfg = CampaignConfig::default();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for rep in 1..SETUP_REPS as u64 {
        let t = Instant::now();
        let kernels = tr.time("kernels.build", rep, standard_fault_kernels);
        let _dropped_after_timing =
            tr.time("fault.prepare", rep, || prepare(&kernels, &base_cfg))?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let kernels = tr.time("kernels.build", 0, standard_fault_kernels);
    let mut workloads = tr.time("fault.prepare", 0, || prepare(&kernels, &base_cfg))?;
    setup.push(t.elapsed().as_secs_f64());
    report.set("setup_s", median(&setup).expect("setup ran"));

    // The workload seed draws a fresh campaign seed for every call; the
    // simulator sees only the plans they generate.
    let mut rng = SplitMix64::new(args.seed);
    let config = |seed| CampaignConfig {
        seed,
        injections: BATCH,
        ..CampaignConfig::default()
    };

    let mut kept: Vec<Kept> = Vec::with_capacity(KEPT);
    let mut latency_us = Chunked::default();
    let start = Instant::now();
    let mut calls = 0usize;
    // At least one latency chunk and every kept campaign, however short
    // the run.
    while start.elapsed() < args.seconds || calls < KEPT.max(CHUNK) {
        let seed = rng.next_u64();
        let t = Instant::now();
        tr.enter("bench.campaign", calls as u64);
        let result = tr.time("fault.run_campaign", calls as u64, || {
            run_campaign(&mut workloads, &config(seed))
        });
        tr.exit();
        let secs = t.elapsed().as_secs_f64();
        calls += 1;
        report.attempted += BATCH as u64;
        match result {
            Ok(r) => {
                latency_us.push(secs * 1e6);
                if kept.len() < KEPT {
                    let tally = tally(&r);
                    let plan = if args.trace {
                        r.records
                            .into_iter()
                            .map(|r| (r.injection, r.outcome))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    kept.push(Kept { seed, tally, plan });
                }
            }
            Err(e) => {
                report.failed += BATCH as u64;
                report.fail(e);
            }
        }
    }
    let tput = (calls * BATCH) as f64 / start.elapsed().as_secs_f64();
    report.set("throughput_per_s", tput);
    report.set(
        "latency_p50_us",
        latency_us.p50().ok_or("too few calls for a p99")?,
    );
    report.set(
        "latency_p99_us",
        latency_us.p99().ok_or("too few calls for a p99")?,
    );

    // A repeated campaign must end exactly as it did the first time.
    for k in kept.iter().take(REPEATED) {
        let again = run_campaign(&mut workloads, &config(k.seed))?;
        report.check(checks::check_tally(
            &format!("campaign seed {:#x} repeated", k.seed),
            &tally(&again),
            &k.tally,
        ));
    }

    // The committed campaign: seed 0xA5, the first 500 injections.
    let committed = run_campaign(&mut workloads, &base_cfg)?;
    report.check(checks::check_tally(
        "seed 0xa5, 500 injections vs BENCH_fault.json",
        &tally(&committed),
        &checks::fault_expected()?,
    ));

    if args.trace {
        report.set("traced.throughput_per_s", tput);
        let mut sum = [0u64; 5];
        for k in &kept {
            for (s, v) in sum.iter_mut().zip(k.tally) {
                *s += v;
            }
        }
        for (name, v) in [
            "fault.masked",
            "fault.detected",
            "fault.sdc",
            "fault.crash",
            "fault.hang",
        ]
        .into_iter()
        .zip(sum)
        {
            report.set(name, v as f64);
        }
        replay_phases(&kernels, &kept, &mut tr, report)?;
        let spans = tr.spans();
        let per_rep = |name: &str| {
            let mut sums = std::collections::BTreeMap::<u64, f64>::new();
            for s in spans.iter().filter(|s| s.name == name) {
                *sums.entry(s.run).or_default() += s.dur_ns() as f64 / 1e3;
            }
            median(&sums.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
        };
        report.set("kernels.build_us", per_rep("kernels.build"));
        crate::set_self_shares(&self_time_by_layer(spans), report);
        crate::write_spans(&args.workload, &tr);
    }
    Ok(())
}

/// Replays the distinct campaigns injection by injection through the
/// public checkpoint API, timing each phase, and checks that every replayed
/// plan and ending agrees with the campaign's own record.
fn replay_phases(
    kernels: &[Kernel],
    kept: &[Kept],
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = CampaignConfig::default();
    let mut machines = Vec::new();
    for k in kernels {
        let mut m = Machine::new(cfg.sim_config());
        k.routine.install(&mut m);
        (k.init)(&mut m);
        let base = m.snapshot();
        let golden = m
            .run()
            .map_err(|e| format!("golden run of {}: {e}", k.name))?;
        let bounds = PlanBounds {
            golden_cycles: golden.cycles,
            regions: regions(k),
        };
        machines.push((m, base, bounds));
    }
    let mut run_id = 0u64;
    for Kept { seed, plan, .. } in kept {
        let mut rng = SplitMix64::new(*seed);
        for (i, (planned, outcome)) in plan.iter().enumerate() {
            let (m, base, bounds) = &mut machines[i % kernels.len()];
            let injection = draw_injection(&mut rng, bounds);
            if injection != *planned {
                report.fail(format!(
                    "replayed plan of seed {seed:#x} diverged at injection {i}"
                ));
                return Ok(());
            }
            run_id += 1;
            tr.enter("bench.injection", run_id);
            tr.time("sim.restore", run_id, || m.restore(base));
            let paused = tr.time("sim.run_until", run_id, || m.run_until(injection.cycle));
            tr.time("fault.apply", run_id, || apply(m, &injection.target));
            let ended = match paused {
                Ok(None) => {
                    let name = match outcome {
                        Outcome::Hang => "sim.run_after_hang",
                        Outcome::Crash => "sim.run_after_crash",
                        _ => "sim.run_after_complete",
                    };
                    tr.time(name, run_id, || m.run())
                }
                Ok(Some(stats)) => Ok(stats),
                Err(e) => Err(e),
            };
            tr.exit();
            let consistent = matches!(
                (&ended, outcome),
                (
                    Err(RunError::Watchdog { .. } | RunError::CycleLimit(_)),
                    Outcome::Hang
                ) | (
                    Err(RunError::BadInstruction { .. } | RunError::MemoryFault { .. }),
                    Outcome::Crash
                ) | (Ok(_), Outcome::Masked | Outcome::Detected | Outcome::Sdc)
            );
            if !consistent {
                report.fail(format!(
                    "replayed injection {i} of seed {seed:#x} ended {ended:?}, campaign says {outcome}"
                ));
            }
        }
    }
    for (metric, span) in [
        ("sim.restore_us", "sim.restore"),
        ("sim.run_until_us", "sim.run_until"),
        ("fault.apply_us", "fault.apply"),
        ("sim.run_after_complete_us", "sim.run_after_complete"),
        ("sim.run_after_hang_us", "sim.run_after_hang"),
        ("sim.run_after_crash_us", "sim.run_after_crash"),
    ] {
        report.set(metric, median(&tr.durations_us(span)).unwrap_or(0.0));
    }
    Ok(())
}
