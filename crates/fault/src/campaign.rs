//! Golden-vs-injected differential replay.
//!
//! For each planned injection the campaign restores the pre-run
//! checkpoint, replays the workload up to the injection cycle, flips
//! the targeted bit, and runs to completion. The outcome is classified
//! against the fault-free (*golden*) run:
//!
//! * **crash** — the run died with a typed fault ([`RunError::BadInstruction`]
//!   or [`RunError::MemoryFault`]): the corruption steered execution
//!   somewhere illegal and the hardware would trap.
//! * **hang** — the run never finished ([`RunError::Watchdog`] or
//!   [`RunError::CycleLimit`]): a wedged scoreboard or a corrupted loop
//!   counter.
//! * **detected** — the run finished but the §2.3.1 overflow-abort
//!   machinery flagged it: the abort count rose above golden, or the
//!   PSW's recorded overflow destination differs from golden's. This is
//!   the architecture's own error signal — software reading the PSW
//!   would rerun the computation.
//! * **sdc** — silent data corruption: the run finished, the PSW shows
//!   nothing new, but the output verification fails.
//! * **masked** — the run finished and the outputs verify. Timing-only
//!   divergence (a cache-state flip costing extra misses) and sticky
//!   PSW *flag* differences with correct results are deliberately
//!   counted as masked: neither changes what software observes in the
//!   §2.3.1 protocol, which consults only the abort record.
//!
//! Every injection lands in exactly one class, and the whole campaign
//! is a pure function of `(workloads, seed, injection count, config)`.

use std::fmt;

use mt_core::Psw;
use mt_sim::{Machine, Program, RunError, SimConfig, Snapshot};
use mt_trace::{Json, MetricsRegistry};

use crate::inject::apply;
use crate::plan::{draw_injection, Injection, PlanBounds};
use crate::rng::SplitMix64;

/// How one injection ended, relative to the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Run completed, outputs correct.
    Masked,
    /// Overflow-abort machinery flagged the corruption.
    Detected,
    /// Run completed, PSW silent, outputs wrong.
    Sdc,
    /// Typed fault: bad instruction or illegal memory access.
    Crash,
    /// Watchdog or cycle limit: the machine never finished.
    Hang,
}

impl Outcome {
    /// Stable lower-case name, used in metric keys and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Detected => "detected",
            Outcome::Sdc => "sdc",
            Outcome::Crash => "crash",
            Outcome::Hang => "hang",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// PRNG seed; the entire plan and therefore the entire result
    /// document is a pure function of this (plus the workloads).
    pub seed: u64,
    /// Number of injections, round-robined across the workloads.
    pub injections: usize,
    /// Simulator cycle limit per injected run (hang backstop of last
    /// resort; the watchdog usually fires much earlier).
    pub max_cycles: u64,
    /// No-progress watchdog threshold for injected runs (cycles).
    pub watchdog_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xA5,
            injections: 500,
            max_cycles: 200_000,
            watchdog_cycles: 20_000,
        }
    }
}

impl CampaignConfig {
    /// The simulator configuration injected runs execute under: the
    /// campaign's cycle limit and watchdog on top of the defaults.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            max_cycles: self.max_cycles,
            watchdog_cycles: self.watchdog_cycles,
            ..SimConfig::default()
        }
    }
}

/// Per-class totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Completed, outputs correct.
    pub masked: u64,
    /// Flagged by the overflow-abort machinery.
    pub detected: u64,
    /// Silent data corruption.
    pub sdc: u64,
    /// Typed fault.
    pub crash: u64,
    /// Watchdog / cycle limit.
    pub hang: u64,
}

impl OutcomeCounts {
    fn bump(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Hang => self.hang += 1,
        }
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.masked + self.detected + self.sdc + self.crash + self.hang
    }

    fn to_json(self) -> Json {
        Json::obj([
            ("masked", Json::U64(self.masked)),
            ("detected", Json::U64(self.detected)),
            ("sdc", Json::U64(self.sdc)),
            ("crash", Json::U64(self.crash)),
            ("hang", Json::U64(self.hang)),
        ])
    }
}

/// One classified injection (kept for tests and verbose reporting; the
/// JSON document carries only aggregates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Workload the fault was injected into.
    pub workload: String,
    /// The planned fault.
    pub injection: Injection,
    /// How it ended.
    pub outcome: Outcome,
}

/// Aggregated campaign results.
#[derive(Debug)]
pub struct CampaignResult {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// Class totals over all injections.
    pub counts: OutcomeCounts,
    /// Class totals per workload, in workload order.
    pub per_workload: Vec<(String, OutcomeCounts)>,
    /// Per-structure × per-outcome counters (`fpu_reg_detected`, …).
    pub metrics: MetricsRegistry,
    /// Every injection with its classification, in plan order.
    pub records: Vec<InjectionRecord>,
}

impl CampaignResult {
    /// Renders the `mt-bench-v1` campaign document. Every field is a
    /// pure function of (workloads, seed, config) — no wall-clock, no
    /// paths — so regenerating with the same seed is byte-identical.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .per_workload
            .iter()
            .map(|(name, counts)| {
                let mut obj = Json::obj([("name", Json::Str(name.clone()))]);
                obj.push("outcomes", counts.to_json());
                obj
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("mt-bench-v1".into())),
            ("bench", Json::Str("fault".into())),
            ("seed", Json::Str(format!("{:#x}", self.seed))),
            ("injections", Json::U64(self.counts.total())),
            ("outcomes", self.counts.to_json()),
            ("workloads", Json::Arr(workloads)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

/// The fault-free reference a workload's injections are judged against.
struct Golden {
    cycles: u64,
    overflow_aborts: u64,
    psw: Psw,
}

/// A workload's output oracle: inspects the final machine state and
/// returns `Err` with a human-readable reason when the answer is wrong.
pub type VerifyFn<'a> = Box<dyn Fn(&Machine) -> Result<(), String> + 'a>;

/// One prepared workload: a machine parked at the pre-run checkpoint,
/// its golden reference, its sampling bounds, and its output oracle.
///
/// Built with [`Workload::prepare`]; the crate keeps no opinion about
/// where workloads come from — the bench layer adapts verified kernels,
/// `mtasm fault` adapts bare assembled programs.
pub struct Workload<'a> {
    name: String,
    machine: Machine,
    base: Snapshot,
    golden: Golden,
    bounds: PlanBounds,
    verify: VerifyFn<'a>,
}

impl<'a> Workload<'a> {
    /// Prepares a workload for injection: snapshots the pre-run state
    /// of `machine` (which must be fully set up — program installed,
    /// inputs written), runs the golden pass, checks it against
    /// `verify`, and records the golden reference. `regions` lists the
    /// `(base, words)` memory windows that memory faults sample from —
    /// typically the text segment plus the data arrays.
    ///
    /// # Errors
    ///
    /// Fails if the golden (fault-free) run fails or mis-verifies —
    /// that is a configuration error, not a campaign outcome.
    pub fn prepare(
        name: String,
        mut machine: Machine,
        regions: Vec<(u32, u32)>,
        verify: VerifyFn<'a>,
    ) -> Result<Workload<'a>, String> {
        let base = machine.snapshot();
        let stats = machine
            .run()
            .map_err(|e| format!("golden run of {name} failed: {e}"))?;
        verify(&machine).map_err(|e| format!("golden run of {name} wrong: {e}"))?;
        let golden = Golden {
            cycles: stats.cycles,
            overflow_aborts: machine.fpu.stats().overflow_aborts,
            psw: machine.fpu.psw().clone(),
        };
        let bounds = PlanBounds {
            golden_cycles: golden.cycles,
            regions,
        };
        Ok(Workload {
            name,
            machine,
            base,
            golden,
            bounds,
            verify,
        })
    }

    /// Replays with one fault and classifies the outcome.
    fn run_injection(&mut self, injection: &Injection) -> Result<Outcome, String> {
        let m = &mut self.machine;
        m.restore(&self.base);
        match m.run_until(injection.cycle) {
            // Paused exactly at the injection cycle: strike and resume.
            Ok(None) => {
                apply(m, &injection.target);
                let result = m.run();
                Self::classify(m, &self.golden, &self.verify, result)
            }
            // The run completed before pausing — the injection cycle
            // fell inside the final pipeline-drain span, which never
            // pauses. The fault strikes the post-completion state, so
            // only its architectural footprint (PSW, registers, memory
            // read by the oracle) can matter.
            Ok(Some(stats)) => {
                apply(m, &injection.target);
                Self::classify(m, &self.golden, &self.verify, Ok(stats))
            }
            Err(e) => Err(format!(
                "golden replay of {} diverged before injection: {e}",
                self.name
            )),
        }
    }

    fn classify(
        m: &Machine,
        golden: &Golden,
        verify: &dyn Fn(&Machine) -> Result<(), String>,
        result: Result<mt_sim::RunStats, RunError>,
    ) -> Result<Outcome, String> {
        match result {
            Err(RunError::BadInstruction { .. } | RunError::MemoryFault { .. }) => {
                Ok(Outcome::Crash)
            }
            Err(RunError::Watchdog { .. } | RunError::CycleLimit(_)) => Ok(Outcome::Hang),
            // The campaign never installs a cancellation checkpoint, so a
            // cancelled replay is a driver bug, not an injection outcome.
            Err(RunError::Cancelled { cycle }) => Err(format!(
                "replay cancelled at cycle {cycle} with no checkpoint installed"
            )),
            Ok(_) => {
                let psw = m.fpu.psw();
                let aborted = m.fpu.stats().overflow_aborts > golden.overflow_aborts
                    || psw.overflow_dest != golden.psw.overflow_dest;
                if aborted {
                    Ok(Outcome::Detected)
                } else if verify(m).is_err() {
                    Ok(Outcome::Sdc)
                } else {
                    Ok(Outcome::Masked)
                }
            }
        }
    }
}

/// Runs the campaign over prepared workloads, round-robin: injection
/// `i` strikes workload `i % workloads.len()`.
///
/// # Errors
///
/// Fails only on golden-replay divergence, which would indicate a
/// simulator determinism bug.
///
/// # Panics
///
/// Panics if `workloads` is empty.
pub fn run_campaign(
    workloads: &mut [Workload<'_>],
    cfg: &CampaignConfig,
) -> Result<CampaignResult, String> {
    assert!(
        !workloads.is_empty(),
        "campaign needs at least one workload"
    );
    let mut rng = SplitMix64::new(cfg.seed);
    let mut counts = OutcomeCounts::default();
    let mut per: Vec<OutcomeCounts> = vec![OutcomeCounts::default(); workloads.len()];
    let mut metrics = MetricsRegistry::new();
    let mut records = Vec::with_capacity(cfg.injections);
    for i in 0..cfg.injections {
        let k = i % workloads.len();
        let w = &mut workloads[k];
        let injection = draw_injection(&mut rng, &w.bounds);
        let outcome = w.run_injection(&injection)?;
        counts.bump(outcome);
        per[k].bump(outcome);
        metrics.add(
            &format!("{}_{}", injection.target.structure(), outcome.name()),
            1,
        );
        records.push(InjectionRecord {
            workload: w.name.clone(),
            injection,
            outcome,
        });
    }
    Ok(CampaignResult {
        seed: cfg.seed,
        counts,
        per_workload: workloads.iter().map(|w| w.name.clone()).zip(per).collect(),
        metrics,
        records,
    })
}

/// The `(base, words)` region of a program's text segment, for
/// [`PlanBounds::regions`].
pub fn text_region(program: &Program) -> (u32, u32) {
    (program.base, program.words.len().max(1) as u32)
}

/// Runs a fault campaign over a bare program (the `mtasm fault` path).
///
/// With no numeric oracle available, the golden run's final
/// architectural state — integer registers, FPU registers, and the PSW
/// — is the reference; an injected run that completes with any
/// difference there is SDC. Memory contents are deliberately not
/// diffed: a bare program has no declared output region, and diffing
/// all of memory would misclassify every dead-store perturbation.
///
/// # Errors
///
/// Fails if the golden run itself does not complete.
pub fn run_program_campaign(
    program: &Program,
    name: &str,
    cfg: &CampaignConfig,
) -> Result<CampaignResult, String> {
    run_campaign(&mut [prepare_program(program, name, cfg)?], cfg)
}

/// Prepares a bare program as a [`Workload`] whose oracle is the golden
/// run's final architectural state (see [`run_program_campaign`]).
fn prepare_program(
    program: &Program,
    name: &str,
    cfg: &CampaignConfig,
) -> Result<Workload<'static>, String> {
    let mut m = Machine::new(cfg.sim_config());
    m.load_program(program);
    // Golden pass on a scratch copy to capture the reference state; the
    // campaign machine itself stays parked at its pre-run checkpoint.
    let reference = {
        let mut probe = m.clone();
        probe
            .run()
            .map_err(|e| format!("golden run of {name} failed: {e}"))?;
        probe.arch_state()
    };
    let mut regions = vec![text_region(program)];
    for seg in &program.segments {
        let words = (seg.bytes.len() / 4) as u32;
        if words > 0 {
            regions.push((seg.base, words));
        }
    }
    let verify = move |m: &Machine| -> Result<(), String> {
        if m.arch_state() == reference {
            Ok(())
        } else {
            Err("final architectural state differs from golden".into())
        }
    };
    Workload::prepare(name.to_string(), m, regions, Box::new(verify))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_fparith::FpOp;
    use mt_isa::{DataSegment, FReg, FpuAluInstr, IReg, Instr};

    /// A small all-FPU workload: two vector ops and a scalar combine.
    fn vector_program() -> Program {
        Program::assemble(&[
            Instr::Falu(
                FpuAluInstr::vector(FpOp::Add, FReg::new(16), FReg::new(0), FReg::new(8), 8)
                    .unwrap(),
            ),
            Instr::Falu(
                FpuAluInstr::vector(FpOp::Mul, FReg::new(24), FReg::new(16), FReg::new(8), 8)
                    .unwrap(),
            ),
            Instr::Falu(FpuAluInstr::scalar(
                FpOp::Add,
                FReg::new(32),
                FReg::new(24),
                FReg::new(25),
            )),
            Instr::Halt,
        ])
        .unwrap()
    }

    /// Loads two doubles from a data segment, multiplies them, and stores
    /// the product back, so memory faults land in data as well as text.
    fn memory_program() -> Program {
        let mut prog = Program::assemble(&[
            Instr::Fld {
                fr: FReg::new(0),
                base: IReg::new(0),
                offset: 0x2000,
            },
            Instr::Fld {
                fr: FReg::new(1),
                base: IReg::new(0),
                offset: 0x2008,
            },
            Instr::Falu(FpuAluInstr::scalar(
                FpOp::Mul,
                FReg::new(2),
                FReg::new(0),
                FReg::new(1),
            )),
            Instr::Fst {
                fr: FReg::new(2),
                base: IReg::new(0),
                offset: 0x2010,
            },
            Instr::Halt,
        ])
        .unwrap();
        prog.segments.push(DataSegment {
            base: 0x2000,
            bytes: [1.5f64, -2.25, 0.0]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect(),
        });
        prog
    }

    fn small_cfg(injections: usize) -> CampaignConfig {
        CampaignConfig {
            injections,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_seed_reproducible() {
        let prog = vector_program();
        let a = run_program_campaign(&prog, "vec", &small_cfg(40)).unwrap();
        let b = run_program_campaign(&prog, "vec", &small_cfg(40)).unwrap();
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        assert_eq!(a.counts, b.counts);
    }

    /// A long-lived caller reuses its prepared workloads: a second
    /// campaign restores machines whose memory already holds the first
    /// campaign's writes, so every restore takes the incremental path. It
    /// must record exactly what a campaign on fresh workloads records.
    #[test]
    fn warm_workloads_record_what_fresh_ones_do() {
        let programs = [("vec", vector_program()), ("mem", memory_program())];
        let prepare = |cfg: &CampaignConfig| -> Vec<Workload<'static>> {
            programs
                .iter()
                .map(|(name, prog)| prepare_program(prog, name, cfg).unwrap())
                .collect()
        };
        let cfg = small_cfg(120);
        let mut warm = prepare(&cfg);
        run_campaign(
            &mut warm,
            &CampaignConfig {
                seed: 0xB6,
                ..small_cfg(120)
            },
        )
        .unwrap();
        let again = run_campaign(&mut warm, &cfg).unwrap();
        let fresh = run_campaign(&mut prepare(&cfg), &cfg).unwrap();
        assert_eq!(again.records, fresh.records);
        assert!(
            fresh
                .records
                .iter()
                .any(|r| r.injection.target.structure() == "memory"),
            "the plan must include memory faults"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let prog = vector_program();
        let a = run_program_campaign(&prog, "vec", &small_cfg(60)).unwrap();
        let b = run_program_campaign(
            &prog,
            "vec",
            &CampaignConfig {
                seed: 0xB6,
                ..small_cfg(60)
            },
        )
        .unwrap();
        assert_ne!(
            a.records
                .iter()
                .map(|r| r.injection.clone())
                .collect::<Vec<_>>(),
            b.records
                .iter()
                .map(|r| r.injection.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_injection_is_classified_once() {
        let result = run_program_campaign(&vector_program(), "vec", &small_cfg(100)).unwrap();
        assert_eq!(result.counts.total(), 100);
        assert_eq!(result.records.len(), 100);
        let per_total: u64 = result.per_workload.iter().map(|(_, c)| c.total()).sum();
        assert_eq!(per_total, 100);
        // The per-structure metrics breakdown covers every injection
        // exactly once too.
        let structures = [
            "int_reg",
            "fpu_reg",
            "psw",
            "pipeline",
            "scoreboard",
            "cache",
            "memory",
        ];
        let outcomes = ["masked", "detected", "sdc", "crash", "hang"];
        let metric_total: u64 = structures
            .iter()
            .flat_map(|s| outcomes.iter().map(move |o| format!("{s}_{o}")))
            .map(|key| result.metrics.counter(&key))
            .sum();
        assert_eq!(metric_total, 100);
    }
}
