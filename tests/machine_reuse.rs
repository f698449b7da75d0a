//! Property: a recycled machine is indistinguishable from a fresh one.
//!
//! `mt-serve` workers own one long-lived `Machine` each and run arbitrary,
//! unrelated jobs back to back through `Machine::reset_for_new_job` +
//! `load_program`. The service's result cache is only sound if a run is a
//! pure function of `(program, options)` — which it is not if *anything*
//! leaks across jobs: register files, memory contents, cache residency,
//! PSW flags, a stale armed interrupt, watchdog bookkeeping, the text
//! write watch, trace buffers. This file proves the recycling path clean:
//! for random job pairs (A, B) — including an A that ends in a cycle-limit
//! or watchdog error — running B on the machine that just ran A is
//! bit-identical to running B on a freshly constructed machine, in
//! statistics, run outcome, both register files, the PSW, the event
//! stream, and the data memory the program touched.

use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::sim::{Machine, Program, RunError, RunStats, SimConfig};
use multititan::trace::TraceEvent;
use proptest::prelude::*;

/// Base address of the data area the random loads/stores hit.
const DATA_BASE: i32 = 0x2000;

/// One service job: a program plus the per-job knobs `mt-serve` exposes.
#[derive(Debug, Clone)]
struct Job {
    instrs: Vec<Instr>,
    regs: Vec<u64>,
    cold: bool,
    watchdog: u64,
    max_cycles: u64,
}

/// Everything observable after a job runs.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<RunStats, RunError>,
    events: Vec<TraceEvent>,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
    data: Vec<u64>,
}

fn job_config(job: &Job) -> SimConfig {
    SimConfig {
        max_cycles: job.max_cycles,
        watchdog_cycles: job.watchdog,
        ..SimConfig::default()
    }
}

/// Runs `job` on `m`, which must be in the fresh (or freshly recycled)
/// state for the job's config.
fn run_job(m: &mut Machine, job: &Job) -> Observed {
    let prog = Program::assemble(&job.instrs).unwrap();
    m.load_program(&prog);
    if !job.cold {
        m.warm_instructions(&prog);
    }
    for (i, &bits) in job.regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    let mut events = Vec::new();
    let outcome = m.run_with_sink(&mut events);
    Observed {
        outcome,
        events,
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
        data: (0..64)
            .map(|i| m.mem.memory.read_u64(DATA_BASE as u32 + 8 * i))
            .collect(),
    }
}

/// One random body instruction (loads/stores through `r1` = `DATA_BASE`).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u8..52, 0u8..52, 0u8..52, 1u8..=8).prop_filter_map("in range", |(rr, ra, rb, vl)| {
            FpuAluInstr::new(
                multititan::fparith::FpOp::Add,
                FReg::new(rr),
                FReg::new(ra),
                FReg::new(rb),
                vl,
                true,
                true,
            )
            .ok()
            .map(Instr::Falu)
        }),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fld {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fst {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
        (3u8..8, 0i32..32).prop_map(|(rd, k)| Instr::Lw {
            rd: IReg::new(rd),
            base: IReg::new(1),
            offset: 4 * k,
        }),
        (3u8..8, 0i32..32).prop_map(|(rs, k)| Instr::Sw {
            rs: IReg::new(rs),
            base: IReg::new(1),
            offset: 4 * k,
        }),
        (3u8..8, 3u8..8, 3u8..8).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(rd),
            rs1: IReg::new(rs1),
            rs2: IReg::new(rs2),
        }),
        (3u8..8).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
        Just(Instr::Nop),
    ]
}

fn arb_job() -> impl Strategy<Value = Job> {
    (
        prop::collection::vec(arb_instr(), 1..12),
        prop::collection::vec((-1.0e3f64..1.0e3).prop_map(|v| v.to_bits()), 52),
        any::<bool>(),
        // Most jobs run unbounded; some get a tight watchdog (a cold miss
        // penalty exceeds it, so they end in RunError::Watchdog) and some
        // diverge into a tight cycle limit — both error paths must recycle
        // as cleanly as a halt.
        prop_oneof![Just(0u64), Just(3u64)],
        prop_oneof![Just(1_000_000u64), Just(40u64)],
    )
        .prop_map(|(body, regs, cold, watchdog, max_cycles)| {
            let mut instrs = vec![Instr::Addi {
                rd: IReg::new(2),
                rs1: IReg::new(0),
                imm: 2,
            }];
            let loop_len = body.len() as i32;
            instrs.extend(body);
            instrs.push(Instr::Addi {
                rd: IReg::new(2),
                rs1: IReg::new(2),
                imm: -1,
            });
            instrs.push(Instr::Branch {
                cond: BranchCond::Ne,
                rs1: IReg::new(2),
                rs2: IReg::new(0),
                offset: -(loop_len + 2),
            });
            instrs.push(Instr::Halt);
            Job {
                instrs,
                regs,
                cold,
                watchdog,
                max_cycles,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance property for worker recycling: run A, recycle, run
    /// B ≡ run B fresh — bit for bit, across every observable surface,
    /// regardless of how A ended.
    #[test]
    fn recycled_machine_is_bit_identical_to_fresh(a in arb_job(), b in arb_job()) {
        let mut reused = Machine::new(job_config(&a));
        let _ = run_job(&mut reused, &a);
        reused.reset_for_new_job(job_config(&b));
        let on_reused = run_job(&mut reused, &b);

        let mut fresh = Machine::new(job_config(&b));
        let on_fresh = run_job(&mut fresh, &b);

        prop_assert_eq!(&on_reused, &on_fresh);
    }

    /// Recycling is idempotent-safe under repetition: the same job run
    /// three times on one machine gives the same answer every time.
    #[test]
    fn repeated_recycling_is_stable(job in arb_job()) {
        let mut m = Machine::new(job_config(&job));
        let first = run_job(&mut m, &job);
        for _ in 0..2 {
            m.reset_for_new_job(job_config(&job));
            let again = run_job(&mut m, &job);
            prop_assert_eq!(&again, &first);
        }
    }
}

/// A stale armed interrupt was the sharpest cross-run leak: a previous
/// run that halted before its `interrupt_after` cycle left the interrupt
/// pending, and a warm re-run would silently halt early at that cycle.
/// `reset_for_rerun` (and recycling) must disarm it.
#[test]
fn stale_interrupt_does_not_ambush_the_next_run() {
    let prog = Program::assemble(&[
        Instr::Addi {
            rd: IReg::new(2),
            rs1: IReg::new(0),
            imm: 40,
        },
        Instr::Addi {
            rd: IReg::new(2),
            rs1: IReg::new(2),
            imm: -1,
        },
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: IReg::new(2),
            rs2: IReg::new(0),
            offset: -2,
        },
        Instr::Halt,
    ])
    .unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    // Armed far beyond this run's length: the run halts first.
    m.interrupt_after(1_000_000);
    let first = m.run().unwrap();
    m.reset_for_rerun();
    let second = m.run().unwrap();
    assert_eq!(
        first.instructions, second.instructions,
        "the stale interrupt must not cut the re-run short"
    );
}
