//! Property: checkpoint/restore is architecturally invisible.
//!
//! The fault campaign leans on three contracts of
//! `Machine::snapshot`/`Machine::restore`/`Machine::run_until`:
//!
//! 1. pausing a run at an arbitrary cycle and resuming reaches the same
//!    final state (registers, PSW, statistics counters, event stream)
//!    as the uninterrupted run — whether the engine steps every cycle or
//!    hops its waits (a hop must clamp to the pause point);
//! 2. restoring a snapshot is a true rewind: two resumes from the same
//!    snapshot produce identical `RunStats` and identical final state;
//! 3. the whole round-trip holds over random programs covering every
//!    wait class (cold fetches, cache freezes, port conflicts,
//!    interlocks, IR-busy vectors, branch bubbles);
//! 4. restore rewinds memory exactly, however the machine was disturbed
//!    since: stores anywhere (past the snapshot's backing, across page
//!    boundaries, into the text), a different snapshot, a recycled
//!    machine, or a clone.

use multititan::fparith::op::ALL_OPS;
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr, DEFAULT_TEXT_BASE};
use multititan::mem::Memory;
use multititan::sim::{ArchState, Machine, Program, RunControl, RunError, RunStats, SimConfig};
use multititan::trace::TraceEvent;
use proptest::prelude::*;

/// Base address of the data area the random loads/stores hit.
const DATA_BASE: i32 = 0x2000;

/// Bytes of main memory on the default machine.
const MEM_BYTES: u32 = 4 * 1024 * 1024;

/// Everything cumulative a run leaves behind: the architectural state,
/// main memory, and the machine-lifetime FPU counters (cycle-exact
/// equality of the split run's counters implies each leg accounted
/// identically).
#[derive(Debug, PartialEq)]
struct Final {
    arch: ArchState,
    mem: Memory,
    fpu_stats: String,
}

fn observe(m: &Machine) -> Final {
    Final {
        arch: m.arch_state(),
        mem: m.mem.memory.clone(),
        fpu_stats: format!("{:?}", m.fpu.stats()),
    }
}

/// Builds a cold machine with the program loaded and inputs written.
fn fresh(instrs: &[Instr], regs: &[u64]) -> Machine {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        max_cycles: 1_000_000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    m
}

/// [`Machine::run`], stepped (recording into a throwaway sink, which
/// makes the engine step every cycle) or hopped.
fn run(m: &mut Machine, stepped: bool) -> Result<RunStats, RunError> {
    if stepped {
        m.run_with_sink(&mut Vec::new())
    } else {
        m.run()
    }
}

/// [`Machine::run_until`], stepped or hopped.
fn run_until(m: &mut Machine, stop: u64, stepped: bool) -> Option<RunStats> {
    if stepped {
        m.run_with(&mut Vec::new(), RunControl::until(stop))
    } else {
        m.run_until(stop)
    }
    .unwrap()
}

/// One random body instruction (same coverage as the hot-loop
/// equivalence suite: every stall class the run loop knows about).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0usize..ALL_OPS.len(), 0u8..52, 0u8..52, 0u8..52, 1u8..=8).prop_filter_map(
            "in range",
            |(op, rr, ra, rb, vl)| {
                FpuAluInstr::new(
                    ALL_OPS[op],
                    FReg::new(rr),
                    FReg::new(ra),
                    FReg::new(rb),
                    vl,
                    true,
                    true,
                )
                .ok()
                .map(Instr::Falu)
            }
        ),
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
        Just(Instr::Nop),
        (3u8..8).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
    ]
}

/// Setup, a random body, a 3-trip countdown loop over it, halt.
fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
    prop::collection::vec(arb_instr(), 1..16).prop_map(|body| {
        let mut instrs = vec![Instr::Addi {
            rd: IReg::new(2),
            rs1: IReg::new(0),
            imm: 3,
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
        instrs
    })
}

fn arb_regs() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((-1.0e3f64..1.0e3).prop_map(|v| v.to_bits()), 52)
}

/// One word poked straight into memory: `(address, value)`.
fn arb_store() -> impl Strategy<Value = (u32, u32)> {
    let addr = prop_oneof![
        // Anywhere, mostly far past the snapshot's backing extent.
        (0u32..MEM_BYTES / 4).prop_map(|w| 4 * w),
        // The last or first word of a 4 KiB page.
        (1u32..MEM_BYTES / 4096, any::<bool>()).prop_map(|(p, last)| 4096 * p - 4 * last as u32),
        // The text segment and the words just past its end.
        (0u32..64).prop_map(|w| DEFAULT_TEXT_BASE + 4 * w),
        // The data window the programs load and store.
        (0u32..64).prop_map(|w| DATA_BASE as u32 + 4 * w),
    ];
    (addr, any::<u32>())
}

/// What happens to the machine between two restores.
#[derive(Debug, Clone)]
struct Round {
    /// Which of the two snapshots to restore.
    target: usize,
    stores: Vec<(u32, u32)>,
    /// Recycle the machine for an unrelated job after the stores.
    new_job: bool,
    /// Restore into a clone of the machine instead of the machine.
    clone: bool,
}

fn arb_round() -> impl Strategy<Value = Round> {
    (
        0usize..2,
        prop::collection::vec(arb_store(), 0..24),
        prop_oneof![6 => Just(false), 1 => Just(true)],
        any::<bool>(),
    )
        .prop_map(|(target, stores, new_job, clone)| Round {
            target,
            stores,
            new_job,
            clone,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pausing at an arbitrary cycle, snapshotting, resuming — and
    /// rewinding to resume a second time — all reach the uninterrupted
    /// run's exact final state, stepped or hopped.
    #[test]
    fn pause_snapshot_resume_is_invisible(
        instrs in arb_program(),
        regs in arb_regs(),
        quarter in 1u64..4,
        stepped in any::<bool>(),
    ) {
        // Uninterrupted reference.
        let mut whole = fresh(&instrs, &regs);
        let whole_stats = run(&mut whole, stepped).unwrap();
        let reference = observe(&whole);
        let stop = whole_stats.cycles * quarter / 4;

        // Paused run: stop mid-flight, snapshot, resume.
        let mut m = fresh(&instrs, &regs);
        match run_until(&mut m, stop, stepped) {
            // `stop` landed inside the final drain span, which never
            // pauses; the completed run must already match.
            Some(_) => prop_assert_eq!(observe(&m), reference),
            None => {
                let snap = m.snapshot();
                let first = run(&mut m, stepped).unwrap();
                let first_final = observe(&m);
                prop_assert_eq!(&first_final, &reference);

                // Rewind and resume again: a snapshot is a true fork
                // point, not a one-shot.
                m.restore(&snap);
                let second = run(&mut m, stepped).unwrap();
                prop_assert_eq!(first, second);
                prop_assert_eq!(observe(&m), first_final);
            }
        }
    }

    /// With a sink attached (stepped, events recorded), the pause is
    /// invisible to the event stream too: first-leg events plus
    /// second-leg events equal the uninterrupted stream exactly.
    #[test]
    fn pause_is_invisible_to_the_event_stream(
        instrs in arb_program(),
        regs in arb_regs(),
        quarter in 1u64..4,
    ) {
        let mut whole = fresh(&instrs, &regs);
        let mut whole_events: Vec<TraceEvent> = Vec::new();
        let whole_stats = whole.run_with_sink(&mut whole_events).unwrap();
        let reference = observe(&whole);
        let stop = whole_stats.cycles * quarter / 4;

        let mut m = fresh(&instrs, &regs);
        let mut events: Vec<TraceEvent> = Vec::new();
        match m.run_with(&mut events, RunControl::until(stop)).unwrap() {
            Some(_) => prop_assert_eq!(observe(&m), reference),
            None => {
                m.run_with_sink(&mut events).unwrap();
                prop_assert_eq!(observe(&m), reference);
                prop_assert_eq!(events, whole_events);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Restore rewinds memory exactly. Two snapshots — at a pause point
    /// and after the program halted, so their memories differ by the
    /// program's stores — are restored in random order; before each
    /// restore the machine runs (simulated stores), takes random word
    /// pokes, and is sometimes recycled for a new job or cloned. After
    /// every restore the machine equals the machine that took the
    /// snapshot, memory included, and resumes identically.
    #[test]
    fn restore_rewinds_memory_exactly(
        instrs in arb_program(),
        regs in arb_regs(),
        quarter in 0u64..4,
        stepped in any::<bool>(),
        rounds in prop::collection::vec(arb_round(), 1..8),
    ) {
        let mut m = fresh(&instrs, &regs);
        let cycles = run(&mut m.clone(), stepped).unwrap().cycles;
        let _ = run_until(&mut m, cycles * quarter / 4, stepped);
        let paused = (m.clone(), m.snapshot());
        run(&mut m, stepped).unwrap();
        let halted = (m.clone(), m.snapshot());
        let checkpoints = [paused, halted];
        for round in &rounds {
            let _ = run(&mut m, stepped);
            for &(addr, value) in &round.stores {
                m.mem.memory.write_u32(addr, value);
            }
            if round.new_job {
                m.reset_for_new_job(SimConfig::default());
                m.mem.memory.write_u32(DATA_BASE as u32, 1);
            }
            if round.clone {
                m = m.clone();
            }
            let (reference, snap) = &checkpoints[round.target];
            m.restore(snap);
            prop_assert_eq!(observe(&m), observe(reference));
            let (mut resumed, mut expected) = (m.clone(), reference.clone());
            prop_assert_eq!(run(&mut resumed, stepped), run(&mut expected, stepped));
            prop_assert_eq!(observe(&resumed), observe(&expected));
        }
    }
}

/// A snapshot taken before any cycle restores the machine to its exact
/// pre-run state: a full run, a restore, and a rerun reproduce the same
/// statistics — the fault campaign's restore-per-injection pattern.
#[test]
fn restore_to_cycle_zero_reruns_identically() {
    let instrs = [
        Instr::Falu(FpuAluInstr::scalar(
            multititan::fparith::FpOp::Add,
            FReg::new(2),
            FReg::new(0),
            FReg::new(1),
        )),
        Instr::Halt,
    ];
    let regs: Vec<u64> = (0..52).map(|i| (i as f64).to_bits()).collect();
    let mut m = fresh(&instrs, &regs);
    let base = m.snapshot();
    assert_eq!(base.cycle(), 0);
    let first = m.run().unwrap();
    let first_final = observe(&m);
    m.restore(&base);
    let second = m.run().unwrap();
    assert_eq!(first, second);
    assert_eq!(observe(&m), first_final);
}
