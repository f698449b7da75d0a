//! Machine-level behaviour tests: CPU loops, memory timing, cold/warm cache
//! protocol, the dual-issue overlap, checked-mode ordering diagnostics, and
//! failure modes.

use mt_fparith::FpOp;
use mt_isa::cpu::BranchCond;
use mt_isa::{FReg, FpuAluInstr, IReg, Instr};
use mt_sim::{Machine, Program, RunError, SimConfig, ViolationKind};

fn r(i: u8) -> FReg {
    FReg::new(i)
}

fn ir(i: u8) -> IReg {
    IReg::new(i)
}

fn machine_with(instrs: &[Instr]) -> Machine {
    let prog = Program::assemble(instrs).expect("assembles");
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m
}

/// A counted loop summing integers 1..=10 with the CPU alone.
#[test]
fn cpu_counted_loop() {
    // r1 = counter, r2 = sum, r3 = limit.
    let m = &mut machine_with(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 1,
        },
        Instr::Addi {
            rd: ir(2),
            rs1: ir(0),
            imm: 0,
        },
        Instr::Addi {
            rd: ir(3),
            rs1: ir(0),
            imm: 10,
        },
        // loop:
        Instr::Alu {
            op: mt_isa::cpu::AluOp::Add,
            rd: ir(2),
            rs1: ir(2),
            rs2: ir(1),
        },
        Instr::Addi {
            rd: ir(1),
            rs1: ir(1),
            imm: 1,
        },
        Instr::Branch {
            cond: BranchCond::Ge,
            rs1: ir(3),
            rs2: ir(1),
            offset: -3,
        },
        Instr::Halt,
    ]);
    let stats = m.run().unwrap();
    assert_eq!(m.ireg(ir(2)), 55);
    // 3 setup + 10×3 loop + halt = 34 instructions; the back-branch is
    // taken 9 times (the 10th falls through).
    assert_eq!(stats.instructions, 34);
    assert_eq!(stats.stalls.branch, 9);
}

#[test]
fn integer_load_store_and_delay_slot() {
    let m = &mut machine_with(&[
        Instr::Lw {
            rd: ir(1),
            base: ir(0),
            offset: 0x2000,
        },
        // Immediate use: must stall one cycle on the load interlock.
        Instr::Addi {
            rd: ir(2),
            rs1: ir(1),
            imm: 1,
        },
        Instr::Sw {
            rs: ir(2),
            base: ir(0),
            offset: 0x2004,
        },
        Instr::Halt,
    ]);
    m.mem.memory.write_u32(0x2000, 41);
    m.mem.load_u32(0x2000); // warm the line
    let stats = m.run().unwrap();
    assert_eq!(m.mem.memory.read_u32(0x2004), 42);
    assert_eq!(stats.stalls.int_load_hazard, 1, "one delay-slot interlock");
}

#[test]
fn store_port_is_busy_for_two_cycles() {
    let m = &mut machine_with(&[
        Instr::Fst {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fst {
            fr: r(1),
            base: ir(0),
            offset: 0x2008,
        },
        Instr::Fst {
            fr: r(2),
            base: ir(0),
            offset: 0x2010,
        },
        Instr::Halt,
    ]);
    m.mem.load_f64(0x2000);
    m.mem.load_f64(0x2010);
    m.fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0]);
    let stats = m.run().unwrap();
    // Stores at cycles 0, 2, 4 — each back-to-back pair costs one port
    // stall ("back-to-back stores require two cycles", Fig. 13).
    assert_eq!(stats.stalls.ls_port_busy, 2);
    assert_eq!(m.mem.memory.read_f64(0x2010), 3.0);
}

#[test]
fn cold_cache_misses_freeze_issue() {
    let instrs = [
        Instr::Fld {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fld {
            fr: r(1),
            base: ir(0),
            offset: 0x2008,
        }, // same line: hit
        Instr::Fld {
            fr: r(2),
            base: ir(0),
            offset: 0x2010,
        }, // next line: miss
        Instr::Halt,
    ];
    let m = &mut machine_with(&instrs);
    m.mem.memory.write_f64(0x2000, 1.0);
    m.mem.memory.write_f64(0x2008, 2.0);
    m.mem.memory.write_f64(0x2010, 3.0);
    let stats = m.run().unwrap();
    assert_eq!(m.fpu.regs().read_f64(r(2)), 3.0);
    assert_eq!(stats.stalls.data_miss, 28, "two 14-cycle misses");
    assert_eq!(stats.dcache.misses, 2);
    assert_eq!(stats.dcache.hits, 1);
}

#[test]
fn warm_rerun_protocol_eliminates_data_misses() {
    let instrs = [
        Instr::Fld {
            fr: r(0),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Fld {
            fr: r(1),
            base: ir(0),
            offset: 0x2100,
        },
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);

    let cold = m.run().unwrap();
    assert!(cold.dcache.misses > 0);
    assert!(cold.ibuffer.misses > 0, "cold instruction fetch too");

    m.reset_for_rerun();
    let warm = m.run().unwrap();
    assert_eq!(warm.dcache.misses, 0);
    assert_eq!(warm.ibuffer.misses, 0);
    assert!(
        warm.cycles < cold.cycles,
        "warm {} must beat cold {}",
        warm.cycles,
        cold.cycles
    );
}

/// The two-operations-per-cycle overlap: loads issue while a vector's
/// elements issue, so the combined rate approaches 2 ops/cycle.
#[test]
fn dual_issue_overlaps_loads_with_vector_elements() {
    // One VL-16 multiply while 14 independent loads stream in.
    let mut instrs = vec![Instr::Falu(
        FpuAluInstr::vector(FpOp::Mul, r(16), r(0), r(32), 16).unwrap(),
    )];
    for i in 0..14 {
        instrs.push(Instr::Fld {
            fr: r(34 + i),
            base: ir(0),
            offset: 0x2000 + 8 * i as i32,
        });
    }
    instrs.push(Instr::Halt);

    let run_with = |serialized: bool| {
        let prog = Program::assemble(&instrs).unwrap();
        let mut m = Machine::new(SimConfig {
            serialized_issue: serialized,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        for i in 0..16u32 {
            m.mem.load_f64(0x2000 + 8 * i); // warm data
        }
        let stats = m.run().unwrap();
        (stats.cycles, stats.ops_per_cycle())
    };

    let (dual_cycles, dual_rate) = run_with(false);
    let (serial_cycles, _) = run_with(true);
    assert!(
        dual_rate > 1.5,
        "dual issue should approach 2 ops/cycle, got {dual_rate:.2}"
    );
    assert!(
        serial_cycles > dual_cycles + 10,
        "serialized issue must be much slower: {serial_cycles} vs {dual_cycles}"
    );
}

#[test]
fn checked_mode_flags_store_before_element_issue() {
    // Store element 3's result register while the vector has only begun
    // issuing — the §2.3.2 case the compiler must break.
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fst {
            fr: r(23),
            base: ir(0),
            offset: 0x2000,
        }, // element 7's dest
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        checked_ordering: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let stats = m.run().unwrap();
    assert!(
        stats
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::StoreReadsPendingDest && v.reg == r(23)),
        "violations: {:?}",
        stats.violations
    );
}

#[test]
fn checked_mode_flags_load_clobbering_pending_source() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(7),
            base: ir(0),
            offset: 0x2000,
        }, // element 7 reads R7
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        checked_ordering: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let stats = m.run().unwrap();
    assert!(stats
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::LoadClobbersPendingSource && v.reg == r(7)));
}

#[test]
fn checked_mode_flags_load_into_pending_dest() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(23),
            base: ir(0),
            offset: 0x2000,
        }, // element 7 writes R23
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        checked_ordering: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let stats = m.run().unwrap();
    assert!(stats
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::LoadIntoPendingDest && v.reg == r(23)));
}

#[test]
fn ordering_violation_display_carries_instr_index_and_pc() {
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fld {
            fr: r(7),
            base: ir(0),
            offset: 0x2000,
        },
        Instr::Halt,
    ];
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        checked_ordering: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.mem.load_f64(0x2000);
    let stats = m.run().unwrap();
    let v = stats.violations.first().expect("violation fires");
    assert_eq!(v.instr_index, 1);
    assert_eq!(v.pc, prog.base + 4);
    let text = v.to_string();
    assert!(text.contains("instr #1"), "{text}");
    assert!(text.contains(&format!("{:#x}", v.pc)), "{text}");
}

#[test]
fn checked_mode_is_quiet_for_in_order_stores() {
    // Storing results in element order is the sanctioned pattern: each
    // store waits (scoreboard) for its element, never slipping ahead.
    let mut instrs = vec![Instr::Falu(
        FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 4).unwrap(),
    )];
    for i in 0..4 {
        instrs.push(Instr::Fst {
            fr: r(16 + i),
            base: ir(0),
            offset: 0x2000 + 8 * i as i32,
        });
    }
    instrs.push(Instr::Halt);
    let prog = Program::assemble(&instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        checked_ordering: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    let stats = m.run().unwrap();
    assert!(
        stats.violations.is_empty(),
        "in-order stores are legal: {:?}",
        stats.violations
    );
}

#[test]
fn cycle_limit_error() {
    let prog = Program::assemble(&[Instr::Jump {
        target: mt_sim::DEFAULT_TEXT_BASE / 4,
    }])
    .unwrap();
    let mut m = Machine::new(SimConfig {
        max_cycles: 1000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    assert!(matches!(m.run(), Err(RunError::CycleLimit(1000))));
}

#[test]
fn bad_instruction_error() {
    let mut m = Machine::new(SimConfig::default());
    // PC at zeroed memory: opcode 0 funct 0 is NOP — runs forever; point PC
    // at a word with a reserved FPU encoding instead.
    let prog = Program {
        words: vec![6u32 << 28],
        base: 0x1000,
        segments: Vec::new(),
    };
    m.load_program(&prog);
    match m.run() {
        Err(RunError::BadInstruction { pc, .. }) => assert_eq!(pc, 0x1000),
        other => panic!("expected BadInstruction, got {other:?}"),
    }
}

#[test]
fn trace_records_completed_instructions() {
    let prog = Program::assemble(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 7,
        },
        Instr::Halt,
    ])
    .unwrap();
    let mut m = Machine::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.run().unwrap();
    let log = mt_sim::trace_lines(m.trace_events());
    assert_eq!(log.len(), 2);
    assert!(log[0].contains("addi r1, r0, 7"));
    assert!(log[1].contains("halt"));
}

#[test]
fn jal_and_jr_implement_calls() {
    let base = mt_sim::DEFAULT_TEXT_BASE;
    let m = &mut machine_with(&[
        Instr::Jal {
            target: base / 4 + 3,
        }, // call subroutine
        Instr::Addi {
            rd: ir(2),
            rs1: ir(1),
            imm: 1,
        }, // after return
        Instr::Halt,
        // Subroutine: r1 = 41; return.
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 41,
        },
        Instr::Jr { rs: ir(31) },
    ]);
    m.run().unwrap();
    assert_eq!(m.ireg(ir(2)), 42);
}

#[test]
fn determinism_same_program_same_cycles() {
    let build = || {
        let m = &mut machine_with(&[
            Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(8), r(0), r(4), 4).unwrap()),
            Instr::Halt,
        ]);
        m.fpu.regs_mut().write_vector(r(0), &[1.0, 2.0, 3.0, 4.0]);
        m.fpu.regs_mut().write_vector(r(4), &[5.0, 6.0, 7.0, 8.0]);
        m.run().unwrap().cycles
    };
    assert_eq!(build(), build());
}

#[test]
fn full_range_interlock_makes_out_of_order_stores_correct() {
    // The Ardent-Titan-style hardware alternative of §2.3.2: storing a
    // *later* element's result register stalls until that element issues,
    // so the §2.3.2 software rule becomes unnecessary.
    let instrs = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(16), r(0), r(8), 8).unwrap()),
        Instr::Fst {
            fr: r(23),
            base: ir(1),
            offset: 0,
        }, // element 7's dest
        Instr::Halt,
    ];
    let run = |full_range: bool| -> f64 {
        let prog = Program::assemble(&instrs).unwrap();
        let mut m = Machine::new(SimConfig {
            full_range_interlock: full_range,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        m.set_ireg(ir(1), 0x2000);
        m.mem.load_f64(0x2000); // warm the line
        m.fpu.regs_mut().write_vector(r(0), &[1.0; 8]);
        m.fpu.regs_mut().write_vector(r(8), &[2.0; 8]);
        m.run().unwrap();
        m.mem.memory.read_f64(0x2000)
    };
    // Baseline hardware: the store slips past the unissued element and
    // reads the stale register (the compiler was supposed to break the
    // vector).
    assert_eq!(run(false), 0.0, "stale value without the interlock");
    // Full-range interlock: the store waits for element 7.
    assert_eq!(run(true), 3.0, "correct value with the interlock");
}

#[test]
fn vectors_continue_long_after_an_interrupt() {
    // §2.3.1: "vector ALU instructions may continue long after an
    // interrupt. For example in the case of vector recursion … of length
    // 16, the last element would be written 48 cycles later."
    let m = &mut machine_with(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 16).unwrap()),
        Instr::Halt, // never reached: the interrupt fires first
    ]);
    m.fpu.regs_mut().write_f64(r(0), 1.0);
    m.fpu.regs_mut().write_f64(r(1), 1.0);
    m.interrupt_after(1); // right after the transfer
    let stats = m.run().unwrap();
    // The recursion still completes: Fib(17) in R17.
    assert_eq!(m.fpu.regs().read_f64(r(17)), 2584.0);
    // …and the drain ran the full 48 cycles from the transfer.
    assert_eq!(stats.cycles, 48);
    assert_eq!(stats.instructions, 1, "the CPU retired only the transfer");
}

#[test]
fn timeline_reproduces_figure_8() {
    let prog = Program::assemble(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Add, r(2), r(1), r(0), 8).unwrap()),
        Instr::Halt,
    ])
    .unwrap();
    let mut m = Machine::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.run().unwrap();
    let t = m.timeline();
    // One transfer row + 8 element rows (halt records no timeline row).
    assert_eq!(t.len(), 9);
    let rendered = t.render(64);
    assert!(rendered.contains("R2 := R1 + R0"));
    assert!(rendered.contains("R9 := R8 + R7"));
    // Element k issues at cycle 3k (the dependent chain of Fig. 8).
    let issues: Vec<u64> = t
        .rows()
        .iter()
        .filter(|row| row.label.contains(":="))
        .map(|row| row.start)
        .collect();
    assert_eq!(issues, vec![0, 3, 6, 9, 12, 15, 18, 21]);
}

#[test]
fn mfpsw_reads_overflow_capture_and_clrpsw_clears() {
    // A vector whose element 2 overflows: the PSW must record R10 (the
    // first overflowing destination), readable by the CPU via mfpsw.
    let m = &mut machine_with(&[
        Instr::Falu(FpuAluInstr::vector(FpOp::Mul, r(8), r(0), r(4), 4).unwrap()),
        // The overflow is only architecturally visible once the element
        // retires (cycle 5); idle the CPU past it before reading the PSW.
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Nop,
        Instr::Mfpsw { rd: ir(1) },
        Instr::ClrPsw,
        Instr::Mfpsw { rd: ir(2) },
        Instr::Halt,
    ]);
    m.fpu
        .regs_mut()
        .write_vector(r(0), &[1.0, 2.0, f64::MAX, 4.0]);
    m.fpu
        .regs_mut()
        .write_vector(r(4), &[1.0, 2.0, f64::MAX, 4.0]);
    m.run().unwrap();
    let v = m.ireg(ir(1));
    assert_ne!(v & (1 << 15), 0, "overflow-dest valid bit");
    assert_eq!((v >> 8) & 0x3F, 10, "first overflowing destination is R10");
    assert_ne!(
        v & mt_fparith::Exceptions::OVERFLOW.bits() as i32,
        0,
        "overflow flag visible"
    );
    assert_eq!(m.ireg(ir(2)), 0, "clrpsw wiped the PSW");
}

/// Regression (PR 3): fetch-miss stalls accrue per elapsed cycle like
/// every other cause. A run cut short *inside* a fetch penalty (here by an
/// interrupt, the same applies to `max_cycles`) must account exactly the
/// cycles that elapsed — the old code charged the whole penalty to the
/// miss cycle, making `accounted_cycles()` exceed `cycles`.
#[test]
fn interrupt_inside_fetch_penalty_keeps_accounting_exact() {
    for stepped in [false, true] {
        // Cold machine: the very first fetch pays the full 16-cycle
        // buffer + instruction-cache miss.
        let prog = Program::assemble(&[Instr::Nop, Instr::Halt]).expect("assembles");
        let mut m = Machine::new(SimConfig {
            trace: stepped,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.interrupt_after(5); // fires mid-penalty
        let stats = m.run().unwrap();
        assert_eq!(stats.cycles, 5);
        assert_eq!(stats.instructions, 0, "still waiting on the fetch");
        assert_eq!(
            stats.accounted_cycles(),
            stats.cycles,
            "partial fetch penalty must not over-account (stepped={stepped})"
        );
    }
}

/// Regression: `trace_events` (and the trace text rendered from it) holds
/// the most recent run only. Trace buffers used to accumulate across
/// `run` calls on a reused machine — unbounded growth and cross-run
/// contamination.
#[test]
fn trace_buffers_hold_most_recent_run_only() {
    let prog = Program::assemble(&[
        Instr::Addi {
            rd: ir(1),
            rs1: ir(0),
            imm: 7,
        },
        Instr::Halt,
    ])
    .expect("assembles");
    let mut m = Machine::new(SimConfig {
        trace: true,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    m.warm_instructions(&prog);
    m.run().unwrap();
    let first_log = mt_sim::trace_lines(m.trace_events());
    let first_events = m.trace_events().len();
    assert!(!first_log.is_empty() && first_events > 0);

    m.reset_for_rerun();
    m.run().unwrap();
    // Same shape as the first run (cycle numbers keep counting across
    // reruns, so compare everything after the cycle column).
    let log = mt_sim::trace_lines(m.trace_events());
    assert_eq!(log.len(), first_log.len(), "replaces, not appends");
    for (a, b) in log.iter().zip(&first_log) {
        assert_eq!(&a[8..], &b[8..], "second run replaces, not appends");
    }
    assert_eq!(m.trace_events().len(), first_events);
}

/// Regression (PR 4): the PSW is per-run supervisor state. Before the
/// fix, `reset_for_rerun` (and `load_program`) left the sticky exception
/// flags and the §2.3.1 overflow destination from the previous run in
/// place, so a warm re-run of an overflowing program observed stale
/// abort state instead of recording its own.
#[test]
fn rerun_starts_with_a_clean_psw() {
    let overflowing = [
        Instr::Falu(FpuAluInstr::vector(FpOp::Mul, r(8), r(0), r(4), 4).unwrap()),
        Instr::Halt,
    ];
    let m = &mut machine_with(&overflowing);
    let init = |m: &mut Machine| {
        m.fpu
            .regs_mut()
            .write_vector(r(0), &[1.0, 2.0, f64::MAX, 4.0]);
        m.fpu
            .regs_mut()
            .write_vector(r(4), &[1.0, 2.0, f64::MAX, 4.0]);
    };
    init(m);
    m.run().unwrap();
    assert_eq!(m.fpu.psw().overflow_dest, Some(r(10)));
    assert!(m.fpu.psw().flags.contains(mt_fparith::Exceptions::OVERFLOW));

    // The re-run must start clean and then record its *own* abort.
    init(m);
    m.reset_for_rerun();
    assert_eq!(m.fpu.psw().overflow_dest, None, "stale overflow_dest");
    assert!(m.fpu.psw().flags.is_empty(), "stale sticky flags");
    m.run().unwrap();
    assert_eq!(m.fpu.psw().overflow_dest, Some(r(10)));

    // Loading a fresh program wipes it too.
    let prog = Program::assemble(&[Instr::Halt]).unwrap();
    m.load_program(&prog);
    assert_eq!(m.fpu.psw().overflow_dest, None);
    assert!(m.fpu.psw().flags.is_empty());
}

/// A stuck scoreboard reservation (the canonical injected fault) wedges
/// the register interlock; the no-retire watchdog converts the infinite
/// stall into a typed error instead of spinning to the cycle limit —
/// and reports it at the identical cycle stepped and hopped, since a hop
/// clamps to the watchdog deadline.
#[test]
fn watchdog_catches_stuck_scoreboard_stepped_and_hopped() {
    let run_wedged = |stepped: bool| {
        let prog = Program::assemble(&[
            Instr::Falu(FpuAluInstr::scalar(FpOp::Add, r(2), r(0), r(1))),
            Instr::Halt,
        ])
        .unwrap();
        let mut m = Machine::new(SimConfig {
            trace: stepped,
            watchdog_cycles: 100,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.warm_instructions(&prog);
        // The injected fault: a reservation on a source register that
        // nothing in flight will ever clear.
        m.fpu.flip_scoreboard(r(0));
        let err = m.run().unwrap_err();
        (err, format!("{:?}", m.fpu.stats()))
    };
    let (stepped_err, stepped_stats) = run_wedged(true);
    let (hopped_err, hopped_stats) = run_wedged(false);
    match &stepped_err {
        RunError::Watchdog { idle_cycles, .. } => assert!(*idle_cycles > 100),
        other => panic!("expected watchdog, got {other:?}"),
    }
    assert_eq!(
        stepped_err, hopped_err,
        "watchdog must fire at the same point"
    );
    assert_eq!(stepped_stats, hopped_stats);
}

/// `RunError` is a real error type: `Display` renders actionable
/// messages and `std::error::Error` lets it flow through `?` into
/// boxed-error contexts (the campaign driver relies on both).
#[test]
fn run_error_implements_display_and_error() {
    let err: Box<dyn std::error::Error> = Box::new(RunError::Watchdog {
        pc: 0x1_0040,
        idle_cycles: 500,
    });
    assert_eq!(
        err.to_string(),
        "watchdog: no progress for 500 cycles at pc 0x10040"
    );
    let limit = RunError::CycleLimit(42);
    assert_eq!(limit.to_string(), "no halt within 42 cycles");
}
