//! Property: the engine's hops and its translated table are invisible.
//!
//! `Machine::run` has one execution engine, a micro-op loop (DESIGN.md
//! §8). With an enabled event sink it steps every cycle and emits that
//! cycle's events; without one (`NullSink`) it hops each multi-cycle wait
//! — data-miss freeze, branch bubble, fetch penalty, interlock — in one
//! jump, charging the skipped cycles' stall accounting in bulk. It fetches
//! micro-ops from the translated table while the text is unwritten and
//! decodes the fetched word otherwise. Both are pure optimizations; this
//! file proves it as a **two-way differential** (hopped vs stepped, plus
//! table vs decode per fetch) over random programs that exercise every
//! wait class: cold-fetch penalties, data-cache freezes, load/store port
//! conflicts, FPU register interlocks, IR-busy vector transfers, branch
//! bubbles, §2.3.1 overflow aborts, and self-modifying text. Abnormal
//! exits landing mid-hop — watchdog, cycle limit, external interrupt —
//! must also agree, error for error.

use multititan::fparith::op::ALL_OPS;
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::sim::{Machine, Program, RunError, RunStats, SimConfig};
use multititan::trace::TraceEvent;
use proptest::prelude::*;

/// Base address of the data area the random loads/stores hit (well clear
/// of the text at the default load address).
const DATA_BASE: i32 = 0x2000;

/// Everything architecturally observable after a run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    stats: RunStats,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
    fpu_stats: String,
}

/// How a run executes.
#[derive(Debug, Clone, Copy)]
struct Path {
    /// Record the event stream, which makes the engine step every cycle;
    /// otherwise it runs without a sink and hops.
    stepped: bool,
    /// Force the decode fallback on every fetch instead of the translated
    /// table (see [`force_decode`]).
    decode: bool,
}

const HOPPED: Path = Path {
    stepped: false,
    decode: false,
};
const STEPPED: Path = Path {
    stepped: true,
    decode: false,
};

/// Writes each text word's own value back: memory is unchanged, but the
/// text has now been written, so every fetch decodes the word it reads.
fn force_decode(m: &mut Machine, prog: &Program) {
    for i in 0..prog.words.len() as u32 {
        let addr = prog.base + 4 * i;
        let word = m.mem.memory.read_u32(addr);
        m.mem.memory.write_u32(addr, word);
    }
}

/// Runs `m` to completion along `path`, returning the statistics and the
/// recorded events (none for a hopped run).
fn run_path(m: &mut Machine, path: Path) -> (Result<RunStats, RunError>, Vec<TraceEvent>) {
    let mut events = Vec::new();
    let outcome = if path.stepped {
        m.run_with_sink(&mut events)
    } else {
        m.run()
    };
    (outcome, events)
}

/// Assembles and runs `instrs` along `path`, returning what it observed
/// and the recorded events.
fn run_one(instrs: &[Instr], regs: &[u64], path: Path) -> (Observed, Vec<TraceEvent>) {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        max_cycles: 1_000_000,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    if path.decode {
        force_decode(&mut m, &prog);
    }
    // Deliberately cold caches: the first trip through the text pays
    // instruction-buffer misses, the loads pay data misses — the spans
    // hops must reproduce cycle-for-cycle.
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    let (stats, events) = run_path(&mut m, path);
    (observe(&m, stats.unwrap()), events)
}

fn observe(m: &Machine, stats: RunStats) -> Observed {
    Observed {
        stats,
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
        fpu_stats: format!("{:?}", m.fpu.stats()),
    }
}

/// One random body instruction. Loads/stores use `r1` (preloaded with
/// `DATA_BASE`) so every access is in range and naturally aligned.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        // FPU vector/scalar arithmetic, the IR-busy + interlock source.
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
        // FPU loads/stores: data misses, port conflicts, load interlocks.
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
        // Integer loads/stores and ALU traffic.
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
        (3u8..8, -64i32..64).prop_map(|(rd, imm)| Instr::Addi {
            rd: IReg::new(rd),
            rs1: IReg::new(rd),
            imm,
        }),
        Just(Instr::Nop),
        (3u8..8).prop_map(|rd| Instr::Mfpsw { rd: IReg::new(rd) }),
        Just(Instr::ClrPsw),
    ]
}

/// A program: setup, a random body, then a 3-trip countdown loop over the
/// body (branch bubbles + the warm-text re-fetch path), then halt.
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
        // Target = pc + 1 + offset: jump back over the decrement and body.
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

/// Register images that drive the datapath into its corners: huge
/// magnitudes (multiply overflow → the §2.3.1 abort squash, which the
/// hopped run must replay element-for-element), tiny ones
/// (underflow/denormals), infinities, and NaN.
fn arb_regs_extreme() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            4 => (-1.0e3f64..1.0e3).prop_map(f64::to_bits),
            1 => Just(1.0e308f64.to_bits()),
            1 => Just((-1.0e308f64).to_bits()),
            1 => Just(1.0e-308f64.to_bits()),
            1 => Just(f64::INFINITY.to_bits()),
            1 => Just(f64::NAN.to_bits()),
        ],
        52,
    )
}

/// How a run that may abort ended: the outcome (stats or the typed
/// error), the final cycle, and the architectural state at that point.
#[derive(Debug, PartialEq)]
struct Ended {
    outcome: Result<RunStats, RunError>,
    cycle: u64,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
}

/// Runs to completion or abnormal exit along `path` with the given
/// limits; abnormal exits land mid-program (and, when hopped, mid-hop).
fn run_to_end(
    instrs: &[Instr],
    regs: &[u64],
    path: Path,
    max_cycles: u64,
    watchdog: u64,
    interrupt_after: Option<u64>,
) -> Ended {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(SimConfig {
        max_cycles,
        watchdog_cycles: watchdog,
        ..SimConfig::default()
    });
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    if let Some(cycles) = interrupt_after {
        m.interrupt_after(cycles);
    }
    let (outcome, _) = run_path(&mut m, path);
    Ended {
        outcome,
        cycle: m.snapshot().cycle(),
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
    }
}

/// A self-modifying straight-line program: `pre` body, a store that
/// patches the text word at `target` (an instruction between the store
/// and the halt, so the write lands on text the engine is about to fetch
/// from the translated table), `post` body, halt.
/// Returns `(instrs, target_word_index, patch_word)`; the runner parks
/// the patch word in `r10` and the text base in `r9`.
fn arb_smc_case() -> impl Strategy<Value = (Vec<Instr>, usize, u32)> {
    let patch = prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        (3u8..8, -64i32..64).prop_map(|(rd, imm)| Instr::Addi {
            rd: IReg::new(rd),
            rs1: IReg::new(rd),
            imm,
        }),
        (0usize..ALL_OPS.len(), 0u8..52, 0u8..52, 0u8..52).prop_map(|(op, rr, ra, rb)| {
            Instr::Falu(FpuAluInstr::scalar(
                ALL_OPS[op],
                FReg::new(rr),
                FReg::new(ra),
                FReg::new(rb),
            ))
        }),
        (0u8..52, 0i32..32).prop_map(|(fr, k)| Instr::Fld {
            fr: FReg::new(fr),
            base: IReg::new(1),
            offset: 8 * k,
        }),
    ];
    (
        prop::collection::vec(arb_instr(), 0..6),
        prop::collection::vec(arb_instr(), 1..8),
        patch,
        0usize..64,
    )
        .prop_map(|(pre, post, patch, pick)| {
            let target = pre.len() + 1 + pick % post.len();
            let mut instrs = pre;
            instrs.push(Instr::Sw {
                rs: IReg::new(10),
                base: IReg::new(9),
                offset: 4 * target as i32,
            });
            instrs.extend(post);
            instrs.push(Instr::Halt);
            (instrs, target, patch.encode().unwrap())
        })
}

/// Runs one self-modifying-text case along `path`.
fn run_smc(instrs: &[Instr], regs: &[u64], patch_word: u32, path: Path) -> Observed {
    use multititan::sim::DEFAULT_TEXT_BASE;
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
    m.set_ireg(IReg::new(9), DEFAULT_TEXT_BASE as i32);
    m.set_ireg(IReg::new(10), patch_word as i32);
    let (stats, _) = run_path(&mut m, path);
    observe(&m, stats.expect("straight-line SMC program must halt"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hops are invisible: statistics, stall accounting, both register
    /// files, and the PSW match the stepped run, and every hopped cycle
    /// is attributed to a stall cause.
    #[test]
    fn fast_forward_equals_tick_by_tick(instrs in arb_program(), regs in arb_regs()) {
        let (hopped, _) = run_one(&instrs, &regs, HOPPED);
        let (stepped, _) = run_one(&instrs, &regs, STEPPED);
        prop_assert_eq!(&hopped, &stepped);
        prop_assert_eq!(
            hopped.stats.accounted_cycles(), hopped.stats.cycles,
            "every hopped cycle must be attributed to a stall cause"
        );
    }

    /// The translated table is invisible, including to the event stream:
    /// fetching micro-ops from the table and decoding every fetched word
    /// (forced by writing the text back) record the same per-cycle
    /// events and end in the same state.
    #[test]
    fn table_equals_decode_per_fetch(instrs in arb_program(), regs in arb_regs()) {
        let (table, table_events) = run_one(&instrs, &regs, STEPPED);
        let (decoded, decoded_events) = run_one(&instrs, &regs, Path { decode: true, ..STEPPED });
        prop_assert_eq!(table, decoded);
        prop_assert_eq!(table_events, decoded_events);
    }

    /// Hopping through the table, hopping through the decode fallback,
    /// and stepping agree bit for bit — statistics, per-cause stall
    /// accounting, registers, PSW.
    #[test]
    fn xlate_equals_fast_forward_equals_tick(instrs in arb_program(), regs in arb_regs()) {
        let (stepped, _) = run_one(&instrs, &regs, STEPPED);
        let (table, _) = run_one(&instrs, &regs, HOPPED);
        let (decoded, _) = run_one(&instrs, &regs, Path { decode: true, ..HOPPED });
        prop_assert_eq!(&stepped, &table);
        prop_assert_eq!(&stepped, &decoded);
    }

    /// The same agreement when the datapath hits its corners: overflow
    /// (the §2.3.1 abort squashes the rest of the vector, and the abort
    /// may land inside a hop), underflow, infinities, NaN.
    #[test]
    fn overflow_abort_mid_block_agrees(instrs in arb_program(), regs in arb_regs_extreme()) {
        let (stepped, _) = run_one(&instrs, &regs, STEPPED);
        let (hopped, _) = run_one(&instrs, &regs, HOPPED);
        prop_assert_eq!(&stepped, &hopped);
        prop_assert_eq!(hopped.stats.accounted_cycles(), hopped.stats.cycles);
    }

    /// Abnormal exits land identically: watchdog trips, cycle limits,
    /// and external interrupts cut a hop short, and the error (or the
    /// interrupt's clean halt), the final cycle, and the architectural
    /// state must match the stepped run's exactly.
    #[test]
    fn mid_block_exits_agree(
        instrs in arb_program(),
        regs in arb_regs(),
        max_cycles in 10u64..400,
        watchdog in 1u64..40,
        interrupt in prop_oneof![1 => Just(None), 3 => (3u64..300).prop_map(Some)],
    ) {
        let stepped = run_to_end(&instrs, &regs, STEPPED, max_cycles, watchdog, interrupt);
        let hopped = run_to_end(&instrs, &regs, HOPPED, max_cycles, watchdog, interrupt);
        prop_assert_eq!(&stepped, &hopped, "hopped diverged from stepped at an abnormal exit");
    }

    /// Self-modifying text: a store that patches an instruction later in
    /// the program must take effect before that word's next fetch — the
    /// write-watch is checked on every fetch, so the engine drops the
    /// table at the write, hopped or stepped. Since the patched word is
    /// first fetched after the store, the run ends exactly where the
    /// program with the word patched before loading ends.
    #[test]
    fn self_modifying_text_agrees((instrs, target, patch) in arb_smc_case(), regs in arb_regs()) {
        let stepped = run_smc(&instrs, &regs, patch, STEPPED);
        let hopped = run_smc(&instrs, &regs, patch, HOPPED);
        prop_assert_eq!(&stepped, &hopped);
        let mut prepatched = instrs.clone();
        prepatched[target] = Instr::decode(patch).unwrap();
        prop_assert_eq!(&run_smc(&prepatched, &regs, patch, HOPPED), &hopped);
        prop_assert_eq!(hopped.stats.accounted_cycles(), hopped.stats.cycles);
    }

    /// All four paths (table or decode × hopped or stepped) agree on the
    /// outcome, and both stepped paths on the event stream.
    #[test]
    fn all_paths_agree(instrs in arb_program(), regs in arb_regs()) {
        let mut ended = Vec::new();
        for stepped in [false, true] {
            for decode in [false, true] {
                ended.push(run_one(&instrs, &regs, Path { stepped, decode }));
            }
        }
        for (observed, _) in &ended[1..] {
            prop_assert_eq!(observed, &ended[0].0);
        }
        prop_assert_eq!(&ended[2].1, &ended[3].1);
    }
}

/// Mutation check on the differential's assertions: `Observed`'s
/// equality must actually have the power to catch a single-field
/// divergence — a one-cycle drift, one mis-attributed stall, one
/// flipped result bit, a PSW flag — otherwise every proptest above is
/// vacuous.
#[test]
fn differential_assertions_detect_single_field_mutations() {
    let instrs = [
        Instr::Falu(FpuAluInstr::scalar(
            multititan::fparith::FpOp::Add,
            FReg::new(4),
            FReg::new(1),
            FReg::new(2),
        )),
        Instr::Halt,
    ];
    let regs: Vec<u64> = (0..52).map(|i| (i as f64).to_bits()).collect();
    let (base, _) = run_one(&instrs, &regs, HOPPED);

    let mut cycles = base.clone();
    cycles.stats.cycles += 1;
    assert_ne!(base, cycles, "a one-cycle drift must be caught");

    let mut stall = base.clone();
    stall.stats.stalls.branch += 1;
    assert_ne!(base, stall, "a mis-attributed stall must be caught");

    let mut freg = base.clone();
    freg.fregs[4] ^= 1;
    assert_ne!(base, freg, "a flipped result bit must be caught");

    let mut ireg = base.clone();
    ireg.iregs[5] ^= 1;
    assert_ne!(base, ireg, "an integer register bit must be caught");

    let mut psw = base.clone();
    psw.psw.push('!');
    assert_ne!(base, psw, "a PSW difference must be caught");

    let mut instret = base.clone();
    instret.stats.instructions += 1;
    assert_ne!(base, instret, "an instruction-count drift must be caught");
}

/// The fixed corpus: every Livermore loop and every shipped example runs
/// bit-identically hopped and stepped, cold and warm.
#[test]
fn corpus_is_bit_identical_across_backends() {
    use multititan::kernels::{harness, livermore};
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let hopped = harness::run_kernel_with(&kernel, SimConfig::default()).unwrap();
        let stepped = harness::run_kernel_recorded(&kernel, SimConfig::default())
            .unwrap()
            .report;
        assert_eq!(hopped.cold, stepped.cold, "loop {n} cold");
        assert_eq!(hopped.warm, stepped.warm, "loop {n} warm");
    }

    for entry in std::fs::read_dir("examples/asm").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("s") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let program = multititan::asm::parse(&src, 0x1_0000).unwrap();
        let mut ended = Vec::new();
        for how in [HOPPED, STEPPED] {
            let mut m = Machine::new(SimConfig::default());
            m.load_program(&program);
            m.warm_instructions(&program);
            let (stats, _) = run_path(&mut m, how);
            let stats = stats.unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            ended.push(observe(&m, stats));
        }
        assert_eq!(ended[0], ended[1], "{} diverged", path.display());
    }
}

/// A write into the text segment drops the translated table: the fetch
/// decodes the current memory word instead.
#[test]
fn self_modifying_text_falls_back_to_slow_decode() {
    use multititan::sim::DEFAULT_TEXT_BASE;
    // Word 2 is a jump-to-self; the store ahead of it patches it to Halt.
    // A fetch that trusted the stale table would spin to the cycle limit;
    // the fallback decodes the patched word and halts.
    let halt_word = Instr::Halt.encode().unwrap();
    let prog = Program::assemble(&[
        Instr::Addi {
            rd: IReg::new(3),
            rs1: IReg::new(0),
            imm: halt_word as i32,
        },
        Instr::Sw {
            rs: IReg::new(3),
            base: IReg::new(1), // r1 = text base (set below)
            offset: 8,          // word 2: the instruction after this store
        },
        Instr::Jump {
            target: DEFAULT_TEXT_BASE / 4 + 2, // self-loop until patched
        },
    ])
    .unwrap();
    for path in [HOPPED, STEPPED] {
        let mut m = Machine::new(SimConfig {
            max_cycles: 100_000,
            ..SimConfig::default()
        });
        m.load_program(&prog);
        m.set_ireg(IReg::new(1), DEFAULT_TEXT_BASE as i32);
        let (stats, _) = run_path(&mut m, path);
        assert!(stats.expect("patched text must halt").instructions >= 3);
    }
}
