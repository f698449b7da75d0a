//! Property: `MachineConfig` is a faithful parameterization.
//!
//! The dse tentpole lifted every hard-coded microarchitectural constant
//! into `MachineConfig`. Two things must hold for the sweep engine's
//! numbers to mean anything:
//!
//! 1. **Default fidelity** — constructing the config explicitly
//!    (`MachineConfig::multititan()`) is bit-identical to the implicit
//!    default, hopped and stepped, for random programs and for the whole
//!    Livermore corpus. The refactor changed no observable behavior.
//! 2. **Off-default coherence** — a *non*-default configuration is
//!    still one machine: the engine's hopped and stepped runs agree bit
//!    for bit under random timing/cache knobs, and
//!    the knobs move performance in the physically sensible direction
//!    (slower FPU ⇒ no faster warm loops; costlier misses ⇒ no faster
//!    cold loops; more lanes ⇒ no slower warm loops).
//!
//! Parsing is held to a third rule: `?config=` arrives from untrusted
//! service clients, so `MachineConfig::parse` never panics.

use multititan::fparith::op::ALL_OPS;
use multititan::isa::cpu::{AluOp, BranchCond};
use multititan::isa::{FReg, FpuAluInstr, IReg, Instr};
use multititan::kernels::harness::run_kernel_with;
use multititan::kernels::livermore;
use multititan::sim::{Machine, MachineConfig, Program, RunStats, SimConfig, KNOB_NAMES};
use proptest::prelude::*;

const DATA_BASE: i32 = 0x2000;

/// Everything architecturally observable after a run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    stats: RunStats,
    fregs: Vec<u64>,
    iregs: Vec<i32>,
    psw: String,
}

/// Assembles and runs `instrs` under `cfg`, cold caches.
fn run_one(instrs: &[Instr], regs: &[u64], cfg: SimConfig) -> Observed {
    let prog = Program::assemble(instrs).unwrap();
    let mut m = Machine::new(cfg);
    m.load_program(&prog);
    for (i, &bits) in regs.iter().enumerate() {
        m.fpu.write_reg_direct(FReg::new(i as u8), bits);
    }
    m.set_ireg(IReg::new(1), DATA_BASE);
    let stats = m.run().unwrap();
    Observed {
        stats,
        fregs: (0..52).map(|i| m.fpu.read_reg(FReg::new(i))).collect(),
        iregs: (0..32).map(|i| m.ireg(IReg::new(i))).collect(),
        psw: format!("{:?}", m.fpu.psw()),
    }
}

/// One random body instruction (the `hot_loop_equivalence` mix: FPU
/// vector arithmetic, FPU and integer loads/stores, ALU traffic).
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
        (3u8..8, 3u8..8, 3u8..8).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd: IReg::new(rd),
            rs1: IReg::new(rs1),
            rs2: IReg::new(rs2),
        }),
        Just(Instr::Nop),
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

/// A random *valid* off-default machine: timing and cache knobs move,
/// register-file geometry stays at the paper's (the random programs
/// address all 52 registers).
fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    (
        1u64..=8,                                  // fpu_latency
        prop_oneof![Just(1u64), Just(2), Just(4)], // fpu_lanes
        (1u64..=3, 1u64..=3),                      // load/store_port_cycles
        0u64..=3,                                  // int_load_delay_cycles
        0u64..=3,                                  // branch_penalty
        1u64..=40,                                 // dcache_miss
        1u64..=40,                                 // ibuffer_miss
        prop_oneof![Just(1u64), Just(2), Just(4)], // dcache_ways
    )
        .prop_map(|(lat, lanes, (ld, st), int_ld, br, dmiss, imiss, ways)| {
            let mut m = MachineConfig::multititan();
            for (knob, value) in [
                ("fpu_latency", lat),
                ("fpu_lanes", lanes),
                ("load_port_cycles", ld),
                ("store_port_cycles", st),
                ("int_load_delay_cycles", int_ld),
                ("branch_penalty", br),
                ("dcache_miss", dmiss),
                ("ibuffer_miss", imiss),
                ("dcache_ways", ways),
            ] {
                m.set_knob(knob, value).unwrap();
            }
            m.validate().unwrap();
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default fidelity on random programs: the explicit paper config is
    /// bit-identical to the implicit default, hopped and stepped.
    #[test]
    fn explicit_default_equals_implicit_default(
        instrs in arb_program(),
        regs in arb_regs(),
    ) {
        for stepped in [false, true] {
            let implicit = run_one(&instrs, &regs, SimConfig {
                trace: stepped,
                max_cycles: 1_000_000,
                ..SimConfig::default()
            });
            let explicit = run_one(&instrs, &regs, SimConfig {
                trace: stepped,
                max_cycles: 1_000_000,
                machine: MachineConfig::multititan(),
                ..SimConfig::default()
            });
            prop_assert_eq!(
                &implicit, &explicit,
                "explicit multititan() diverged (stepped={})", stepped
            );
        }
    }

    /// Off-default coherence: under a random valid configuration — with
    /// checked ordering, serialized issue and full-range interlocks drawn
    /// too — the hopped and the stepped run are still one machine:
    /// statistics, stall accounting, ordering violations, registers,
    /// PSW; and every cycle is attributed to a cause.
    #[test]
    fn random_configs_are_backend_invariant(
        instrs in arb_program(),
        regs in arb_regs(),
        machine in arb_machine(),
        (checked_ordering, serialized_issue, full_range_interlock) in
            (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let config = |trace| SimConfig {
            trace,
            max_cycles: 1_000_000,
            machine,
            checked_ordering,
            serialized_issue,
            full_range_interlock,
            ..SimConfig::default()
        };
        let hopped = run_one(&instrs, &regs, config(false));
        let stepped = run_one(&instrs, &regs, config(true));
        prop_assert_eq!(
            &hopped, &stepped,
            "hopped diverged from stepped under {} (checked={}, serialized={}, full_range={})",
            machine.key_material(), checked_ordering, serialized_issue, full_range_interlock
        );
        prop_assert_eq!(
            hopped.stats.accounted_cycles(), hopped.stats.cycles,
            "unattributed cycles under {}", machine.key_material()
        );
    }
}

/// Default fidelity on the corpus: every Livermore loop reports the same
/// cold and warm statistics under the explicit paper config as under the
/// implicit default, hopped and stepped.
#[test]
fn corpus_default_config_is_bit_identical() {
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        for stepped in [false, true] {
            let implicit = run_kernel_with(
                &kernel,
                SimConfig {
                    trace: stepped,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            let explicit = run_kernel_with(
                &kernel,
                SimConfig {
                    trace: stepped,
                    machine: MachineConfig::multititan(),
                    ..SimConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                implicit.cold, explicit.cold,
                "loop {n} cold (stepped={stepped})"
            );
            assert_eq!(
                implicit.warm, explicit.warm,
                "loop {n} warm (stepped={stepped})"
            );
        }
    }
}

/// A second issue lane is the same machine everywhere: hopped and stepped
/// runs agree bit for bit at `fpu_lanes=2` on the corpus, and the extra
/// lane never slows a warm loop down.
#[test]
fn corpus_lanes_2_is_backend_invariant_and_never_slower() {
    let mut machine = MachineConfig::multititan();
    machine.set_knob("fpu_lanes", 2).unwrap();
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let base = run_kernel_with(&kernel, SimConfig::default()).unwrap();
        let [hopped, stepped] = [false, true].map(|trace| {
            run_kernel_with(
                &kernel,
                SimConfig {
                    trace,
                    machine,
                    ..SimConfig::default()
                },
            )
            .unwrap()
        });
        assert_eq!(
            hopped.cold, stepped.cold,
            "loop {n} cold diverged at lanes=2"
        );
        assert_eq!(
            hopped.warm, stepped.warm,
            "loop {n} warm diverged at lanes=2"
        );
        assert!(
            hopped.warm.cycles <= base.warm.cycles,
            "loop {n}: a second lane made the warm loop slower \
             ({} > {} cycles)",
            hopped.warm.cycles,
            base.warm.cycles
        );
    }
}

/// Knobs move performance the right way on the corpus: doubling the
/// data-cache miss penalty never speeds up a cold run, and doubling the
/// FPU latency never speeds up a warm run.
#[test]
fn corpus_knobs_are_monotone() {
    let base = MachineConfig::multititan();
    let mut slow_mem = base;
    slow_mem
        .set_knob("dcache_miss", 2 * base.get_knob("dcache_miss").unwrap())
        .unwrap();
    let mut slow_fpu = base;
    slow_fpu
        .set_knob("fpu_latency", 2 * base.get_knob("fpu_latency").unwrap())
        .unwrap();
    for n in 1..=24u8 {
        let kernel = livermore::by_number(n);
        let reference = run_kernel_with(&kernel, SimConfig::default()).unwrap();
        let mem = run_kernel_with(
            &kernel,
            SimConfig {
                machine: slow_mem,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(
            mem.cold.cycles >= reference.cold.cycles,
            "loop {n}: doubling dcache_miss sped the cold run up \
             ({} < {} cycles)",
            mem.cold.cycles,
            reference.cold.cycles
        );
        let fpu = run_kernel_with(
            &kernel,
            SimConfig {
                machine: slow_fpu,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(
            fpu.warm.cycles >= reference.warm.cycles,
            "loop {n}: doubling fpu_latency sped the warm loop up \
             ({} < {} cycles)",
            fpu.warm.cycles,
            reference.warm.cycles
        );
    }
}

/// One comma-separated piece of a `?config=` string: well-formed knobs
/// with extreme values, known names with garbage values, and raw noise.
fn arb_config_part() -> impl Strategy<Value = String> {
    let knob = 0usize..KNOB_NAMES.len();
    prop_oneof![
        3 => (knob.clone(), any::<u64>()).prop_map(|(k, v)| format!("{}={v}", KNOB_NAMES[k])),
        1 => (knob.clone(), 0u32..=64).prop_map(|(k, e)| {
            format!("{}={}", KNOB_NAMES[k], 1u128 << e)
        }),
        1 => (knob, "\\PC{0,12}").prop_map(|(k, v)| format!("{}={v}", KNOB_NAMES[k])),
        1 => "\\PC{0,24}",
        1 => prop_oneof![
            Just(String::new()),
            Just("=".to_string()),
            Just(" fpu_lanes = 2 ".to_string()),
            Just("fpu_lanes=-1".to_string()),
            Just("fpu_lanes==2".to_string()),
            Just("dcache_line=0".to_string()),
            Just("dcache_ways=0".to_string()),
            Just("memory_bytes=18446744073709551616".to_string()),
        ],
    ]
}

/// A byte-level edit of a config string: `(position, kind, char)`.
fn arb_mutation() -> impl Strategy<Value = (usize, u8, char)> {
    (
        any::<usize>(),
        0u8..3,
        prop_oneof![
            Just(','),
            Just('='),
            Just('0'),
            Just('9'),
            Just('_'),
            Just(' '),
            Just('-'),
            Just('é'),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `?config=` is untrusted service input: `MachineConfig::parse`
    /// never panics on random or mutated strings, whatever it accepts
    /// validates, survives its own canonical serialization, and builds
    /// a machine (every allocation a config sizes is bounded).
    #[test]
    fn config_parse_never_panics(
        parts in prop::collection::vec(arb_config_part(), 0..8),
        mutations in prop::collection::vec(arb_mutation(), 0..4),
    ) {
        let mut spec: Vec<char> = parts.join(",").chars().collect();
        for (pos, kind, c) in mutations {
            let at = pos % (spec.len() + 1);
            match kind {
                0 => spec.insert(at, c),
                1 if at < spec.len() => spec[at] = c,
                _ if at < spec.len() => {
                    spec.remove(at);
                }
                _ => {}
            }
        }
        let spec: String = spec.into_iter().collect();
        if let Ok(config) = MachineConfig::parse(&spec) {
            prop_assert_eq!(config.validate(), Ok(()));
            prop_assert_eq!(MachineConfig::parse(&config.key_material()), Ok(config));
            Machine::new(SimConfig {
                machine: config,
                ..SimConfig::default()
            });
        }
    }
}
