//! Fuzz-style property tests: the text assembler must never panic, must
//! produce decodable words when it succeeds, and parsing a program's own
//! disassembly-like source must be stable. Every program that assembles
//! is additionally pushed through the `mt-lint` static analyzer, which
//! must never panic regardless of how degenerate the program is.

use mt_asm::parse;
use mt_isa::Instr;
use mt_lint::lint_program;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary text never panics the parser.
    #[test]
    fn parse_never_panics(src in "\\PC{0,200}") {
        let _ = parse(&src, 0x1_0000);
    }

    /// Line-noise built from assembler-ish tokens never panics either, and
    /// when it assembles, every word decodes.
    #[test]
    fn tokeny_soup_is_handled(
        lines in prop::collection::vec(
            prop_oneof![
                Just("fadd R1, R2, R3".to_string()),
                Just("fadd R0..R7, R8..R15, R16..R23".to_string()),
                Just("addi r1, r1, 1".to_string()),
                Just("lw r2, 4(r1)".to_string()),
                Just("fld R0, 0(r1)".to_string()),
                Just("x: nop".to_string()),
                Just("j x".to_string()),
                Just("beq r1, r2, x".to_string()),
                Just("halt".to_string()),
                Just("; comment only".to_string()),
                Just("fdiv R2, R0, R1, R48, R49".to_string()),
                Just("frobnicate r1".to_string()),
                Just("fadd R60, R1, R2".to_string()),
                Just("addi r1, r1, 99999999".to_string()),
            ],
            0..24,
        )
    ) {
        let src = lines.join("\n");
        if let Ok(program) = parse(&src, 0x1_0000) {
            for &w in &program.words {
                prop_assert!(Instr::decode(w).is_ok(), "assembled word {w:#010x} must decode");
            }
            // The static analyzer must survive anything the assembler
            // accepts; findings are free-form, panics are bugs.
            let _ = lint_program(&program);
        }
    }

    /// Arbitrary *words* (not just assembler output) never panic the
    /// linter: undecodable slots, wild branch targets, and hand-mangled
    /// vector encodings all flow through the CFG and replay analyses.
    #[test]
    fn lint_survives_arbitrary_words(words in prop::collection::vec(any::<u32>(), 0..48)) {
        let program = mt_sim::Program {
            words,
            base: 0x1_0000,
            segments: Vec::new(),
        };
        let _ = lint_program(&program);
    }

    /// Valid immediate forms roundtrip through addi.
    #[test]
    fn addi_immediates_roundtrip(v in -131072i32..=131071) {
        let src = format!("addi r5, r0, {v}\nhalt\n");
        let program = parse(&src, 0x1_0000).unwrap();
        match Instr::decode(program.words[0]).unwrap() {
            Instr::Addi { imm, .. } => prop_assert_eq!(imm, v),
            other => prop_assert!(false, "expected addi, got {}", other),
        }
    }

    /// Every register name in range parses; everything above is rejected.
    #[test]
    fn register_name_bounds(n in 0u8..=80) {
        let fsrc = format!("frecip R{n}, R0\nhalt\n");
        prop_assert_eq!(parse(&fsrc, 0).is_ok(), n < 52, "R{}", n);
        let isrc = format!("addi r{n}, r0, 1\nhalt\n");
        prop_assert_eq!(parse(&isrc, 0).is_ok(), n < 32, "r{}", n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The instruction decoder never panics on any 32-bit word — it
    /// returns `Ok` or a decode error, nothing else.
    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = Instr::decode(word);
    }

    /// The whole simulator survives *executing* arbitrary words: any
    /// 32-bit soup loaded as text must end in a typed result (`Ok`,
    /// `BadInstruction`, `MemoryFault`, `CycleLimit`, `Watchdog`) —
    /// never a panic — with arbitrary register contents steering wild
    /// loads, stores, and jumps. This is the no-panic hardening contract
    /// the fault campaign's crash classification rests on. The hopped
    /// run (no sink) and the stepped run (recording sink) must end
    /// identically: same result, same cycle, same architectural state.
    #[test]
    fn machine_survives_arbitrary_text(
        words in prop::collection::vec(any::<u32>(), 1..64),
        regs in prop::collection::vec(any::<i32>(), 31),
    ) {
        let program = mt_sim::Program {
            words,
            base: 0x1_0000,
            segments: Vec::new(),
        };
        let run = |stepped: bool| {
            let mut m = mt_sim::Machine::new(mt_sim::SimConfig {
                max_cycles: 20_000,
                watchdog_cycles: 2_000,
                ..mt_sim::SimConfig::default()
            });
            m.load_program(&program);
            for (i, &v) in regs.iter().enumerate() {
                m.set_ireg(mt_isa::IReg::new(i as u8 + 1), v);
            }
            let outcome = if stepped {
                m.run_with_sink(&mut Vec::new())
            } else {
                m.run()
            };
            (outcome, m.snapshot().cycle(), m.arch_state())
        };
        prop_assert_eq!(run(false), run(true));
    }
}
