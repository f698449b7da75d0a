//! Translation: a program's text decoded once into flat, pre-resolved
//! micro-ops.
//!
//! [`TranslatedProgram::translate`] decodes each text word and emits one
//! [`Uop`] per decodable word, indexed by `(pc - base) / 4`. A micro-op
//! carries everything the execute stage would otherwise re-derive per
//! dynamic instruction:
//!
//! * the decoded instruction itself (no fetch-word decode),
//! * its [`InstrCost`] row — guard registers, load/store port use,
//!   FPU hazard registers, stall classes — (no per-attempt cost-table
//!   dispatch; a stalled instruction retries every cycle, so this is
//!   paid many times per dynamic instruction in interlocked code),
//! * the resolved control-flow target as an absolute byte PC (no
//!   word/byte address arithmetic at the taken branch).
//!
//! Undecodable words translate to `None`: they cannot execute, and an
//! executor that reaches one decodes the fetched word itself and reports
//! the decoder's error. Nothing dynamic is decided here — every hazard
//! guard is still evaluated each cycle by the executor against live
//! machine state, so translation can never change architectural results
//! or cycle accounting.

use mt_isa::cost::InstrCost;
use mt_isa::{Instr, Program};

/// One pre-resolved micro-op.
#[derive(Debug, Clone, Copy)]
pub struct Uop {
    /// The decoded instruction.
    pub instr: Instr,
    /// The instruction's static issue-cost/hazard metadata, precomputed
    /// once instead of per execute attempt.
    pub cost: InstrCost,
    /// Resolved control-flow target as an absolute byte PC: the taken
    /// destination for `Branch`/`Jump`/`Jal`, the fall-through `pc + 4`
    /// otherwise. (`Jr` targets are runtime register values; the field
    /// holds the fall-through and the executor ignores it.)
    pub target: u32,
}

impl Uop {
    /// The micro-op of `instr` at byte address `pc`. The translator and
    /// the simulator's decode fallback both build micro-ops here, so the
    /// branch-target arithmetic lives in one place.
    pub fn new(pc: u32, instr: Instr) -> Uop {
        let target = match instr {
            // Word-granular PC+1+offset, then back to bytes.
            Instr::Branch { offset, .. } => (pc / 4)
                .wrapping_add(1)
                .wrapping_add(offset as u32)
                .wrapping_mul(4),
            Instr::Jump { target } | Instr::Jal { target } => target.wrapping_mul(4),
            _ => pc.wrapping_add(4),
        };
        Uop {
            instr,
            cost: InstrCost::of(&instr),
            target,
        }
    }
}

/// A program's text section translated to micro-ops, indexed by PC.
///
/// `uop(pc)` is the simulator's fetch for text it has not seen written:
/// once the memory system reports a write into the watched text range,
/// the executor stops consulting the table and decodes fetched words.
#[derive(Debug, Clone)]
pub struct TranslatedProgram {
    base: u32,
    uops: Vec<Option<Uop>>,
}

impl TranslatedProgram {
    /// Decodes every word of `program`'s text section into a micro-op.
    pub fn translate(program: &Program) -> TranslatedProgram {
        let uops = program
            .words
            .iter()
            .enumerate()
            .map(|(i, &word)| {
                let pc = program.base + 4 * i as u32;
                Instr::decode(word).ok().map(|instr| Uop::new(pc, instr))
            })
            .collect();
        TranslatedProgram {
            base: program.base,
            uops,
        }
    }

    /// The micro-op at byte address `pc`, or `None` when `pc` is
    /// misaligned, outside the translated text, or an undecodable word.
    #[inline]
    pub fn uop(&self, pc: u32) -> Option<&Uop> {
        let off = pc.wrapping_sub(self.base);
        if off & 3 != 0 {
            return None;
        }
        self.uops.get((off / 4) as usize)?.as_ref()
    }

    /// Base address of the translated text.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of translated slots (text words).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_isa::cpu::BranchCond;
    use mt_isa::{IReg, DEFAULT_TEXT_BASE};

    fn translate(instrs: &[Instr]) -> TranslatedProgram {
        TranslatedProgram::translate(&Program::assemble(instrs).unwrap())
    }

    #[test]
    fn targets_are_pre_resolved_byte_pcs() {
        let base_word = DEFAULT_TEXT_BASE / 4;
        let t = translate(&[
            Instr::Nop,
            Instr::Branch {
                cond: BranchCond::Lt,
                rs1: IReg::new(0),
                rs2: IReg::new(1),
                offset: -2,
            },
            Instr::Jump {
                target: base_word + 4,
            },
            Instr::Jal { target: base_word },
            Instr::Halt,
        ]);
        assert_eq!(t.base(), DEFAULT_TEXT_BASE);
        assert_eq!(t.len(), 5);
        // nop falls through.
        assert_eq!(
            t.uop(DEFAULT_TEXT_BASE).unwrap().target,
            DEFAULT_TEXT_BASE + 4
        );
        // branch at word 1, offset -2 → word 0.
        assert_eq!(
            t.uop(DEFAULT_TEXT_BASE + 4).unwrap().target,
            DEFAULT_TEXT_BASE
        );
        // jump/jal targets are absolute words scaled to bytes.
        assert_eq!(
            t.uop(DEFAULT_TEXT_BASE + 8).unwrap().target,
            DEFAULT_TEXT_BASE + 16
        );
        assert_eq!(
            t.uop(DEFAULT_TEXT_BASE + 12).unwrap().target,
            DEFAULT_TEXT_BASE
        );
    }

    #[test]
    fn cost_matches_the_shared_table() {
        let t = translate(&[
            Instr::Lw {
                rd: IReg::new(3),
                base: IReg::new(1),
                offset: 8,
            },
            Instr::Halt,
        ]);
        let u = t.uop(DEFAULT_TEXT_BASE).unwrap();
        assert_eq!(u.cost, InstrCost::of(&u.instr));
        assert_eq!(u.cost.int_load_dest, Some(IReg::new(3)));
    }

    #[test]
    fn misaligned_out_of_range_and_undecodable_pcs_miss() {
        let raw = Program {
            base: DEFAULT_TEXT_BASE,
            words: vec![
                Instr::Nop.encode().unwrap(),
                7, // SYS with funct 7: does not decode
            ],
            segments: Vec::new(),
        };
        let t = TranslatedProgram::translate(&raw);
        assert!(t.uop(DEFAULT_TEXT_BASE).is_some());
        assert!(t.uop(DEFAULT_TEXT_BASE + 1).is_none(), "misaligned");
        assert!(t.uop(DEFAULT_TEXT_BASE + 4).is_none(), "undecodable");
        assert!(t.uop(DEFAULT_TEXT_BASE + 8).is_none(), "past text");
        assert!(t.uop(0).is_none(), "before text");
    }
}
