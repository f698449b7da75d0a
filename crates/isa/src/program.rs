//! Encoded programs and where they live in memory.

use crate::{DecodeError, Instr};

/// Default load address for program text (data conventionally lives below
/// or far above; kernels pick their own layouts).
pub const DEFAULT_TEXT_BASE: u32 = 0x1_0000;

/// An initialized data segment accompanying a program (from the
/// assembler's `.data`/`.double`/`.word` directives).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataSegment {
    /// Byte address the segment loads at.
    pub base: u32,
    /// Raw little-endian contents.
    pub bytes: Vec<u8>,
}

/// An encoded program plus its load address.
#[derive(Debug, Clone)]
pub struct Program {
    /// Encoded instruction words.
    pub words: Vec<u32>,
    /// Byte address the text is loaded at (4-byte aligned).
    pub base: u32,
    /// Initialized data segments loaded alongside the text.
    pub segments: Vec<DataSegment>,
}

impl Program {
    /// Encodes a sequence of instructions at the default text base.
    ///
    /// # Errors
    ///
    /// Returns the first encoding error (out-of-range immediate etc.).
    pub fn assemble(instrs: &[Instr]) -> Result<Program, DecodeError> {
        Program::assemble_at(instrs, DEFAULT_TEXT_BASE)
    }

    /// Encodes a sequence of instructions at a chosen base address.
    ///
    /// # Errors
    ///
    /// Returns the first encoding error.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned.
    pub fn assemble_at(instrs: &[Instr], base: u32) -> Result<Program, DecodeError> {
        assert!(base.is_multiple_of(4), "text base must be word aligned");
        let words = instrs
            .iter()
            .map(|i| i.encode())
            .collect::<Result<Vec<u32>, DecodeError>>()?;
        Ok(Program {
            words,
            base,
            segments: Vec::new(),
        })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Disassembles the program (for traces and debugging).
    pub fn disassemble(&self) -> Vec<String> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let text = Instr::decode(w)
                    .map(|d| d.to_string())
                    .unwrap_or_else(|e| format!("<bad: {e}>"));
                format!("{:#07x}: {text}", self.base + 4 * i as u32)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IReg;

    #[test]
    fn assemble_and_disassemble() {
        let p = Program::assemble(&[
            Instr::Addi {
                rd: IReg::new(1),
                rs1: IReg::ZERO,
                imm: 42,
            },
            Instr::Halt,
        ])
        .unwrap();
        assert_eq!(p.len(), 2);
        let dis = p.disassemble();
        assert!(dis[0].contains("addi r1, r0, 42"));
        assert!(dis[1].contains("halt"));
    }

    #[test]
    fn assemble_reports_encoding_errors() {
        let r = Program::assemble(&[Instr::Addi {
            rd: IReg::new(1),
            rs1: IReg::ZERO,
            imm: 1 << 20,
        }]);
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn misaligned_base_panics() {
        let _ = Program::assemble_at(&[Instr::Halt], 2);
    }
}
