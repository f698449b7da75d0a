//! Applying a planned fault to a paused machine.

use mt_fparith::Exceptions;
use mt_isa::{FReg, IReg};
use mt_sim::Machine;

use crate::plan::{CacheId, FaultTarget};

/// Flips the targeted bit in `m`'s architectural or microarchitectural
/// state. The machine must be paused (between cycles); the flip itself
/// costs no simulated time.
///
/// Every arm goes through a semantic accessor of the owning structure,
/// so the flip is always a state a hardware upset could produce:
/// integer registers are written through [`Machine::set_ireg`] (r0
/// stays hardwired zero), cache flips only disturb tag/state (the
/// caches model timing, not data), and pipeline flips corrupt exactly
/// one in-flight value latch.
pub fn apply(m: &mut Machine, target: &FaultTarget) {
    match *target {
        FaultTarget::IntReg { reg, bit } => {
            let r = IReg::new(reg);
            let flipped = m.ireg(r) ^ (1i32 << (bit % 32));
            m.set_ireg(r, flipped);
        }
        FaultTarget::FpuReg { reg, bit } => {
            let r = FReg::new(reg);
            let flipped = m.fpu.regs().read(r) ^ (1u64 << (bit % 64));
            m.fpu.regs_mut().write(r, flipped);
        }
        FaultTarget::Psw { bit } => {
            let psw = m.fpu.psw_mut();
            match bit {
                0..=4 => {
                    psw.flags = Exceptions::from_bits(psw.flags.bits() ^ (1 << bit));
                }
                _ => {
                    // Toggle the abort record: either forge a detection
                    // (None -> Some) or erase a real one (Some -> None).
                    psw.overflow_dest = match psw.overflow_dest {
                        Some(_) => None,
                        None => Some(FReg::new(0)),
                    };
                }
            }
        }
        FaultTarget::PipelineLatch { slot, bit } => {
            // Returns false (nothing to corrupt) when the pipeline is
            // empty; the fault is then naturally masked.
            let _ = m.fpu.flip_in_flight_value(slot, bit);
        }
        FaultTarget::Scoreboard { reg } => {
            m.fpu.flip_scoreboard(FReg::new(reg));
        }
        FaultTarget::CacheLine { cache, line, bit } => {
            let c = match cache {
                CacheId::Data => m.mem.dcache_mut(),
                CacheId::Instr => m.mem.icache_mut(),
                CacheId::Buffer => m.mem.ibuffer_mut(),
            };
            c.flip_line_state(line, bit);
        }
        FaultTarget::MemoryWord { addr, bit } => {
            let word = m.mem.memory.read_u32(addr);
            // A plain memory write also bumps the write watch, so a
            // text-region flip is fetched from memory, not from the
            // translated table.
            m.mem.memory.write_u32(addr, word ^ (1 << (bit % 32)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_sim::SimConfig;

    #[test]
    fn int_reg_flip_round_trips() {
        let mut m = Machine::new(SimConfig::default());
        m.set_ireg(IReg::new(5), 0x40);
        let t = FaultTarget::IntReg { reg: 5, bit: 6 };
        apply(&mut m, &t);
        assert_eq!(m.ireg(IReg::new(5)), 0);
        apply(&mut m, &t);
        assert_eq!(m.ireg(IReg::new(5)), 0x40);
    }

    #[test]
    fn fpu_exponent_flip_changes_value() {
        let mut m = Machine::new(SimConfig::default());
        m.fpu.regs_mut().write_f64(FReg::new(3), 1.0);
        apply(&mut m, &FaultTarget::FpuReg { reg: 3, bit: 62 });
        let got = m.fpu.regs().read_f64(FReg::new(3));
        assert!(got > 1e300, "exponent flip should explode 1.0, got {got}");
    }

    #[test]
    fn psw_overflow_dest_toggles() {
        let mut m = Machine::new(SimConfig::default());
        assert!(m.fpu.psw().overflow_dest.is_none());
        apply(&mut m, &FaultTarget::Psw { bit: 5 });
        assert!(m.fpu.psw().overflow_dest.is_some());
        apply(&mut m, &FaultTarget::Psw { bit: 5 });
        assert!(m.fpu.psw().overflow_dest.is_none());
    }

    #[test]
    fn memory_word_flip_is_visible() {
        let mut m = Machine::new(SimConfig::default());
        m.mem.memory.write_u32(0x100, 0xDEAD_0000);
        apply(
            &mut m,
            &FaultTarget::MemoryWord {
                addr: 0x100,
                bit: 0,
            },
        );
        assert_eq!(m.mem.memory.read_u32(0x100), 0xDEAD_0001);
    }
}
