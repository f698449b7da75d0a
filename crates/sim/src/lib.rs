//! Cycle-level whole-system simulator for one MultiTitan processor.
//!
//! Assembles the CPU substrate, the FPU (`mt-core`), and the memory
//! hierarchy (`mt-mem`) into the machine of Fig. 1 and executes encoded
//! programs with the paper's timing rules:
//!
//! * the CPU issues at most **one instruction per cycle**, in order;
//! * an FPU ALU instruction transfers into the ALU IR in one cycle and
//!   stalls the CPU while a previous vector is still issuing ("issue busy"
//!   in Fig. 13); the IR then issues one element per cycle independently —
//!   the source of the **two operations per cycle** peak;
//! * FPU loads take one cycle on the memory port with single-cycle latency
//!   (data usable by an element issuing the next cycle); **stores occupy
//!   the port for two cycles** ("back-to-back stores require two cycles");
//! * CPU integer loads have a **one-cycle load delay slot**, enforced by an
//!   interlock rather than exposed architecturally;
//! * every FPU ALU result is available **three cycles** after issue;
//! * a data-cache miss freezes instruction issue for the 14-cycle penalty
//!   (the lock-step pipeline of §2.3.1), while in-flight FPU operations
//!   drain on schedule;
//! * taken branches cost one bubble (substrate assumption, documented in
//!   DESIGN.md).
//!
//! The simulator also offers a *checked mode* that reports violations of
//! the §2.3.2 software rule — loads/stores that slip past not-yet-issued
//! elements of an in-flight vector instruction they depend on.
//!
//! # Example
//!
//! ```
//! use mt_sim::{Machine, SimConfig, Program};
//! use mt_isa::{Instr, FpuAluInstr, FReg};
//! use mt_fparith::FpOp;
//!
//! // R2 := R0 + R1, then halt.
//! let prog = Program::assemble(&[
//!     Instr::Falu(FpuAluInstr::scalar(FpOp::Add, FReg::new(2), FReg::new(0), FReg::new(1))),
//!     Instr::Halt,
//! ]).unwrap();
//!
//! let mut m = Machine::new(SimConfig::default());
//! m.load_program(&prog);
//! m.warm_instructions(&prog); // skip cold instruction-fetch misses
//! m.fpu.regs_mut().write_f64(FReg::new(0), 1.5);
//! m.fpu.regs_mut().write_f64(FReg::new(1), 2.0);
//! let stats = m.run().unwrap();
//! assert_eq!(m.fpu.regs().read_f64(FReg::new(2)), 3.5);
//! assert!(stats.cycles < 10);
//! ```

pub mod config;
pub mod json;
pub mod machine;
pub mod stats;
pub mod timeline;
pub mod timing;

pub use config::{MachineConfig, KNOB_NAMES};
pub use machine::{ArchState, Backend, Machine, RunError, SimConfig, Snapshot};
pub use mt_isa::{DataSegment, Program, DEFAULT_TEXT_BASE};
pub use stats::{OrderingViolation, RunStats, StallBreakdown, ViolationKind};
pub use timeline::{trace_lines, Timeline};
pub use timing::IssueTiming;
