//! Translation of MultiTitan programs into micro-ops.
//!
//! Two layers:
//!
//! * [`mod@cfg`] — the decoded program view, control-flow successors, and the
//!   basic-block partition the static analyses (`mt-lint`, `mt-mca`) are
//!   built on.
//! * [`translate`] — decodes each text word into a flat, pre-resolved
//!   micro-op ([`Uop`]): the decoded instruction, its issue-cost/hazard
//!   metadata ([`mt_isa::InstrCost`] — guard registers, port use, stall
//!   classes), and the pre-computed control-flow target. The simulator
//!   fetches these by PC instead of decoding and re-deriving cost
//!   metadata per instruction.
//!
//! Translation is purely static: it never changes architectural or timing
//! semantics (the executor re-checks every dynamic hazard each cycle), it
//! only removes re-derivation of static facts from the hot loop.

pub mod cfg;
pub mod translate;

pub use translate::{TranslatedProgram, Uop};
