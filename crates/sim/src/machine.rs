//! The machine: CPU substrate + FPU + memory hierarchy, stepped by cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mt_core::{Fpu, Psw};
use mt_isa::cost::InstrCost;
use mt_isa::cpu::AluOp;
use mt_isa::{FReg, IReg, Instr};
use mt_mem::{MemError, MemorySystem};
use mt_trace::{EventKind, EventSink, NullSink, StallCause, TraceEvent};
use mt_xlate::{TranslatedProgram, Uop};

use crate::config::MachineConfig;
use crate::stats::{OrderingViolation, RunStats, StallBreakdown, ViolationKind};
use crate::timing::IssueTiming;
use mt_isa::Program;

/// The simulator's execution engine. There is one — the micro-op loop
/// of DESIGN.md §8 — so this type has a single variant.
///
/// Kept only because the frozen benchmark harness (`perfbench/`) names
/// `Backend::Xlate`; the next change to the benchmark deletes it
/// together with [`SimConfig::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The micro-op engine.
    #[default]
    Xlate,
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulated microarchitecture: issue timing (FPU latency, port
    /// occupancy, load delay, branch bubble, element lanes), memory
    /// hierarchy geometry, and register-file bounds. Defaults to the
    /// paper's machine; `mt-dse` sweeps it.
    pub machine: MachineConfig,
    /// Abort with [`RunError::CycleLimit`] after this many cycles.
    pub max_cycles: u64,
    /// Detect and record §2.3.2 ordering-rule violations.
    pub checked_ordering: bool,
    /// Ablation: serialize the Load/Store and ALU instruction registers —
    /// the CPU stalls completely while a vector is issuing, destroying the
    /// two-operations-per-cycle overlap of §2.4.
    pub serialized_issue: bool,
    /// Alternative hardware of §2.3.2 (the approach "taken in the recently
    /// announced Ardent Titan"): compare loads/stores against the register
    /// ranges of *every* unissued element of the in-flight vector, not just
    /// the current one. Removes the compiler's vector-breaking duty at the
    /// cost of "a fair amount of hardware"; provided for the ablation
    /// study.
    pub full_range_interlock: bool,
    /// No-progress watchdog: abort with [`RunError::Watchdog`] once this
    /// many consecutive cycles elapse in which no CPU instruction completes
    /// and no FPU element or load issues. `0` (the default) disables it.
    /// Legitimate stall spans are bounded by a cache-miss penalty or a
    /// scoreboard wait that retires within the FPU latency, so any
    /// threshold of 1000+ only trips on genuinely wedged state — a
    /// fault-injected stuck scoreboard bit, corrupted interlock timing —
    /// that would otherwise spin to [`SimConfig::max_cycles`]. Hops
    /// clamp to the watchdog deadline, so stepped and hopped runs report
    /// it at the identical cycle.
    pub watchdog_cycles: u64,
    /// The execution engine; it has one possible value (see [`Backend`]).
    pub backend: Backend,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            machine: MachineConfig::default(),
            max_cycles: 200_000_000,
            checked_ordering: false,
            serialized_issue: false,
            full_range_interlock: false,
            watchdog_cycles: 0,
            backend: Backend::default(),
        }
    }
}

impl SimConfig {
    /// The issue-timing parameters this configuration implies — the same
    /// model `mt-lint` replays to prove §2.3.2 violations statically.
    pub fn issue_timing(&self) -> IssueTiming {
        self.machine.timing
    }
}

/// Why a run ended abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit elapsed before `halt`.
    CycleLimit(u64),
    /// The program counter left the loaded program or hit an undecodable
    /// word.
    BadInstruction {
        /// Program counter of the bad word.
        pc: u32,
        /// Decoder message.
        message: String,
    },
    /// A fetch, load, or store computed a misaligned or out-of-range
    /// address (a wild PC from a corrupted `jr`, a load through a garbage
    /// base register). The run terminates with a typed error instead of
    /// panicking — the process survives arbitrary program words.
    MemoryFault {
        /// PC of the faulting instruction (or the faulting fetch address).
        pc: u32,
        /// The rejected access.
        fault: MemError,
    },
    /// The no-progress watchdog fired ([`SimConfig::watchdog_cycles`]):
    /// the machine is wedged — no instruction completed and no FPU element
    /// issued for the configured span.
    Watchdog {
        /// PC the CPU was parked at when the watchdog fired.
        pc: u32,
        /// Consecutive cycles without progress.
        idle_cycles: u64,
    },
    /// A cooperative cancellation checkpoint
    /// ([`RunControl::cancel`]) asked the run to stop — the service
    /// layer's request deadline expired or the server began draining. The
    /// machine state is exactly the paused state a [`Machine::run_until`]
    /// stop at the same cycle would leave.
    Cancelled {
        /// Machine cycle at which the run was abandoned.
        cycle: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::CycleLimit(n) => write!(f, "no halt within {n} cycles"),
            RunError::BadInstruction { pc, message } => {
                write!(f, "bad instruction at {pc:#x}: {message}")
            }
            RunError::MemoryFault { pc, fault } => {
                write!(f, "memory fault at pc {pc:#x}: {fault}")
            }
            RunError::Watchdog { pc, idle_cycles } => {
                write!(
                    f,
                    "watchdog: no progress for {idle_cycles} cycles at pc {pc:#x}"
                )
            }
            RunError::Cancelled { cycle } => {
                write!(
                    f,
                    "run cancelled at a cooperative checkpoint (cycle {cycle})"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Source of [`Snapshot`] ids: unique within the process, never reused.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(0);

/// A complete machine checkpoint, taken by [`Machine::snapshot`] and
/// consumed by [`Machine::restore`]. Opaque by design: the only supported
/// operations are restoring it and reading the cycle it was taken at —
/// everything else (registers, caches, in-flight pipeline state, pending
/// instruction, statistics) round-trips bit-identically through it.
///
/// Each snapshot carries a process-unique id (clones share it, and their
/// contents are identical). A machine's memory remembers the id it was
/// last restored to, which lets a repeated restore of the same snapshot
/// copy back only the memory pages written since.
#[derive(Debug, Clone)]
pub struct Snapshot {
    id: u64,
    /// Boxed so a `Snapshot` on the stack stays pointer-sized; the fault
    /// campaign holds one golden snapshot per kernel across hundreds of
    /// restores.
    machine: Box<Machine>,
}

impl Snapshot {
    /// The cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle
    }
}

/// How a [`Machine::run_with`] call may end early. The default runs to
/// `halt` (or an error).
#[derive(Default)]
pub struct RunControl<'a> {
    /// Pause when the machine cycle reaches this value — the fault
    /// campaign's way of stopping a golden replay at an exact cycle to
    /// corrupt state, then resuming with another run. Hops clamp to the
    /// stop point, so a paused machine sits at exactly `stop_at` whether
    /// the run stepped or hopped. Once the CPU halts, the FPU drain runs
    /// to completion even across `stop_at` — an injection cycle inside
    /// the drain span classifies as completed-early.
    pub stop_at: Option<u64>,
    /// A cooperative cancellation checkpoint `(check_every, cancelled)`:
    /// every `check_every` cycles the run pauses (hops clamp to the
    /// checkpoint, exactly as they clamp to `stop_at`) and asks
    /// `cancelled`; a `true` answer abandons the run with
    /// [`RunError::Cancelled`], leaving the machine as a `stop_at` pause
    /// at that cycle would. A run that is never cancelled is
    /// bit-identical to one without a checkpoint, because the checkpoint
    /// is a clamp inside one call, not a re-entry (re-entry would reset
    /// the cycle-limit budget and report per-slice statistics deltas).
    /// This is the service layer's request-deadline and drain hook.
    pub cancel: Option<(u64, &'a mut dyn FnMut() -> bool)>,
}

impl RunControl<'_> {
    /// Pause at `stop_at`, with no cancellation checkpoint.
    pub fn until(stop_at: u64) -> Self {
        RunControl {
            stop_at: Some(stop_at),
            cancel: None,
        }
    }
}

/// The software-visible architectural state: integer registers, FPU
/// registers (bit patterns), and the PSW. Comparable with `==`, so a
/// differential harness (e.g. the fault campaign's bare-program oracle)
/// can ask "did this run end in the same place as the golden run?"
/// without enumerating fields. Memory is deliberately excluded — it is
/// workload-defined which words are outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// CPU integer registers r0..r31 (r0 always 0).
    pub iregs: [i32; 32],
    /// FPU register bit patterns R0..R51.
    pub fregs: [u64; mt_isa::NUM_FPU_REGS as usize],
    /// The FPU program status word.
    pub psw: Psw,
}

/// A cycle in which the CPU cannot complete an instruction, by what it
/// waits for. [`Machine::wait`] steps or hops all four alike.
#[derive(Clone, Copy)]
enum Wait {
    /// Data-miss freeze: the CPU and the issue stage are both gated
    /// until `freeze_until` (the penalty is charged at the miss).
    Freeze,
    /// Taken-branch bubble: no fetch before `fetch_ready_at` (the bubble
    /// is charged at the branch); the issue stage runs.
    Bubble,
    /// Fetch penalty elapsing: one fetch stall per cycle.
    Fetch,
    /// A guard holds the fetched instruction: one stall of this cause
    /// per cycle, each emitted as a one-cycle stall event.
    Interlock(StallCause),
}

/// One MultiTitan processor.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The FPU (public for workload setup and result inspection).
    pub fpu: Fpu,
    /// The memory hierarchy (public for workload setup).
    pub mem: MemorySystem,
    config: SimConfig,
    timing: IssueTiming,
    iregs: [i32; 32],
    /// Cycle at which each integer register's pending load completes.
    int_ready: [u64; 32],
    pc: u32,
    entry: u32,
    cycle: u64,
    /// Next cycle the data port accepts an operation.
    ls_free_at: u64,
    /// Issue freeze horizon from a data-cache miss (lock-step stall).
    freeze_until: u64,
    /// Earliest cycle the next fetch may begin (taken-branch bubble).
    fetch_ready_at: u64,
    /// The fetched instruction waiting to execute (its micro-op is looked
    /// up again when it executes, see [`Machine::pending_uop`]), and the
    /// cycle its fetch penalty ends.
    pending: Option<Instr>,
    pending_ready_at: u64,
    halted: bool,
    /// Cycle at which an external interrupt redirects the CPU (§2.3.1);
    /// the FPU keeps issuing and retiring vector elements regardless.
    interrupt_at: Option<u64>,
    instructions: u64,
    stalls: StallBreakdown,
    /// Cycles spent draining the FPU after halt (accumulates across runs;
    /// per-run deltas land in [`RunStats::drain_cycles`]).
    drain_cycles: u64,
    /// PC of the ALU instruction currently (or last) occupying the IR —
    /// FPU-side events (element issues, scoreboard stalls, drain cycles)
    /// are attributed to it.
    ir_pc: u32,
    ir_index: u32,
    violations: Vec<OrderingViolation>,
    /// The loaded program's text translated to micro-ops, indexed by PC
    /// (built by [`Machine::load_program`]). `Arc` keeps
    /// [`Machine::snapshot`] and clone cheap: the table is immutable, so
    /// every checkpoint shares it.
    xlate: Option<Arc<TranslatedProgram>>,
    /// Last cycle at which the machine provably made progress (a CPU
    /// instruction completed or an FPU element/load issued) — the
    /// watchdog's reference point. Always `<= cycle`.
    last_progress: u64,
}

/// The statistics of a run without a stop point, which always halts.
fn halted(stats: Option<RunStats>) -> RunStats {
    stats.expect("a run without a stop point always completes")
}

/// Forwards one event when the sink wants it. With [`NullSink`] the whole
/// call monomorphizes away, so emission sites cost nothing when tracing
/// is off.
#[inline(always)]
fn emit<S: EventSink>(sink: &mut S, cycle: u64, kind: EventKind) {
    if sink.enabled() {
        sink.event(&TraceEvent { cycle, kind });
    }
}

impl Machine {
    /// Creates a machine with cold caches and no program loaded.
    pub fn new(config: SimConfig) -> Machine {
        let timing = config.issue_timing();
        Machine {
            fpu: Fpu::with_latency(timing.fpu_latency),
            mem: MemorySystem::new(config.machine.mem),
            timing,
            config,
            iregs: [0; 32],
            int_ready: [0; 32],
            pc: 0,
            entry: 0,
            cycle: 0,
            ls_free_at: 0,
            freeze_until: 0,
            fetch_ready_at: 0,
            pending: None,
            pending_ready_at: 0,
            halted: false,
            interrupt_at: None,
            instructions: 0,
            stalls: StallBreakdown::default(),
            drain_cycles: 0,
            ir_pc: 0,
            ir_index: 0,
            violations: Vec::new(),
            xlate: None,
            last_progress: 0,
        }
    }

    /// Loads a program's text and data segments into memory and sets the
    /// entry point.
    pub fn load_program(&mut self, program: &Program) {
        for (i, &w) in program.words.iter().enumerate() {
            self.mem.memory.write_u32(program.base + 4 * i as u32, w);
        }
        for seg in &program.segments {
            for (i, &b) in seg.bytes.iter().enumerate() {
                let addr = seg.base + i as u32;
                // Byte-granular writes through the word interface.
                let word_addr = addr & !3;
                let shift = 8 * (addr & 3);
                let old = self.mem.memory.read_u32(word_addr);
                let new = (old & !(0xFF << shift)) | ((b as u32) << shift);
                self.mem.memory.write_u32(word_addr, new);
            }
        }
        self.pc = program.base;
        self.entry = program.base;
        self.halted = false;
        // An instruction fetched at the previous PC must not execute at
        // the new entry.
        self.pending = None;
        // A freshly loaded program starts with a clear PSW: sticky flags
        // and the §2.3.1 overflow destination are per-program supervisor
        // state, not residue of whatever ran before.
        self.fpu.clear_psw();
        self.xlate = Some(Arc::new(TranslatedProgram::translate(program)));
        // Watch the installed text: while no write has landed on it (by
        // any path, including direct workload pokes at `mem.memory`), a
        // fetch may take the translated micro-op without reading the word.
        let text_end = program.base + 4 * program.words.len() as u32;
        self.mem.memory.watch_range(program.base, text_end);
    }

    /// Touches every text line through the instruction buffer and cache so
    /// a run starts with warm instruction fetch (the paper's figures assume
    /// no instruction-buffer misses in kernels).
    pub fn warm_instructions(&mut self, program: &Program) {
        for i in 0..program.words.len() {
            self.mem.fetch(program.base + 4 * i as u32);
        }
    }

    /// Reads a CPU integer register.
    pub fn ireg(&self, r: IReg) -> i32 {
        self.iregs[r.index() as usize]
    }

    /// Writes a CPU integer register (setup; writes to `r0` are ignored).
    pub fn set_ireg(&mut self, r: IReg, value: i32) {
        if !r.is_zero() {
            self.iregs[r.index() as usize] = value;
        }
    }

    /// The issue-timing parameters this machine runs with.
    pub fn issue_timing(&self) -> IssueTiming {
        self.timing
    }

    /// Schedules an external interrupt: `cycles` from now the CPU stops
    /// executing the program (as if redirected to a handler). Per §2.3.1
    /// the FPU is *not* stopped — "vector ALU instructions may continue
    /// long after an interrupt" — so an in-flight vector keeps issuing and
    /// retiring elements; [`Machine::run`] returns once it drains.
    pub fn interrupt_after(&mut self, cycles: u64) {
        self.interrupt_at = Some(self.cycle + cycles);
    }

    /// Resets execution state (PC, pipeline timing, stall counters) for a
    /// re-run while *keeping* memory and cache contents — the warm-cache
    /// protocol of §3.2. Register files are preserved too; workloads that
    /// need fresh inputs rewrite them before the second run.
    pub fn reset_for_rerun(&mut self) {
        self.pc = self.entry;
        self.halted = false;
        self.pending = None;
        // Advance past any residual timing state rather than rewinding, so
        // in-flight bookkeeping can never leak into the next run.
        assert!(!self.fpu.busy(), "reset_for_rerun with FPU busy");
        self.ls_free_at = self.cycle;
        self.freeze_until = self.cycle;
        self.fetch_ready_at = self.cycle;
        self.int_ready = [0; 32];
        self.last_progress = self.cycle;
        // An interrupt armed for a cycle the previous run never reached
        // must not ambush the re-run: `interrupt_after` is per-run state.
        self.interrupt_at = None;
        // FPU-side attribution (drain cycles, scoreboard stalls) must not
        // point at the previous run's last transfer.
        self.ir_pc = self.entry;
        self.ir_index = 0;
        // The PSW is sticky across instructions, not across runs: a re-run
        // must observe its *own* exception flags and overflow destination,
        // exactly as if the program had been loaded fresh.
        self.fpu.clear_psw();
    }

    /// Resets the machine to the state [`Machine::new`]`(config)` would
    /// build — fresh registers, zeroed memory, cold caches, cleared PSW,
    /// no pending interrupt, zeroed statistics and diagnostics — while
    /// keeping the large allocations (memory backing).
    ///
    /// This is the worker-recycling path: a long-lived service worker owns
    /// one `Machine` and runs *arbitrary, unrelated* programs back to
    /// back, so unlike [`Machine::reset_for_rerun`] (the §3.2 warm-rerun
    /// protocol, which deliberately preserves memory, caches, and register
    /// files) nothing at all may survive from the previous job: results
    /// must be bit-identical to a freshly constructed machine, which
    /// `tests/machine_reuse.rs` proves across random job pairs.
    pub fn reset_for_new_job(&mut self, config: SimConfig) {
        self.mem.reset();
        if config.machine.mem != self.config.machine.mem {
            self.mem = MemorySystem::new(config.machine.mem);
        }
        self.timing = config.issue_timing();
        self.fpu = Fpu::with_latency(self.timing.fpu_latency);
        self.config = config;
        self.iregs = [0; 32];
        self.int_ready = [0; 32];
        self.pc = 0;
        self.entry = 0;
        self.cycle = 0;
        self.ls_free_at = 0;
        self.freeze_until = 0;
        self.fetch_ready_at = 0;
        self.pending = None;
        self.pending_ready_at = 0;
        self.halted = false;
        self.interrupt_at = None;
        self.instructions = 0;
        self.stalls = StallBreakdown::default();
        self.drain_cycles = 0;
        self.ir_pc = 0;
        self.ir_index = 0;
        self.violations.clear();
        self.xlate = None;
        self.last_progress = 0;
    }

    /// Runs from the current PC until `halt`, returning the statistics of
    /// this run (deltas — safe to call repeatedly for warm re-runs). The
    /// run loop monomorphizes over [`NullSink`]: emission costs nothing
    /// and waits are hopped instead of stepped.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`] if the program does not halt, or
    /// [`RunError::BadInstruction`] on an undecodable word.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        self.run_with_sink(&mut NullSink)
    }

    /// [`Machine::run`] with a caller-supplied event sink. The run loop is
    /// generic over the sink, so a no-op sink compiles to the untraced
    /// loop while a recording or folding sink (a `Vec<TraceEvent>`, a
    /// profiler) sees every typed event as it happens.
    pub fn run_with_sink<S: EventSink>(&mut self, sink: &mut S) -> Result<RunStats, RunError> {
        self.run_with(sink, RunControl::default()).map(halted)
    }

    /// Runs until `halt` *or* until `self.cycle` reaches `stop_at` — see
    /// [`RunControl::stop_at`]. Returns `Ok(None)` when the run paused.
    pub fn run_until(&mut self, stop_at: u64) -> Result<Option<RunStats>, RunError> {
        self.run_with(&mut NullSink, RunControl::until(stop_at))
    }

    /// Captures the complete machine state — architectural (registers,
    /// PSW, memory) and microarchitectural (in-flight pipeline writes,
    /// scoreboard, cache residency, pending instruction, every timing
    /// horizon, accumulated statistics) — so a later
    /// [`Machine::restore`] resumes bit-identically, stepped or hopped.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            machine: Box::new(self.clone()),
        }
    }

    /// Restores the state captured by [`Machine::snapshot`]. The machine
    /// becomes indistinguishable from the one that took the snapshot:
    /// resuming produces the same cycles, statistics, events, and
    /// architectural results.
    ///
    /// Everything is copied into the machine's existing allocations. Main
    /// memory is the exception to a full copy: when this machine's memory
    /// last matched this snapshot (it was restored from it, or is a clone
    /// of a machine that was), only the 4 KiB pages written since are
    /// copied back. The first restore, a different snapshot, or a machine
    /// whose memory was cleared since ([`Machine::reset_for_new_job`]) takes
    /// one full memory copy, after which repeated restores are incremental
    /// again (see [`MemorySystem::restore_from`]).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        // Exhaustive on purpose: a field added to `Machine` must be
        // rewound here or the build breaks.
        let Machine {
            fpu,
            mem,
            config,
            timing,
            iregs,
            int_ready,
            pc,
            entry,
            cycle,
            ls_free_at,
            freeze_until,
            fetch_ready_at,
            pending,
            pending_ready_at,
            halted,
            interrupt_at,
            instructions,
            stalls,
            drain_cycles,
            ir_pc,
            ir_index,
            violations,
            xlate,
            last_progress,
        } = &*snapshot.machine;
        self.fpu.clone_from(fpu);
        self.mem.restore_from(mem, snapshot.id);
        self.config.clone_from(config);
        self.timing = *timing;
        self.iregs = *iregs;
        self.int_ready = *int_ready;
        self.pc = *pc;
        self.entry = *entry;
        self.cycle = *cycle;
        self.ls_free_at = *ls_free_at;
        self.freeze_until = *freeze_until;
        self.fetch_ready_at = *fetch_ready_at;
        self.pending.clone_from(pending);
        self.pending_ready_at = *pending_ready_at;
        self.halted = *halted;
        self.interrupt_at = *interrupt_at;
        self.instructions = *instructions;
        self.stalls.clone_from(stalls);
        self.drain_cycles = *drain_cycles;
        self.ir_pc = *ir_pc;
        self.ir_index = *ir_index;
        self.violations.clone_from(violations);
        self.xlate.clone_from(xlate);
        self.last_progress = *last_progress;
    }

    /// Copies out the software-visible architectural state (see
    /// [`ArchState`]).
    pub fn arch_state(&self) -> ArchState {
        let mut fregs = [0u64; mt_isa::NUM_FPU_REGS as usize];
        for (i, slot) in fregs.iter_mut().enumerate() {
            *slot = self.fpu.regs().read(FReg::new(i as u8));
        }
        ArchState {
            iregs: self.iregs,
            fregs,
            psw: self.fpu.psw().clone(),
        }
    }

    /// The one run entry point: runs from the current PC under `control`,
    /// sending every typed event to `sink`. Whether waits are stepped or
    /// hopped is chosen by the sink alone — a sink that wants events sees
    /// every cycle, [`NullSink`] lets the loop hop — and both give the
    /// same statistics and architectural results.
    ///
    /// Returns `Ok(Some(stats))` when the program halted and `Ok(None)`
    /// when it paused at [`RunControl::stop_at`]; statistics are deltas
    /// over this call, so a resumed run reports the remainder.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`], [`RunError::BadInstruction`],
    /// [`RunError::MemoryFault`], [`RunError::Watchdog`], and
    /// [`RunError::Cancelled`] when [`RunControl::cancel`] answers `true`.
    pub fn run_with<S: EventSink>(
        &mut self,
        sink: &mut S,
        control: RunControl<'_>,
    ) -> Result<Option<RunStats>, RunError> {
        let RunControl {
            stop_at,
            cancel: mut checkpoint,
        } = control;
        let start_cycle = self.cycle;
        let start_instructions = self.instructions;
        let start_stalls = self.stalls;
        let start_drain = self.drain_cycles;
        let start_fpu = *self.fpu.stats();
        let start_violations = self.violations.len();
        let dcache0 = self.mem.dcache_stats();
        let icache0 = self.mem.icache_stats();
        let ibuffer0 = self.mem.ibuffer_stats();

        // First cycle at which the loop would report CycleLimit; a hop
        // may land there but never beyond.
        let limit_cycle = start_cycle + self.config.max_cycles + 1;
        let watchdog = self.config.watchdog_cycles;
        // First cycle at which the cancellation closure runs; advanced by
        // `check_every` after each (negative) answer. Hops clamp to it the
        // same way they clamp to `stop_at`, so a checkpoint is reached
        // exactly when it falls due.
        let mut next_check = checkpoint
            .as_ref()
            .map(|(every, _)| start_cycle + (*every).max(1));

        while !self.halted {
            if let Some(stop) = stop_at {
                if self.cycle >= stop {
                    self.catch_up_retires();
                    return Ok(None);
                }
            }
            if let Some((every, cancelled)) = checkpoint.as_mut() {
                let due = next_check.expect("checkpoint always has a due cycle");
                if self.cycle >= due {
                    if cancelled() {
                        self.catch_up_retires();
                        return Err(RunError::Cancelled { cycle: self.cycle });
                    }
                    next_check = Some(self.cycle + (*every).max(1));
                }
            }
            if let Some(at) = self.interrupt_at {
                if self.cycle >= at {
                    self.halted = true;
                    self.interrupt_at = None;
                    break;
                }
            }
            if self.cycle - start_cycle > self.config.max_cycles {
                self.catch_up_retires();
                return Err(RunError::CycleLimit(self.config.max_cycles));
            }
            if watchdog > 0 && self.cycle - self.last_progress > watchdog {
                self.catch_up_retires();
                return Err(RunError::Watchdog {
                    pc: self.pc,
                    idle_cycles: self.cycle - self.last_progress,
                });
            }
            // Run to the first cycle at which a check above could fire
            // (the span tracks the watchdog deadline, which moves with
            // progress), then check again, exactly as if every cycle were
            // checked. Pausing at a cancellation checkpoint and re-entering
            // is the `run_until` pause path, so a run that is never
            // cancelled is bit-identical to an unclamped one.
            let boundary = [stop_at, next_check, self.interrupt_at]
                .into_iter()
                .flatten()
                .fold(limit_cycle, u64::min);
            self.run_span(sink, boundary)?;
        }
        // Drain the FPU: a vector may continue issuing and retiring long
        // after the CPU halts (§2.3.1's "vector ALU instructions may
        // continue long after an interrupt"). Drain cycles are attributed
        // to the transferring ALU instruction.
        loop {
            self.fpu.begin_cycle_with(self.cycle, sink);
            if !self.fpu.busy() {
                break;
            }
            // A healthy drain is bounded (every reservation retires within
            // the FPU latency), but a fault-injected stuck scoreboard bit
            // can block the IR forever with nothing left in flight — the
            // watchdog catches that here too.
            if watchdog > 0 && self.cycle - self.last_progress > watchdog {
                return Err(RunError::Watchdog {
                    pc: self.ir_pc,
                    idle_cycles: self.cycle - self.last_progress,
                });
            }
            emit(
                sink,
                self.cycle,
                EventKind::Drain {
                    pc: self.ir_pc,
                    instr_index: self.ir_index,
                },
            );
            self.drain_cycles += 1;
            self.issue_and_record(sink);
            self.cycle += 1;
        }

        let delta = |a: mt_mem::CacheStats, b: mt_mem::CacheStats| mt_mem::CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            writebacks: a.writebacks - b.writebacks,
        };
        let f = self.fpu.stats();
        Ok(Some(RunStats {
            cycles: self.cycle - start_cycle,
            instructions: self.instructions - start_instructions,
            drain_cycles: self.drain_cycles - start_drain,
            fpu: mt_core::FpuStats {
                instructions_transferred: f.instructions_transferred
                    - start_fpu.instructions_transferred,
                elements_issued: f.elements_issued - start_fpu.elements_issued,
                flops: f.flops - start_fpu.flops,
                scoreboard_stall_cycles: f.scoreboard_stall_cycles
                    - start_fpu.scoreboard_stall_cycles,
                loads: f.loads - start_fpu.loads,
                stores: f.stores - start_fpu.stores,
                overflow_aborts: f.overflow_aborts - start_fpu.overflow_aborts,
                elements_squashed: f.elements_squashed - start_fpu.elements_squashed,
            },
            stalls: StallBreakdown {
                ir_busy: self.stalls.ir_busy - start_stalls.ir_busy,
                ls_port_busy: self.stalls.ls_port_busy - start_stalls.ls_port_busy,
                fpu_reg_hazard: self.stalls.fpu_reg_hazard - start_stalls.fpu_reg_hazard,
                int_load_hazard: self.stalls.int_load_hazard - start_stalls.int_load_hazard,
                fetch: self.stalls.fetch - start_stalls.fetch,
                data_miss: self.stalls.data_miss - start_stalls.data_miss,
                branch: self.stalls.branch - start_stalls.branch,
            },
            dcache: delta(self.mem.dcache_stats(), dcache0),
            icache: delta(self.mem.icache_stats(), icache0),
            ibuffer: delta(self.mem.ibuffer_stats(), ibuffer0),
            violations: self.violations[start_violations..].to_vec(),
        }))
    }

    /// Applies FPU retirements a hop has deferred, at a point where the
    /// run leaves the loop without a drain (a `run_until` pause, a
    /// cancellation, a cycle-limit or watchdog abort). A hop lets
    /// `begin_cycle` at the next processed cycle retire the skipped
    /// span's writes — invisible while the run continues, but at an exit
    /// the deferred writes would leak into the observed architectural
    /// state. A stepped run processed phase 1 on every cycle up to `C-1`,
    /// so retire exactly that much; a write due at `C` itself stays in
    /// flight there too (the loop exits before `C`'s phase 1). No-op
    /// after stepping, where nothing is ever deferred.
    fn catch_up_retires(&mut self) {
        if self.fpu.next_retire_at().is_some_and(|r| r < self.cycle) {
            self.fpu.begin_cycle(self.cycle - 1);
        }
    }

    /// The execution engine: runs cycles until `self.cycle` reaches
    /// `boundary` — the first cycle at which one of the run loop's
    /// checks (stop point, cancellation checkpoint, interrupt, cycle
    /// limit) could fire — or the watchdog deadline, or the CPU halts.
    ///
    /// A cycle has three phases: the FPU retirements due, the CPU's
    /// slice, and the IR's issue slot. The CPU's slice fetches a [`Uop`]
    /// when nothing is pending ([`Machine::fetch`]), checks its guards
    /// ([`Machine::blocked_until`]) and, when none holds it, executes it
    /// ([`Machine::execute`]). Every cycle in which the CPU cannot
    /// complete an instruction belongs to one of the four waits of
    /// [`Wait`], all handled by [`Machine::wait`]: stepped one cycle at a
    /// time while `sink` is enabled, hopped in one jump while it is not.
    fn run_span<S: EventSink>(&mut self, sink: &mut S, boundary: u64) -> Result<(), RunError> {
        let watchdog = self.config.watchdog_cycles;
        // The table is immutable: one reference serves the whole span.
        let table = self.xlate.clone();
        while !self.halted {
            // Within a span only the watchdog deadline moves (with
            // `last_progress`, which only advances).
            let boundary = if watchdog > 0 {
                boundary.min(self.last_progress + watchdog + 1)
            } else {
                boundary
            };
            if self.cycle >= boundary {
                break;
            }

            // Phase 1: the retirements due this cycle.
            if self.fpu.next_retire_at().is_some_and(|r| r <= self.cycle) {
                self.fpu.begin_cycle_with(self.cycle, sink);
            }
            if self.cycle < self.freeze_until {
                self.wait(sink, Wait::Freeze, self.freeze_until, boundary);
                continue;
            }

            // Phase 2: the CPU's slice.
            let uop = match self.pending {
                None if self.cycle < self.fetch_ready_at => {
                    self.wait(sink, Wait::Bubble, self.fetch_ready_at, boundary);
                    continue;
                }
                None => {
                    let (uop, penalty) = self.fetch(table.as_deref())?;
                    self.pending = Some(uop.instr);
                    self.pending_ready_at = self.cycle + penalty;
                    if penalty > 0 {
                        // Fetch stalls accrue one cycle at a time as the
                        // penalty elapses (this cycle is the first), so a
                        // run that ends mid-penalty has charged exactly
                        // the elapsed cycles. The event still reports the
                        // whole penalty up front.
                        self.stalls.fetch += 1;
                        emit(
                            sink,
                            self.cycle,
                            EventKind::Stall {
                                pc: self.pc,
                                instr_index: self.instr_index(),
                                cause: StallCause::Fetch,
                                cycles: penalty,
                            },
                        );
                        self.issue_and_record(sink);
                        self.cycle += 1;
                        continue;
                    }
                    uop
                }
                Some(_) if self.cycle < self.pending_ready_at => {
                    self.wait(sink, Wait::Fetch, self.pending_ready_at, boundary);
                    continue;
                }
                Some(instr) => self.pending_uop(table.as_deref(), instr),
            };
            if let Some((cause, until)) = self.blocked_until(&uop.cost) {
                self.wait(sink, Wait::Interlock(cause), until, boundary);
                continue;
            }
            let next_pc = self.execute(&uop, sink)?;
            self.instructions += 1;
            self.last_progress = self.cycle;
            self.pending = None;
            emit(
                sink,
                self.cycle,
                EventKind::CpuComplete {
                    pc: self.pc,
                    instr_index: self.instr_index(),
                    instr: uop.instr,
                },
            );
            match next_pc {
                Some(pc) => self.pc = pc,
                None => self.halted = true,
            }

            // Phase 3: the IR's issue slot.
            self.issue_and_record(sink);
            self.cycle += 1;
        }
        Ok(())
    }

    /// Spends one wait until `until`, the first cycle at which it can
    /// lapse (`u64::MAX` when only an FPU retirement can lift it).
    ///
    /// With an enabled sink it steps one cycle and emits that cycle's
    /// events. With a disabled sink it hops: nothing that feeds the wait
    /// (`freeze_until`, `fetch_ready_at`, `pending_ready_at`,
    /// `int_ready`, `ls_free_at`, the IR, the scoreboard) changes before
    /// `until` while the CPU waits and the IR does not issue, so the
    /// cycle jumps there at once — never past `boundary`, and no further
    /// than the next retirement when that can end the wait (a
    /// scoreboard-blocked IR, or `until == u64::MAX`) — and the skipped
    /// cycles' stall accounting is charged in bulk. Other waits skip
    /// across retirements: `begin_cycle` at the target retires the
    /// span's writes in readiness order, exactly as stepping would. A
    /// cycle in which the IR would issue is stepped in both modes,
    /// because each issue writes the scoreboard.
    #[inline(always)]
    fn wait<S: EventSink>(&mut self, sink: &mut S, wait: Wait, until: u64, boundary: u64) {
        // The issue stage is gated with the CPU during a freeze.
        let frozen = matches!(wait, Wait::Freeze);
        if !sink.enabled() {
            let blocked = if frozen {
                None
            } else {
                self.fpu.issue_blocked()
            };
            if blocked != Some(false) {
                let ir_stalled = blocked.is_some();
                let mut to = until;
                if ir_stalled || until == u64::MAX {
                    if let Some(retire) = self.fpu.next_retire_at() {
                        to = to.min(retire);
                    }
                }
                let to = to.min(boundary);
                debug_assert!(to > self.cycle, "a wait lasts past this cycle");
                let cycles = to - self.cycle;
                self.charge(wait, cycles);
                if ir_stalled {
                    self.fpu.add_scoreboard_stalls(cycles);
                }
                self.cycle = to;
                return;
            }
        }
        self.charge(wait, 1);
        if let Wait::Interlock(cause) = wait {
            self.emit_stall(sink, cause);
        }
        if !frozen {
            self.issue_and_record(sink);
        }
        self.cycle += 1;
    }

    /// Charges `cycles` cycles of `wait` to its stall counter. Freeze and
    /// bubble cycles are charged in bulk at the miss and at the branch.
    #[inline]
    fn charge(&mut self, wait: Wait, cycles: u64) {
        let s = &mut self.stalls;
        let counter = match wait {
            Wait::Freeze | Wait::Bubble => return,
            Wait::Fetch => &mut s.fetch,
            Wait::Interlock(cause) => match cause {
                StallCause::IrBusy => &mut s.ir_busy,
                StallCause::LsPortBusy => &mut s.ls_port_busy,
                StallCause::FpuRegHazard => &mut s.fpu_reg_hazard,
                StallCause::IntLoadHazard => &mut s.int_load_hazard,
                StallCause::Fetch => &mut s.fetch,
                StallCause::DataMiss => &mut s.data_miss,
                StallCause::Branch => &mut s.branch,
            },
        };
        *counter += cycles;
    }

    /// Fetches the instruction at the PC as a micro-op, with its fetch
    /// penalty. While no write has touched the text since
    /// [`Machine::load_program`], the translated table holds the word at
    /// every text PC, so the fetch only charges the cache path. Any other
    /// PC — outside the text, misaligned, an undecodable word — and every
    /// fetch after a write to the text (self-modifying code, a fault
    /// injection, a workload poke) reads and decodes the word instead,
    /// faulting where the hardware would.
    #[inline(always)]
    fn fetch(&mut self, table: Option<&TranslatedProgram>) -> Result<(Uop, u64), RunError> {
        if self.mem.memory.watch_writes() == 0 {
            if let Some(&uop) = table.and_then(|t| t.uop(self.pc)) {
                return Ok((uop, self.mem.fetch_timing(self.pc)));
            }
        }
        self.fetch_and_decode()
    }

    /// The micro-op of the pending instruction `instr`: the table's while
    /// the text is unwritten (the word fetched at the PC is then the one
    /// translated), else built from `instr` itself. Same lookup as
    /// [`Machine::fetch`]; kept separate because the engine loop's speed
    /// depends on how little of it is inlined.
    #[inline(always)]
    fn pending_uop(&self, table: Option<&TranslatedProgram>, instr: Instr) -> Uop {
        if self.mem.memory.watch_writes() == 0 {
            if let Some(&uop) = table.and_then(|t| t.uop(self.pc)) {
                return uop;
            }
        }
        self.rebuilt_uop(instr)
    }

    /// The fallback of [`Machine::pending_uop`], kept out of line so the
    /// table path stays small in the engine loop.
    #[cold]
    #[inline(never)]
    fn rebuilt_uop(&self, instr: Instr) -> Uop {
        Uop::new(self.pc, instr)
    }

    /// The decode fallback of [`Machine::fetch`], kept out of line so the
    /// table path stays small in the engine loop.
    #[inline(never)]
    fn fetch_and_decode(&mut self) -> Result<(Uop, u64), RunError> {
        let (word, penalty) = self
            .mem
            .try_fetch(self.pc)
            .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
        let instr = Instr::decode(word).map_err(|e| RunError::BadInstruction {
            pc: self.pc,
            message: e.to_string(),
        })?;
        Ok((Uop::new(self.pc, instr), penalty))
    }

    /// The guard that holds the pending instruction this cycle, if any,
    /// with the first cycle at which it can lapse (`u64::MAX` when only
    /// an FPU retirement can lift it). Guards apply in the hardware's
    /// order: the serialized-issue ablation's IR gate, then, from the
    /// instruction's row of the shared [`InstrCost`] table, the integer
    /// load interlock, the load/store port, the FPU register hazard and
    /// the IR-busy transfer. `mt-mca` replays exactly these guards
    /// statically; a change to the table changes both in lock step.
    #[inline(always)]
    fn blocked_until(&self, cost: &InstrCost) -> Option<(StallCause, u64)> {
        if self.config.serialized_issue && self.fpu.ir_busy() {
            return Some((StallCause::IrBusy, u64::MAX));
        }
        if cost.int_guard_regs().any(|r| self.int_blocked(r)) {
            // Blocked until the last checked register is ready (free ones
            // are ready already).
            let ready = cost
                .int_guard_regs()
                .map(|r| self.int_ready[r.index() as usize])
                .max()
                .expect("a blocked guard set is nonempty");
            return Some((StallCause::IntLoadHazard, ready));
        }
        if cost.port.is_some() && self.cycle < self.ls_free_at {
            return Some((StallCause::LsPortBusy, self.ls_free_at));
        }
        if let Some((fr, is_load)) = cost.fpu_mem {
            if self.fpu.reg_reserved(fr) || self.current_element_conflict(fr, is_load) {
                return Some((StallCause::FpuRegHazard, u64::MAX));
            }
        }
        if cost.fpu_transfer && self.fpu.ir_busy() {
            return Some((StallCause::IrBusy, u64::MAX));
        }
        None
    }

    /// Index of the current PC in the program text, matching `mt-lint`
    /// finding indices and assembler source spans.
    fn instr_index(&self) -> u32 {
        self.pc.wrapping_sub(self.entry) / 4
    }

    /// Lets the ALU IR issue through this cycle's element lanes, emitting
    /// each issue (or the scoreboard stall) attributed to the transferring
    /// instruction. The paper's machine has one lane; with
    /// `fpu_lanes > 1` up to that many consecutive elements issue per
    /// cycle, strictly in order — a blocked element blocks the lanes
    /// behind it, and an intra-cycle dependence blocks naturally because
    /// the earlier lane's issue reserves its destination before the later
    /// lane checks the scoreboard. Only the *first* lane's blocked
    /// attempt charges a scoreboard stall (later lanes going unused is
    /// issue-width under-utilization, not a stall), so at `fpu_lanes = 1`
    /// this is exactly a single `issue` call. A hop's
    /// [`Fpu::issue_blocked`] probe asks about the first element, and a
    /// cycle whose first element would issue is always stepped through
    /// this function.
    #[inline(always)]
    fn issue_and_record<S: EventSink>(&mut self, sink: &mut S) {
        if self.fpu.ir_busy() {
            self.issue_lanes(sink);
        }
    }

    /// The lane loop of [`Machine::issue_and_record`], kept out of line:
    /// the engine loop inlines only the empty-IR check.
    #[inline(never)]
    fn issue_lanes<S: EventSink>(&mut self, sink: &mut S) {
        for lane in 0..self.timing.fpu_lanes.max(1) {
            match self.fpu.issue_lane(self.cycle, lane == 0) {
                mt_core::IssueOutcome::Issued {
                    op, refs, element, ..
                } => {
                    self.last_progress = self.cycle;
                    emit(
                        sink,
                        self.cycle,
                        EventKind::ElementIssue {
                            pc: self.ir_pc,
                            instr_index: self.ir_index,
                            op,
                            element,
                            refs,
                            latency: self.fpu.latency(),
                        },
                    )
                }
                mt_core::IssueOutcome::Stalled => {
                    if lane == 0 {
                        emit(
                            sink,
                            self.cycle,
                            EventKind::ScoreboardStall {
                                pc: self.ir_pc,
                                instr_index: self.ir_index,
                            },
                        );
                    }
                    break;
                }
                mt_core::IssueOutcome::Idle => break,
            }
        }
    }

    /// Emits a one-cycle CPU stall at the current PC.
    fn emit_stall<S: EventSink>(&mut self, sink: &mut S, cause: StallCause) {
        emit(
            sink,
            self.cycle,
            EventKind::Stall {
                pc: self.pc,
                instr_index: self.instr_index(),
                cause,
                cycles: 1,
            },
        );
    }

    /// `true` when `r` has a load in its delay slot (interlock).
    fn int_blocked(&self, r: IReg) -> bool {
        self.cycle < self.int_ready[r.index() as usize]
    }

    /// Executes the pending micro-op once no guard holds it: its
    /// architectural effect and the events it emits before completing.
    /// Returns the next PC, or `None` for `halt`.
    #[inline(always)]
    fn execute<S: EventSink>(&mut self, uop: &Uop, sink: &mut S) -> Result<Option<u32>, RunError> {
        let next_pc = match uop.instr {
            Instr::Halt => return Ok(None),
            Instr::Nop => uop.target,

            Instr::Mfpsw { rd } => {
                let psw = self.fpu.psw();
                let mut v = psw.flags.bits() as i32;
                if let Some(dest) = psw.overflow_dest {
                    v |= (dest.index() as i32) << 8 | 1 << 15;
                }
                self.set_ireg(rd, v);
                uop.target
            }

            Instr::ClrPsw => {
                self.fpu.clear_psw();
                uop.target
            }

            Instr::Alu { op, rd, rs1, rs2 } => {
                let a = self.ireg(rs1);
                let b = self.ireg(rs2);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
                    AluOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
                    AluOp::Sra => a >> (b as u32 & 31),
                    AluOp::Slt => (a < b) as i32,
                    AluOp::Mul => a.wrapping_mul(b),
                };
                self.set_ireg(rd, v);
                uop.target
            }

            Instr::Addi { rd, rs1, imm } => {
                self.set_ireg(rd, self.ireg(rs1).wrapping_add(imm));
                uop.target
            }

            Instr::Lui { rd, imm } => {
                self.set_ireg(rd, ((imm << 14) & 0xFFFF_C000) as i32);
                uop.target
            }

            Instr::Lw { rd, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let (value, penalty) = self
                    .mem
                    .try_load_u32(addr)
                    .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
                self.set_ireg(rd, value as i32);
                // One load delay slot beyond any miss stall.
                self.int_ready[rd.index() as usize] =
                    self.cycle + penalty + self.timing.int_load_delay_cycles;
                self.ls_free_at = self.cycle + penalty + self.timing.load_port_cycles;
                self.emit_dcache(sink, false, penalty);
                self.apply_miss(penalty, sink);
                uop.target
            }

            Instr::Sw { rs, base, offset } => {
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let penalty = self
                    .mem
                    .try_store_u32(addr, self.ireg(rs) as u32)
                    .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
                // Stores take two cycles (§2.4).
                self.ls_free_at = self.cycle + penalty + self.timing.store_port_cycles;
                self.emit_dcache(sink, true, penalty);
                self.apply_miss(penalty, sink);
                uop.target
            }

            Instr::Fld { fr, base, offset } => {
                if self.config.checked_ordering {
                    self.check_ordering_load(fr);
                }
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                let (bits, penalty) = self
                    .mem
                    .try_load_f64(addr)
                    .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
                self.fpu.load_write(fr, bits, self.cycle + penalty);
                self.ls_free_at = self.cycle + penalty + self.timing.load_port_cycles;
                self.emit_dcache(sink, false, penalty);
                self.apply_miss(penalty, sink);
                uop.target
            }

            Instr::Fst { fr, base, offset } => {
                if self.config.checked_ordering {
                    self.check_ordering_store(fr);
                }
                let addr = (self.ireg(base) as u32).wrapping_add(offset as u32);
                self.mem
                    .memory
                    .try_check(addr, 8)
                    .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
                let bits = self.fpu.read_reg_for_store(fr);
                let penalty = self
                    .mem
                    .try_store_f64(addr, bits)
                    .map_err(|fault| RunError::MemoryFault { pc: self.pc, fault })?;
                // Stores take two cycles (§2.4).
                self.ls_free_at = self.cycle + penalty + self.timing.store_port_cycles;
                self.emit_dcache(sink, true, penalty);
                self.apply_miss(penalty, sink);
                uop.target
            }

            Instr::Branch { cond, rs1, rs2, .. } => {
                if cond.eval(self.ireg(rs1), self.ireg(rs2)) {
                    self.take_branch_bubble(sink);
                    uop.target
                } else {
                    self.pc.wrapping_add(4)
                }
            }

            Instr::Jump { .. } => {
                self.take_branch_bubble(sink);
                uop.target
            }

            Instr::Jal { .. } => {
                self.set_ireg(IReg::new(31), self.pc.wrapping_add(4) as i32);
                self.take_branch_bubble(sink);
                uop.target
            }

            Instr::Jr { rs } => {
                self.take_branch_bubble(sink);
                self.ireg(rs) as u32
            }

            Instr::Falu(f) => {
                // The IR-busy guard admitted the transfer.
                let transferred = self.fpu.try_transfer(f);
                debug_assert!(transferred, "transfer into a busy IR");
                // Subsequent FPU-side events (element issues, scoreboard
                // stalls, drain) belong to this instruction.
                self.ir_pc = self.pc;
                self.ir_index = self.instr_index();
                emit(
                    sink,
                    self.cycle,
                    EventKind::Transfer {
                        pc: self.pc,
                        instr_index: self.ir_index,
                        instr: f,
                    },
                );
                uop.target
            }
        };
        Ok(Some(next_pc))
    }

    fn take_branch_bubble<S: EventSink>(&mut self, sink: &mut S) {
        self.stalls.branch += self.timing.branch_penalty;
        self.fetch_ready_at = self.cycle + 1 + self.timing.branch_penalty;
        if self.timing.branch_penalty > 0 {
            emit(
                sink,
                self.cycle,
                EventKind::Stall {
                    pc: self.pc,
                    instr_index: self.instr_index(),
                    cause: StallCause::Branch,
                    cycles: self.timing.branch_penalty,
                },
            );
        }
    }

    /// Emits the data-port access of the instruction at the current PC.
    fn emit_dcache<S: EventSink>(&mut self, sink: &mut S, store: bool, penalty: u64) {
        emit(
            sink,
            self.cycle,
            EventKind::DcacheAccess {
                pc: self.pc,
                instr_index: self.instr_index(),
                store,
                miss: penalty > 0,
                penalty,
            },
        );
    }

    /// A data-cache miss freezes instruction issue for the penalty (the
    /// lock-step pipeline), while in-flight FPU results keep draining.
    fn apply_miss<S: EventSink>(&mut self, penalty: u64, sink: &mut S) {
        if penalty > 0 {
            self.freeze_until = self.cycle + 1 + penalty;
            self.stalls.data_miss += penalty;
            emit(
                sink,
                self.cycle,
                EventKind::Stall {
                    pc: self.pc,
                    instr_index: self.instr_index(),
                    cause: StallCause::DataMiss,
                    cycles: penalty,
                },
            );
        }
    }

    /// The §2.3.2 hardware execution constraint: a load/store is held off
    /// while the *current* (next-to-issue) element of the ALU IR references
    /// its register. "If dependencies occur between loads and stores or
    /// elements in a vector other than the first, the compiler must break
    /// the vector" — the first unissued element is interlocked by this
    /// comparator against the IR's live specifier fields; later elements
    /// are software's responsibility (see checked mode).
    fn current_element_conflict(&self, fr: FReg, is_load: bool) -> bool {
        let Some(active) = self.fpu.ir_active() else {
            return false;
        };
        if !self.config.full_range_interlock {
            // Interlock against the current element only (the hardware the
            // paper builds; §2.3.2): its refs sit precomputed in the IR.
            let refs = active.current_refs();
            return if is_load {
                refs.rr == fr || refs.ra == fr || (!active.instr.op.is_unary() && refs.rb == fr)
            } else {
                refs.rr == fr
            };
        }
        // Ardent-Titan-style hardware: check every unissued element's
        // register ranges (§2.3.2's first approach).
        for e in active.next_element..active.instr.vl {
            let refs = active.instr.element(e);
            let conflict = if is_load {
                // A load may neither clobber an operand the element has yet
                // to read nor race the element's own write.
                refs.rr == fr || refs.ra == fr || (!active.instr.op.is_unary() && refs.rb == fr)
            } else {
                // A store must not read a register the element will write.
                refs.rr == fr
            };
            if conflict {
                return true;
            }
        }
        false
    }

    /// §2.3.2 checked mode: a load completing now interacts with elements
    /// of the in-flight vector instruction beyond the hardware-interlocked
    /// current one.
    fn check_ordering_load(&mut self, fr: FReg) {
        let Some(active) = self.fpu.ir_active() else {
            return;
        };
        let mut found: Vec<(ViolationKind, FReg)> = Vec::new();
        for e in active.next_element + 1..active.instr.vl {
            let refs = active.instr.element(e);
            if refs.ra == fr || (!active.instr.op.is_unary() && refs.rb == fr) {
                found.push((ViolationKind::LoadClobbersPendingSource, fr));
            }
            if refs.rr == fr {
                found.push((ViolationKind::LoadIntoPendingDest, fr));
            }
        }
        for (kind, reg) in found {
            let v = self.violation(kind, reg);
            self.violations.push(v);
        }
    }

    /// §2.3.2 checked mode: a store reading now would see a stale value if
    /// a not-yet-issued element is going to write its register.
    fn check_ordering_store(&mut self, fr: FReg) {
        let Some(active) = self.fpu.ir_active() else {
            return;
        };
        let mut found: Vec<FReg> = Vec::new();
        for e in active.next_element + 1..active.instr.vl {
            if active.instr.element(e).rr == fr {
                found.push(fr);
            }
        }
        for reg in found {
            let v = self.violation(ViolationKind::StoreReadsPendingDest, reg);
            self.violations.push(v);
        }
    }

    /// Builds a checked-mode diagnostic anchored to the current PC.
    fn violation(&self, kind: ViolationKind, reg: FReg) -> OrderingViolation {
        OrderingViolation {
            cycle: self.cycle,
            kind,
            reg,
            pc: self.pc,
            instr_index: (self.pc.wrapping_sub(self.entry) / 4) as usize,
        }
    }
}
