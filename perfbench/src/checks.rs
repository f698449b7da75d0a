//! Output checks: the values each workload must reproduce, taken from the
//! repository's committed reference documents, and the comparisons that
//! fail a run.

use mt_sim::RunStats;
use mt_trace::json::{self, Json};

/// `BENCH_sim.json`: the committed cold/warm statistics of all 24 loops.
const BENCH_SIM: &str = include_str!("../../BENCH_sim.json");
/// `BENCH_fault.json`: the committed seed-0xA5, 500-injection campaign.
const BENCH_FAULT: &str = include_str!("../../BENCH_fault.json");
/// The service's committed response to the default daxpy `/run`.
pub const DAXPY_GOLDEN: &str = include_str!("../../crates/serve/tests/data/daxpy_run.golden.json");
/// The service workloads' request body.
pub const DAXPY_SOURCE: &str = include_str!("../../examples/asm/daxpy.s");

/// The deterministic work counts of one simulator run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cycles: u64,
    pub instructions: u64,
    pub stall_cycles: u64,
    pub drain_cycles: u64,
    pub elements: u64,
    pub flops: u64,
    pub dcache_accesses: u64,
    pub dcache_misses: u64,
    pub icache_accesses: u64,
    pub ibuffer_accesses: u64,
}

impl Counts {
    /// The counts of a finished run.
    pub fn of(s: &RunStats) -> Counts {
        Counts {
            cycles: s.cycles,
            instructions: s.instructions,
            stall_cycles: s.stalls.total(),
            drain_cycles: s.drain_cycles,
            elements: s.fpu.elements_issued,
            flops: s.fpu.flops,
            dcache_accesses: s.dcache.accesses(),
            dcache_misses: s.dcache.misses,
            icache_accesses: s.icache.accesses(),
            ibuffer_accesses: s.ibuffer.accesses(),
        }
    }

    /// The counts of one `stats_json` document.
    fn from_json(j: &Json) -> Result<Counts, String> {
        let num = |path: &[&str]| -> Result<u64, String> {
            let mut v = j;
            for key in path {
                v = v
                    .get(key)
                    .ok_or_else(|| format!("BENCH_sim.json: missing {}", path.join(".")))?;
            }
            v.as_f64()
                .map(|x| x as u64)
                .ok_or_else(|| format!("BENCH_sim.json: {} is not a number", path.join(".")))
        };
        let accesses =
            |cache: &str| Ok::<u64, String>(num(&[cache, "hits"])? + num(&[cache, "misses"])?);
        Ok(Counts {
            cycles: num(&["cycles"])?,
            instructions: num(&["instructions"])?,
            stall_cycles: num(&["stalls", "total"])?,
            drain_cycles: num(&["drain_cycles"])?,
            elements: num(&["elements"])?,
            flops: num(&["flops"])?,
            dcache_accesses: accesses("dcache")?,
            dcache_misses: num(&["dcache", "misses"])?,
            icache_accesses: accesses("icache")?,
            ibuffer_accesses: accesses("ibuffer")?,
        })
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.instructions += o.instructions;
        self.stall_cycles += o.stall_cycles;
        self.drain_cycles += o.drain_cycles;
        self.elements += o.elements;
        self.flops += o.flops;
        self.dcache_accesses += o.dcache_accesses;
        self.dcache_misses += o.dcache_misses;
        self.icache_accesses += o.icache_accesses;
        self.ibuffer_accesses += o.ibuffer_accesses;
    }
}

/// The committed cold and warm counts of one Livermore loop.
#[derive(Debug, Clone)]
pub struct LoopExpect {
    pub name: String,
    pub cold: Counts,
    pub warm: Counts,
}

/// The committed counts of loops 1..=24, in loop order.
pub fn livermore_expected() -> Result<Vec<LoopExpect>, String> {
    let doc = json::parse(BENCH_SIM).map_err(|e| format!("BENCH_sim.json: {e}"))?;
    let kernels = doc
        .get("kernels")
        .ok_or("BENCH_sim.json: no kernels")?
        .items();
    if kernels.len() != 24 {
        return Err(format!(
            "BENCH_sim.json: {} kernels, want 24",
            kernels.len()
        ));
    }
    kernels
        .iter()
        .map(|k| {
            let pass = |key| Counts::from_json(k.get(key).ok_or("BENCH_sim.json: missing pass")?);
            Ok(LoopExpect {
                name: k
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                cold: pass("cold")?,
                warm: pass("warm")?,
            })
        })
        .collect()
}

/// Checks one loop's measured cold and warm counts against the committed
/// ones.
pub fn check_loop(exp: &LoopExpect, cold: &Counts, warm: &Counts) -> Result<(), String> {
    for (pass, got, want) in [("cold", cold, &exp.cold), ("warm", warm, &exp.warm)] {
        if got != want {
            return Err(format!(
                "{} {pass}: measured {got:?}, BENCH_sim.json has {want:?}",
                exp.name
            ));
        }
    }
    Ok(())
}

/// Fault outcome tally: masked, detected, sdc, crash, hang.
pub type Tally = [u64; 5];

/// The committed outcome tally of the seed-0xA5, 500-injection campaign.
pub fn fault_expected() -> Result<Tally, String> {
    let doc = json::parse(BENCH_FAULT).map_err(|e| format!("BENCH_fault.json: {e}"))?;
    let outcomes = doc.get("outcomes").ok_or("BENCH_fault.json: no outcomes")?;
    let mut t = [0; 5];
    for (slot, key) in t
        .iter_mut()
        .zip(["masked", "detected", "sdc", "crash", "hang"])
    {
        *slot = outcomes
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("BENCH_fault.json: no outcomes.{key}"))? as u64;
    }
    Ok(t)
}

/// Checks a tally against the expected one.
pub fn check_tally(what: &str, got: &Tally, want: &Tally) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: outcomes (masked, detected, sdc, crash, hang) {got:?}, want {want:?}"
        ))
    }
}

/// Checks a response body byte for byte.
pub fn check_body(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
        Err(format!(
            "{what}: body differs from the expected one at byte {at} ({} vs {} bytes)",
            got.len(),
            want.len()
        ))
    }
}

/// The service's job accounting: accepted, completed, rejected, shed,
/// failed.
pub fn check_accounting(a: [u64; 5]) -> Result<(), String> {
    let [accepted, completed, rejected, shed, failed] = a;
    if accepted == completed + rejected + shed + failed {
        Ok(())
    } else {
        Err(format!(
            "/metrics accounting broken: accepted {accepted} != completed {completed} + rejected {rejected} + shed {shed} + failed {failed}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_references_parse() {
        let loops = livermore_expected().unwrap();
        assert_eq!(loops.len(), 24);
        assert!(loops.iter().all(|l| l.cold.cycles > l.warm.cycles));
        assert_eq!(fault_expected().unwrap().iter().sum::<u64>(), 500);
    }

    #[test]
    fn loop_check_trips_on_any_perturbed_count() {
        let exp = livermore_expected().unwrap().swap_remove(0);
        assert!(check_loop(&exp, &exp.cold, &exp.warm).is_ok());
        let mut cold = exp.cold;
        cold.cycles += 1;
        assert!(check_loop(&exp, &cold, &exp.warm).is_err());
        let mut warm = exp.warm;
        warm.flops -= 1;
        assert!(check_loop(&exp, &exp.cold, &warm).is_err());
        let mut warm = exp.warm;
        warm.dcache_misses += 1;
        assert!(check_loop(&exp, &exp.cold, &warm).is_err());
    }

    #[test]
    fn tally_body_and_accounting_checks_trip() {
        let want = fault_expected().unwrap();
        assert!(check_tally("t", &want, &want).is_ok());
        let mut got = want;
        got[0] -= 1;
        got[2] += 1;
        assert!(check_tally("t", &got, &want).is_err());

        let golden = DAXPY_GOLDEN.as_bytes();
        assert!(check_body("b", golden, golden).is_ok());
        let mut bent = golden.to_vec();
        bent[10] ^= 1;
        assert!(check_body("b", &bent, golden).is_err());
        assert!(check_body("b", &golden[..golden.len() - 1], golden).is_err());

        assert!(check_accounting([10, 7, 1, 1, 1]).is_ok());
        assert!(check_accounting([10, 7, 1, 1, 0]).is_err());
    }
}
