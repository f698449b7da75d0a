//! The metrics a run reports and the result line it prints.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! records; a test keeps the two in step.

use std::collections::BTreeMap;

/// `(name, unit, better)` of every end-to-end metric. Every workload
/// reports all of them (see NOTES.md for what each means per workload).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. A traced run reports
/// all of them; one that its workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // livermore
    ("kernels.build_us", "us", "lower"),
    ("sim.install_us", "us", "lower"),
    ("xlate.translate_us", "us", "lower"),
    ("sim.run_cold_us", "us", "lower"),
    ("sim.run_warm_us", "us", "lower"),
    ("sim.host_ns_per_cycle", "ns", "lower"),
    ("sim.host_ns_per_cycle.ll15", "ns", "lower"),
    ("sim.host_ns_per_cycle.ll18", "ns", "lower"),
    ("sim.host_ns_per_cycle.ll21", "ns", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.instructions", "count", "lower"),
    ("sim.stall_cycles", "count", "lower"),
    ("sim.drain_cycles", "count", "lower"),
    ("core.elements", "count", "lower"),
    ("fparith.flops", "count", "lower"),
    ("mem.dcache_accesses", "count", "lower"),
    ("mem.dcache_misses", "count", "lower"),
    ("mem.icache_accesses", "count", "lower"),
    ("mem.ibuffer_accesses", "count", "lower"),
    ("fparith.add_ns", "ns", "lower"),
    ("fparith.sub_ns", "ns", "lower"),
    ("fparith.float_ns", "ns", "lower"),
    ("fparith.truncate_ns", "ns", "lower"),
    ("fparith.mul_ns", "ns", "lower"),
    ("fparith.intmul_ns", "ns", "lower"),
    ("fparith.iterstep_ns", "ns", "lower"),
    ("fparith.recip_ns", "ns", "lower"),
    ("mem.cache_access_ns", "ns", "lower"),
    ("isa.decode_ns", "ns", "lower"),
    ("ledger.explained_share", "share", "higher"),
    // fault
    ("sim.restore_us", "us", "lower"),
    ("sim.run_until_us", "us", "lower"),
    ("fault.apply_us", "us", "lower"),
    ("sim.run_after_complete_us", "us", "lower"),
    ("sim.run_after_hang_us", "us", "lower"),
    ("sim.run_after_crash_us", "us", "lower"),
    ("fault.masked", "count", "higher"),
    ("fault.detected", "count", "higher"),
    ("fault.sdc", "count", "lower"),
    ("fault.crash", "count", "lower"),
    ("fault.hang", "count", "lower"),
    // serve-miss and serve-hit
    ("client.connect_us", "us", "lower"),
    ("client.ttfb_us", "us", "lower"),
    ("client.total_us", "us", "lower"),
    ("serve.read-request.p50_us", "us", "lower"),
    ("serve.read-request.p99_us", "us", "lower"),
    ("serve.parse.p50_us", "us", "lower"),
    ("serve.parse.p99_us", "us", "lower"),
    ("serve.cache-lookup.p50_us", "us", "lower"),
    ("serve.cache-lookup.p99_us", "us", "lower"),
    ("serve.queue-wait.p50_us", "us", "lower"),
    ("serve.queue-wait.p99_us", "us", "lower"),
    ("serve.worker-service.p50_us", "us", "lower"),
    ("serve.worker-service.p99_us", "us", "lower"),
    ("serve.sim-run.p50_us", "us", "lower"),
    ("serve.sim-run.p99_us", "us", "lower"),
    ("serve.respond.p50_us", "us", "lower"),
    ("serve.respond.p99_us", "us", "lower"),
    ("serve.total.p50_us", "us", "lower"),
    ("serve.total.p99_us", "us", "lower"),
    ("serve.unattributed_us", "us", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.jobs_accepted", "count", "lower"),
    ("serve.jobs_completed", "count", "higher"),
    ("serve.jobs_rejected", "count", "lower"),
    ("serve.jobs_shed", "count", "lower"),
    ("serve.jobs_failed", "count", "lower"),
    ("serve.worker_utilization", "share", "higher"),
    ("serve.http_parse_ns", "ns", "lower"),
    ("serve.cache_key_ns", "ns", "lower"),
    ("serve.job_execute_us", "us", "lower"),
    // every workload; the p99 is not gated end to end because shared hosts
    // move it by more than any allowed bound (NOTES.md)
    ("latency_p99_us", "us", "lower"),
    ("self.bench_share", "share", "lower"),
    ("self.kernels_share", "share", "lower"),
    ("self.sim_share", "share", "lower"),
    ("self.fault_share", "share", "lower"),
    ("self.client_share", "share", "lower"),
    ("traced.throughput_per_s", "1/s", "higher"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Units of work attempted (loops, injections, requests).
    pub attempted: u64,
    /// Units of work that failed (non-200 replies, transport errors).
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    /// Sets a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// On an undeclared name: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.0 == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed output check (the first few of each run are kept).
    pub fn fail(&mut self, error: String) {
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    /// Records the outcome of a check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The result line: every end-to-end metric untraced, every per-layer
    /// metric traced. An end-to-end metric left unset is a benchmark bug and
    /// is reported as a failed check.
    pub fn result_line(&mut self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(defs.len());
        for &(name, unit, _) in defs {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.fail(format!("metric {name} is not finite: {v}"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        )
    }
}

/// A JSON number with every digit of `v` (Rust's shortest round-trip form).
fn number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt_trace::json::{self, Json};

    /// The metric tables here and in BENCHMARK.json must agree.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let table = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(table("end_to_end"), ours(END_TO_END));
        assert_eq!(table("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        for (i, &(name, _, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.0 / (i as f64 + 3.0));
        }
        r.attempted = 5;
        let line = r.result_line(false);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap();
        let v = m.get("latency_p50_us").unwrap().get("value").unwrap();
        assert_eq!(v.as_f64(), Some(1.0 / 5.0));

        // A missing end-to-end metric makes the run incorrect.
        let mut r = Report::default();
        let doc = json::parse(&r.result_line(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        // A traced run fills metrics its workload does not exercise with 0.
        let mut r = Report::default();
        let doc = json::parse(&r.result_line(true)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(members.len(), PER_LAYER.len());
        assert!(members
            .iter()
            .all(|(_, m)| m.get("value") == Some(&Json::F64(0.0))));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(1e21), "1e21");
    }
}
