//! The benchmark's span recorder: host-time intervals around each call the
//! benchmark makes into a layer's public API.
//!
//! Spans live in memory while a run measures and are written out when it
//! ends. A span's *layer* is its name up to the first `.` (`sim.run_cold`
//! belongs to `sim`); a layer's self time is the time its spans cover minus
//! the time their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: &'static str,
    /// Identifier shared by every span of one unit of work (one loop, one
    /// injection batch, one request).
    pub run: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans; a disabled recorder reads no clock and stores
/// nothing, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, run: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            run,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        let me = self.spans.len() - 1;
        self.spans[me].parent = self.open.len().checked_sub(2).map(|i| self.open[i]);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, run);
        let r = f();
        self.exit();
        r
    }

    /// Moves every span of `other` (recorded against the same epoch) into
    /// this recorder, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes the first `limit` spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.run, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the part
/// of its interval that its children cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            run: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // bench.loop [0,100] ⊃ sim.run [10,60] ⊃ fparith.op [20,30];
        // bench.loop ⊃ kernels.verify [70,90].
        let spans = [
            span("bench.loop", None, 0, 100),
            span("sim.run", Some(0), 10, 60),
            span("fparith.op", Some(1), 20, 30),
            span("kernels.verify", Some(0), 70, 90),
        ];
        let t = self_time_by_layer(&spans);
        assert_eq!(t["bench"], 100 - 50 - 20);
        assert_eq!(t["sim"], 50 - 10);
        assert_eq!(t["fparith"], 10);
        assert_eq!(t["kernels"], 20);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("bench.req", None, 0, 100),
            span("client.a", Some(0), 10, 50),
            span("client.b", Some(0), 40, 80),
            span("client.c", Some(0), 90, 130),
        ];
        let t = self_time_by_layer(&spans);
        // Children cover [10,80] and [90,100] of the parent.
        assert_eq!(t["bench"], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        tr.enter("bench.loop", 7);
        tr.time("sim.run", 7, || ());
        tr.exit();
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].run, 7);

        let mut other = Tracer::new(true, epoch);
        other.enter("bench.req", 1);
        other.time("client.connect", 1, || ());
        other.exit();
        tr.absorb(other);
        assert_eq!(tr.spans()[3].parent, Some(2));

        let mut off = Tracer::new(false, epoch);
        off.enter("bench.loop", 0);
        off.time("sim.run", 0, || ());
        off.exit();
        assert!(off.spans().is_empty());
    }
}
