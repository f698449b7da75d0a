//! `serve-miss` and `serve-hit`: an in-process mt-serve on an ephemeral
//! port, driven closed-loop by one client thread on one connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mt_fault::SplitMix64;
use mt_serve::{job, serve, Endpoint, JobRequest, RunOptions, ServerConfig, ServerHandle};
use mt_sim::{Machine, MachineConfig, SimConfig};
use mt_trace::json::{self, Json};

use crate::checks::{self, DAXPY_GOLDEN, DAXPY_SOURCE};
use crate::report::Report;
use crate::spans::{self_time_by_layer, Tracer};
use crate::stats::{median, ns_per_call, Chunked, CHUNK};
use crate::Args;

/// Which requests the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request carries its own machine config: the result cache
    /// never replays, so every request is simulated.
    Miss,
    /// Every request is the identical default daxpy run: after the first,
    /// every reply comes from the result cache.
    Hit,
}

/// Client connections, each driven closed-loop by its own thread. One
/// connection keeps the load within one core of a small shared host: on
/// two vCPUs, two connections kept both cores busy (two workers simulating
/// at once), and their throughput then followed how much of the second
/// core the host gave, spreading 0.12 to 0.27 of its median over ten runs,
/// against 0.10 to 0.15 on one connection.
const CLIENTS: usize = 1;
/// Server starts behind `setup_s`.
const SETUP_REPS: usize = 101;
/// Distinct configs of `serve-miss`, sent round-robin. Four times the
/// server's 256-entry LRU result cache, so an entry is always evicted
/// long before its config comes round again.
const CONFIGS: usize = 1024;
/// Closed-loop time before measuring starts.
const WARMUP: Duration = Duration::from_millis(500);
/// Requests of the traced run's counting phase, whose counter deltas are
/// reported exactly.
const COUNT_REQUESTS: usize = 2000;
/// Socket timeout: a hang backstop, not a latency limit.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// `/metrics` latency stages and their metric names.
const STAGES: [(&str, &str, &str); 8] = [
    (
        "read-request",
        "serve.read-request.p50_us",
        "serve.read-request.p99_us",
    ),
    ("parse", "serve.parse.p50_us", "serve.parse.p99_us"),
    (
        "cache-lookup",
        "serve.cache-lookup.p50_us",
        "serve.cache-lookup.p99_us",
    ),
    (
        "queue-wait",
        "serve.queue-wait.p50_us",
        "serve.queue-wait.p99_us",
    ),
    (
        "worker-service",
        "serve.worker-service.p50_us",
        "serve.worker-service.p99_us",
    ),
    ("sim-run", "serve.sim-run.p50_us", "serve.sim-run.p99_us"),
    ("respond", "serve.respond.p50_us", "serve.respond.p99_us"),
    ("total", "serve.total.p50_us", "serve.total.p99_us"),
];

/// One request the clients send, with the reply body it must get.
struct Planned {
    job: JobRequest,
    bytes: Vec<u8>,
    expect: String,
}

/// Seeded draw of distinct machine configs over a few timing and memory
/// knobs, rendered as `?config=` values.
fn draw_configs(seed: u64, n: usize) -> Vec<String> {
    let mut grid = Vec::new();
    for latency in 1..=6 {
        for lanes in 1..=4 {
            for miss in 4..=40 {
                for branch in 0..=3 {
                    for load in 1..=2 {
                        grid.push(format!(
                            "fpu_latency={latency},fpu_lanes={lanes},dcache_miss={miss},branch_penalty={branch},load_port_cycles={load}"
                        ));
                    }
                }
            }
        }
    }
    let mut rng = SplitMix64::new(seed);
    for i in 0..n.min(grid.len()) {
        let j = i + (rng.next_u64() % (grid.len() - i) as u64) as usize;
        grid.swap(i, j);
    }
    grid.truncate(n);
    grid
}

fn request_bytes(target: &str) -> Vec<u8> {
    let mut b = format!(
        "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        DAXPY_SOURCE.len()
    )
    .into_bytes();
    b.extend_from_slice(DAXPY_SOURCE.as_bytes());
    b
}

/// Makes closing `stream` reset the connection instead of leaving it in
/// `TIME_WAIT`. The server closes first, so every request would otherwise
/// leave a `TIME_WAIT` entry behind on the server's port, tens of thousands
/// per run. They linger for a minute, across runs, and the kernel's cost
/// of finding a free client port then depends on what ran before: on one
/// host, the ten-run spread of `serve-hit` throughput was 0.13 of its
/// median with them and 0.09 without. The client closes only after
/// reading the server's close, so no reply is cut short.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for the borrow of `stream`, and the
    // option value is a `struct linger` of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("SO_LINGER: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_: &TcpStream) -> Result<(), String> {
    Ok(())
}

/// The requests of a workload and their expected bodies: the committed
/// golden reply for `serve-hit`, a local `job::execute` of the same job for
/// `serve-miss`. Also returns the local execution times in microseconds.
fn plan(mix: Mix, seed: u64) -> Result<(Vec<Planned>, Vec<f64>), String> {
    let targets: Vec<(String, MachineConfig)> = match mix {
        Mix::Hit => vec![("/run".to_string(), MachineConfig::default())],
        Mix::Miss => draw_configs(seed, CONFIGS)
            .into_iter()
            .map(|c| Ok((format!("/run?config={c}"), MachineConfig::parse(&c)?)))
            .collect::<Result<_, String>>()?,
    };
    let mut machine = Machine::new(SimConfig::default());
    let mut exec_us = Vec::new();
    let mut planned = Vec::with_capacity(targets.len());
    for (target, config) in targets {
        let job = JobRequest {
            endpoint: Endpoint::Run,
            source: DAXPY_SOURCE.to_string(),
            options: RunOptions {
                machine: config,
                ..RunOptions::default()
            },
        };
        let t = Instant::now();
        let local = job::execute(&job, &mut machine);
        exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        if local.status != 200 {
            return Err(format!(
                "{target}: local execution answered {}",
                local.status
            ));
        }
        let expect = match mix {
            Mix::Hit => DAXPY_GOLDEN.to_string(),
            Mix::Miss => local.body,
        };
        planned.push(Planned {
            bytes: request_bytes(&target),
            job,
            expect,
        });
    }
    if mix == Mix::Hit {
        // The hit workload's one request: time its execution repeatedly.
        let job = &planned[0].job;
        for _ in 0..200 {
            let t = Instant::now();
            std::hint::black_box(job::execute(job, &mut machine));
            exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((planned, exec_us))
}

/// A parsed reply.
struct Reply {
    status: u16,
    cache_hit: bool,
    body: Vec<u8>,
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("reply has no end of head")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "reply head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let cache_hit = lines.any(|l| {
        l.split_once(':')
            .is_some_and(|(k, v)| k.eq_ignore_ascii_case("x-cache") && v.trim() == "hit")
    });
    Ok(Reply {
        status,
        cache_hit,
        body: raw[split + 4..].to_vec(),
    })
}

/// Sends one request and reads the reply to the server's close.
fn exchange(
    addr: SocketAddr,
    bytes: &[u8],
    tr: &mut Tracer,
    run: u64,
) -> Result<(Vec<u8>, f64, f64), String> {
    let t0 = Instant::now();
    let mut stream = tr
        .time("client.connect", run, || TcpStream::connect(addr))
        .map_err(|e| format!("connect: {e}"))?;
    let connected = t0.elapsed();
    reset_on_close(&stream)?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    tr.time("client.send", run, || stream.write_all(bytes))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = vec![0u8; 8192];
    let first = tr
        .time("client.wait", run, || stream.read(&mut raw))
        .map_err(|e| format!("read: {e}"))?;
    let ttfb = t0.elapsed();
    raw.truncate(first);
    tr.time("client.read", run, || stream.read_to_end(&mut raw))
        .map_err(|e| format!("read: {e}"))?;
    Ok((raw, connected.as_secs_f64() * 1e6, ttfb.as_secs_f64() * 1e6))
}

/// The closed loop's fixed parameters.
struct Load<'a> {
    addr: SocketAddr,
    plan: &'a [Planned],
    mix: Mix,
    /// Index of the next request to send, shared by all phases.
    next: &'a AtomicUsize,
    epoch: Instant,
}

/// What the client threads of one phase observed.
#[derive(Default)]
struct Phase {
    /// Client-observed connect-to-close latency of completed requests.
    total_us: Chunked,
    /// Connect and time-to-first-byte latencies (traced runs only).
    connect_us: Chunked,
    ttfb_us: Chunked,
    /// `(k, when)` for every [`CHUNK`]-th completion `k` of the phase.
    marks: Vec<(usize, Instant)>,
    attempted: u64,
    failed: u64,
    /// Failed output checks.
    errors: Vec<String>,
    /// What went wrong with failed requests (the first few).
    failures: Vec<String>,
    spans: Vec<Tracer>,
}

impl Phase {
    /// Completions per second over each run of [`CHUNK`] consecutive
    /// completions. A closed loop's rate is the inverse of its mean
    /// latency, so a host stall of a few milliseconds drags a whole window's
    /// rate; the median over chunks moves only with sustained change.
    fn rates(&mut self) -> Vec<f64> {
        self.marks.sort_unstable_by_key(|m| m.0);
        self.marks
            .windows(2)
            .map(|w| CHUNK as f64 / w[1].1.duration_since(w[0].1).as_secs_f64())
            .collect()
    }

    fn merge(&mut self, p: Phase) {
        self.total_us.merge(p.total_us);
        self.connect_us.merge(p.connect_us);
        self.ttfb_us.merge(p.ttfb_us);
        self.marks.extend(p.marks);
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.errors.extend(p.errors);
        self.failures.extend(p.failures);
        self.spans.extend(p.spans);
    }
}

/// At most this many failed checks or failed requests are kept per client.
const KEEP: usize = 10;

/// One client thread: sends requests closed-loop until `until` passes or
/// the shared request index reaches `limit`.
fn client(load: &Load, done: &AtomicUsize, until: Instant, limit: usize, trace: bool) -> Phase {
    let mut out = Phase::default();
    let mut tr = Tracer::new(trace, load.epoch);
    while Instant::now() < until {
        let i = load.next.fetch_add(1, Ordering::Relaxed);
        if i >= limit {
            break;
        }
        let p = &load.plan[i % load.plan.len()];
        let run = i as u64;
        let t0 = Instant::now();
        tr.enter("bench.request", run);
        let result = exchange(load.addr, &p.bytes, &mut tr, run);
        tr.exit();
        let total = t0.elapsed();
        out.attempted += 1;
        let reply = result.and_then(|(raw, connect_us, ttfb_us)| {
            parse_reply(&raw).map(|r| (r, connect_us, ttfb_us))
        });
        let (reply, connect_us, ttfb_us) = match reply {
            Ok(r) if r.0.status == 200 => r,
            failure => {
                out.failed += 1;
                if out.failures.len() < KEEP {
                    let why = failure.map_or_else(|e| e, |r| format!("status {}", r.0.status));
                    out.failures.push(format!("request {i}: {why}"));
                }
                continue;
            }
        };
        let mut check =
            checks::check_body(&format!("request {i}"), &reply.body, p.expect.as_bytes());
        if load.mix == Mix::Miss && reply.cache_hit {
            check = Err(format!("request {i}: X-Cache hit on the miss workload"));
        }
        if let Err(e) = check {
            if out.errors.len() < KEEP {
                out.errors.push(e);
            }
        }
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        if k.is_multiple_of(CHUNK) {
            out.marks.push((k, Instant::now()));
        }
        out.total_us.push(total.as_secs_f64() * 1e6);
        if trace {
            out.connect_us.push(connect_us);
            out.ttfb_us.push(ttfb_us);
        }
    }
    out.spans.push(tr);
    out
}

/// Runs the closed loop on [`CLIENTS`] connections.
fn drive(load: &Load, until: Instant, limit: usize, trace: bool) -> Phase {
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(load, &done, until, limit, trace)))
            .collect();
        let mut all = Phase::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    })
}

/// `GET path` on a fresh connection: the status and the body.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    reset_on_close(&stream)?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let r = parse_reply(&raw)?;
    Ok((r.status, String::from_utf8_lossy(&r.body).into_owned()))
}

/// Starts a server and waits for its first `/healthz` 200.
fn start() -> Result<ServerHandle, String> {
    let handle = serve(ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _)) = get(handle.addr(), "/healthz") {
            return Ok(handle);
        }
        if Instant::now() > deadline {
            handle.shutdown();
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn metrics(addr: SocketAddr) -> Result<Json, String> {
    let (status, body) = get(addr, "/metrics")?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    json::parse(&body).map_err(|e| format!("/metrics: {e}"))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut v = doc;
    for key in path {
        match v.get(key) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_f64().unwrap_or(0.0)
}

/// Counters read from `/metrics`, as a cumulative snapshot.
fn counters(doc: &Json) -> [f64; 7] {
    [
        num(doc, &["registry", "counters", "cache_hits"]),
        num(doc, &["registry", "counters", "cache_misses"]),
        num(doc, &["accounting", "accepted"]),
        num(doc, &["accounting", "completed"]),
        num(doc, &["accounting", "rejected"]),
        num(doc, &["accounting", "shed"]),
        num(doc, &["accounting", "failed"]),
    ]
}

const COUNTER_METRICS: [&str; 7] = [
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.jobs_accepted",
    "serve.jobs_completed",
    "serve.jobs_rejected",
    "serve.jobs_shed",
    "serve.jobs_failed",
];

pub fn run(args: &Args, mix: Mix, report: &mut Report) -> Result<(), String> {
    let (planned, exec_us) = plan(mix, args.seed)?;

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t = Instant::now();
        server = Some(start()?);
        setup.push(t.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setup).expect("setup ran"));
    let server = server.expect("a server started");
    let result = measure(args, mix, &planned, &exec_us, server.addr(), report);
    server.shutdown();
    result
}

fn measure(
    args: &Args,
    mix: Mix,
    planned: &[Planned],
    exec_us: &[f64],
    addr: SocketAddr,
    report: &mut Report,
) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let load = Load {
        addr,
        plan: planned,
        mix,
        next: &next,
        epoch: Instant::now(),
    };
    let mut phases = Vec::new();
    phases.push(drive(&load, Instant::now() + WARMUP, usize::MAX, false));
    let mut window = drive(&load, Instant::now() + args.seconds, usize::MAX, args.trace);
    let tput = median(&window.rates()).ok_or("too few requests for a throughput")?;
    let client_p50 = window.total_us.p50().ok_or("too few requests for a p99")?;
    report.set("throughput_per_s", tput);
    report.set("latency_p50_us", client_p50);
    report.set(
        "latency_p99_us",
        window.total_us.p99().ok_or("too few requests for a p99")?,
    );

    let mut traced = Tracer::new(args.trace, load.epoch);
    if args.trace {
        report.set("traced.throughput_per_s", tput);
        let before = counters(&metrics(addr)?);
        let limit = next.load(Ordering::Relaxed) + COUNT_REQUESTS;
        phases.push(drive(&load, far(), limit, false));
        let after = counters(&metrics(addr)?);
        for ((name, a), b) in COUNTER_METRICS.iter().zip(after).zip(before) {
            report.set(name, a - b);
        }
        report.set("client.connect_us", window.connect_us.p50().unwrap_or(0.0));
        report.set("client.ttfb_us", window.ttfb_us.p50().unwrap_or(0.0));
        report.set("client.total_us", client_p50);
        report.set("serve.job_execute_us", median(exec_us).unwrap_or(0.0));
        replay_costs(planned, report);
    }
    phases.push(window);

    for p in phases {
        report.attempted += p.attempted;
        report.failed += p.failed;
        for e in p.errors {
            report.fail(e);
        }
        for f in p.failures {
            eprintln!("perfbench: {f}");
        }
        for t in p.spans {
            traced.absorb(t);
        }
    }

    // Final accounting, and the stage latencies over the server's life.
    let doc = metrics(addr)?;
    let [hits, misses, accepted, completed, rejected, shed, failed] =
        counters(&doc).map(|v| v as u64);
    report.check(checks::check_accounting([
        accepted, completed, rejected, shed, failed,
    ]));
    match mix {
        Mix::Miss if hits != 0 => report.fail(format!("{hits} cache hits on the miss workload")),
        Mix::Hit if misses > CLIENTS as u64 => report.fail(format!(
            "{misses} cache misses on the hit workload, {CLIENTS} connections"
        )),
        _ => {}
    }
    if args.trace {
        for (stage, p50, p99) in STAGES {
            report.set(p50, num(&doc, &["latency_us", stage, "p50"]));
            report.set(p99, num(&doc, &["latency_us", stage, "p99"]));
        }
        let server_p50 = num(&doc, &["latency_us", "total", "p50"]);
        report.set("serve.unattributed_us", client_p50 - server_p50);
        let utils: Vec<f64> = doc
            .get("per_worker")
            .map(|w| w.items().iter().map(|x| num(x, &["utilization"])).collect())
            .unwrap_or_default();
        report.set(
            "serve.worker_utilization",
            utils.iter().sum::<f64>() / utils.len().max(1) as f64,
        );
        crate::set_self_shares(&self_time_by_layer(traced.spans()), report);
        crate::write_spans(&args.workload, &traced);
    }
    Ok(())
}

/// An instant no phase reaches: the phase ends on its request limit.
fn far() -> Instant {
    Instant::now() + Duration::from_secs(3600)
}

/// Replays the service's request parsing and cache keying on the
/// workload's own requests.
fn replay_costs(planned: &[Planned], report: &mut Report) {
    let n = planned.len();
    report.set(
        "serve.http_parse_ns",
        ns_per_call(9, 4096, |i| {
            let mut cursor = std::io::Cursor::new(&planned[i % n].bytes[..]);
            let _ = std::hint::black_box(mt_serve::http::read_request(&mut cursor));
        }),
    );
    report.set(
        "serve.cache_key_ns",
        ns_per_call(9, 4096, |i| {
            let key = planned[i % n].job.key_material();
            std::hint::black_box(mt_serve::cache::fnv1a64(key.as_bytes()));
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_draw_is_seeded_distinct_and_valid() {
        let a = draw_configs(7, CONFIGS);
        assert_eq!(a, draw_configs(7, CONFIGS));
        assert_ne!(a, draw_configs(8, CONFIGS));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), CONFIGS);
        assert!(CONFIGS > ServerConfig::default().cache_entries);
        for c in &a {
            MachineConfig::parse(c).unwrap();
        }
    }

    #[test]
    fn replies_parse() {
        let r =
            parse_reply(b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(
            (r.status, r.cache_hit, &r.body[..]),
            (200, true, &b"{}"[..])
        );
        let r = parse_reply(b"HTTP/1.1 503 Service Unavailable\r\nx-cache: miss\r\n\r\n").unwrap();
        assert_eq!((r.status, r.cache_hit), (503, false));
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
