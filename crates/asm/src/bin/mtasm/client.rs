//! `mtasm client` — a load generator for `mt-serve`.
//!
//! Posts one source file to a running server `--requests` times from
//! `--concurrency` threads (each with its own `X-Client-Id`, exercising
//! the server's per-client fairness), retries `429` rejections with a
//! short backoff, and prints a stable `mt-serve-bench-v1` summary —
//! including client-observed wall-clock latency percentiles from
//! per-thread bounded HDR histograms merged losslessly at the end.
//!
//! Failure accounting is deliberately bucketed: `retries_429` counts
//! retry *attempts* absorbed by backoff, `rejected_429_final` counts
//! requests that exhausted their retries and ended as `429`,
//! `shed_503` counts structured server sheds (deadline expired,
//! draining, overloaded — distinct from 429 queue-full pushback),
//! `disconnects` counts requests whose connection died or short-read
//! after the request was sent, and `failed_requests` counts the
//! remaining transport failures (connect/setup errors). `errors`
//! remains the umbrella (any non-2xx outcome).
//!
//! The summary is flat on purpose: every key renders on its own line.
//! CI diffs it with `repro-benchdiff --profile serve`, which enforces
//! key presence everywhere and exactness on the deterministic fields
//! (`requests`, `ok`, `distinct_bodies`, `body_fnv64`, …) while
//! tolerating the wall-clock and cache-luck ones (`elapsed_ms`,
//! `requests_per_second`, `cache_hits`, `cache_misses`, `retries_429`,
//! `rejected_429_final`, `latency_us.*`).
//!
//! The HTTP client is hand-rolled over `TcpStream` for the same reason
//! the server is: the workspace takes no dependencies, and the subset
//! needed (one POST, one response, `Connection: close`) is tiny.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mt_obs::{fnv1a64, HdrHistogram};
use mt_trace::Json;

struct ClientOptions {
    url: String,
    path: String,
    endpoint: String,
    concurrency: usize,
    requests: usize,
    query: Vec<(String, String)>,
    /// `--config-axis knob=v1,v2` axes: request *i* takes
    /// `values[i % len]` from each axis, so a request stream replays a
    /// configuration sweep (and exercises one cache entry per distinct
    /// configuration).
    config_axes: Vec<(String, Vec<u64>)>,
    print_body: bool,
}

/// Transport failure classification: a connection that died (or
/// short-read) *after* the request went out is a different signal —
/// usually a server-side drop defense or a crash — than never reaching
/// the server at all.
enum TransportError {
    /// Connect/setup failed; the request was never sent.
    Connect(String),
    /// The request was sent but the reply never fully arrived.
    Disconnect(String),
}

impl TransportError {
    fn message(&self) -> &str {
        match self {
            TransportError::Connect(m) | TransportError::Disconnect(m) => m,
        }
    }
}

fn parse_client_options(args: &[String]) -> Result<ClientOptions, String> {
    let mut url = "http://127.0.0.1:8315".to_string();
    let mut path = None;
    let mut endpoint = "run".to_string();
    let mut concurrency = 4;
    let mut requests = 16;
    let mut query = Vec::new();
    let mut config_axes: Vec<(String, Vec<u64>)> = Vec::new();
    let mut print_body = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--url" => url = value("--url")?.to_string(),
            "--endpoint" => {
                endpoint = value("--endpoint")?.to_string();
                if endpoint != "run" && endpoint != "assemble" {
                    return Err(format!("bad --endpoint `{endpoint}` (run|assemble)"));
                }
            }
            "--concurrency" => {
                concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|e| format!("bad --concurrency: {e}"))?;
            }
            "--requests" => {
                requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?;
            }
            "--base" => query.push(("base".to_string(), value("--base")?.to_string())),
            "--cycles" => query.push(("cycles".to_string(), value("--cycles")?.to_string())),
            "--watchdog" => query.push(("watchdog".to_string(), value("--watchdog")?.to_string())),
            "--deadline-ms" => query.push((
                "deadline-ms".to_string(),
                value("--deadline-ms")?.to_string(),
            )),
            "--config" => {
                let v = value("--config")?;
                // Validate locally so typos fail before any request.
                mt_sim::MachineConfig::parse(v).map_err(|e| format!("bad --config: {e}"))?;
                query.push(("config".to_string(), v.to_string()));
            }
            "--config-axis" => {
                let v = value("--config-axis")?;
                let (knob, list) = v
                    .split_once('=')
                    .ok_or_else(|| format!("bad --config-axis `{v}` (need knob=v1,v2)"))?;
                let mut values = Vec::new();
                for item in list.split(',') {
                    let n: u64 = item
                        .parse()
                        .map_err(|e| format!("bad --config-axis value `{item}`: {e}"))?;
                    let mut probe = mt_sim::MachineConfig::default();
                    probe
                        .set_knob(knob, n)
                        .and_then(|()| probe.validate())
                        .map_err(|e| format!("bad --config-axis: {e}"))?;
                    values.push(n);
                }
                if values.is_empty() {
                    return Err(format!("--config-axis `{v}` has no values"));
                }
                config_axes.push((knob.to_string(), values));
            }
            "--cold" => query.push(("cold".to_string(), "1".to_string())),
            "--lint" => query.push(("lint".to_string(), "1".to_string())),
            "--profile" => query.push(("profile".to_string(), "1".to_string())),
            "--trace" => query.push(("trace".to_string(), "1".to_string())),
            "--print-body" => print_body = true,
            other if !other.starts_with('-') && path.is_none() => {
                path = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if concurrency == 0 || requests == 0 {
        return Err("--concurrency and --requests must be at least 1".to_string());
    }
    if !config_axes.is_empty() && query.iter().any(|(k, _)| k == "config") {
        return Err("--config and --config-axis are mutually exclusive".to_string());
    }
    Ok(ClientOptions {
        url,
        path: path.ok_or("missing input file")?,
        endpoint,
        concurrency,
        requests,
        query,
        config_axes,
        print_body,
    })
}

/// `http://host:port` → `host:port`.
fn host_port(url: &str) -> Result<&str, String> {
    url.strip_prefix("http://")
        .ok_or_else(|| format!("bad --url `{url}` (need http://host:port)"))
        .map(|rest| rest.trim_end_matches('/'))
}

/// One response: status, `X-Cache` header value, body.
struct HttpReply {
    status: u16,
    cache: Option<String>,
    body: String,
}

/// Sends one POST over a fresh connection and reads the full reply.
///
/// Write errors are tolerated: an overloaded or draining server may
/// answer and close before reading the request, leaving a perfectly
/// valid response on the wire behind a failed `write`. Only the *read*
/// side classifies the outcome.
fn post(
    addr: &str,
    target: &str,
    client_id: &str,
    body: &[u8],
) -> Result<HttpReply, TransportError> {
    let connect = |m: String| TransportError::Connect(m);
    let stream = TcpStream::connect(addr).map_err(|e| connect(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| connect(e.to_string()))?;
    let mut writer = stream.try_clone().map_err(|e| connect(e.to_string()))?;
    let _ = write!(
        writer,
        "POST {target} HTTP/1.1\r\nHost: {addr}\r\nX-Client-Id: {client_id}\r\n\
         Content-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(body);
    let _ = writer.flush();

    // From here the request is on the wire (or the server dropped us):
    // every failure is a disconnect/short-read.
    let gone = |m: String| TransportError::Disconnect(m);
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| gone(e.to_string()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            gone(format!(
                "short read: status line `{}`",
                status_line.trim_end()
            ))
        })?;
    let mut cache = None;
    let mut content_length = None;
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| gone(e.to_string()))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            match name.trim().to_ascii_lowercase().as_str() {
                "x-cache" => cache = Some(value.trim().to_string()),
                "content-length" => {
                    content_length = Some(
                        value
                            .trim()
                            .parse::<usize>()
                            .map_err(|e| gone(format!("bad content-length: {e}")))?,
                    );
                }
                _ => {}
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| gone(format!("short read: body: {e}")))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| gone(e.to_string()))?;
        }
    }
    Ok(HttpReply {
        status,
        cache,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

#[derive(Default)]
struct Tally {
    ok: usize,
    errors: usize,
    retries_429: usize,
    rejected_429_final: usize,
    shed_503: usize,
    disconnects: usize,
    failed_requests: usize,
    cache_hits: usize,
    cache_misses: usize,
    statuses: BTreeSet<u16>,
    body_hashes: BTreeSet<u64>,
    failures: Vec<String>,
    /// Client-observed per-request wall clock (µs), retries included.
    latency: HdrHistogram,
}

/// Entry point for `mtasm client <file.s> [flags]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_client_options(args)?;
    let source = std::fs::read_to_string(&opts.path).map_err(|e| format!("{}: {e}", opts.path))?;
    let addr = host_port(&opts.url)?.to_string();
    let query = opts
        .query
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("&");
    let target = if query.is_empty() {
        format!("/{}", opts.endpoint)
    } else {
        format!("/{}?{query}", opts.endpoint)
    };
    // With `--config-axis` each request carries its own `config=` query
    // parameter, chosen by global request index so the replayed sweep is
    // independent of thread scheduling.
    let target_for = |i: usize| -> String {
        if opts.config_axes.is_empty() {
            return target.clone();
        }
        let cfg = opts
            .config_axes
            .iter()
            .map(|(knob, values)| format!("{knob}={}", values[i % values.len()]))
            .collect::<Vec<_>>()
            .join(",");
        let sep = if target.contains('?') { '&' } else { '?' };
        format!("{target}{sep}config={cfg}")
    };

    let tally = Mutex::new(Tally::default());
    let started = Instant::now();
    std::thread::scope(|scope| {
        let quota = opts.requests / opts.concurrency;
        let remainder = opts.requests % opts.concurrency;
        for worker in 0..opts.concurrency {
            // Spread the request count across threads (first threads take
            // the remainder); each thread owns a contiguous block of
            // global request indices so config axes replay determinately.
            let share = quota + usize::from(worker < remainder);
            let start = worker * quota + worker.min(remainder);
            let (addr, source, tally, target_for) = (&addr, &source, &tally, &target_for);
            scope.spawn(move || {
                let client_id = format!("client-{worker}");
                // Latency is recorded thread-locally and merged once at
                // the end — mergeable histograms make the aggregate
                // independent of thread interleaving.
                let mut latency = HdrHistogram::default();
                for j in 0..share {
                    let target = target_for(start + j);
                    let request_start = Instant::now();
                    let mut retries = 0;
                    let reply = loop {
                        match post(addr, &target, &client_id, source.as_bytes()) {
                            Ok(r) if r.status == 429 && retries < 200 => {
                                retries += 1;
                                std::thread::sleep(Duration::from_millis(25));
                            }
                            other => break other,
                        }
                    };
                    latency.record(request_start.elapsed().as_micros() as u64);
                    let mut t = tally.lock().unwrap();
                    t.retries_429 += retries;
                    match reply {
                        Ok(r) => {
                            t.statuses.insert(r.status);
                            t.body_hashes.insert(fnv1a64(r.body.as_bytes()));
                            match r.cache.as_deref() {
                                Some("hit") => t.cache_hits += 1,
                                Some("miss") => t.cache_misses += 1,
                                _ => {}
                            }
                            if (200..300).contains(&r.status) {
                                t.ok += 1;
                            } else {
                                t.errors += 1;
                                match r.status {
                                    429 => t.rejected_429_final += 1,
                                    // The server's structured sheds:
                                    // deadline expired, draining, or
                                    // over the connection cap.
                                    503 => t.shed_503 += 1,
                                    _ => {}
                                }
                            }
                        }
                        Err(e) => {
                            t.errors += 1;
                            match e {
                                TransportError::Disconnect(_) => t.disconnects += 1,
                                TransportError::Connect(_) => t.failed_requests += 1,
                            }
                            if t.failures.len() < 8 {
                                t.failures.push(e.message().to_string());
                            }
                        }
                    }
                }
                tally.lock().unwrap().latency.merge(&latency);
            });
        }
    });
    let elapsed = started.elapsed();
    let t = tally.into_inner().unwrap();

    if opts.print_body {
        // Replay one request for the body (a cache hit on any healthy
        // server) so scripts can capture the canonical response.
        let reply = post(&addr, &target, "client-body", source.as_bytes())
            .map_err(|e| e.message().to_string())?;
        print!("{}", reply.body);
        if !reply.body.ends_with('\n') {
            println!();
        }
        return Ok(());
    }

    let body_fnv64 = if t.body_hashes.len() == 1 {
        Json::Str(format!("{:#018x}", t.body_hashes.iter().next().unwrap()))
    } else {
        Json::Null
    };
    let statuses = Json::Arr(t.statuses.iter().map(|&s| Json::U64(s as u64)).collect());
    let summary = Json::obj([
        ("schema", Json::Str("mt-serve-bench-v1".to_string())),
        ("endpoint", Json::Str(opts.endpoint.clone())),
        ("requests", Json::U64(opts.requests as u64)),
        ("concurrency", Json::U64(opts.concurrency as u64)),
        ("ok", Json::U64(t.ok as u64)),
        ("errors", Json::U64(t.errors as u64)),
        ("statuses", statuses),
        ("distinct_bodies", Json::U64(t.body_hashes.len() as u64)),
        ("body_fnv64", body_fnv64),
        ("cache_hits", Json::U64(t.cache_hits as u64)),
        ("cache_misses", Json::U64(t.cache_misses as u64)),
        ("retries_429", Json::U64(t.retries_429 as u64)),
        ("rejected_429_final", Json::U64(t.rejected_429_final as u64)),
        ("shed_503", Json::U64(t.shed_503 as u64)),
        ("disconnects", Json::U64(t.disconnects as u64)),
        ("failed_requests", Json::U64(t.failed_requests as u64)),
        ("latency_us", t.latency.to_json()),
        ("elapsed_ms", Json::U64(elapsed.as_millis() as u64)),
        (
            "requests_per_second",
            Json::F64(opts.requests as f64 / elapsed.as_secs_f64().max(1e-9)),
        ),
    ]);
    println!("{}", summary.pretty());
    for f in &t.failures {
        eprintln!("mtasm client: {f}");
    }
    if t.errors > 0 {
        return Err(format!("{} request(s) failed", t.errors));
    }
    Ok(())
}
