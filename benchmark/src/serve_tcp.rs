//! `serve-tcp-closed`: the public `serve_tcp` front end on a thread of this
//! process and one closed-loop client keeping 16 requests in flight, four
//! tenant sessions one after another (the front end is serial).
//!
//! The untraced run is time-bounded — each session lasts a quarter of
//! `--seconds` on every commit — because a front end that answers in tens
//! of milliseconds and one that answers in tens of microseconds cannot share
//! a request count. The client cycles through a fixed request list and
//! keeps latencies in a fixed-size histogram, so its memory does not grow
//! with the server's speed.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esd_server::{
    decode_request, decode_response, encode_request, encode_response, read_frame, serve_tcp,
    write_frame, Envelope, Request, Response, Service, ServiceConfig,
};
use esd_sim::Ps;
use esd_trace::{generate_trace, AccessKind, AppProfile, CacheLine};

use crate::attribution::{emit_layers, Tally};
use crate::drill::{drill_layers, scheme_loop, LayerCosts};
use crate::hostprobe::HostProbe;
use crate::report::Outcome;
use crate::serve_events::{as_trace, emit_service_invariants, service_config, tally_service};
use crate::spans::Recorder;
use crate::spec::{Sizes, SERVE_TCP, TCP_SESSIONS, TCP_WINDOW};
use crate::stats::{median, LatencyHist};
use crate::{finish_end_to_end, paced_setups};

/// Equal time slices per session; `ops_per_s` is the median over all.
const SLICES_PER_SESSION: usize = 3;
/// How long the client waits for an answer before counting the rest of the
/// session's requests as unanswered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(5);

/// What set-up builds: the service, its listener, and each tenant's
/// request list.
struct Inputs {
    service: Mutex<Service>,
    config: ServiceConfig,
    listener: TcpListener,
    requests: Vec<Vec<Request>>,
}

fn build(seed: u64, sizes: &Sizes) -> Inputs {
    let config = service_config(TCP_SESSIONS, 1);
    let profile = AppProfile::by_name("dedup").expect("profile of the paper's suite");
    let requests = (0..TCP_SESSIONS)
        .map(|t| {
            generate_trace(&profile, seed + u64::from(t), sizes.tcp_requests_per_tenant)
                .accesses
                .iter()
                .map(|a| match a.kind {
                    AccessKind::Write => Request::Write {
                        local: a.addr,
                        line: a.data.expect("write carries data"),
                    },
                    AccessKind::Read => Request::Read { local: a.addr },
                })
                .collect()
        })
        .collect();
    Inputs {
        service: Mutex::new(Service::new(&config)),
        listener: TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener"),
        config,
        requests,
    }
}

/// How one session ends: by the clock, or after a fixed request count
/// (the traced run, whose counts must repeat exactly) with the clock as cap.
#[derive(Clone, Copy)]
struct Limit {
    length: Duration,
    requests: Option<usize>,
}

#[derive(Default)]
struct SessionResult {
    sent: u64,
    answered: u64,
    /// Undecodable, out of order, `Rejected`, or a `Data` line that differs
    /// from the client's shadow of the writes it sent before that read.
    wrong: u64,
    seconds: f64,
    /// Per equal slice of `limit.length`: answers received in it, and when
    /// the last of them arrived (nanoseconds since the session started).
    slices: [(u64, u64); SLICES_PER_SESSION],
}

impl SessionResult {
    /// Answers per second in each slice that saw any, each taken over the
    /// time from the previous slice's last answer to its own last answer —
    /// a measured interval, where a count per fixed slice would come out
    /// in whole bursts of the window.
    fn slice_rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut previous = 0u64;
        for &(answers, last_ns) in &self.slices {
            if answers > 0 && last_ns > previous {
                rates.push(answers as f64 * 1e9 / (last_ns - previous) as f64);
                previous = last_ns;
            }
        }
        rates
    }
}

struct InFlight {
    seq: u64,
    sent_at: Instant,
    /// For a read: what the shadow held when it was sent. The connection
    /// is FIFO and the front end serial, so that is what it must return.
    expected: Option<CacheLine>,
}

/// One closed-loop tenant session.
fn session(
    addr: SocketAddr,
    tenant: u32,
    requests: &[Request],
    limit: Limit,
    hist: &mut LatencyHist,
    mut rec: Option<&mut Recorder>,
) -> std::io::Result<SessionResult> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ANSWER_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut result = SessionResult::default();
    let mut shadow: HashMap<u64, CacheLine> = HashMap::new();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(TCP_WINDOW);
    let mut frame = Vec::with_capacity(128);
    let slice_ns = (limit.length.as_nanos() / SLICES_PER_SESSION as u128).max(1);
    let started = Instant::now();
    loop {
        while in_flight.len() < TCP_WINDOW
            && limit.requests.is_none_or(|n| (result.sent as usize) < n)
            && started.elapsed() < limit.length
        {
            let seq = result.sent;
            let request = requests[seq as usize % requests.len()];
            let expected = match request {
                Request::Write { local, line } => {
                    shadow.insert(local, line);
                    None
                }
                Request::Read { local } => {
                    Some(shadow.get(&local).copied().unwrap_or(CacheLine::ZERO))
                }
            };
            let payload = encode_request(&Envelope {
                tenant,
                seq,
                arrival: Ps::ZERO,
                request,
            });
            // Length prefix and payload leave in one write.
            frame.clear();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&payload);
            let sent_at = Instant::now();
            stream.write_all(&frame)?;
            if let Some(rec) = rec.as_deref_mut() {
                rec.add("client.write_frame", seq, sent_at, Instant::now());
            }
            in_flight.push_back(InFlight {
                seq,
                sent_at,
                expected,
            });
            result.sent += 1;
        }
        let Some(oldest) = in_flight.pop_front() else {
            break;
        };
        let Ok(Some(payload)) = read_frame(&mut reader) else {
            break; // timed out or closed: everything still in flight stays unanswered
        };
        let now = Instant::now();
        result.answered += 1;
        hist.record((now - oldest.sent_at).as_nanos() as u64);
        let since_start = (now - started).as_nanos();
        if let Some(slice) = result.slices.get_mut((since_start / slice_ns) as usize) {
            *slice = (slice.0 + 1, since_start as u64);
        }
        if let Some(rec) = rec.as_deref_mut() {
            rec.add("request", oldest.seq, oldest.sent_at, now);
        }
        let correct = match decode_response(&payload) {
            Ok(Response::Written { seq, .. }) => seq == oldest.seq && oldest.expected.is_none(),
            Ok(Response::Data { seq, line, .. }) => {
                seq == oldest.seq && oldest.expected == Some(line)
            }
            Ok(Response::Rejected { .. }) | Err(_) => false,
        };
        result.wrong += u64::from(!correct);
    }
    result.seconds = started.elapsed().as_secs_f64();
    Ok(result)
}

/// Runs the server thread and the four sessions. With a recorder, the
/// sessions of tenants 2 and 3 record spans and their latencies go to
/// `hists[1]`; everything else is plain and goes to `hists[0]`.
fn serve_sessions(
    inputs: &Inputs,
    limit: Limit,
    hists: &mut [LatencyHist; 2],
    mut rec: Option<&mut Recorder>,
) -> Vec<SessionResult> {
    let addr = inputs.listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve_tcp(&inputs.listener, &inputs.service, TCP_SESSIONS as usize));
        let mut results = Vec::new();
        for tenant in 0..TCP_SESSIONS {
            let requests = &inputs.requests[tenant as usize];
            let result = match rec.as_deref_mut().filter(|_| tenant >= 2) {
                Some(rec) => {
                    rec.timed("server.live.session", u64::from(tenant), |rec| {
                        session(addr, tenant, requests, limit, &mut hists[1], Some(rec))
                    })
                    .0
                }
                None => session(addr, tenant, requests, limit, &mut hists[0], None),
            };
            // A session that could not even connect still owes the server
            // its accept, or the server thread would never return.
            results.push(result.unwrap_or_else(|_| {
                drop(TcpStream::connect(addr));
                SessionResult::default()
            }));
        }
        // An I/O error inside the server already shows as unanswered requests.
        let _ = server.join().expect("server thread");
        results
    })
}

fn count_into(out: &mut Outcome, results: &[SessionResult]) {
    for r in results {
        out.attempted += r.sent;
        out.failed += r.wrong + (r.sent - r.answered);
    }
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let (setups, inputs) = paced_setups(&mut HostProbe::new(1, 1), sizes, || build(seed, sizes));
    let limit = Limit {
        length: Duration::from_secs_f64(seconds / f64::from(TCP_SESSIONS)),
        requests: None,
    };
    let mut hists = [LatencyHist::new(), LatencyHist::new()];
    let results = serve_sessions(&inputs, limit, &mut hists, None);

    let mut out = Outcome::default();
    count_into(&mut out, &results);
    let rates: Vec<f64> = results
        .iter()
        .flat_map(SessionResult::slice_rates)
        .collect();
    // A run in which nothing was answered has already failed every request;
    // it still reports numbers, the worst the client could have seen.
    let ops_per_s = if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    };
    let p50_us = if hists[0].count() == 0 {
        ANSWER_TIMEOUT.as_secs_f64() * 1e6
    } else {
        hists[0].quantile_ns(0.5) / 1e3
    };
    finish_end_to_end(&mut out, (ops_per_s, p50_us), &setups);
    out
}

/// Codec and framing over every tenant's request list and a matching
/// response each, in memory. Returns nanoseconds per message for each.
fn drill_proto(rec: &mut Recorder, requests: &[Vec<Request>]) -> (f64, f64) {
    let pairs: Vec<(Envelope, Response)> = requests
        .iter()
        .enumerate()
        .flat_map(|(t, list)| {
            list.iter().enumerate().map(move |(i, &request)| {
                let seq = i as u64;
                let response = match request {
                    Request::Write { .. } => Response::Written {
                        seq,
                        deduplicated: i % 2 == 0,
                        latency: Ps::from_ns(150),
                    },
                    Request::Read { .. } => Response::Data {
                        seq,
                        latency: Ps::from_ns(75),
                        line: CacheLine::from_seed(seq),
                    },
                };
                let envelope = Envelope {
                    tenant: t as u32,
                    seq,
                    arrival: Ps::ZERO,
                    request,
                };
                (envelope, response)
            })
        })
        .collect();
    let messages = 2.0 * pairs.len() as f64;
    let (payloads, codec_ns) = rec.timed("server.proto.codec", 0, |_| {
        let mut payloads = Vec::with_capacity(pairs.len() * 2);
        for (envelope, response) in &pairs {
            let request = encode_request(envelope);
            std::hint::black_box(decode_request(&request).expect("own encoding decodes"));
            let answer = encode_response(response);
            std::hint::black_box(decode_response(&answer).expect("own encoding decodes"));
            payloads.push(request);
            payloads.push(answer);
        }
        payloads
    });
    let ((), frame_ns) = rec.timed("server.proto.frame", 0, |_| {
        let mut wire = Vec::with_capacity(payloads.len() * 96);
        for payload in &payloads {
            write_frame(&mut wire, payload).expect("writing to memory");
        }
        let mut cursor = Cursor::new(wire);
        while let Some(payload) = read_frame(&mut cursor).expect("reading from memory") {
            std::hint::black_box(payload);
        }
    });
    (codec_ns as f64 / messages, frame_ns as f64 / messages)
}

/// The service as the TCP front end drives it: admit one request, drain.
/// Returns nanoseconds per request for each (each interval carries one
/// clock read, some tens of nanoseconds).
fn drill_admit_drain(
    rec: &mut Recorder,
    config: &ServiceConfig,
    requests: &[Vec<Request>],
) -> (f64, f64) {
    let mut service = Service::new(config);
    let (mut admit_ns, mut drain_ns, mut n) = (0u64, 0u64, 0u64);
    rec.timed("drill.server.service", 0, |_| {
        for (t, list) in requests.iter().enumerate() {
            for (i, &request) in list.iter().enumerate() {
                let envelope = Envelope {
                    tenant: t as u32,
                    seq: i as u64,
                    arrival: service.clock(),
                    request,
                };
                let t0 = Instant::now();
                std::hint::black_box(service.admit(envelope));
                let t1 = Instant::now();
                std::hint::black_box(service.drain());
                let t2 = Instant::now();
                admit_ns += (t1 - t0).as_nanos() as u64;
                drain_ns += (t2 - t1).as_nanos() as u64;
                n += 1;
            }
        }
    });
    (
        admit_ns as f64 / n.max(1) as f64,
        drain_ns as f64 / n.max(1) as f64,
    )
}

/// The traced run: sessions of tenants 0 and 1 run plain, those of tenants
/// 2 and 3 record a span per request; all are count-bounded so that the
/// service's counters repeat exactly.
pub fn run_traced(seed: u64, seconds: f64, sizes: &Sizes, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    rec.timed(SERVE_TCP, 0, |rec| {
        let (inputs, _) = rec.timed("setup.build", 0, |_| build(seed, sizes));
        let limit = Limit {
            length: Duration::from_secs_f64(seconds / f64::from(TCP_SESSIONS)),
            requests: Some(sizes.tcp_traced_requests),
        };
        let mut hists = [LatencyHist::new(), LatencyHist::new()];
        let results = serve_sessions(&inputs, limit, &mut hists, Some(rec));
        count_into(&mut out, &results);

        let per_request = |rs: &[SessionResult]| {
            rs.iter().map(|r| r.seconds).sum::<f64>()
                / rs.iter().map(|r| r.answered).sum::<u64>().max(1) as f64
        };
        out.set(
            "bench.trace_overhead_ratio",
            per_request(&results[2..]) / per_request(&results[..2]),
        );
        let plain = &hists[0];
        let p50_us = plain.quantile_ns(0.5) / 1e3;
        let (pct, tail_ns) = plain.tail();
        out.set("server.live.p50_us", p50_us);
        out.set("server.live.ptail_us", tail_ns / 1e3);
        out.set("server.live.ptail_percentile", pct);
        out.set("server.live.samples", plain.count() as f64);

        let (codec, frame) = drill_proto(rec, &inputs.requests);
        let (admit, drain) = drill_admit_drain(rec, &inputs.config, &inputs.requests);
        out.set("server.proto.codec_ns_per_msg", codec);
        out.set("server.proto.frame_ns_per_msg", frame);
        out.set("server.service.admit_ns_per_req", admit);
        out.set("server.service.drain_ns_per_req", drain);
        // What is left of the round trip once the in-memory work of the
        // requests ahead in the window is taken out.
        out.set(
            "server.live.transport_us",
            p50_us - TCP_WINDOW as f64 * (codec + frame + admit + drain) / 1e3,
        );

        let answered: u64 = results.iter().map(|r| r.answered).sum();
        let base_ns = results.iter().map(|r| r.seconds).sum::<f64>() * 1e9;
        let proto_share = (codec + frame) * answered as f64 / base_ns;
        out.set("server.proto.share", proto_share);
        out.set(
            "server.service.share",
            (admit + drain) * answered as f64 / base_ns,
        );

        // The layers under the service, over the head of tenant 0's list.
        let head = inputs.requests[0].iter().take(sizes.serve_drill_accesses);
        let trace = as_trace(head.map(|&request| (0, request)));
        let loop_ns =
            scheme_loop(rec, inputs.config.scheme, &trace, &inputs.config.system, 0) as f64;
        let per_access = loop_ns / trace.len() as f64;
        out.set("core.scheme.ns_per_access", per_access);
        out.set("core.scheme.share", per_access * answered as f64 / base_ns);
        let mut costs = LayerCosts::default();
        rec.timed("drill", 0, |rec| {
            drill_layers(rec, &trace, &inputs.config.system, 0, &mut costs)
        });
        let service = inputs.service.lock().expect("service lock");
        let mut tally = Tally::default();
        tally_service(&service, &mut tally);
        let attributed = emit_layers(&mut out, &costs, &tally, base_ns, 0.0);
        out.set(
            "core.shard.unattributed_share",
            1.0 - attributed - proto_share,
        );
        tally.emit_invariants(&mut out);
        emit_service_invariants(&mut out, &service.summary());
    });
    out
}
