//! The TCP front end from the outside: the 40 ms Nagle/delayed-ACK stall is
//! gone, a burst of frames is served as a pipeline, how the bytes were
//! chunked never reaches the model, and a hostile connection costs the
//! other tenants nothing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esd_core::tenant::LOCAL_MASK;
use esd_server::{
    decode_request, decode_response, encode_request, peek_frame, read_frame, read_frame_into,
    serve_tcp, write_frame, Envelope, Request, Response, Service, ServiceConfig, ServiceSummary,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use esd_sim::Ps;
use esd_trace::CacheLine;
use proptest::prelude::*;

/// A client that hangs instead of failing would hang the whole suite.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Runs `serve_tcp` for `connections` sessions beside `client`, insists
/// that it returned `Ok`, and hands back the service for inspection.
fn serve<T>(connections: usize, client: impl FnOnce(SocketAddr) -> T) -> (T, Mutex<Service>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Mutex::new(Service::new(&ServiceConfig::default()));
    let out = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&listener, &service, connections));
        let out = client(addr);
        server
            .join()
            .expect("server thread must not panic")
            .expect("serve_tcp must return Ok");
        out
    });
    (out, service)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream
}

/// A tenant's request list: writes with repeating content (so some
/// deduplicate) and a read of an earlier address every fourth request.
fn requests(tenant: u32, n: u64) -> Vec<Envelope> {
    (0..n)
        .map(|seq| Envelope {
            tenant,
            seq,
            arrival: Ps::ZERO,
            request: if seq % 4 == 3 {
                Request::Read { local: (seq / 2) * 0x40 }
            } else {
                Request::Write {
                    local: seq * 0x40,
                    line: CacheLine::from_seed(seq % 7),
                }
            },
        })
        .collect()
}

fn wire(envelopes: &[Envelope]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for env in envelopes {
        write_frame(&mut bytes, &encode_request(env)).unwrap();
    }
    bytes
}

fn next_response(stream: &mut impl Read) -> Response {
    let payload = read_frame(stream).unwrap().expect("a response, not EOF");
    decode_response(&payload).unwrap()
}

/// What the connection still delivers before it ends, however it ends (a
/// server that closes with unread input behind it may reset, not FIN).
fn responses_until_close(stream: &mut impl Read) -> Vec<Response> {
    let mut got = Vec::new();
    while let Ok(Some(payload)) = read_frame(stream) {
        got.push(decode_response(&payload).unwrap());
    }
    got
}

#[test]
fn lock_step_round_trips_do_not_wait_for_a_delayed_ack() {
    let list = requests(0, 200);
    let (elapsed, service) = serve(1, |addr| {
        let mut stream = connect(addr);
        let started = Instant::now();
        for env in &list {
            write_frame(&mut stream, &encode_request(env)).unwrap();
            assert_eq!(next_response(&mut stream).seq(), env.seq);
        }
        started.elapsed()
    });
    // A response split into two small segments costs a delayed ACK (40 ms)
    // each: 200 of them took 8.8 s.
    assert!(elapsed < Duration::from_secs(2), "200 round trips took {elapsed:?}");
    assert_eq!(service.lock().unwrap().tenant_summary(0).offered, 200);
}

#[test]
fn a_burst_of_frames_is_answered_in_order() {
    let list = requests(2, 64);
    let (got, _) = serve(1, |addr| {
        let mut stream = connect(addr);
        stream.write_all(&wire(&list)).unwrap();
        let mut reader = BufReader::new(stream);
        (0..list.len()).map(|_| next_response(&mut reader).seq()).collect::<Vec<_>>()
    });
    assert_eq!(got, (0..64).collect::<Vec<u64>>());
}

/// How a client hands its bytes to the kernel.
#[derive(Debug, Clone, Copy)]
enum Pace {
    LockStep,
    Burst,
    Dribble,
}

/// Two tenant sessions in turn, each sending the same list at `pace`.
fn summary_at(pace: Pace) -> ServiceSummary {
    let (_, service) = serve(2, |addr| {
        for tenant in [0, 2] {
            let list = requests(tenant, 120);
            let mut stream = connect(addr);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            match pace {
                Pace::LockStep => {
                    for env in &list {
                        write_frame(&mut stream, &encode_request(env)).unwrap();
                        assert_eq!(next_response(&mut reader).seq(), env.seq);
                    }
                }
                Pace::Burst => stream.write_all(&wire(&list)).unwrap(),
                Pace::Dribble => {
                    for byte in wire(&list) {
                        stream.write_all(&[byte]).unwrap();
                    }
                }
            }
            if !matches!(pace, Pace::LockStep) {
                for env in &list {
                    assert_eq!(next_response(&mut reader).seq(), env.seq);
                }
            }
        }
    });
    let summary = service.lock().unwrap().summary();
    summary
}

#[test]
fn batch_boundaries_are_invisible_to_the_model() {
    let lock_step = summary_at(Pace::LockStep);
    assert_eq!(lock_step.applied, 240);
    assert_eq!(summary_at(Pace::Burst), lock_step, "one write of everything");
    assert_eq!(summary_at(Pace::Dribble), lock_step, "one byte per write");
}

/// Hands out its bytes in chunks of the given sizes, cycling.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    reads: usize,
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Reads a stream the way a session does — block for one frame, then take
/// every frame already buffered — until it ends. Returns what decoded and
/// how the stream ended.
fn read_all(reader: ChunkedReader) -> (Vec<Envelope>, io::Result<()>) {
    fn frames(
        reader: &mut BufReader<ChunkedReader>,
        got: &mut Vec<Envelope>,
    ) -> io::Result<()> {
        let mut payload = Vec::new();
        while read_frame_into(reader, &mut payload)? {
            got.push(decode_request(&payload).unwrap());
            while let Some(frame) = peek_frame(reader.buffer())? {
                got.push(decode_request(frame).unwrap());
                let consumed = FRAME_HEADER_BYTES + frame.len();
                reader.consume(consumed);
            }
        }
        Ok(())
    }
    let mut reader = BufReader::with_capacity(512, reader);
    let mut got = Vec::new();
    let end = frames(&mut reader, &mut got);
    (got, end)
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
        |(tenant, seq, local, seed, write)| Envelope {
            tenant,
            seq,
            arrival: Ps::ZERO,
            request: if write {
                Request::Write { local, line: CacheLine::from_seed(seed) }
            } else {
                Request::Read { local }
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// However the transport chunks a frame stream, the same envelopes come
    /// out; a stream cut inside a frame ends in `UnexpectedEof` and an
    /// oversized length prefix in `InvalidData`, after every frame before it.
    #[test]
    fn chunking_never_changes_what_decodes(
        envelopes in prop::collection::vec(arb_envelope(), 1..40),
        chunks in prop::collection::vec(1usize..=700, 1..8),
        cut in any::<prop::sample::Index>(),
        oversize in (MAX_FRAME_BYTES + 1)..=u32::MAX,
    ) {
        let data = wire(&envelopes);
        let reader = |data: Vec<u8>| ChunkedReader { data, pos: 0, chunks: chunks.clone(), reads: 0 };

        let (got, end) = read_all(reader(data.clone()));
        prop_assert_eq!(&got, &envelopes);
        prop_assert!(end.is_ok(), "{end:?}");

        let ends: Vec<usize> = envelopes
            .iter()
            .scan(0, |end, env| {
                *end += FRAME_HEADER_BYTES + encode_request(env).len();
                Some(*end)
            })
            .collect();
        let cut = 1 + cut.index(data.len() - 1);
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        let (got, end) = read_all(reader(data[..cut].to_vec()));
        prop_assert_eq!(&got, &envelopes[..whole]);
        if ends.contains(&cut) {
            prop_assert!(end.is_ok(), "{end:?}");
        } else {
            prop_assert_eq!(end.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }

        let mut hostile = data.clone();
        hostile.extend_from_slice(&oversize.to_le_bytes());
        let (got, end) = read_all(reader(hostile));
        prop_assert_eq!(&got, &envelopes);
        prop_assert_eq!(end.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}

/// Streams that must get a connection closed without reaching the service.
fn hostile_streams() -> Vec<(&'static str, Vec<u8>)> {
    let read = |tenant, local| {
        wire(&[Envelope {
            tenant,
            seq: 0,
            arrival: Ps::ZERO,
            request: Request::Read { local },
        }])
    };
    let mut bad_tag = read(1, 0x40);
    bad_tag[FRAME_HEADER_BYTES] = 0x7F;
    let mut truncated = read(1, 0x40);
    truncated.truncate(9);
    vec![
        ("bad tag", bad_tag),
        ("first tenant id past the configured ones", read(4, 0x40)),
        ("tenant id that would index far out of bounds", read(u32::MAX, 0x40)),
        ("truncated frame", truncated),
        ("oversized length prefix", u32::MAX.to_le_bytes().to_vec()),
        ("local address that would alias another namespace", read(1, LOCAL_MASK + 1)),
    ]
}

/// Tenants 0 and 1 in lock step, alternating, on connections that stay
/// open throughout; with `hostile`, each hostile stream arrives on a
/// connection of its own between two of their rounds. One client thread
/// fixes the order of everything, so the two runs differ in nothing else.
fn chaos_run(hostile: bool) -> ServiceSummary {
    let streams = if hostile { hostile_streams() } else { Vec::new() };
    let (_, service) = serve(2 + streams.len(), |addr| {
        let lists = [requests(0, 60), requests(1, 60)];
        let mut tenants = [connect(addr), connect(addr)];
        let mut streams = streams.into_iter();
        for round in 0..60 {
            for (list, stream) in lists.iter().zip(&mut tenants) {
                write_frame(stream, &encode_request(&list[round])).unwrap();
                assert_eq!(next_response(stream).seq(), list[round].seq);
            }
            if round % 8 == 0 {
                if let Some((what, bytes)) = streams.next() {
                    let mut stream = connect(addr);
                    stream.write_all(&bytes).unwrap();
                    stream.shutdown(Shutdown::Write).unwrap();
                    let answers = responses_until_close(&mut stream);
                    assert!(answers.is_empty(), "{what}: answered {answers:?}");
                }
            }
        }
        assert!(streams.next().is_none(), "every hostile stream was sent");
    });
    assert!(!service.is_poisoned());
    let summary = service.lock().unwrap().summary();
    summary
}

#[test]
fn a_hostile_connection_costs_the_other_tenants_nothing() {
    let quiet = chaos_run(false);
    let chaos = chaos_run(true);
    assert_eq!(quiet.tenants[0].offered, 60);
    assert_eq!(quiet.tenants[1].offered, 60);
    // Stat lines are a rendering of these rows; the digest covers the rest.
    assert_eq!(chaos, quiet);
}

#[test]
fn a_bad_frame_closes_its_connection_after_the_responses_already_owed() {
    let mut list = requests(3, 3);
    // The session is tenant 3's; a frame for tenant 0 does not belong on it.
    list.push(Envelope { tenant: 0, ..list[0] });
    list.extend(requests(3, 2));
    let (answers, service) = serve(2, |addr| {
        let mut stream = connect(addr);
        stream.write_all(&wire(&list)).unwrap();
        let answers = responses_until_close(&mut stream);
        // The listener is still serving.
        let mut next = connect(addr);
        write_frame(&mut next, &encode_request(&requests(1, 1)[0])).unwrap();
        assert_eq!(next_response(&mut next).seq(), 0);
        answers
    });
    assert_eq!(answers.iter().map(Response::seq).collect::<Vec<_>>(), [0, 1, 2]);
    let svc = service.lock().unwrap();
    assert_eq!(svc.tenant_summary(3).offered, 3, "nothing after the bad frame");
    assert_eq!(svc.tenant_summary(0).offered, 0, "the borrowed tenant id reached nothing");
    assert_eq!(svc.tenant_summary(1).offered, 1);
}
