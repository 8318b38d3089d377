//! Tier-1 reach into `esd-server`: the TCP front end answers without the
//! 40 ms Nagle/delayed-ACK stall and serves a burst of frames in order. The
//! full suite is `crates/esd-server/tests/tcp_front_end.rs`.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use esd_server::{
    decode_response, encode_request, read_frame, serve_tcp, write_frame, Envelope, Request,
    Service, ServiceConfig,
};
use esd_sim::Ps;
use esd_trace::CacheLine;

/// Runs `serve_tcp` for one session beside `client`.
fn serve_one<T>(client: impl FnOnce(TcpStream) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let service = Mutex::new(Service::new(&ServiceConfig::default()));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&listener, &service, 1));
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let out = client(stream);
        server.join().expect("server thread").expect("serve_tcp");
        out
    })
}

fn write_of(seq: u64) -> Vec<u8> {
    encode_request(&Envelope {
        tenant: 1,
        seq,
        arrival: Ps::ZERO,
        request: Request::Write {
            local: seq * 0x40,
            line: CacheLine::from_seed(seq % 5),
        },
    })
}

fn next_seq(stream: &mut TcpStream) -> u64 {
    let payload = read_frame(stream).unwrap().expect("a response, not EOF");
    decode_response(&payload).unwrap().seq()
}

#[test]
fn lock_step_round_trips_do_not_stall() {
    let elapsed = serve_one(|mut stream| {
        let started = Instant::now();
        for seq in 0..50 {
            write_frame(&mut stream, &write_of(seq)).unwrap();
            assert_eq!(next_seq(&mut stream), seq);
        }
        started.elapsed()
    });
    // At one delayed ACK (40 ms) per response this took 2.2 s.
    assert!(elapsed < Duration::from_secs(1), "50 round trips took {elapsed:?}");
}

#[test]
fn a_burst_is_answered_in_order() {
    let got = serve_one(|mut stream| {
        let mut burst = Vec::new();
        for seq in 0..16 {
            write_frame(&mut burst, &write_of(seq)).unwrap();
        }
        stream.write_all(&burst).unwrap();
        (0..16).map(|_| next_seq(&mut stream)).collect::<Vec<_>>()
    });
    assert_eq!(got, (0..16).collect::<Vec<u64>>());
}
