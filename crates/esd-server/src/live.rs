//! The live front end for the service: a length-prefixed TCP listener
//! speaking the [`crate::proto`] framing.
//!
//! The TCP server runs one thread per connection and applies each request
//! the moment it holds the service lock. Live runs with several clients
//! are therefore not bit-deterministic (the interleaving between clients
//! depends on their timing); the deterministic path is
//! [`crate::Service::run_events`]. One TCP session at a time *is*
//! deterministic: how the kernel chunks its bytes never reaches the model.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;

use esd_core::tenant::LOCAL_MASK;

use crate::proto::{
    decode_request, frame_response, peek_frame, read_frame_into, Envelope, Request,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use crate::service::Service;

/// Most requests a TCP session serves under one hold of the service lock,
/// which bounds how long the other sessions wait for it.
const MAX_BATCH: usize = 64;

/// Size of a TCP session's read buffer: one `read` moves up to this much,
/// and every whole frame in it is served before the next `read`.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// Serves the framed protocol on `listener`, one scoped thread per
/// accepted connection, so up to `connections` sessions run at once.
///
/// A connection is one tenant's session: its first frame's tenant id
/// selects the namespace, and a later frame naming another tenant is a
/// protocol violation. Requests are answered in order. A frame that does
/// not decode, an oversized length prefix, a tenant id outside
/// `0..tenant_count()`, a change of tenant or a local address beyond
/// [`LOCAL_MASK`] ends *that* connection — after the responses it is
/// already owed — and nothing else: none of them reaches the service, so
/// no client can panic a thread that holds the lock.
///
/// Returns after `connections` sessions have closed.
///
/// # Errors
///
/// Propagates `accept` and thread-spawn errors, after the sessions already
/// running have closed. What goes wrong inside one session stays there.
///
/// # Panics
///
/// Panics if a thread panicked while holding the service lock.
pub fn serve_tcp(
    listener: &TcpListener,
    service: &Mutex<Service>,
    connections: usize,
) -> io::Result<()> {
    // No session exists yet: only the caller's own panic could have poisoned it.
    let tenants = service.lock().expect(LOCK_POISONED).tenant_count();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            let (stream, _) = listener.accept()?;
            std::thread::Builder::new().spawn_scoped(scope, move || {
                // A client's mistakes are its own: its connection closes
                // when `stream` drops and the others carry on.
                let _ = handle_tcp_session(&stream, service, tenants);
            })?;
        }
        Ok(())
    })
}

/// Only a bug in this crate can poison the lock: everything a client can
/// get wrong is refused before the lock is taken.
const LOCK_POISONED: &str = "a thread panicked while holding the service lock";

/// What a session's requests are checked against before any of them
/// reaches the service.
struct Gate {
    tenants: u32,
    /// The tenant of the session's first frame, to which it is pinned.
    pinned: Option<u32>,
}

impl Gate {
    /// Decodes one request and checks every field the service would index
    /// or shift by; what comes back is safe to hand to [`Service::admit`].
    fn check(&mut self, payload: &[u8]) -> io::Result<Envelope> {
        let bad = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let env = decode_request(payload).map_err(|e| bad(e.to_string()))?;
        if env.tenant >= self.tenants {
            return Err(bad(format!(
                "tenant {} is not one of the {} configured",
                env.tenant, self.tenants
            )));
        }
        let pinned = *self.pinned.get_or_insert(env.tenant);
        if env.tenant != pinned {
            return Err(bad(format!(
                "tenant {} on the session of tenant {pinned}",
                env.tenant
            )));
        }
        let (Request::Write { local, .. } | Request::Read { local }) = env.request;
        if local > LOCAL_MASK {
            return Err(bad(format!("local address {local:#x} overflows its namespace")));
        }
        Ok(env)
    }
}

/// The reading half of one TCP session: frames in, checked envelopes out.
struct Inbound<R> {
    reader: BufReader<R>,
    gate: Gate,
    payload: Vec<u8>,
    batch: Vec<Envelope>,
}

impl<R: Read> Inbound<R> {
    fn new(stream: R, tenants: u32) -> Self {
        Inbound {
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, stream),
            gate: Gate { tenants, pinned: None },
            payload: Vec::with_capacity(MAX_FRAME_BYTES as usize),
            batch: Vec::with_capacity(MAX_BATCH),
        }
    }

    /// Refills `batch`: blocks for one frame, then takes every further
    /// frame that is already wholly in the read buffer, up to
    /// [`MAX_BATCH`] — no further `read`, no allocation. `Ok(false)` once
    /// the peer has closed at a frame boundary. On an error `batch` holds
    /// the requests that preceded the offending frame; they are still owed
    /// their responses.
    fn read_batch(&mut self) -> io::Result<bool> {
        self.batch.clear();
        if !read_frame_into(&mut self.reader, &mut self.payload)? {
            return Ok(false);
        }
        self.batch.push(self.gate.check(&self.payload)?);
        while self.batch.len() < MAX_BATCH {
            let Some(frame) = peek_frame(self.reader.buffer())? else { break };
            let env = self.gate.check(frame)?;
            let consumed = FRAME_HEADER_BYTES + frame.len();
            self.reader.consume(consumed);
            self.batch.push(env);
        }
        Ok(true)
    }
}

/// One session: read a batch, take the lock once, apply each request the
/// way a lone frame always was — stamp, admit, drain — and send the
/// batch's responses in one write. Because every request is drained before
/// the next is stamped, the model sees the same sequence whatever the
/// batch boundaries were; admitting a whole batch before one drain would
/// make queue wait, and with it the latency histograms and the state
/// digest, depend on how the kernel happened to chunk the bytes.
fn handle_tcp_session(
    stream: &TcpStream,
    service: &Mutex<Service>,
    tenants: u32,
) -> io::Result<()> {
    // Responses are small; without this each would wait for the client's
    // delayed ACK of the one before.
    stream.set_nodelay(true)?;
    let mut inbound = Inbound::new(stream, tenants);
    let mut writer = stream;
    let mut out = Vec::new();
    loop {
        let more = inbound.read_batch();
        if !inbound.batch.is_empty() {
            out.clear();
            // `Gate::check` passed the whole batch: nothing under the lock panics on client input.
            let mut svc = service.lock().expect(LOCK_POISONED);
            for &env in &inbound.batch {
                let env = Envelope {
                    arrival: svc.clock().max(env.arrival),
                    ..env
                };
                match svc.admit(env) {
                    Some(rejection) => frame_response(&mut out, &rejection),
                    None => {
                        for (_, response) in svc.drain() {
                            frame_response(&mut out, &response);
                        }
                    }
                }
            }
            drop(svc);
            writer.write_all(&out)?;
        }
        if !more? {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request, read_frame, write_frame, Response};
    use crate::service::ServiceConfig;
    use esd_sim::Ps;
    use esd_trace::CacheLine;

    #[test]
    fn tcp_front_end_round_trips_the_framing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let service = Mutex::new(Service::new(&ServiceConfig::default()));
        std::thread::scope(|scope| {
            scope.spawn(|| serve_tcp(&listener, &service, 1).unwrap());
            let mut stream = TcpStream::connect(addr).unwrap();
            let env = Envelope {
                tenant: 1,
                seq: 7,
                arrival: Ps::ZERO,
                request: Request::Write {
                    local: 0x80,
                    line: CacheLine::from_fill(0x11),
                },
            };
            write_frame(&mut stream, &encode_request(&env)).unwrap();
            let payload = read_frame(&mut stream).unwrap().expect("response");
            let resp = decode_response(&payload).unwrap();
            assert!(matches!(resp, Response::Written { seq: 7, .. }));
            let env = Envelope {
                tenant: 1,
                seq: 8,
                arrival: Ps::ZERO,
                request: Request::Read { local: 0x80 },
            };
            write_frame(&mut stream, &encode_request(&env)).unwrap();
            let payload = read_frame(&mut stream).unwrap().expect("response");
            let resp = decode_response(&payload).unwrap();
            let Response::Data { seq: 8, line, .. } = resp else {
                panic!("expected data, got {resp:?}");
            };
            assert_eq!(line, CacheLine::from_fill(0x11));
            drop(stream);
        });
        let svc = service.lock().unwrap();
        assert_eq!(svc.tenant_summary(1).writes, 1);
    }
}
