//! Live front ends for the service: an in-process channel server (the
//! primary interface — each tenant holds a [`TenantClient`]), and a
//! length-prefixed TCP listener speaking the [`crate::proto`] framing.
//!
//! The channel server stamps arrivals in round-robin admission order over
//! tenant inboxes: the scheduler visits inboxes in tenant order each
//! sweep, so a backlogged tenant cannot starve the others. The TCP server
//! runs one thread per connection and applies each request the moment it
//! holds the service lock. Live runs with several clients are therefore
//! fair but not bit-deterministic (the interleaving between clients
//! depends on their timing); the deterministic path is
//! [`crate::Service::run_events`]. One TCP session at a time *is*
//! deterministic: how the kernel chunks its bytes never reaches the model.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use esd_core::tenant::LOCAL_MASK;
use esd_sim::Ps;
use esd_trace::CacheLine;

use crate::proto::{
    decode_request, frame_response, peek_frame, read_frame_into, Envelope, Request, Response,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
use crate::service::{Service, ServiceConfig};

/// How long the scheduler sleeps on an empty sweep before re-polling the
/// inboxes.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// Most requests a TCP session serves under one hold of the service lock,
/// which bounds how long the other sessions wait for it.
const MAX_BATCH: usize = 64;

/// Size of a TCP session's read buffer: one `read` moves up to this much,
/// and every whole frame in it is served before the next `read`.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// One tenant's handle on a running [`ChannelServer`]: submits requests
/// and receives responses over private channels.
#[derive(Debug)]
pub struct TenantClient {
    tenant: u32,
    seq: u64,
    to_server: Sender<(u32, u64, Request)>,
    from_server: Receiver<Response>,
}

impl TenantClient {
    /// Submits a write of `line` at tenant-local address `local`; returns
    /// the sequence number to match the response.
    ///
    /// # Errors
    ///
    /// Fails when the server has shut down.
    pub fn write(&mut self, local: u64, line: CacheLine) -> io::Result<u64> {
        self.submit(Request::Write { local, line })
    }

    /// Submits a read of tenant-local address `local`.
    ///
    /// # Errors
    ///
    /// Fails when the server has shut down.
    pub fn read(&mut self, local: u64) -> io::Result<u64> {
        self.submit(Request::Read { local })
    }

    fn submit(&mut self, request: Request) -> io::Result<u64> {
        let seq = self.seq;
        self.seq += 1;
        self.to_server
            .send((self.tenant, seq, request))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))?;
        Ok(seq)
    }

    /// Blocks for the next response to this tenant.
    ///
    /// # Errors
    ///
    /// Fails when the server has shut down with responses still owed.
    pub fn recv(&mut self) -> io::Result<Response> {
        self.from_server
            .recv()
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "server stopped"))
    }
}

/// The in-process multi-tenant server: spawns a scheduler thread that
/// drains tenant inboxes round-robin into a shared [`Service`].
pub struct ChannelServer {
    service: Arc<Mutex<Service>>,
    inbox: Sender<(u32, u64, Request)>,
    pending_receivers: Vec<Option<Receiver<Response>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    clients_built: u32,
}

impl std::fmt::Debug for ChannelServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelServer")
            .field("clients_built", &self.clients_built)
            .finish_non_exhaustive()
    }
}

impl ChannelServer {
    /// Starts the scheduler over a fresh [`Service`].
    #[must_use]
    pub fn start(config: &ServiceConfig) -> Self {
        let service = Arc::new(Mutex::new(Service::new(config)));
        let (inbox_tx, inbox_rx) = channel::<(u32, u64, Request)>();
        let mut outbox_txs = Vec::new();
        let mut outbox_rxs = Vec::new();
        for _ in 0..config.tenants {
            let (tx, rx) = channel::<Response>();
            outbox_txs.push(tx);
            outbox_rxs.push(Some(rx));
        }
        let worker_service = Arc::clone(&service);
        let tenants = config.tenants;
        let handle = std::thread::spawn(move || {
            scheduler(&worker_service, &inbox_rx, &outbox_txs, tenants);
        });
        ChannelServer {
            service,
            inbox: inbox_tx,
            pending_receivers: outbox_rxs,
            handle: Some(handle),
            clients_built: 0,
        }
    }

    /// Builds the client handle for the next unclaimed tenant id.
    ///
    /// # Panics
    ///
    /// Panics when every tenant already has a client.
    pub fn client(&mut self) -> TenantClient {
        let tenant = self.clients_built;
        assert!(
            (tenant as usize) < self.pending_receivers.len(),
            "all {tenant} tenants already have clients"
        );
        self.clients_built += 1;
        let from_server = self.pending_receivers[tenant as usize]
            .take()
            .expect("receiver unclaimed");
        TenantClient {
            tenant,
            seq: 0,
            to_server: self.inbox.clone(),
            from_server,
        }
    }

    /// The per-tenant stat line (see [`Service::stats_line`]), read live.
    #[must_use]
    pub fn stats_line(&self, tenant: u32) -> String {
        self.service.lock().expect("service lock").stats_line(tenant)
    }

    /// The live metrics registry export as JSON.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.service.lock().expect("service lock").metrics_json()
    }

    /// Stops the scheduler (after it drains every queued request) and
    /// returns the service for final inspection. Every [`TenantClient`]
    /// must be dropped first — the scheduler only exits once the last
    /// request sender disconnects.
    ///
    /// # Panics
    ///
    /// Panics when the scheduler thread panicked.
    pub fn shutdown(self) -> Arc<Mutex<Service>> {
        let ChannelServer { service, inbox, handle, .. } = self;
        drop(inbox);
        if let Some(h) = handle {
            h.join().expect("scheduler thread");
        }
        service
    }
}

/// Round-robin scheduler: batches everything currently in the shared
/// inbox, stamps arrivals in tenant-sweep order, admits, drains, replies.
fn scheduler(
    service: &Arc<Mutex<Service>>,
    inbox: &Receiver<(u32, u64, Request)>,
    outboxes: &[Sender<Response>],
    tenants: u32,
) {
    let mut sweeps: Vec<Vec<(u64, Request)>> = (0..tenants).map(|_| Vec::new()).collect();
    loop {
        // Gather whatever is currently queued, bucketed per tenant.
        let mut got_any = false;
        match inbox.recv_timeout(IDLE_POLL) {
            Ok((tenant, seq, request)) => {
                sweeps[tenant as usize].push((seq, request));
                got_any = true;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        while let Ok((tenant, seq, request)) = inbox.try_recv() {
            sweeps[tenant as usize].push((seq, request));
            got_any = true;
        }
        if !got_any {
            continue;
        }
        let mut svc = service.lock().expect("service lock");
        // Round-robin admission: one request per tenant per rotation, so a
        // backlogged tenant cannot monopolise arrival stamps.
        let mut arrival = svc.clock();
        loop {
            let mut admitted_any = false;
            for tenant in 0..tenants {
                let bucket = &mut sweeps[tenant as usize];
                if bucket.is_empty() {
                    continue;
                }
                let (seq, request) = bucket.remove(0);
                admitted_any = true;
                let env = Envelope { tenant, seq, arrival, request };
                arrival += Ps(1); // preserve sweep order in the global sort
                if let Some(rejection) = svc.admit(env) {
                    let _ = outboxes[tenant as usize].send(rejection);
                }
            }
            if !admitted_any {
                break;
            }
        }
        for (tenant, response) in svc.drain() {
            let _ = outboxes[tenant as usize].send(response);
        }
    }
    // Senders dropped: drain what is left, reply best-effort, exit.
    let mut svc = service.lock().expect("service lock");
    for (tenant, response) in svc.drain() {
        let _ = outboxes[tenant as usize].send(response);
    }
}

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
    use crate::proto::{decode_response, encode_request, read_frame, write_frame};

    #[test]
    fn channel_server_serves_concurrent_tenants() {
        let config = ServiceConfig::default();
        let mut server = ChannelServer::start(&config);
        let mut clients: Vec<TenantClient> = (0..4).map(|_| server.client()).collect();
        let threads: Vec<_> = clients
            .drain(..)
            .map(|mut c| {
                std::thread::spawn(move || {
                    let mut dedup = 0u32;
                    for i in 0..50u64 {
                        c.write(i * 0x40, CacheLine::from_fill((i % 8) as u8)).unwrap();
                    }
                    for _ in 0..50 {
                        match c.recv().unwrap() {
                            Response::Written { deduplicated: true, .. } => dedup += 1,
                            Response::Written { .. } | Response::Rejected { .. } => {}
                            Response::Data { .. } => panic!("no reads submitted"),
                        }
                    }
                    dedup
                })
            })
            .collect();
        let total: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total > 0, "identical fills across tenants must dedup");
        for t in 0..4 {
            let line = server.stats_line(t);
            assert!(line.contains("offered=50"), "{line}");
        }
        let service = server.shutdown();
        let svc = service.lock().unwrap();
        assert_eq!(svc.pending(), 0);
    }

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
