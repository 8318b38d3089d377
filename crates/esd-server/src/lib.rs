#![warn(missing_docs)]

//! Multi-tenant deduplication service over one shared encrypted-NVMM
//! scheme instance.
//!
//! Many tenants stream write/read requests into a single [`Service`]
//! holding one [`esd_core::Scheme`]. Each tenant gets:
//!
//! * a **private namespace** — the tenant id occupies the high bits of
//!   every logical address ([`esd_core::tenant`]), so address maps never
//!   collide while the physical store stays shared;
//! * a **private CME key** — derived from the service master key with
//!   [`esd_crypto::derive_tenant_key`], so on-device ciphertext never
//!   shares a keystream across tenants even when plaintext deduplicates;
//! * a **bounded admission queue** — a full queue rejects with a
//!   deterministic retry hint instead of queueing unboundedly;
//! * **live stats** — per-tenant counters and request-latency histograms
//!   in an [`esd_obs::Registry`].
//!
//! Deduplication happens on *plaintext* before counter-mode encryption
//! (the ESD pipeline order), which is what makes cross-tenant dedup sound
//! under per-tenant keys: identical lines from different tenants collapse
//! to one stored ciphertext line, while each tenant's own pads differ.
//!
//! The deterministic entry point is [`Service::run_events`] (used by the
//! load generator in [`load`]); the live front end (framed TCP) is in
//! [`live`].
//!
//! # Examples
//!
//! ```
//! use esd_server::{run_load, LoadSpec, Service, ServiceConfig};
//!
//! let mut service = Service::new(&ServiceConfig::default());
//! let report = run_load(&mut service, &LoadSpec::default());
//! assert_eq!(report.summary.tenants.len(), 4);
//! assert!(report.achieved_throughput > 0.0);
//! ```

pub mod live;
pub mod load;
pub mod proto;
pub mod service;

pub use live::serve_tcp;
pub use load::{run_load, LoadReport, LoadSpec};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, frame_response, peek_frame,
    read_frame, read_frame_into, write_frame, DecodeError, Envelope, Request, Response,
    FRAME_HEADER_BYTES, MAX_FRAME_BYTES,
};
pub use service::{Service, ServiceConfig, ServiceSummary, TenantSummary};
