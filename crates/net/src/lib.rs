//! **cw-net** — the wire-protocol serving layer: TCP front-end, versioned
//! binary framing, client-side sharding, and QoS admission control over
//! [`cw_service::SpgemmService`].
//!
//! Everything is `std::net` + threads — no async runtime, matching the
//! workspace's offline vendored-dependency discipline. Four pieces:
//!
//! * **Frame protocol** ([`frame`]) — every message is one `CWNP` frame: a
//!   28-byte little-endian header (magic, schema version, op code, QoS
//!   priority, request id, relative deadline, payload length) plus an
//!   op-specific payload. Operands and products travel as the
//!   self-delimiting `CSRB` blobs from [`cw_sparse::io`], so the wire
//!   bytes are bit-exact down to f64 NaN payloads — and they are streamed:
//!   a SUBMIT or RESULT is written from, and read into, the matrices'
//!   arrays 64 KiB at a time, never staged in a payload-sized buffer. A
//!   SUBMIT whose rhs is its lhs (`client.multiply(&a, &a)`) carries that
//!   operand once ([`frame::FLAG_RHS_IS_LHS`], schema version 3), and an
//!   lhs the connection already uploaded is named by that upload's request
//!   id instead of sent again ([`frame::FLAG_LHS_RESIDENT`], version 4).
//! * **[`NetServer`]** — wraps an owned [`cw_service::SpgemmService`]
//!   with a bounded thread-per-connection acceptor: per-connection
//!   read/write timeouts, a max-connections limit (over-limit peers get
//!   `REJECT Busy`), graceful drain on shutdown, and `net.*`
//!   counters/histograms registered on the service's own
//!   [`cw_obs::MetricsRegistry`] so the JSONL exporter carries wire
//!   telemetry for free. The `cw-serve` binary is a thin CLI over it.
//! * **[`NetClient`] / [`RoutedClient`]** — a blocking client with
//!   reconnect/backoff, and a static routing table that consistent-hashes
//!   each lhs fingerprint over N endpoints via
//!   [`cw_sparse::MatrixFingerprint::shard_index`] — the same hash the
//!   service uses for its in-process shards, one level up. The client has
//!   one general door, [`NetClient::multiply_shaped_qos`] (any
//!   [`SubmitShape`], any [`Qos`]); the router only picks the client:
//!   `router.route(&a).multiply(&a, &b)`.
//! * **QoS at admission** — each SUBMIT carries a two-level priority and
//!   an optional relative deadline in the frame header. Expired requests
//!   are rejected *before* enqueue (shed cheap, not deep); a full queue is
//!   retried only while deadline budget remains.
//!
//! ```
//! use cw_net::{ClientConfig, NetClient, NetServer, NetServerConfig};
//! use cw_service::{ServiceConfig, SpgemmService};
//!
//! let a = cw_sparse::gen::grid::poisson2d(8, 8);
//! let service = SpgemmService::new(ServiceConfig { shards: 1, ..ServiceConfig::default() });
//! let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).unwrap();
//!
//! let mut client = NetClient::connect(server.local_addr(), ClientConfig::default()).unwrap();
//! let resp = client.multiply(&a, &a).unwrap();
//! assert_eq!(resp.product.nrows, a.nrows);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

mod client;
mod router;
mod server;

pub use client::{ClientConfig, NetClient, NetError, Qos, WireResponse};
pub use frame::{Frame, FrameError, FrameHeader, OpCode, RejectCode, SubmitShape, WireReport};
pub use router::RoutedClient;
pub use server::{NetServer, NetServerConfig};
