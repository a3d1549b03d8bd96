//! [`RoutedClient`]: client-side sharding over N endpoints via the same
//! consistent hash the in-process service uses.
//!
//! Routing reuses [`cw_sparse::MatrixFingerprint::shard_index`] — the
//! SplitMix64-mixed `route_hash` over the operand's structural fingerprint
//! — so *every* client deterministically sends a given lhs to the same
//! endpoint, and each endpoint's plan caches see all traffic for their
//! matrices and only that traffic, exactly like the in-process shards one
//! level down. The routing table is static: endpoints are fixed at
//! construction (membership changes mean building a new client).

use crate::client::{ClientConfig, NetClient, NetError, Qos, WireResponse};
use cw_sparse::{fingerprint, CsrMatrix};
use std::net::SocketAddr;

/// A static routing table of [`NetClient`]s, one per endpoint.
#[derive(Debug)]
pub struct RoutedClient {
    clients: Vec<NetClient>,
}

impl RoutedClient {
    /// Connects one client per endpoint (eagerly, so a dead endpoint
    /// surfaces at construction rather than mid-traffic).
    pub fn connect(
        endpoints: &[SocketAddr],
        config: ClientConfig,
    ) -> Result<RoutedClient, NetError> {
        assert!(!endpoints.is_empty(), "RoutedClient needs at least one endpoint");
        let clients = endpoints
            .iter()
            .map(|&addr| NetClient::connect(addr, config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RoutedClient { clients })
    }

    /// Number of endpoints in the table.
    pub fn endpoints(&self) -> usize {
        self.clients.len()
    }

    /// The endpoint index `lhs` routes to: its structural fingerprint's
    /// [`cw_sparse::MatrixFingerprint::shard_index`] over the table size.
    pub fn endpoint_for(&self, lhs: &CsrMatrix) -> usize {
        fingerprint(lhs).shard_index(self.clients.len())
    }

    /// The address of endpoint `index`.
    pub fn endpoint_addr(&self, index: usize) -> SocketAddr {
        self.clients[index].addr()
    }

    /// Routed multiply: hashes the lhs fingerprint to pick the endpoint,
    /// then performs a wire multiply there.
    pub fn multiply(&mut self, lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<WireResponse, NetError> {
        self.multiply_qos(lhs, rhs, Qos::none())
    }

    /// Routed multiply with a QoS envelope.
    pub fn multiply_qos(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        qos: Qos,
    ) -> Result<WireResponse, NetError> {
        self.multiply_shaped_qos(lhs, rhs, &crate::SubmitShape::Full, qos)
    }

    /// Routed `C = topk(lhs · rhs, k)` (see [`NetClient::multiply_topk`]).
    pub fn multiply_topk(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        k: u64,
    ) -> Result<WireResponse, NetError> {
        self.multiply_shaped_qos(lhs, rhs, &crate::SubmitShape::TopK(k), Qos::none())
    }

    /// Routed `C = (lhs · rhs) ∩ mask` (see
    /// [`NetClient::multiply_masked`]).
    pub fn multiply_masked(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        mask: &CsrMatrix,
    ) -> Result<WireResponse, NetError> {
        let idx = self.endpoint_for(lhs);
        self.clients[idx].multiply_masked(lhs, rhs, mask)
    }

    /// Routed multiply with an explicit output shape and QoS envelope.
    /// Routing depends only on the lhs fingerprint — a shaped request for
    /// an operand lands on the same endpoint as its full-product traffic,
    /// where the shard keeps a distinct cache entry per shape.
    pub fn multiply_shaped_qos(
        &mut self,
        lhs: &CsrMatrix,
        rhs: &CsrMatrix,
        shape: &crate::SubmitShape,
        qos: Qos,
    ) -> Result<WireResponse, NetError> {
        let idx = self.endpoint_for(lhs);
        self.clients[idx].multiply_shaped_qos(lhs, rhs, shape, qos)
    }

    /// The JSONL observability export of every endpoint, in table order.
    pub fn stats_jsonl_all(&mut self) -> Result<Vec<String>, NetError> {
        self.clients.iter_mut().map(NetClient::stats_jsonl).collect()
    }

    /// Asks every endpoint to drain and exit.
    pub fn shutdown_all(&mut self) -> Result<(), NetError> {
        for c in &mut self.clients {
            c.shutdown_server()?;
        }
        Ok(())
    }

    /// Direct access to the client for endpoint `index` (tests, targeted
    /// stats).
    pub fn client_mut(&mut self, index: usize) -> &mut NetClient {
        &mut self.clients[index]
    }
}
