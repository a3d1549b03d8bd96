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

use crate::client::{ClientConfig, NetClient, NetError};
use cw_sparse::{fingerprint, CsrMatrix};
use std::io;
use std::net::SocketAddr;

/// A static routing table of [`NetClient`]s, one per endpoint. Its one
/// decision is where an lhs goes ([`RoutedClient::route`]).
#[derive(Debug)]
pub struct RoutedClient {
    clients: Vec<NetClient>,
}

impl RoutedClient {
    /// Connects one client per endpoint (eagerly, so a dead endpoint
    /// surfaces at construction rather than mid-traffic). An empty table
    /// is [`NetError::Io`] with [`io::ErrorKind::InvalidInput`].
    pub fn connect(
        endpoints: &[SocketAddr],
        config: ClientConfig,
    ) -> Result<RoutedClient, NetError> {
        if endpoints.is_empty() {
            let why = "RoutedClient needs at least one endpoint";
            return Err(NetError::Io(io::Error::new(io::ErrorKind::InvalidInput, why)));
        }
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

    /// The client of the endpoint `lhs` routes to
    /// ([`RoutedClient::endpoint_for`]). Routing depends only on the lhs
    /// fingerprint, so a shaped request for an operand lands on the same
    /// endpoint as its full-product traffic, where the shard keeps a
    /// distinct cache entry per shape. The request is any [`NetClient`]
    /// call on it: `router.route(&a).multiply(&a, &b)`.
    pub fn route(&mut self, lhs: &CsrMatrix) -> &mut NetClient {
        let idx = self.endpoint_for(lhs);
        &mut self.clients[idx]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_endpoint_list_is_an_invalid_input_error_not_a_panic() {
        match RoutedClient::connect(&[], ClientConfig::default()) {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected an InvalidInput error, got {other:?}"),
        }
    }
}
