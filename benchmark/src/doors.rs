//! The three front doors an op can go through, behind one `op` call, so the
//! measurement loop and the layer probes drive them all the same way.

use crate::workload::DoorKind;
use cw_engine::{CacheStats, Engine, Plan, StageTimings};
use cw_net::{ClientConfig, NetClient, NetServer, NetServerConfig};
use cw_service::{MultiplyRequest, ServiceConfig, SpgemmService};
use cw_sparse::CsrMatrix;
use std::sync::Arc;

/// What one op's report says about where its time went. Fields a door's
/// report does not carry stay `None`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `ExecutionReport.timings` (engine and service doors).
    pub engine: Option<StageTimings>,
    /// `ServiceReport` / `WireReport` queue and execute seconds.
    pub queue_s: Option<f64>,
    pub execute_s: Option<f64>,
    /// `WireReport.latency_seconds`: submit-to-response inside the server.
    pub server_s: Option<f64>,
    /// This op's observation made the feedback loop switch plans.
    pub replanned: bool,
    pub batch_size: usize,
}

/// One caller's handle on a door.
#[derive(Debug)]
pub enum Client {
    Engine { engine: Box<Engine>, plan: Option<Plan> },
    Service { service: Arc<SpgemmService>, plan: Option<Plan> },
    Wire(Box<NetClient>),
}

impl Client {
    /// One op: `C = A·A`, or `C = (A·A) ∩ A` when `masked`.
    pub fn op(&mut self, a: &Arc<CsrMatrix>, masked: bool) -> Result<(CsrMatrix, Stages), String> {
        match self {
            Client::Engine { engine, plan } => {
                let mask = masked.then_some(&**a);
                let (c, report) = match (*plan, mask) {
                    (Some(plan), None) => engine.multiply_planned(a, a, plan),
                    (Some(plan), Some(_)) => {
                        let (prepared, timings, hit) =
                            engine.prepare_with_shape(a, Some(plan), plan.shape);
                        engine.execute_prepared_shaped(&prepared, a, mask, timings, hit)
                    }
                    (None, None) => engine.multiply(a, a),
                    (None, Some(m)) => engine.multiply_masked(a, a, m),
                };
                let stages = Stages {
                    engine: Some(report.timings),
                    replanned: report.feedback.is_some_and(|f| f.switched),
                    batch_size: 1,
                    ..Stages::default()
                };
                Ok((c, stages))
            }
            Client::Service { service, plan } => {
                let mut request = MultiplyRequest::new(Arc::clone(a), Arc::clone(a));
                if let Some(plan) = *plan {
                    request = request.with_plan(plan);
                }
                if masked {
                    request = request.with_mask(Arc::clone(a));
                }
                let ticket = service.submit(request).map_err(|e| e.to_string())?;
                let response = ticket.wait().map_err(|e| e.to_string())?;
                let r = &response.report;
                let stages = Stages {
                    engine: Some(r.execution.timings),
                    queue_s: Some(r.queue_seconds),
                    execute_s: Some(r.execute_seconds),
                    replanned: r.replanned(),
                    batch_size: r.batch_size,
                    ..Stages::default()
                };
                Ok((response.product, stages))
            }
            Client::Wire(client) => {
                let response =
                    if masked { client.multiply_masked(a, a, a) } else { client.multiply(a, a) }
                        .map_err(|e| e.to_string())?;
                let r = &response.report;
                let stages = Stages {
                    queue_s: Some(r.queue_seconds),
                    execute_s: Some(r.execute_seconds),
                    server_s: Some(r.latency_seconds),
                    batch_size: r.batch_size as usize,
                    ..Stages::default()
                };
                Ok((response.product, stages))
            }
        }
    }
}

#[derive(Debug)]
enum Backing {
    Engine,
    Service(Arc<SpgemmService>),
    /// Held for its lifetime: dropping it drains and joins the server.
    Wire(#[allow(dead_code)] NetServer),
}

/// An open front door with its client handles. Dropping it closes the
/// connections, drains the service and joins every thread it started.
#[derive(Debug)]
pub struct Door {
    // Declared before `backing`: clients (and their connections) drop first.
    pub clients: Vec<Client>,
    backing: Backing,
}

impl Door {
    /// Opens a fresh door. `plan` pins the pipeline on the engine and
    /// service doors (the wire protocol carries no plan: the server's
    /// planner decides, which `config.policy` may freeze).
    pub fn open(
        kind: DoorKind,
        config: &ServiceConfig,
        plan: Option<Plan>,
        clients: usize,
    ) -> Result<Door, String> {
        Ok(match kind {
            DoorKind::Engine => Door {
                clients: vec![Client::Engine { engine: Box::default(), plan }],
                backing: Backing::Engine,
            },
            DoorKind::Service => {
                let service = Arc::new(SpgemmService::new(config.clone()));
                let clients = (0..clients)
                    .map(|_| Client::Service { service: Arc::clone(&service), plan })
                    .collect();
                Door { clients, backing: Backing::Service(service) }
            }
            DoorKind::Wire => {
                let service = SpgemmService::new(config.clone());
                let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default())
                    .map_err(|e| format!("bind loopback server: {e}"))?;
                let clients = (0..clients)
                    .map(|_| {
                        NetClient::connect(server.local_addr(), ClientConfig::default())
                            .map(|c| Client::Wire(Box::new(c)))
                            .map_err(|e| format!("connect to loopback server: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                Door { clients, backing: Backing::Wire(server) }
            }
        })
    }

    /// The service behind an in-process service door.
    pub fn service(&self) -> Option<&SpgemmService> {
        match &self.backing {
            Backing::Service(service) => Some(service),
            _ => None,
        }
    }

    /// Plan-cache counters of the engine behind an engine door.
    pub fn engine_cache_stats(&self) -> Option<CacheStats> {
        match self.clients.first() {
            Some(Client::Engine { engine, .. }) => Some(engine.cache_stats()),
            _ => None,
        }
    }
}
