//! # qcs-gateway
//!
//! A live job-submission service fronting the `qcs-cloud` simulator: the
//! reproduction's stand-in for the IBM Quantum cloud *endpoint* that the
//! paper's users submit against. Where `qcs-cloud::Simulation` replays a
//! finished trace, the gateway runs the same engine **online** — a
//! [`LiveCloud`](qcs_cloud::LiveCloud) advanced in real time (scaled by a
//! configurable compression factor) while TCP clients submit, poll,
//! cancel, and observe queue depths over a newline-delimited protocol.
//!
//! Layers:
//!
//! - [`protocol`] — the wire grammar ([`Request`] / [`Response`]), shared
//!   verbatim by server and client.
//! - [`error`] — the taxonomy: wire [`ErrorCode`]s, parse-level
//!   [`ProtocolError`]s, client-side [`GatewayError`]s. Untrusted input
//!   maps onto these instead of panicking (`clippy::unwrap_used` /
//!   `expect_used` are denied outside tests).
//! - [`ratelimit`] — per-provider [`TokenBucket`]s in simulation time.
//! - [`metrics`] — the [`GatewayMetrics`] counters behind `METRICS`.
//! - [`server`] — [`Gateway`]: an accept loop spawning one thread per
//!   session (bounded; one over the bound is refused `BUSY`), handlers
//!   with read timeouts / idle reaping / line-length caps, admission
//!   control (validate → rate-limit → backpressure), graceful
//!   [`shutdown_and_drain`](Gateway::shutdown_and_drain).
//! - [`client`] — [`GatewayClient`] (one request path: typed errors, read
//!   timeouts, reconnect; retrying is the caller's policy) plus a
//!   [`LoadGenerator`] that replays `qcs-workload` traces at a wall-clock
//!   compression factor.
//! - **online prediction** — every shard's
//!   [`LiveCloud`](qcs_cloud::LiveCloud) record tap folds terminal records
//!   into a `qcs-predictor`
//!   [`OnlinePredictor`](qcs_predictor::OnlinePredictor) in O(1); the
//!   runtime-model refit runs between requests with no lock held
//!   ([`Gateway`]) or once per shard per step call ([`FleetSim`]).
//!   `PREDICT <machine> <circuits> <shots>` answers a queue-wait point
//!   estimate with a 10–90% band, and `METRICS` carries live accuracy and
//!   cadence counters (`predictor_observed`, `predictor_mae_min`,
//!   `predictor_band_coverage`, `predictor_refits`,
//!   `predictor_rows_since_refit`).
//! - [`fleet`] — the scale-out layer: [`ShardMap`] partitioning,
//!   [`GatewayFleet`] (N TCP gateways) / [`FleetSim`] (the same sharding
//!   in-process, simulation-time-driven), [`FleetClient`] routing, and
//!   periodic cross-shard fair-share reconciliation preserving the
//!   charged-seconds conservation law.
//!
//! # Examples
//!
//! ```
//! use qcs_cloud::CloudConfig;
//! use qcs_gateway::{Gateway, GatewayClient, GatewayConfig};
//! use qcs_machine::Fleet;
//!
//! let gateway = Gateway::start(
//!     Fleet::ibm_like(),
//!     CloudConfig::default(),
//!     GatewayConfig { time_compression: 0.0, ..GatewayConfig::default() },
//! )
//! .unwrap();
//! let mut client = GatewayClient::connect(gateway.addr()).unwrap();
//! let response = client
//!     .request(&"SUBMIT 0 1 10 1024 20 3".parse::<qcs_gateway::Request>().unwrap())
//!     .unwrap();
//! assert_eq!(response.to_string(), "OK 0");
//! assert_eq!(client.queue_depth("1").unwrap(), 1);
//! client.quit().unwrap();
//! let (result, metrics) = gateway.shutdown_and_drain();
//! assert_eq!(metrics.accepted, 1);
//! assert_eq!(result.total_jobs, 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
// The serving stack must not panic on anything a peer can send. Tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod error;
pub mod fleet;
pub mod metrics;
pub mod protocol;
pub mod ratelimit;
pub mod server;

pub use client::{
    GatewayClient, LoadGenerator, PredictEstimate, ReplayReport, DEFAULT_READ_TIMEOUT,
};
pub use error::{ErrorCode, GatewayError, ProtocolError};
pub use fleet::{check_conservation, FleetClient, FleetSim, GatewayFleet, ShardMap};
pub use metrics::GatewayMetrics;
pub use protocol::{Request, Response};
pub use ratelimit::TokenBucket;
pub use server::{Gateway, GatewayConfig, MAX_MEAN_DEPTH};
