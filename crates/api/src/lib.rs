//! # caladrius-api
//!
//! The API tier (paper §III-A): "essentially a web server translating
//! and routing user HTTP requests to corresponding modelling
//! interfaces".
//!
//! * [`json`] — a self-contained JSON value model, serializer and parser
//!   (no JSON crate is on the offline allow-list).
//! * [`http`] — a minimal HTTP/1.1 server over `std::net` with a
//!   crossbeam worker pool, plus a tiny blocking client for tests and
//!   examples.
//! * [`jobs`] — asynchronous model execution: requests can take seconds,
//!   so the API supports `202 Accepted` + job polling, "allowing the
//!   client to continue with other operations while the modelling is
//!   being processed". Keyed submission caps each topology's in-flight
//!   jobs so one tenant cannot monopolize the workers.
//! * [`admission`] — token-bucket + p99-SLO + queue-watermark admission
//!   control: under overload, low-priority requests are shed with `429`
//!   and `Retry-After` instead of queueing without bound.
//! * [`routes`] — Caladrius's REST endpoints wired to
//!   [`caladrius_core::Caladrius`]:
//!   `GET /model/traffic/heron/{topology}`,
//!   `POST /model/topology/heron/{topology}`, job submission/polling,
//!   topology listing and health.

#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod jobs;
pub mod json;
pub mod routes;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, Priority};
pub use http::{HttpClient, HttpServer, Request, Response};
pub use jobs::{JobRejected, JobRunner};
pub use json::Value;
pub use routes::{
    handle_request, job_status_response, parse_plan_body, route_p99, shared_route,
    too_many_requests, ApiService,
};
