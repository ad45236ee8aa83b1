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
//! * [`routes`] — the one front door, [`FrontDoor`]: Caladrius's REST
//!   endpoints (`GET /model/traffic/heron/{topology}`,
//!   `POST /model/topology/heron/{topology}`, job submission/polling,
//!   topology listing, health, observability) over a [`Tenants`] seam
//!   that resolves a topology to its [`caladrius_core::Caladrius`]. It
//!   has two implementations: one service ([`ApiService`]) and a
//!   fleet's shards (`caladrius_fleet::FleetService`). The front door
//!   owns the only job runner.

#![warn(missing_docs)]

pub mod http;
pub mod jobs;
pub mod json;
pub mod routes;

pub use http::{HttpClient, HttpServer, Request, Response};
pub use jobs::{JobRejected, JobRunner};
pub use json::Value;
pub use routes::{parse_plan_body, ApiService, FrontDoor, Tenants};
