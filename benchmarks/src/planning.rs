//! The planner's inputs, rebuilt from a service's public surface: the
//! same oracle, initial deployment and forecast windows
//! `Caladrius::plan_capacity` hands to the horizon search. The output
//! checks use them to run a cold search next to a warm-started plan;
//! the planner probes use them to time the search without the service.

use caladrius_core::capacity::{forecast_windows, CapacityPlanRequest, ModelOracle};
use caladrius_core::providers::tracker::TopologyTracker;
use caladrius_core::Caladrius;
use caladrius_planner::WindowSpec;
use std::sync::Arc;

pub const TRAFFIC_MODEL: &str = "prophet";

pub struct SearchInputs {
    pub oracle: ModelOracle,
    pub initial: Vec<(String, u32)>,
    pub windows: Vec<WindowSpec>,
}

/// Resolves `service`'s current models and forecast for `topology`.
/// After a plan at the same watermark both are cache hits, so this
/// changes nothing the next plan would see.
pub fn search_inputs(
    service: &Caladrius,
    tracker: &dyn TopologyTracker,
    topology: &str,
    request: &CapacityPlanRequest,
) -> SearchInputs {
    let (model, cpu_models) = service.fitted_models(topology).expect("fitted models");
    let forecast = service
        .forecast_traffic(topology, Some(&[TRAFFIC_MODEL.to_string()]))
        .expect("traffic forecast")
        .pop()
        .expect("one model requested");
    let windows = forecast_windows(
        &forecast,
        request.planner.window_minutes,
        request.conservative,
    )
    .expect("forecast windows");
    let initial: Vec<(String, u32)> = tracker
        .logical_spec(topology)
        .expect("tracked topology")
        .components
        .into_iter()
        .filter(|(name, _)| model.component_model(name).is_some())
        .collect();
    let components = initial.iter().map(|(name, _)| name.clone()).collect();
    SearchInputs {
        oracle: ModelOracle::new(Arc::clone(&model), cpu_models, components),
        initial,
        windows,
    }
}
