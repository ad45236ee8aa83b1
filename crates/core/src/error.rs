//! Error type for Caladrius model and service operations.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by Caladrius models, providers and the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Model fitting received too few (or unusable) observations.
    NotEnoughObservations {
        /// What was being fitted.
        what: String,
        /// Observations required.
        needed: usize,
        /// Observations available.
        got: usize,
    },
    /// The requested model name is not registered.
    UnknownModel(String),
    /// A topology / component lookup failed.
    Unknown(String),
    /// The prediction cannot be made with the available information —
    /// e.g. scaling a fields-grouped component with biased keys
    /// (paper §IV-B2b).
    Unpredictable(String),
    /// A lower layer (metrics db, forecaster, simulator) failed.
    Substrate(String),
    /// Bad user input (negative rates, empty parallelism, ...).
    InvalidRequest(String),
    /// Configuration file problems.
    Config(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NotEnoughObservations { what, needed, got } => {
                write!(
                    f,
                    "not enough observations to fit {what}: need {needed}, got {got}"
                )
            }
            CoreError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            CoreError::Unknown(what) => write!(f, "unknown entity: {what}"),
            CoreError::Unpredictable(why) => write!(f, "prediction not possible: {why}"),
            CoreError::Substrate(msg) => write!(f, "substrate failure: {msg}"),
            CoreError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<caladrius_forecast::ForecastError> for CoreError {
    fn from(e: caladrius_forecast::ForecastError) -> Self {
        CoreError::Substrate(format!("forecast: {e}"))
    }
}

impl From<heron_sim::SimError> for CoreError {
    fn from(e: heron_sim::SimError) -> Self {
        CoreError::Substrate(format!("simulator: {e}"))
    }
}

impl From<caladrius_tsdb::Error> for CoreError {
    fn from(e: caladrius_tsdb::Error) -> Self {
        CoreError::Substrate(format!("metrics db: {e}"))
    }
}

impl From<caladrius_graph::TopologyGraphError> for CoreError {
    /// A path count past `u64` is a property of the topology asked about,
    /// not a failure: it cannot be answered ([`CoreError::Unpredictable`]).
    fn from(e: caladrius_graph::TopologyGraphError) -> Self {
        match e {
            caladrius_graph::TopologyGraphError::PathCountOverflow => {
                CoreError::Unpredictable(format!("graph: {e}"))
            }
            _ => CoreError::Substrate(format!("graph: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::NotEnoughObservations {
            what: "instance model".into(),
            needed: 2,
            got: 0,
        };
        assert!(e.to_string().contains("instance model"));
        assert!(CoreError::UnknownModel("prophet2".into())
            .to_string()
            .contains("prophet2"));
        assert!(CoreError::Unpredictable("biased keys".into())
            .to_string()
            .contains("biased"));
    }

    #[test]
    fn conversions_from_substrates() {
        let e: CoreError = caladrius_forecast::ForecastError::SingularSystem.into();
        assert!(matches!(e, CoreError::Substrate(_)));
        let e: CoreError = heron_sim::SimError::UnknownTopology("t".into()).into();
        assert!(matches!(e, CoreError::Substrate(_)));
        let e: CoreError = caladrius_tsdb::Error::SeriesNotFound("m".into()).into();
        assert!(matches!(e, CoreError::Substrate(_)));
        let e: CoreError = caladrius_graph::TopologyGraphError::NotADag.into();
        assert!(matches!(e, CoreError::Substrate(_)));
        let e: CoreError = caladrius_graph::TopologyGraphError::PathCountOverflow.into();
        assert!(matches!(&e, CoreError::Unpredictable(why) if why.contains("u64 range")));
    }
}
