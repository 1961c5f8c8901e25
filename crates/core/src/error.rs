//! The unified RiskRoute error taxonomy.
//!
//! Every fallible operation across the workspace reports through
//! [`enum@Error`]: per-crate errors (graph construction, geodesy, topology
//! building, GraphML import, advisory parsing, JSON decoding) are wrapped
//! with full source chaining, and the two conditions that used to abort the
//! pipeline — an **unreachable** PoP pair and an **invalid (non-finite)
//! weight** — are first-class values instead of panics.
//!
//! Degradation semantics: callers that can continue without the failed
//! input (the replay loop on a garbled advisory, the ratio sweep on a
//! partitioned topology) catch the specific variant, record the degradation
//! (see [`crate::ratios::RatioReport::stranded_pairs`] and
//! [`crate::replay::ReplayTick::degraded`]), and keep going; callers that
//! cannot propagate the error to the CLI, which maps each family to a
//! distinct process exit code.

use riskroute_forecast::ParseError;
use riskroute_geo::GeoError;
use riskroute_graph::GraphError;
use riskroute_json::JsonError;
use riskroute_topology::import::ImportError;
use riskroute_topology::TopologyError;
use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified error type for the RiskRoute pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Graph construction or mutation failed.
    Graph(GraphError),
    /// Geodesy rejected a coordinate.
    Geo(GeoError),
    /// Topology construction rejected PoPs or links.
    Topology(TopologyError),
    /// GraphML import failed.
    Import(ImportError),
    /// Advisory text could not be parsed (§4.4 NLP path).
    Advisory(ParseError),
    /// JSON (de)serialization failed.
    Json(JsonError),
    /// A PoP pair has no connecting path in the (possibly degraded)
    /// topology.
    Unreachable {
        /// Network the query ran on.
        network: String,
        /// Source PoP id.
        src: usize,
        /// Destination PoP id.
        dst: usize,
    },
    /// A weight, risk, or cost was non-finite or negative where the metric
    /// requires a finite non-negative value.
    InvalidWeight {
        /// What the value was supposed to be (e.g. "link miles", "λ_h").
        context: String,
        /// The offending value.
        value: f64,
    },
    /// A node sequence claimed adjacency the topology does not have.
    NotAdjacent {
        /// First node of the bad hop.
        u: usize,
        /// Second node of the bad hop.
        v: usize,
    },
    /// A network name did not resolve.
    UnknownNetwork(String),
    /// An aggregation had no informative pair to work with (fully
    /// partitioned source/destination sets).
    NoInformativePairs,
    /// A caller-supplied argument was out of its documented domain (e.g. a
    /// zero replay stride) — rejected up front instead of relying on
    /// downstream behaviour.
    InvalidArgument {
        /// Which argument was rejected.
        context: String,
        /// Why it was rejected.
        message: String,
    },
    /// A checkpoint snapshot was written by an unsupported format version
    /// (see [`crate::checkpoint::SNAPSHOT_VERSION`]).
    SnapshotVersion {
        /// The version recorded in the snapshot header.
        found: u64,
        /// The version this build reads and writes.
        supported: u64,
    },
    /// A checkpoint snapshot failed integrity validation (truncated bytes,
    /// checksum mismatch, missing section, undecodable payload).
    SnapshotIntegrity {
        /// What the validator found.
        reason: String,
    },
    /// A parallel worker panicked mid-task: the pool caught the panic,
    /// drained, and surfaced it as a value instead of aborting the process
    /// (see `riskroute-par`'s poisoning contract).
    WorkerPanic {
        /// Number of tasks whose panic was caught (0 when a worker died
        /// without a caught panic — defensive, unreachable via safe code).
        panicked: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Graph(_) => write!(f, "graph construction failed"),
            Error::Geo(_) => write!(f, "geographic coordinate rejected"),
            Error::Topology(_) => write!(f, "topology construction failed"),
            Error::Import(_) => write!(f, "GraphML import failed"),
            Error::Advisory(_) => write!(f, "advisory text did not parse"),
            Error::Json(_) => write!(f, "JSON (de)serialization failed"),
            Error::Unreachable { network, src, dst } => {
                write!(f, "PoPs {src} and {dst} are not connected in {network}")
            }
            Error::InvalidWeight { context, value } => {
                write!(
                    f,
                    "invalid {context}: {value} (must be finite and non-negative)"
                )
            }
            Error::NotAdjacent { u, v } => {
                write!(f, "nodes {u} and {v} are not adjacent")
            }
            Error::UnknownNetwork(name) => write!(f, "unknown network {name:?}"),
            Error::NoInformativePairs => {
                write!(
                    f,
                    "no informative pairs to aggregate (all stranded or trivial)"
                )
            }
            Error::InvalidArgument { context, message } => {
                write!(f, "invalid {context}: {message}")
            }
            Error::SnapshotVersion { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported (this build reads \
                     version {supported})"
                )
            }
            Error::SnapshotIntegrity { reason } => {
                write!(f, "snapshot failed integrity validation: {reason}")
            }
            Error::WorkerPanic { panicked } => {
                write!(
                    f,
                    "parallel worker pool poisoned: {panicked} task(s) panicked"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Geo(e) => Some(e),
            Error::Topology(e) => Some(e),
            Error::Import(e) => Some(e),
            Error::Advisory(e) => Some(e),
            Error::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<GeoError> for Error {
    fn from(e: GeoError) -> Self {
        Error::Geo(e)
    }
}

impl From<TopologyError> for Error {
    fn from(e: TopologyError) -> Self {
        Error::Topology(e)
    }
}

impl From<ImportError> for Error {
    fn from(e: ImportError) -> Self {
        Error::Import(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Advisory(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::Json(e)
    }
}

impl From<riskroute_par::PoolError> for Error {
    fn from(e: riskroute_par::PoolError) -> Self {
        match e {
            riskroute_par::PoolError::WorkerPanicked { panicked } => {
                Error::WorkerPanic { panicked }
            }
            riskroute_par::PoolError::WorkerLost => Error::WorkerPanic { panicked: 0 },
        }
    }
}

/// Render `err` with its full `source()` chain, one cause per line — the
/// format the CLI prints on failure.
pub fn render_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut cur = err.source();
    while let Some(cause) = cur {
        out.push_str("\n  caused by: ");
        out.push_str(&cause.to_string());
        cur = cause.source();
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn wrapped_errors_chain_their_source() {
        let e = Error::from(GraphError::SelfLoop(3));
        assert_eq!(e, Error::Graph(GraphError::SelfLoop(3)));
        let src = std::error::Error::source(&e).expect("chained");
        assert!(src.to_string().contains("self-loop"));
    }

    #[test]
    fn value_variants_have_no_source() {
        let e = Error::Unreachable {
            network: "Sprint".into(),
            src: 0,
            dst: 7,
        };
        assert!(std::error::Error::source(&e).is_none());
        assert!(e.to_string().contains("not connected"));
    }

    #[test]
    fn render_chain_walks_causes() {
        let e = Error::from(TopologyError::SelfLink(2));
        let rendered = render_chain(&e);
        assert!(rendered.contains("topology construction failed"));
        assert!(rendered.contains("caused by: self-link on PoP 2"));
    }

    #[test]
    fn invalid_weight_displays_value() {
        let e = Error::InvalidWeight {
            context: "link miles".into(),
            value: f64::NAN,
        };
        assert!(e.to_string().contains("link miles"));
        assert!(e.to_string().contains("NaN"));
    }

    #[test]
    fn snapshot_and_argument_variants_display_their_payload() {
        let e = Error::InvalidArgument {
            context: "stride".into(),
            message: "must be positive (got 0)".into(),
        };
        assert!(e.to_string().contains("invalid stride"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::SnapshotVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(e.to_string().contains("version 1"));
        let e = Error::SnapshotIntegrity {
            reason: "checksum mismatch in progress section".into(),
        };
        assert!(e.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn every_wrapper_from_impl_round_trips() {
        assert!(matches!(
            Error::from(ParseError::MissingCenter),
            Error::Advisory(_)
        ));
        assert!(matches!(
            Error::from(JsonError::Shape("x".into())),
            Error::Json(_)
        ));
        assert!(matches!(
            Error::from(ImportError::NoGraph),
            Error::Import(_)
        ));
    }
}
