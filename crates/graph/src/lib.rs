//! Typed property-graph store and algorithms for the TRAIL knowledge graph.
//!
//! The paper stores the TKG in neo4j and uses it for traversal queries
//! (k-hop neighbourhoods, ego-nets, connected components, diameter).
//! This crate is the embedded substitute: a deduplicating, schema-checked
//! property graph ([`GraphStore`]) with a frozen CSR view ([`Csr`]) for
//! fast traversal, the algorithm suite the paper's Section V analysis
//! needs ([`algo`]), and a checksummed binary snapshot format
//! ([`persist`]) over the frame codec every on-disk format shares
//! ([`frame`]).
//!
//! Node and edge kinds mirror the schema of the paper's Figure 2 and
//! Table I exactly; see [`schema`].

#![forbid(unsafe_code)]

pub mod algo;
pub mod csr;
pub mod frame;
pub mod ids;
pub mod persist;
pub mod schema;
pub mod store;
pub mod sym;

pub use csr::{Csr, WideCsr};
pub use ids::NodeId;
pub use persist::PersistError;
pub use schema::{EdgeKind, NodeKind};
pub use store::{GraphStore, Neighbors, NodeRecord};
pub use sym::{Interner, Sym};

/// Errors raised by graph mutation and persistence.
#[derive(Debug)]
pub enum GraphError {
    /// An edge was inserted between node kinds the Table I schema forbids.
    SchemaViolation {
        /// Offending edge kind.
        edge: EdgeKind,
        /// Source node kind supplied.
        src: NodeKind,
        /// Destination node kind supplied.
        dst: NodeKind,
    },
    /// A node id was out of range for this graph.
    UnknownNode(NodeId),
    /// Snapshot (de)serialisation failure.
    Persist(PersistError),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SchemaViolation { edge, src, dst } => {
                write!(f, "edge {edge:?} not allowed from {src:?} to {dst:?}")
            }
            GraphError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            GraphError::Persist(e) => write!(f, "persistence error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
