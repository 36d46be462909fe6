//! Graph algorithms backing the paper's Section V analysis:
//! connected components and BFS traversals (distances, diameter
//! estimation), plus the k-hop [`Ball`]: the one extractor of a
//! neighbourhood, read by the Fig. 3 ego-nets, the GNN row sets and
//! the streaming tick.

pub mod ball;
pub mod bfs;
pub mod components;

pub use ball::Ball;
pub use bfs::{bfs_distances, diameter_double_sweep, k_hop};
pub use components::{connected_components, ComponentSummary};
