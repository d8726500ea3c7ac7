//! Graph substrate for the `selfstab-mis` workspace.
//!
//! This crate provides everything the MIS processes of Giakkoupis & Ziccardi
//! (PODC 2023) need from a graph library:
//!
//! * [`Graph`] — an immutable, compressed-sparse-row (CSR) undirected graph,
//!   built through [`GraphBuilder`] or directly from an edge list.
//! * [`VertexSet`] — a dense bitset over the vertex ids of a graph, used to
//!   represent the evolving sets `B_t`, `A_t`, `I_t`, `V_t` of the paper.
//! * [`generators`] — the graph families used in the paper's analysis:
//!   Erdős–Rényi `G(n,p)`, complete graphs, disjoint cliques, trees and
//!   forests (bounded arboricity), regular graphs, grids, and more.
//! * [`properties`] — structural analysis: degrees, degeneracy/arboricity
//!   bounds, diameter, common neighbors, and the *(n,p)-good graph* checker
//!   of Definition 17.
//! * [`mis_check`] — validation of independence and maximality of a vertex
//!   set, used to verify that every process stabilizes to a correct MIS.
//! * [`traversal`] — breadth-first distances and eccentricity.
//!
//! # Example
//!
//! ```
//! use mis_graph::{GraphBuilder, mis_check};
//!
//! // A triangle plus a pendant vertex.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! b.add_edge(2, 3);
//! let g = b.build();
//!
//! assert_eq!(g.n(), 4);
//! assert_eq!(g.m(), 4);
//! assert_eq!(g.degree(2), 3);
//!
//! // {0, 3} is a maximal independent set of this graph.
//! let mis = mis_graph::VertexSet::from_indices(4, [0, 3]);
//! assert!(mis_check::is_mis(&g, &mis));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod delta;
mod error;
mod vertex_set;

pub mod generators;
pub mod mis_check;
pub mod properties;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{CompactId, Graph, NeighborIter, Neighbors};
pub use delta::{CommittedDelta, DynamicGraph, GraphDelta, Mutation};
pub use error::GraphError;
pub use vertex_set::VertexSet;

/// Vertex identifier. Vertices of an `n`-vertex graph are `0..n`.
pub type VertexId = usize;
