//! Compressed-sparse-row graph representation used by the LOCAL-model runtime.
//!
//! The graph is undirected, simple (no self-loops, no parallel edges) and static for the
//! duration of an execution. Every node carries a unique identity `Id(v)` (the paper's
//! `Id(v)`), which is independent of its position (index) in the adjacency structure.
//!
//! Two views matter for the paper's framework:
//!
//! * the full graph `G` on which the uniform algorithm operates, and
//! * induced subgraphs `G_i` obtained by pruning nodes between iterations of an
//!   [alternating algorithm](https://doi.org/10.1007/s00446-012-0174-8); these are produced by
//!   [`Graph::induced_subgraph`], which preserves node identities so that identity-based
//!   symmetry breaking keeps working across iterations.

use crate::line_graph::LineGraph;
use crate::view::GraphView;
use std::collections::BTreeSet;
use std::fmt;

/// Position of a node inside a [`Graph`] (dense, `0..n`).
pub type NodeIndex = usize;

/// Globally unique identity of a node (the paper's `Id(v)`).
///
/// Identities are preserved by [`Graph::induced_subgraph`] and are the only
/// symmetry-breaking information a *uniform* algorithm may rely on.
pub type NodeId = u64;

/// An undirected simple graph in CSR form with per-node identities.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes into `adjacency` for node `v`.
    offsets: Vec<usize>,
    /// Concatenated neighbor lists (by node index).
    adjacency: Vec<NodeIndex>,
    /// For the directed arc stored at `adjacency[k]` (say `u -> v`), `reverse[k]` is the
    /// position in `adjacency` of the arc `v -> u`. Used to translate "sent on port p of u"
    /// into "received on port q of v".
    reverse: Vec<usize>,
    /// Unique identity of each node.
    ids: Vec<NodeId>,
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Errors produced while building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a node index `>= n`.
    EndpointOutOfRange {
        /// The offending endpoint index.
        endpoint: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// A self-loop `(v, v)` was supplied.
    SelfLoop {
        /// The node with the self-loop.
        node: usize,
    },
    /// Two nodes were assigned the same identity.
    DuplicateId {
        /// The duplicated identity.
        id: NodeId,
    },
    /// `ids.len()` did not match the declared number of nodes.
    IdCountMismatch {
        /// Declared number of nodes.
        expected: usize,
        /// Number of identities supplied.
        got: usize,
    },
    /// Prebuilt CSR arrays handed to [`Graph::from_csr`] violated an invariant.
    InvalidCsr {
        /// Which invariant failed.
        detail: &'static str,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { endpoint, nodes } => {
                write!(f, "edge endpoint {endpoint} out of range for {nodes} nodes")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateId { id } => write!(f, "duplicate node identity {id}"),
            GraphError::IdCountMismatch { expected, got } => {
                write!(f, "expected {expected} identities, got {got}")
            }
            GraphError::InvalidCsr { detail } => write!(f, "invalid CSR input: {detail}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl Graph {
    /// Builds a graph on `n` nodes with identities `0..n` from an edge list.
    ///
    /// Duplicate edges are collapsed; `(u, v)` and `(v, u)` denote the same edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let ids: Vec<NodeId> = (0..n as u64).collect();
        Self::from_edges_with_ids(n, edges, &ids)
    }

    /// Builds a graph on `n` nodes with explicit identities from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if an endpoint is out of range, an edge is a self-loop, the
    /// identity vector has the wrong length, or identities are not unique.
    pub fn from_edges_with_ids(
        n: usize,
        edges: &[(usize, usize)],
        ids: &[NodeId],
    ) -> Result<Self, GraphError> {
        if ids.len() != n {
            return Err(GraphError::IdCountMismatch { expected: n, got: ids.len() });
        }
        {
            let mut seen = BTreeSet::new();
            for &id in ids {
                if !seen.insert(id) {
                    return Err(GraphError::DuplicateId { id });
                }
            }
        }
        let mut unique: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: u, nodes: n });
            }
            if v >= n {
                return Err(GraphError::EndpointOutOfRange { endpoint: v, nodes: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            unique.insert((u.min(v), u.max(v)));
        }

        let mut degree = vec![0usize; n];
        for &(u, v) in &unique {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut adjacency = vec![0usize; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v) in &unique {
            adjacency[cursor[u]] = v;
            cursor[u] += 1;
            adjacency[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Neighbor lists are sorted by construction (BTreeSet iteration is ordered and we
        // append in order), except the lists of the *second* endpoints; sort to normalize.
        for v in 0..n {
            adjacency[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        let reverse = Self::compute_reverse(&offsets, &adjacency);
        Ok(Graph { offsets, adjacency, reverse, ids: ids.to_vec() })
    }

    /// Builds a graph (identities `0..n`) directly from prebuilt CSR arrays, skipping the
    /// edge-list round trip entirely — no edge `Vec`, no dedup set, no per-row re-sort.
    ///
    /// This is the constructor behind `local-graphs`' `O(n + m)` direct-CSR generators,
    /// which emit arcs already row-sorted and place each arc's mirror position as they go.
    /// All invariants are validated in `O(n + m)` (cheap linear scans relative to any
    /// generator that could have produced the arrays):
    ///
    /// * `offsets` is monotone, starts at 0, and its last entry equals `adjacency.len()`
    ///   (which must equal `reverse.len()`);
    /// * every row is strictly ascending with endpoints in range and no self-loop;
    /// * `reverse[k]` points at the mirror arc of `adjacency[k]` (which also forces the
    ///   adjacency to be symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the violated invariant.
    pub fn from_csr(
        offsets: Vec<usize>,
        adjacency: Vec<NodeIndex>,
        reverse: Vec<usize>,
    ) -> Result<Self, GraphError> {
        Self::check_csr(&offsets, &adjacency, &reverse)?;
        let n = offsets.len() - 1;
        let ids: Vec<NodeId> = (0..n as u64).collect();
        Ok(Graph { offsets, adjacency, reverse, ids })
    }

    /// Wraps CSR arrays built inside this crate (the line-graph builder) with explicit
    /// identities; the invariants of [`Graph::from_csr`] are checked in debug builds only.
    pub(crate) fn from_trusted_csr(
        offsets: Vec<usize>,
        adjacency: Vec<NodeIndex>,
        reverse: Vec<usize>,
        ids: Vec<NodeId>,
    ) -> Self {
        debug_assert_eq!(Self::check_csr(&offsets, &adjacency, &reverse), Ok(()));
        debug_assert_eq!(ids.len() + 1, offsets.len());
        Graph { offsets, adjacency, reverse, ids }
    }

    fn check_csr(
        offsets: &[usize],
        adjacency: &[NodeIndex],
        reverse: &[usize],
    ) -> Result<(), GraphError> {
        let invalid = |detail| Err(GraphError::InvalidCsr { detail });
        if offsets.is_empty() || offsets[0] != 0 {
            return invalid("offsets must start with 0");
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return invalid("offsets must be monotone");
        }
        let n = offsets.len() - 1;
        if *offsets.last().expect("non-empty") != adjacency.len() {
            return invalid("offsets must end at adjacency.len()");
        }
        if reverse.len() != adjacency.len() {
            return invalid("reverse must have one entry per arc");
        }
        for u in 0..n {
            let row = &adjacency[offsets[u]..offsets[u + 1]];
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return invalid("rows must be strictly ascending");
            }
            if row.last().is_some_and(|&w| w >= n) {
                return invalid("neighbor index out of range");
            }
            if row.binary_search(&u).is_ok() {
                return invalid("self-loop");
            }
            for k in offsets[u]..offsets[u + 1] {
                let v = adjacency[k];
                let rv = reverse[k];
                if rv < offsets[v] || rv >= offsets[v + 1] || adjacency[rv] != u || reverse[rv] != k
                {
                    return invalid("reverse arc must mirror its arc");
                }
            }
        }
        Ok(())
    }

    fn compute_reverse(offsets: &[usize], adjacency: &[NodeIndex]) -> Vec<usize> {
        let n = offsets.len() - 1;
        let mut reverse = vec![0usize; adjacency.len()];
        for u in 0..n {
            for k in offsets[u]..offsets[u + 1] {
                let v = adjacency[k];
                // Binary search for u in v's neighbor list (lists are sorted).
                let list = &adjacency[offsets[v]..offsets[v + 1]];
                let pos = list.binary_search(&u).expect("reverse arc must exist");
                reverse[k] = offsets[v] + pos;
            }
        }
        reverse
    }

    /// CSR internals (offsets, adjacency, reverse-arc positions), for the live-view overlay.
    pub(crate) fn csr(&self) -> (&[usize], &[NodeIndex], &[usize]) {
        (&self.offsets, &self.adjacency, &self.reverse)
    }

    /// Number of nodes `n = |V(G)|`.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E(G)|`.
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeIndex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ(G)`; `0` for the empty or edgeless graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Identity `Id(v)` of node `v`.
    pub fn id(&self, v: NodeIndex) -> NodeId {
        self.ids[v]
    }

    /// All identities, indexed by node index.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Largest identity present in the graph (the paper's parameter `m`), or 0 if empty.
    pub fn max_id(&self) -> NodeId {
        self.ids.iter().copied().max().unwrap_or(0)
    }

    /// Neighbors of `v`, sorted by node index.
    pub fn neighbors(&self, v: NodeIndex) -> &[NodeIndex] {
        &self.adjacency[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `port`-th neighbor of `v`.
    pub fn neighbor(&self, v: NodeIndex, port: usize) -> NodeIndex {
        self.adjacency[self.offsets[v] + port]
    }

    /// Returns the port at which `v` appears in the neighbor list of its `port`-th neighbor.
    ///
    /// If `w = neighbor(v, port)`, then `neighbor(w, reverse_port(v, port)) == v`.
    pub fn reverse_port(&self, v: NodeIndex, port: usize) -> usize {
        let k = self.offsets[v] + port;
        let w = self.adjacency[k];
        self.reverse[k] - self.offsets[w]
    }

    /// Returns `true` if `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeIndex, v: NodeIndex) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeIndex, NodeIndex)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Builds the subgraph induced by the nodes with `keep[v] == true`.
    ///
    /// Node identities are preserved. Returns the subgraph together with the mapping from the
    /// new node indices back to the original node indices.
    ///
    /// This is the operation performed between iterations of an alternating algorithm: the
    /// pruning algorithm removes the pruned set `W` and the next algorithm runs on `G[V \ W]`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeIndex>) {
        assert_eq!(keep.len(), self.node_count(), "keep mask must cover every node");
        let mut new_index = vec![usize::MAX; self.node_count()];
        let mut back = Vec::new();
        for v in 0..self.node_count() {
            if keep[v] {
                new_index[v] = back.len();
                back.push(v);
            }
        }
        let mut edges = Vec::new();
        for (u, v) in self.edges() {
            if keep[u] && keep[v] {
                edges.push((new_index[u], new_index[v]));
            }
        }
        let ids: Vec<NodeId> = back.iter().map(|&v| self.ids[v]).collect();
        let sub = Graph::from_edges_with_ids(back.len(), &edges, &ids)
            .expect("induced subgraph of a valid graph is valid");
        (sub, back)
    }

    /// Breadth-first distances from `source`; unreachable nodes get `usize::MAX`.
    pub fn bfs_distances(&self, source: NodeIndex) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        dist[source] = 0;
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            for &w in self.neighbors(u) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Builds the line graph `L(G)`: one node per edge of `G`, two line-graph nodes adjacent
    /// when the corresponding edges share an endpoint.
    ///
    /// Returns the line graph and, for each line-graph node, the original edge it represents.
    /// Line-graph node identities are derived deterministically from the endpoint identities
    /// so that they are unique and reproducible; see [`LineGraph`], which this wraps.
    pub fn line_graph(&self) -> (Graph, Vec<(NodeIndex, NodeIndex)>) {
        let LineGraph { graph, edges, .. } = LineGraph::of(&GraphView::full(self));
        (graph, edges)
    }

    /// Connected components; returns a component label per node and the number of components.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut label = vec![usize::MAX; self.node_count()];
        let mut count = 0;
        for s in 0..self.node_count() {
            if label[s] != usize::MAX {
                continue;
            }
            let mut queue = std::collections::VecDeque::new();
            label[s] = count;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &w in self.neighbors(u) {
                    if label[w] == usize::MAX {
                        label[w] = count;
                        queue.push_back(w);
                    }
                }
            }
            count += 1;
        }
        (label, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.is_empty());
    }

    #[test]
    fn rejects_self_loop() {
        assert!(matches!(Graph::from_edges(2, &[(0, 0)]), Err(GraphError::SelfLoop { node: 0 })));
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::EndpointOutOfRange { endpoint: 5, nodes: 2 })
        ));
    }

    #[test]
    fn rejects_duplicate_ids() {
        assert!(matches!(
            Graph::from_edges_with_ids(2, &[(0, 1)], &[7, 7]),
            Err(GraphError::DuplicateId { id: 7 })
        ));
    }

    #[test]
    fn rejects_id_count_mismatch() {
        assert!(matches!(
            Graph::from_edges_with_ids(3, &[(0, 1)], &[1, 2]),
            Err(GraphError::IdCountMismatch { expected: 3, got: 2 })
        ));
    }

    #[test]
    fn collapses_duplicate_edges() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn from_csr_accepts_what_from_edges_builds() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        let rebuilt =
            Graph::from_csr(g.offsets.clone(), g.adjacency.clone(), g.reverse.clone()).unwrap();
        assert_eq!(rebuilt, g);
        let empty = Graph::from_csr(vec![0], vec![], vec![]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn from_csr_rejects_malformed_inputs() {
        let detail = |r: Result<Graph, GraphError>| match r {
            Err(GraphError::InvalidCsr { detail }) => detail,
            other => panic!("expected InvalidCsr, got {other:?}"),
        };
        assert_eq!(detail(Graph::from_csr(vec![], vec![], vec![])), "offsets must start with 0");
        assert_eq!(
            detail(Graph::from_csr(vec![0, 2, 1], vec![1, 0, 0], vec![2, 1, 0])),
            "offsets must be monotone"
        );
        assert_eq!(
            detail(Graph::from_csr(vec![0, 1, 3], vec![1, 0], vec![1, 0])),
            "offsets must end at adjacency.len()"
        );
        assert_eq!(
            detail(Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![1])),
            "reverse must have one entry per arc"
        );
        assert_eq!(
            detail(Graph::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![3, 2, 1, 0])),
            "rows must be strictly ascending"
        );
        assert_eq!(
            detail(Graph::from_csr(vec![0, 1, 2], vec![5, 0], vec![1, 0])),
            "neighbor index out of range"
        );
        assert_eq!(detail(Graph::from_csr(vec![0, 1], vec![0], vec![0])), "self-loop");
        assert_eq!(
            detail(Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![0, 1])),
            "reverse arc must mirror its arc"
        );
    }

    #[test]
    fn reverse_ports_are_consistent() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]).unwrap();
        for v in 0..g.node_count() {
            for port in 0..g.degree(v) {
                let w = g.neighbor(v, port);
                let back = g.reverse_port(v, port);
                assert_eq!(g.neighbor(w, back), v);
            }
        }
    }

    #[test]
    fn induced_subgraph_preserves_ids_and_edges() {
        let g = Graph::from_edges_with_ids(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], &[10, 20, 30, 40])
            .unwrap();
        let (sub, back) = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(back, vec![0, 2, 3]);
        assert_eq!(sub.ids(), &[10, 30, 40]);
        // Edges 2-3 and 3-0 survive, edge 0-1 and 1-2 vanish.
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.has_edge(1, 2)); // old 2-3
        assert!(sub.has_edge(0, 2)); // old 0-3
        assert!(!sub.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_of_nothing_is_empty() {
        let g = triangle();
        let (sub, back) = g.induced_subgraph(&[false, false, false]);
        assert!(sub.is_empty());
        assert!(back.is_empty());
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn line_graph_of_path() {
        // Path 0-1-2-3 has 3 edges; its line graph is a path on 3 nodes.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let (lg, edges) = g.line_graph();
        assert_eq!(lg.node_count(), 3);
        assert_eq!(lg.edge_count(), 2);
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn line_graph_of_star() {
        // Star K_{1,3}: line graph is a triangle.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let (lg, _) = g.line_graph();
        assert_eq!(lg.node_count(), 3);
        assert_eq!(lg.edge_count(), 3);
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let (labels, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
    }

    #[test]
    fn max_id_and_ids() {
        let g = Graph::from_edges_with_ids(3, &[(0, 1)], &[5, 99, 7]).unwrap();
        assert_eq!(g.max_id(), 99);
        assert_eq!(g.id(1), 99);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_id(), 0);
    }
}
