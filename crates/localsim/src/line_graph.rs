//! The line graph `L(G)` of a live view, written straight into CSR.
//!
//! Edge colouring and maximal matching run a vertex-colouring black box on `L(G)` (the
//! paper's Section 5.2): one node per edge of `G`, two nodes adjacent when their edges share
//! an endpoint. [`LineGraph::of`] reads a [`GraphView`]'s live rows and builds `L(G)` in
//! `O(Σ deg²)` with no edge-index map, no edge-set dedup and no materialised subgraph:
//!
//! * edges are numbered in [`GraphView::edges`] order and every arc records its edge's
//!   number, so each node's row of edge numbers is ascending;
//! * the row of edge `i = (u, v)` is the merge of `u`'s and `v`'s rows minus `i`; since `i`
//!   sits at a known port in both rows, the parts below and above `i` merge separately;
//! * rows are written in ascending order, so the reverse of an arc `i → j` with `j < i` is
//!   the next unclaimed slot above `j` in row `j`.

use crate::graph::{Graph, NodeId, NodeIndex};
use crate::view::GraphView;

/// Line-graph identities pack an edge's endpoint identities `a < b` as
/// `a · ID_PACK + b` (wrapping); if two edges collide, every edge gets its index instead.
pub const ID_PACK: u64 = 1_000_003;

/// `L(G)` of a view, plus the map from the view's ports to line-graph nodes.
#[derive(Debug)]
pub struct LineGraph {
    /// The line graph: node `i` stands for the edge `edges[i]`.
    pub graph: Graph,
    /// `edges[i] = (u, v)` with `u < v`, in the view's live indices and
    /// [`GraphView::edges`] order.
    pub edges: Vec<(NodeIndex, NodeIndex)>,
    /// `port_edges[port_offsets[v]..port_offsets[v + 1]]` are the edges on `v`'s ports.
    port_offsets: Vec<usize>,
    port_edges: Vec<usize>,
}

impl LineGraph {
    /// Builds `L(G)` of `view`. Identical to `view.materialize().0.line_graph()`, including
    /// identities, port order and reverse arcs.
    pub fn of(view: &GraphView<'_>) -> Self {
        let n = view.node_count();
        let mut port_offsets = Vec::with_capacity(n + 1);
        port_offsets.push(0);
        for v in 0..n {
            port_offsets.push(port_offsets[v] + view.degree(v));
        }
        // Number the edges and record each arc's edge. A row lists its smaller neighbours
        // first; `fill[v]` is the next of those slots, claimed in ascending neighbour order.
        let mut port_edges = vec![0usize; port_offsets[n]];
        let mut fill = port_offsets[..n].to_vec();
        let mut edges = Vec::with_capacity(port_offsets[n] / 2);
        for u in 0..n {
            for (p, v) in view.neighbors(u).enumerate() {
                if v > u {
                    port_edges[port_offsets[u] + p] = edges.len();
                    port_edges[fill[v]] = edges.len();
                    fill[v] += 1;
                    edges.push((u, v));
                }
            }
        }

        let m = edges.len();
        let arcs: usize = (0..n).map(|v| view.degree(v) * view.degree(v).saturating_sub(1)).sum();
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0);
        let mut adjacency = Vec::with_capacity(arcs);
        let mut reverse = vec![0usize; arcs];
        // `upper[j]`: the next unclaimed arc of row `j` towards a larger edge.
        let mut upper = vec![0usize; m];
        for u in 0..n {
            let a = &port_edges[port_offsets[u]..port_offsets[u + 1]];
            for (p, v) in view.neighbors(u).enumerate() {
                if v < u {
                    continue;
                }
                let q = view.reverse_port(u, p);
                let b = &port_edges[port_offsets[v]..port_offsets[v + 1]];
                let start = adjacency.len();
                merge_into(&a[..p], &b[..q], &mut adjacency);
                let mid = adjacency.len();
                upper[a[p]] = mid;
                merge_into(&a[p + 1..], &b[q + 1..], &mut adjacency);
                offsets.push(adjacency.len());
                for k in start..mid {
                    let back = &mut upper[adjacency[k]];
                    reverse[k] = *back;
                    reverse[*back] = k;
                    *back += 1;
                }
            }
        }

        let mut ids: Vec<NodeId> = edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (view.id(u).min(view.id(v)), view.id(u).max(view.id(v)));
                a.wrapping_mul(ID_PACK).wrapping_add(b)
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            ids = (0..m as u64).collect();
        }
        let graph = Graph::from_trusted_csr(offsets, adjacency, reverse, ids);
        LineGraph { graph, edges, port_offsets, port_edges }
    }

    /// Per live node of the view, in port order, the line-graph node of each port's edge.
    pub fn port_edge_rows(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.port_offsets.windows(2).map(|w| &self.port_edges[w[0]..w[1]])
    }
}

/// Appends the merge of the ascending slices `a` and `b` to `out`.
fn merge_into(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        if a[x] < b[y] {
            out.push(a[x]);
            x += 1;
        } else {
            out.push(b[y]);
            y += 1;
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_packed_identities_fall_back_to_edge_indices() {
        // Edges (1, 2) and (0, 3) both pack to 2 000 006.
        let g = Graph::from_edges_with_ids(
            4,
            &[(0, 1), (2, 3), (1, 2), (0, 3)],
            &[0, 1_000_003, 1, 2_000_006],
        )
        .unwrap();
        let lg = LineGraph::of(&GraphView::full(&g));
        assert_eq!(lg.edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(lg.graph.ids(), &[0, 1, 2, 3]);
        // Without the collision the packed identities stand.
        let mut view = GraphView::full(&g);
        view.retain(&[true, true, true, false]);
        let lg = LineGraph::of(&view);
        assert_eq!(lg.graph.ids(), &[1_000_003, 2_000_006]);
    }

    #[test]
    fn edgeless_views_have_empty_line_graphs_and_empty_port_rows() {
        let g = Graph::from_edges(4, &[]).unwrap();
        let lg = LineGraph::of(&GraphView::full(&g));
        assert!(lg.graph.is_empty());
        assert!(lg.edges.is_empty());
        assert_eq!(lg.port_edge_rows().count(), 4);
        assert!(lg.port_edge_rows().all(|row| row.is_empty()));

        // A view pruned down to an independent set is edgeless too.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut view = GraphView::full(&g);
        view.retain(&[true, false, true, true]);
        view.retain(&[true, true, false]);
        let lg = LineGraph::of(&view);
        assert!(lg.graph.is_empty());
        assert_eq!(lg.port_edge_rows().count(), 2);
        assert!(lg.port_edge_rows().all(|row| row.is_empty()));
    }
}
