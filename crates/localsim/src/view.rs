//! Live-mask graph views: identity-preserving subgraphs without the copy.
//!
//! The paper's alternating algorithms repeatedly prune nodes and recurse on the induced
//! subgraph of the survivors. Materializing that subgraph with [`Graph::induced_subgraph`]
//! costs `O(n + m)` (plus edge-set reconstruction) per pruning step — a dominant cost of a
//! whole alternation run once the black-box attempts are budgeted. A [`GraphView`] instead
//! overlays the base CSR with per-node *live segments*: the adjacency array is copied once at
//! view creation, each node's segment keeps only alive neighbors (in base order), and pruning
//! edits the segments of the pruned nodes' neighborhoods in place. Reverse ports are cached
//! per arc, so the round loop's message routing is O(1) exactly like on a plain [`Graph`].
//!
//! **Index contract.** A view exposes a dense *live index* space `0..live_count`, ordered by
//! ascending base index. This is exactly the index space [`Graph::induced_subgraph`] would
//! produce for the same alive set, so code written against materialized subgraphs (input
//! vectors, tentative outputs, pruning masks) ports to views without re-indexing — and runs
//! on a view are byte-identical to runs on the materialized subgraph (same ports, same
//! message order, same identity-derived RNG streams).

use crate::graph::{Graph, NodeId, NodeIndex};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide epoch source: every distinct view *content* gets a unique epoch, so equal
/// epochs imply structurally identical views (clones share content and epoch; any mutation
/// assigns a fresh epoch). Used to key [`crate::session::Session`]'s init-slab cache.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// Views index nodes and arcs with `u32` to halve the cache footprint of the hot overlay
/// arrays; the base graph must fit that width. 4 billion arcs is ~32 GiB of base adjacency
/// alone, so the cap is far beyond what a single view can hold anyway.
fn check_u32_width(nodes: usize, arcs: usize) {
    assert!(
        nodes <= u32::MAX as usize && arcs <= u32::MAX as usize,
        "graph exceeds the view's u32 index width ({nodes} nodes, {arcs} arcs)"
    );
}

/// A live subgraph of a base [`Graph`], maintained as an alive mask plus segmented adjacency.
///
/// All public accessors speak *live indices* (dense `0..node_count()`, ascending base order);
/// [`GraphView::base_index`] and [`GraphView::live_nodes`] translate back to the base graph.
/// The runtime's round loop additionally uses the base-indexed *slot* accessors (see
/// [`crate::session::Topology`]), which read the flat segments directly.
#[derive(Clone)]
pub struct GraphView<'g> {
    base: &'g Graph,
    /// `alive[b]` — is base node `b` still in the view?
    alive: Vec<bool>,
    /// Segment boundaries per base node (a copy of the base CSR offsets; segment capacity is
    /// the base degree, the live part is `adj[offsets[b]..offsets[b] + live_len[b]]`).
    /// Stored as `u32`: views cap nodes and arcs at `u32::MAX` (checked at construction) so
    /// the arrays the round loop streams through are half the width of the base CSR.
    offsets: Vec<u32>,
    /// Segmented adjacency: alive base neighbors of `b`, ascending, in the segment's prefix.
    adj: Vec<u32>,
    /// Per arc, the port at which the *source* appears in the target's live segment.
    rev: Vec<u32>,
    /// Live degree of each base node.
    live_len: Vec<u32>,
    /// Alive base indices, ascending. Position = live index.
    live_nodes: Vec<NodeIndex>,
    /// Base index -> live index. Stale for dead nodes (never read for them).
    live_index: Vec<u32>,
    /// Content identity: unique per distinct alive set (see [`NEXT_EPOCH`]); refreshed by
    /// every effective [`GraphView::retain`], shared by clones.
    epoch: u64,
}

impl fmt::Debug for GraphView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphView")
            .field("live_nodes", &self.node_count())
            .field("base_nodes", &self.base.node_count())
            .finish()
    }
}

impl<'g> GraphView<'g> {
    /// A view with every node of `base` alive. One flat copy of the CSR arrays, no per-node
    /// allocations, and reverse ports derived from the base's precomputed reverse arcs.
    pub fn full(base: &'g Graph) -> Self {
        let n = base.node_count();
        let (offsets, adjacency, reverse) = base.csr();
        check_u32_width(n, adjacency.len());
        let mut rev = vec![0u32; adjacency.len()];
        for (k, &w) in adjacency.iter().enumerate() {
            rev[k] = (reverse[k] - offsets[w]) as u32;
        }
        let live_len: Vec<u32> = (0..n).map(|b| (offsets[b + 1] - offsets[b]) as u32).collect();
        GraphView {
            base,
            alive: vec![true; n],
            offsets: offsets.iter().map(|&o| o as u32).collect(),
            adj: adjacency.iter().map(|&w| w as u32).collect(),
            rev,
            live_len,
            live_nodes: (0..n).collect(),
            live_index: (0..n as u32).collect(),
            epoch: fresh_epoch(),
        }
    }

    /// A view over the nodes of `base` with `keep[b] == true` (base-indexed mask).
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != base.node_count()`.
    pub fn with_mask(base: &'g Graph, keep: &[bool]) -> Self {
        let n = base.node_count();
        assert_eq!(keep.len(), n, "keep mask must cover every base node");
        let (offsets, adjacency, _) = base.csr();
        check_u32_width(n, adjacency.len());
        let mut adj = vec![0u32; adjacency.len()];
        let mut live_len = vec![0u32; n];
        let mut live_nodes = Vec::new();
        let mut live_index = vec![u32::MAX; n];
        for b in 0..n {
            if !keep[b] {
                continue;
            }
            live_index[b] = live_nodes.len() as u32;
            live_nodes.push(b);
            let mut len = 0;
            for &w in base.neighbors(b) {
                if keep[w] {
                    adj[offsets[b] + len] = w as u32;
                    len += 1;
                }
            }
            live_len[b] = len as u32;
        }
        let mut rev = vec![0u32; adj.len()];
        for &b in &live_nodes {
            for p in 0..live_len[b] as usize {
                let w = adj[offsets[b] + p] as usize;
                let segment = &adj[offsets[w]..offsets[w] + live_len[w] as usize];
                let back = segment.binary_search(&(b as u32)).expect("reverse arc must exist");
                rev[offsets[b] + p] = back as u32;
            }
        }
        GraphView {
            base,
            alive: keep.to_vec(),
            offsets: offsets.iter().map(|&o| o as u32).collect(),
            adj,
            rev,
            live_len,
            live_nodes,
            live_index,
            epoch: fresh_epoch(),
        }
    }

    /// The base graph this view filters.
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// The view's content epoch: equal epochs imply structurally identical views (a clone
    /// shares its source's epoch until either is mutated), so the epoch can key caches of
    /// derived data such as [`crate::session::Session`]'s init slab.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of alive nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes.len()
    }

    /// `true` when no node is alive.
    pub fn is_empty(&self) -> bool {
        self.live_nodes.is_empty()
    }

    /// Alive base indices in ascending order; position in this slice is the live index.
    pub fn live_nodes(&self) -> &[NodeIndex] {
        &self.live_nodes
    }

    /// Base index of live node `l`.
    pub fn base_index(&self, l: usize) -> NodeIndex {
        self.live_nodes[l]
    }

    /// Identity `Id(v)` of live node `l` (identities are preserved from the base graph).
    pub fn id(&self, l: usize) -> NodeId {
        self.base.id(self.live_nodes[l])
    }

    /// Degree of live node `l` *within the view*.
    pub fn degree(&self, l: usize) -> usize {
        self.live_len[self.live_nodes[l]] as usize
    }

    /// The `port`-th live neighbor of live node `l`, as a live index.
    pub fn neighbor(&self, l: usize, port: usize) -> usize {
        let b = self.live_nodes[l];
        self.live_index[self.adj[self.offsets[b] as usize + port] as usize] as usize
    }

    /// The port at which live node `l` appears in the adjacency of its `port`-th neighbor.
    pub fn reverse_port(&self, l: usize, port: usize) -> usize {
        self.rev[self.offsets[self.live_nodes[l]] as usize + port] as usize
    }

    /// Iterates the live neighbors of live node `l`, as ascending live indices.
    pub fn neighbors(&self, l: usize) -> impl Iterator<Item = usize> + '_ {
        self.slot_neighbors(self.live_nodes[l])
            .iter()
            .map(move |&w| self.live_index[w as usize] as usize)
    }

    /// The live segment (alive base neighbors, as `u32` base indices) of base node `s`.
    pub(crate) fn slot_neighbors(&self, s: usize) -> &[u32] {
        let start = self.offsets[s] as usize;
        &self.adj[start..start + self.live_len[s] as usize]
    }

    /// Live degree of base node `s`.
    pub(crate) fn slot_degree(&self, s: usize) -> usize {
        self.live_len[s] as usize
    }

    /// The `port`-th alive neighbor of base node `s`, as a base index.
    pub(crate) fn slot_neighbor(&self, s: usize, port: usize) -> usize {
        self.adj[self.offsets[s] as usize + port] as usize
    }

    /// The arrival port of an arc sent from base node `s` on `port` (cached, O(1)).
    pub(crate) fn slot_reverse_port(&self, s: usize, port: usize) -> usize {
        self.rev[self.offsets[s] as usize + port] as usize
    }

    /// Live index of base node `s` (only meaningful for alive nodes).
    pub(crate) fn live_index_of(&self, s: usize) -> usize {
        self.live_index[s] as usize
    }

    /// `true` if live nodes `u` and `v` are adjacent in the view.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.slot_neighbors(self.live_nodes[u]).binary_search(&(self.live_nodes[v] as u32)).is_ok()
    }

    /// Maximum live degree; `0` for the empty view.
    pub fn max_degree(&self) -> usize {
        self.live_nodes.iter().map(|&b| self.live_len[b] as usize).max().unwrap_or(0)
    }

    /// Largest identity among alive nodes, or 0 if empty.
    pub fn max_id(&self) -> NodeId {
        self.live_nodes.iter().map(|&b| self.base.id(b)).max().unwrap_or(0)
    }

    /// Iterates over all live undirected edges `(u, v)` with `u < v` (live indices).
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count())
            .flat_map(move |u| self.neighbors(u).filter(move |&v| u < v).map(move |v| (u, v)))
    }

    /// The live nodes at distance at most `r` from live node `l` (the ball `B(v, r)` in the
    /// view), including `l`, as sorted live indices.
    pub fn ball(&self, l: usize, r: usize) -> Vec<usize> {
        let mut dist = std::collections::HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        let mut out = vec![l];
        dist.insert(l, 0usize);
        queue.push_back(l);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            if du == r {
                continue;
            }
            for &wb in self.slot_neighbors(self.live_nodes[u]) {
                let w = self.live_index[wb as usize] as usize;
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(du + 1);
                    out.push(w);
                    queue.push_back(w);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Removes every live node `l` with `keep[l] == false` (live-indexed mask, matching the
    /// output of a pruning algorithm).
    ///
    /// Cost is `O(live)` for the index rebuild plus the segment edits incident to the removed
    /// nodes — no base-CSR copy, no edge-set reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != node_count()`.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.node_count(), "keep mask must cover every live node");
        if keep.iter().all(|&k| k) {
            return;
        }
        let removed: Vec<NodeIndex> = self
            .live_nodes
            .iter()
            .enumerate()
            .filter(|&(l, _)| !keep[l])
            .map(|(_, &b)| b)
            .collect();
        for &b in &removed {
            self.alive[b] = false;
        }
        for &w in &removed {
            // Delete w from each alive neighbor's segment. `rev` keeps every stored position
            // current across deletions (dead nodes' segments stay intact until the end, so
            // their cached positions keep being maintained and read consistently).
            let w_start = self.offsets[w] as usize;
            for k in 0..self.live_len[w] as usize {
                let u = self.adj[w_start + k] as usize;
                if !self.alive[u] {
                    continue;
                }
                let pos = self.rev[w_start + k] as usize;
                let (start, len) = (self.offsets[u] as usize, self.live_len[u] as usize);
                debug_assert_eq!(self.adj[start + pos] as usize, w);
                // Shift the tail of u's segment left over the deleted entry and fix the
                // reverse positions cached at the shifted arcs' endpoints.
                for j in pos..len - 1 {
                    let x = self.adj[start + j + 1];
                    let back = self.rev[start + j + 1];
                    self.adj[start + j] = x;
                    self.rev[start + j] = back;
                    self.rev[self.offsets[x as usize] as usize + back as usize] -= 1;
                }
                self.live_len[u] = (len - 1) as u32;
            }
        }
        for &w in &removed {
            self.live_len[w] = 0;
        }
        let alive = &self.alive;
        self.live_nodes.retain(|&b| alive[b]);
        for (l, &b) in self.live_nodes.iter().enumerate() {
            self.live_index[b] = l as u32;
        }
        self.epoch = fresh_epoch();
    }

    /// Materializes the view as a standalone [`Graph`], plus the live-index → base-index map.
    ///
    /// The result is exactly what chaining [`Graph::induced_subgraph`] along the same pruning
    /// history would have produced (same node order, identities, and adjacency), which makes
    /// it the reference that view-native code is tested against.
    pub fn materialize(&self) -> (Graph, Vec<NodeIndex>) {
        let edges: Vec<(usize, usize)> = self.edges().collect();
        let ids: Vec<NodeId> = self.live_nodes.iter().map(|&b| self.base.id(b)).collect();
        let graph = Graph::from_edges_with_ids(self.node_count(), &edges, &ids)
            .expect("a live view of a valid graph is valid");
        (graph, self.live_nodes.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        // 0-1-2-3-4 path plus chord 0-2.
        Graph::from_edges_with_ids(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)],
            &[10, 20, 30, 40, 50],
        )
        .unwrap()
    }

    fn assert_consistent(v: &GraphView<'_>) {
        for l in 0..v.node_count() {
            for p in 0..v.degree(l) {
                let w = v.neighbor(l, p);
                let back = v.reverse_port(l, p);
                assert_eq!(v.neighbor(w, back), l, "reverse port cache inconsistent");
            }
        }
    }

    #[test]
    fn full_view_mirrors_base() {
        let g = sample();
        let v = GraphView::full(&g);
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.max_degree(), g.max_degree());
        assert_eq!(v.max_id(), 50);
        for l in 0..5 {
            assert_eq!(v.id(l), g.id(l));
            assert_eq!(v.degree(l), g.degree(l));
            for p in 0..v.degree(l) {
                assert_eq!(v.neighbor(l, p), g.neighbor(l, p));
                assert_eq!(v.reverse_port(l, p), g.reverse_port(l, p));
            }
        }
        assert_consistent(&v);
    }

    #[test]
    fn retain_matches_induced_subgraph() {
        let g = sample();
        let keep = [true, false, true, true, false];
        let (sub, back) = g.induced_subgraph(&keep);
        let mut v = GraphView::full(&g);
        v.retain(&keep);
        assert_eq!(v.live_nodes(), back.as_slice());
        assert_eq!(v.node_count(), sub.node_count());
        for l in 0..sub.node_count() {
            assert_eq!(v.id(l), sub.id(l));
            assert_eq!(v.degree(l), sub.degree(l));
            for p in 0..sub.degree(l) {
                assert_eq!(v.neighbor(l, p), sub.neighbor(l, p));
                assert_eq!(v.reverse_port(l, p), sub.reverse_port(l, p));
            }
        }
        assert_consistent(&v);
        let (mat, mback) = v.materialize();
        assert_eq!(mat, sub);
        assert_eq!(mback, back);
    }

    #[test]
    fn chained_retain_equals_chained_subgraphs() {
        let g = sample();
        let k1 = [true, true, true, true, false];
        let (s1, b1) = g.induced_subgraph(&k1);
        let k2 = [true, false, true, true];
        let (s2, b2) = s1.induced_subgraph(&k2);
        let mut v = GraphView::full(&g);
        v.retain(&k1);
        v.retain(&k2);
        assert_consistent(&v);
        let (mat, back) = v.materialize();
        assert_eq!(mat, s2);
        let expect_back: Vec<usize> = b2.iter().map(|&i| b1[i]).collect();
        assert_eq!(back, expect_back);
    }

    #[test]
    fn with_mask_equals_full_then_retain() {
        let g = sample();
        let keep = [false, true, true, false, true];
        let a = GraphView::with_mask(&g, &keep);
        let mut b = GraphView::full(&g);
        b.retain(&keep);
        assert_eq!(a.live_nodes(), b.live_nodes());
        assert_eq!(a.materialize().0, b.materialize().0);
        assert_consistent(&a);
        assert_consistent(&b);
    }

    #[test]
    fn random_pruning_chains_stay_consistent_with_subgraphs() {
        // A denser random graph pruned in several waves: the view must track the chained
        // induced subgraphs exactly (structure + reverse ports) at every step.
        let n = 40;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|&(u, v)| (u * 31 + v * 17) % 5 == 0)
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut v = GraphView::full(&g);
        let mut reference = g.clone();
        for wave in 0..4u64 {
            let live = v.node_count();
            if live == 0 {
                break;
            }
            let keep: Vec<bool> =
                (0..live).map(|l| !(l as u64 * 7 + wave).is_multiple_of(3)).collect();
            v.retain(&keep);
            let (sub, _) = reference.induced_subgraph(&keep);
            reference = sub;
            assert_consistent(&v);
            let (mat, _) = v.materialize();
            assert_eq!(mat, reference, "wave {wave} diverged");
        }
    }

    #[test]
    fn ball_and_has_edge_on_view() {
        let g = sample();
        // Drop node 2: path becomes 0-1, 3-4 components (chord 0-2 also gone).
        let mut v = GraphView::full(&g);
        v.retain(&[true, true, false, true, true]);
        // Live indices: 0->0, 1->1, 3->2, 4->3.
        assert!(v.has_edge(0, 1));
        assert!(!v.has_edge(1, 2));
        assert_eq!(v.ball(0, 2), vec![0, 1]);
        assert_eq!(v.ball(2, 1), vec![2, 3]);
    }

    #[test]
    fn epochs_track_content_identity() {
        let g = sample();
        let a = GraphView::full(&g);
        let b = a.clone();
        assert_eq!(a.epoch(), b.epoch(), "clones share content, hence epoch");
        let mut c = a.clone();
        c.retain(&[true; 5]); // removing nothing leaves the content (and epoch) unchanged
        assert_eq!(c.epoch(), a.epoch());
        c.retain(&[true, true, true, true, false]);
        assert_ne!(c.epoch(), a.epoch(), "mutation must refresh the epoch");
        let d = GraphView::full(&g);
        assert_ne!(d.epoch(), a.epoch(), "distinct constructions get distinct epochs");
    }

    #[test]
    fn empty_view() {
        let g = sample();
        let v = GraphView::with_mask(&g, &[false; 5]);
        assert!(v.is_empty());
        assert_eq!(v.max_degree(), 0);
        assert_eq!(v.max_id(), 0);
        let (mat, back) = v.materialize();
        assert!(mat.is_empty());
        assert!(back.is_empty());
    }
}
