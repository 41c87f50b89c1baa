//! # local-runtime — a synchronous LOCAL-model simulator
//!
//! This crate is the execution substrate for the reproduction of
//! *"Toward more localized local algorithms: removing assumptions concerning global
//! knowledge"* (Korman, Sereni, Viennot; PODC 2011 / Distributed Computing 2013).
//!
//! It models the classical **LOCAL** model (Peleg): the network is an undirected graph, all
//! nodes wake up simultaneously, computation proceeds in fault-free synchronous rounds, in
//! each round every node may send unrestricted-size messages to its neighbors and perform
//! arbitrary local computation, and a node terminates by writing its final output.
//!
//! The pieces:
//!
//! * [`Graph`] — CSR graphs with unique node identities and induced-subgraph extraction
//!   (needed between the iterations of the paper's *alternating algorithms*).
//! * [`NodeProgram`] / [`ProgramSpec`] — per-node automata and their factories. Uniform
//!   algorithms receive no global knowledge; non-uniform algorithms receive their parameter
//!   guesses through the spec.
//! * [`run`] — the round-driving engine with a round budget (the paper's *restriction to `i`
//!   rounds*) and exact round accounting.
//! * [`GraphView`] / [`Session`] — the zero-rebuild execution core: live-mask views that let
//!   pruning shrink a configuration without copying the CSR, and reusable sessions whose
//!   frontier-driven round loop ([`run_view`]) touches only active nodes and live inboxes —
//!   byte-identical to [`run`] on the materialized subgraph.
//! * [`LineGraph`] — the line graph `L(G)` of a view, written straight into CSR, for the
//!   edge problems the paper solves by colouring `L(G)`.
//!
//! ## Example
//!
//! A 2-round flooding algorithm in which every node outputs the largest identity within
//! distance 2:
//!
//! ```
//! use local_runtime::{run, Action, Graph, NodeInit, NodeProgram, ProgramSpec, RoundCtx, RunConfig};
//!
//! struct Flood { radius: u64 }
//! struct FloodProg { radius: u64, best: u64 }
//!
//! impl NodeProgram for FloodProg {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn round(&mut self, ctx: &mut RoundCtx<'_, u64>) -> Action<u64> {
//!         for m in ctx.inbox() { self.best = self.best.max(m.msg); }
//!         if ctx.round() == self.radius { return Action::Halt(self.best); }
//!         ctx.broadcast(self.best);
//!         Action::Continue
//!     }
//! }
//!
//! impl ProgramSpec for Flood {
//!     type Input = ();
//!     type Msg = u64;
//!     type Output = u64;
//!     type Prog = FloodProg;
//!     fn build(&self, init: &NodeInit<()>) -> FloodProg {
//!         FloodProg { radius: self.radius, best: init.id }
//!     }
//!     fn default_output(&self, _init: &NodeInit<()>) -> u64 { 0 }
//! }
//!
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
//! let exec = run(&g, &vec![(); 4], &Flood { radius: 2 }, &RunConfig::default());
//! assert_eq!(exec.rounds, 2);
//! assert_eq!(exec.outputs[0], 2); // node 0 sees ids {0, 1, 2} within distance 2
//! # Ok::<(), local_runtime::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod graph;
pub mod line_graph;
pub mod program;
pub mod rng;
pub mod runner;
pub mod session;
pub mod trace;
pub mod view;
mod wake;

pub use algorithm::{AlgoRun, DynAlgorithm, GraphAlgorithm};
pub use graph::{Graph, GraphError, NodeId, NodeIndex};
pub use line_graph::LineGraph;
pub use program::{Action, Incoming, NodeInit, NodeProgram, ProgramSpec, RoundCtx};
pub use rng::{mix_seed, node_rng};
pub use runner::{run, run_sequence, Execution, RunConfig};
pub use session::{run_view, Session, Topology};
pub use trace::{ExecutionTrace, RoundTrace};
pub use view::GraphView;
