#![warn(missing_docs)]
//! # rbq-pattern — graph pattern queries and unbounded baselines
//!
//! Graph patterns for personalized social search (paper §2): a pattern
//! `Q = (V_p, E_p, f_v, u_p, u_o)` has query nodes/edges, node labels `f_v`,
//! a *personalized node* `u_p` (with a unique match `v_p` in the data graph)
//! and an *output node* `u_o` whose matches are the query answer.
//!
//! Two matching semantics are implemented, each with the unbounded baseline
//! algorithms the paper evaluates against:
//!
//! * **Strong simulation** (Ma et al., PVLDB 2011): [`strongsim`] provides
//!   `Match` and the optimized `MatchOpt` restricted to the
//!   `d_Q`-neighborhood of `v_p`.
//! * **Subgraph isomorphism**: [`vf2`] provides an anchored VF2-style
//!   enumerator and its restricted `VF2OPT` variant.
//!
//! [`dualsim`] implements the dual-simulation fixpoint both semantics build
//! on, and all matchers are generic over [`rbq_graph::GraphView`] so the
//! *same code* evaluates `Q(G)` (baselines) and `Q(G_Q)` (the reduced graph
//! of resource-bounded algorithms).

pub mod dualsim;
pub mod pattern;
pub mod simcompress;
pub mod strongsim;
pub mod vf2;

pub use dualsim::{
    candidate_screen_within_into, dual_simulation, dual_simulation_screened_with,
    dual_simulation_with, CandidateScreen, DualSim, DualSimRef, DualSimScratch,
};
pub use pattern::{PNode, Pattern, PatternBuilder, ResolveError, ResolvedPattern};
pub use simcompress::{bisimulation_compress, SimCompressed};
pub use strongsim::{
    match_opt, strong_simulation, strong_simulation_on_view_with, StrongSimScratch,
};
pub use vf2::{vf2_all_output_matches, vf2_opt, Vf2Config};
