//! # graphalign
//!
//! Unrestricted graph alignment: a Rust implementation of the nine
//! algorithms evaluated in *"Comprehensive Evaluation of Algorithms for
//! Unrestricted Graph Alignment"* (Skitsas, Orłowski, Hermanns, Mottin,
//! Karras — EDBT 2023), behind one uniform [`Aligner`] interface so any
//! similarity notion can be paired with any assignment method — the paper's
//! "level playing field" (§6.2).
//!
//! | module | algorithm | year | similarity notion |
//! |---|---|---|---|
//! | [`isorank`] | IsoRank | 2008 | PageRank-style neighborhood similarity |
//! | [`graal`] | GRAAL | 2010 | graphlet-degree signatures + seed-and-extend |
//! | [`nsd`] | NSD | 2011 | decomposed IsoRank power series |
//! | [`lrea`] | LREA | 2018 | low-rank EigenAlign |
//! | [`regal`] | REGAL | 2018 | xNetMF structural embeddings (Nyström) |
//! | [`gwl`] | GWL | 2019 | Gromov–Wasserstein learning |
//! | [`sgwl`] | S-GWL | 2019 | recursive Gromov–Wasserstein partitioning |
//! | [`cone`] | CONE | 2020 | proximity embeddings + Wasserstein–Procrustes |
//! | [`grasp`] | GRASP | 2021 | Laplacian spectra + heat-kernel functional maps |
//!
//! ## Quick start
//!
//! ```
//! use graphalign::{registry, Aligner};
//! use graphalign_graph::Graph;
//! use graphalign_graph::permutation::AlignmentInstance;
//! use graphalign_metrics::accuracy;
//!
//! // A ring of triangles with a pendant path (the path breaks the ring's
//! // rotational symmetry so the alignment is unique), aligned against a
//! // shuffled copy of itself.
//! let mut edges: Vec<(usize, usize)> = (0..10)
//!     .flat_map(|i| {
//!         let a = 3 * i;
//!         [(a, a + 1), (a + 1, a + 2), (a, a + 2), (a + 2, (a + 3) % 30)]
//!     })
//!     .collect();
//! edges.extend([(0, 30), (30, 31), (31, 32)]);
//! let g = Graph::from_edges(33, &edges);
//! let instance = AlignmentInstance::permuted(g, 2);
//!
//! let grasp = graphalign::grasp::Grasp::default();
//! let alignment = grasp.align(&instance.source, &instance.target).unwrap();
//! assert!(accuracy(&alignment, &instance.ground_truth) > 0.8);
//! # let _ = registry();
//! ```

// The algorithm implementations transcribe index-coupled formulas from the
// respective papers (heat-kernel sums, factored operators, sphere matching);
// explicit indices keep the code aligned with the published notation.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod cone;
pub mod features;
pub mod fprop;
pub mod graal;
pub mod grasp;
pub mod gwl;
pub mod isorank;
pub mod lrea;
pub mod netalign;
pub mod nsd;
pub mod prior;
pub mod regal;
pub mod sgwl;

use graphalign_assignment::AssignmentMethod;
use graphalign_graph::Graph;
use graphalign_linalg::{LinalgError, Similarity};

/// Errors produced by alignment algorithms.
#[derive(Debug)]
pub enum AlignError {
    /// The instance shape is unsupported (e.g. more source than target
    /// nodes for a one-to-one method, or an empty graph).
    BadInstance(String),
    /// A numerical subroutine failed.
    Numerical(LinalgError),
    /// The algorithm was stopped cooperatively by the cell execution budget
    /// ([`graphalign_par::budget`]). The harness records these as timeouts
    /// rather than numerical failures.
    Interrupted {
        /// Name of the routine (or algorithm loop) that was interrupted.
        routine: &'static str,
        /// Outer iterations completed before the budget expired.
        iterations: usize,
    },
}

impl AlignError {
    /// Whether this error reports a cooperative budget interruption.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, AlignError::Interrupted { .. })
    }
}

impl std::fmt::Display for AlignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignError::BadInstance(msg) => write!(f, "bad alignment instance: {msg}"),
            AlignError::Numerical(e) => write!(f, "numerical failure: {e}"),
            AlignError::Interrupted { routine, iterations } => {
                write!(f, "{routine}: interrupted by cell budget after {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for AlignError {}

impl From<LinalgError> for AlignError {
    fn from(e: LinalgError) -> Self {
        match e {
            LinalgError::Interrupted { routine, iterations } => {
                AlignError::Interrupted { routine, iterations }
            }
            other => AlignError::Numerical(other),
        }
    }
}

/// Returns `Err(Interrupted)` when the current cell budget has expired; the
/// algorithms call this once per outer iteration so a runaway cell winds
/// down between iterations instead of being killed from outside. The
/// interruption is also reported to the telemetry sink.
pub(crate) fn check_budget(routine: &'static str, iterations: usize) -> Result<(), AlignError> {
    if graphalign_par::budget::exceeded() {
        graphalign_par::telemetry::record(
            routine,
            graphalign_par::telemetry::Convergence::interrupted(iterations, 0.0),
        );
        Err(AlignError::Interrupted { routine, iterations })
    } else {
        Ok(())
    }
}

/// A graph-alignment algorithm.
///
/// Implementors provide a node [`Similarity`] — the pipeline currency — in
/// whichever representation the algorithm naturally produces: embedding
/// methods (REGAL, CONE, GRASP, LREA) return implicit factored
/// `Similarity::LowRank` values, LREA's native auction route returns
/// `Similarity::Sparse` candidates, and the remaining algorithms return the
/// `Similarity::Dense` matrix they compute anyway. The final matching is
/// extracted by an [`AssignmentMethod`] — by default the one the original
/// paper proposed ([`Aligner::native_assignment`]), but any method can be
/// substituted via [`Aligner::align_with`], which is how the study levels
/// the playing field. GRAAL, whose seed-and-extend matching is integral to
/// the algorithm, overrides [`Aligner::align_with`] for SG only (paper §6.2:
/// "GRAAL performs SG integrally, rendering the adaptation to other methods
/// hard").
pub trait Aligner {
    /// Canonical algorithm name as used in the paper.
    fn name(&self) -> &'static str;

    /// The assignment method the algorithm's authors proposed (Table 1).
    fn native_assignment(&self) -> AssignmentMethod;

    /// Computes the node similarity (`source.node_count()` ×
    /// `target.node_count()`, higher = more similar) in the algorithm's
    /// preferred representation.
    ///
    /// # Errors
    /// Implementation-specific; see each algorithm module.
    fn similarity(&self, source: &Graph, target: &Graph) -> Result<Similarity, AlignError>;

    /// The similarity representation tailored to a specific assignment
    /// method. Defaults to [`Aligner::similarity`]; algorithms whose native
    /// assignment consumes a different representation (LREA and NetAlign
    /// hand the auction a sparse candidate set instead of a dense matrix)
    /// override this.
    ///
    /// # Errors
    /// Propagates [`Aligner::similarity`] failures.
    fn similarity_for(
        &self,
        source: &Graph,
        target: &Graph,
        method: AssignmentMethod,
    ) -> Result<Similarity, AlignError> {
        let _ = method;
        self.similarity(source, target)
    }

    /// Aligns with an explicit assignment method.
    ///
    /// This default is the **only** place the pipeline's "similarity" and
    /// "assignment" phases are timed; algorithm-specific overrides (GRAAL's
    /// seed-and-extend) must route every other method back here so phase
    /// telemetry stays uniform.
    ///
    /// # Errors
    /// Propagates [`Aligner::similarity`] failures.
    fn align_with(
        &self,
        source: &Graph,
        target: &Graph,
        method: AssignmentMethod,
    ) -> Result<Vec<usize>, AlignError> {
        generic_align_with(self, source, target, method)
    }

    /// Aligns with the algorithm's native assignment method.
    ///
    /// # Errors
    /// Propagates [`Aligner::similarity`] failures.
    fn align(&self, source: &Graph, target: &Graph) -> Result<Vec<usize>, AlignError> {
        self.align_with(source, target, self.native_assignment())
    }
}

/// The shared similarity-then-assignment pipeline behind
/// [`Aligner::align_with`]: the **only** place the "similarity" and
/// "assignment" phases are timed. Overriding aligners (GRAAL) call this for
/// every method they don't handle natively, so phase telemetry stays uniform
/// across the registry.
///
/// # Errors
/// Propagates [`Aligner::similarity_for`] failures.
pub fn generic_align_with<A: Aligner + ?Sized>(
    aligner: &A,
    source: &Graph,
    target: &Graph,
    method: AssignmentMethod,
) -> Result<Vec<usize>, AlignError> {
    let sim = precompute_similarity(aligner, source, target, method)?;
    Ok(assign_precomputed(&sim, method))
}

/// The expensive half of the pipeline on its own: validates the instance and
/// computes the [`Similarity`] for `method`, timed under the `"similarity"`
/// phase. The serving layer calls this on a cache miss and persists the
/// result; pairing it with [`assign_precomputed`] is exactly
/// [`generic_align_with`].
///
/// # Errors
/// Propagates [`Aligner::similarity_for`] failures and instance-shape errors.
pub fn precompute_similarity<A: Aligner + ?Sized>(
    aligner: &A,
    source: &Graph,
    target: &Graph,
    method: AssignmentMethod,
) -> Result<Similarity, AlignError> {
    check_sizes(source, target)?;
    graphalign_par::telemetry::time_phase("similarity", || {
        aligner.similarity_for(source, target, method)
    })
}

/// The cheap half of the pipeline on its own: extracts a matching from an
/// already-computed (possibly cache-loaded) similarity, timed under the
/// `"assignment"` phase. The result is bit-identical whether `sim` was just
/// computed or round-tripped through the serving cache.
pub fn assign_precomputed(sim: &Similarity, method: AssignmentMethod) -> Vec<usize> {
    graphalign_par::telemetry::time_phase("assignment", || {
        graphalign_assignment::assign(sim, method)
    })
}

/// Validates that a one-to-one alignment is possible.
pub(crate) fn check_sizes(source: &Graph, target: &Graph) -> Result<(), AlignError> {
    if source.node_count() == 0 {
        return Err(AlignError::BadInstance("source graph is empty".into()));
    }
    if source.node_count() > target.node_count() {
        return Err(AlignError::BadInstance(format!(
            "one-to-one alignment impossible: source has {} nodes, target {}",
            source.node_count(),
            target.node_count()
        )));
    }
    Ok(())
}

/// All nine algorithms with their Table 1 default hyperparameters, in the
/// paper's ordering. The study's harness iterates this registry.
pub fn registry() -> Vec<Box<dyn Aligner + Send + Sync>> {
    vec![
        Box::new(isorank::IsoRank::default()),
        Box::new(graal::Graal::default()),
        Box::new(nsd::Nsd::default()),
        Box::new(lrea::Lrea::default()),
        Box::new(regal::Regal::default()),
        Box::new(gwl::Gwl::default()),
        Box::new(sgwl::Sgwl::default()),
        Box::new(cone::Cone::default()),
        Box::new(grasp::Grasp::default()),
    ]
}

#[cfg(test)]
pub(crate) mod test_support {
    use graphalign_graph::permutation::AlignmentInstance;
    use graphalign_graph::Graph;

    /// A structurally distinctive small graph: a ring of triangles with a
    /// pendant path, so degrees and spectra discriminate nodes well.
    pub fn distinctive_graph(rings: usize) -> Graph {
        let n = 3 * rings + 3;
        let mut edges = Vec::new();
        for i in 0..rings {
            let a = 3 * i;
            edges.push((a, a + 1));
            edges.push((a + 1, a + 2));
            edges.push((a, a + 2));
            edges.push((a + 2, (a + 3) % (3 * rings)));
        }
        // Pendant path to break symmetry.
        let base = 3 * rings;
        edges.push((0, base));
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
        Graph::from_edges(n, &edges)
    }

    /// A permuted self-alignment instance over the distinctive graph.
    pub fn permuted_instance(rings: usize, seed: u64) -> AlignmentInstance {
        AlignmentInstance::permuted(distinctive_graph(rings), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_nine_in_paper_order() {
        let names: Vec<&str> = registry().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["IsoRank", "GRAAL", "NSD", "LREA", "REGAL", "GWL", "S-GWL", "CONE", "GRASP"]
        );
    }

    #[test]
    fn size_check_rejects_bad_instances() {
        let small = Graph::from_edges(2, &[(0, 1)]);
        let big = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(check_sizes(&big, &small).is_err());
        assert!(check_sizes(&small, &big).is_ok());
        assert!(check_sizes(&Graph::from_edges(0, &[]), &small).is_err());
    }

    #[test]
    fn error_display() {
        let e = AlignError::BadInstance("nope".into());
        assert!(e.to_string().contains("nope"));
        let e: AlignError = LinalgError::Singular { routine: "pinv" }.into();
        assert!(e.to_string().contains("pinv"));
        assert!(!e.is_interrupted());
        // Budget interruptions surfaced by linalg keep their identity when
        // crossing into the alignment layer.
        let e: AlignError = LinalgError::Interrupted { routine: "sinkhorn", iterations: 7 }.into();
        assert!(e.is_interrupted());
        assert!(e.to_string().contains("interrupted by cell budget after 7"));
    }
}
