//! The sparse workloads' noisy pair, written through the public stream API.
//!
//! One pass over a seeded chord sequence writes two edge streams side by
//! side: the source (a ring plus every chord) and the target (the same ring
//! plus every chord except a fixed, seeded set of dropped ones). Nothing
//! but the dropped chord indices is ever resident; the graphs are then
//! built from the files with `EdgeStream::build_graph[_with]`.

use graphalign_datasets::stream::{EdgeStream, EdgeStreamWriter};
use rand::prelude::*;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// How chord endpoints are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Chords {
    /// Both endpoints uniform over the nodes.
    Uniform,
    /// Chung-Lu: endpoint `i` drawn with weight `(i + 1)^(-1 / (gamma - 1))`,
    /// which gives a power-law degree distribution with exponent `gamma`.
    ChungLu {
        /// Degree exponent.
        gamma: f64,
    },
}

/// The written pair of streams.
#[derive(Debug)]
pub struct NoisyPair {
    /// Ring plus all chords.
    pub source: EdgeStream,
    /// Ring plus the chords that were not dropped.
    pub target: EdgeStream,
    /// Chords in the source.
    pub chords: u64,
    /// Chords dropped from the target.
    pub dropped: u64,
}

struct ChordSampler {
    rng: StdRng,
    /// Cumulative endpoint weights; empty for uniform chords.
    cumulative: Vec<f64>,
}

impl ChordSampler {
    fn new(n: usize, chords: Chords, seed: u64) -> Self {
        let cumulative = match chords {
            Chords::Uniform => Vec::new(),
            Chords::ChungLu { gamma } => {
                let exponent = -1.0 / (gamma - 1.0);
                let mut acc = 0.0;
                (0..n)
                    .map(|i| {
                        acc += ((i + 1) as f64).powf(exponent);
                        acc
                    })
                    .collect()
            }
        };
        Self { rng: StdRng::seed_from_u64(seed), cumulative }
    }

    fn endpoint(&mut self, n: usize) -> usize {
        if self.cumulative.is_empty() {
            return self.rng.random_range(0..n);
        }
        let x = self.rng.random::<f64>() * self.cumulative[n - 1];
        self.cumulative.partition_point(|&c| c <= x).min(n - 1)
    }

    /// Next chord: two distinct endpoints.
    fn next(&mut self, n: usize) -> (usize, usize) {
        loop {
            let (u, v) = (self.endpoint(n), self.endpoint(n));
            if u != v {
                return (u, v);
            }
        }
    }
}

/// Writes `dir/<tag>.source.edges` and `dir/<tag>.target.edges`: a ring on
/// `n` nodes plus chords up to an average degree of `avg_degree`, with
/// `round(level × chords)` distinct chords dropped from the target.
/// Deterministic per `seed`.
///
/// # Errors
/// Propagates file errors.
///
/// # Panics
/// Panics when `n < 3`.
pub fn write_noisy_pair(
    dir: &Path,
    tag: &str,
    n: usize,
    avg_degree: f64,
    chords: Chords,
    level: f64,
    seed: u64,
) -> io::Result<NoisyPair> {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let total = ((n as f64 * avg_degree / 2.0) as u64).saturating_sub(n as u64);
    let dropped = (level * total as f64).round() as u64;
    let mut pick = StdRng::seed_from_u64(seed ^ 0x5eed_d20b);
    let mut drop_set = HashSet::with_capacity(dropped as usize);
    while (drop_set.len() as u64) < dropped {
        drop_set.insert(pick.random_range(0..total));
    }

    let mut source = EdgeStreamWriter::create(&dir.join(format!("{tag}.source.edges")), n)?;
    let mut target = EdgeStreamWriter::create(&dir.join(format!("{tag}.target.edges")), n)?;
    for u in 0..n {
        source.push(u, (u + 1) % n)?;
        target.push(u, (u + 1) % n)?;
    }
    let mut sampler = ChordSampler::new(n, chords, seed);
    for c in 0..total {
        let (u, v) = sampler.next(n);
        source.push(u, v)?;
        if !drop_set.contains(&c) {
            target.push(u, v)?;
        }
    }
    Ok(NoisyPair { source: source.finish()?, target: target.finish()?, chords: total, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repobench_streamgen_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn bytes(s: &EdgeStream) -> Vec<u8> {
        std::fs::read(s.path()).unwrap()
    }

    #[test]
    fn pair_is_deterministic_per_seed() {
        let dir = tmp("det");
        for chords in [Chords::Uniform, Chords::ChungLu { gamma: 2.5 }] {
            let a = write_noisy_pair(&dir, "a", 500, 10.0, chords, 0.01, 7).unwrap();
            let b = write_noisy_pair(&dir, "b", 500, 10.0, chords, 0.01, 7).unwrap();
            let c = write_noisy_pair(&dir, "c", 500, 10.0, chords, 0.01, 8).unwrap();
            assert_eq!(bytes(&a.source), bytes(&b.source));
            assert_eq!(bytes(&a.target), bytes(&b.target));
            assert_ne!(bytes(&a.source), bytes(&c.source));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_chords_match_the_level() {
        let dir = tmp("level");
        let n = 2000;
        for (level, chords) in [(0.001, Chords::Uniform), (0.05, Chords::ChungLu { gamma: 2.5 })] {
            let p = write_noisy_pair(&dir, "l", n, 10.0, chords, level, 3).unwrap();
            assert_eq!(p.chords, (n * 10 / 2 - n) as u64);
            assert_eq!(p.dropped, (level * p.chords as f64).round() as u64);
            assert_eq!(p.source.edges(), n as u64 + p.chords);
            assert_eq!(p.target.edges(), p.source.edges() - p.dropped);
            // The ring survives in the target: every node keeps degree >= 2.
            let g = p.target.build_graph().unwrap();
            assert!((0..n).all(|v| g.degree(v) >= 2));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chung_lu_chords_have_hubs() {
        let dir = tmp("hubs");
        let n = 4000;
        let skewed = write_noisy_pair(&dir, "s", n, 10.0, Chords::ChungLu { gamma: 2.5 }, 0.0, 1)
            .unwrap()
            .source
            .build_graph()
            .unwrap();
        let uniform = write_noisy_pair(&dir, "u", n, 10.0, Chords::Uniform, 0.0, 1)
            .unwrap()
            .source
            .build_graph()
            .unwrap();
        let max_degree = |g: &graphalign_graph::Graph| (0..n).map(|v| g.degree(v)).max().unwrap();
        assert!(max_degree(&skewed) > 10 * max_degree(&uniform));
        std::fs::remove_dir_all(&dir).ok();
    }
}
