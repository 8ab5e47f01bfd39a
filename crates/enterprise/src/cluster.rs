//! Schema clustering over overlap distance.
//!
//! §5: *"Numeric characterizations of overlap could also be used as
//! inter-schema distance metrics by a clustering algorithm. The ability to
//! identify clusters of related schemata is vital, providing CIOs with a big
//! picture view of enterprise data sources and revealing to integration
//! planners the most promising (i.e., tightly clustered) candidates for
//! integration."*
//!
//! Distance = 1 − weighted vocabulary overlap (the same cheap signature the
//! search index uses, served by the shared [`PreparedSchema`] feature cache).
//! Clustering = agglomerative hierarchical with selectable linkage, cut
//! either at `k` clusters or at a distance threshold. Quality metrics
//! (purity, adjusted Rand index) evaluate against generated ground truth.

use crate::repository::MetadataRepository;
use crate::shard::{ShardConfig, ShardedRepositoryIndex};
use harmony_core::batch::prepare_schemas_global;
use harmony_core::prepare::PreparedSchema;
use sm_schema::{Schema, SchemaId};
use std::collections::HashMap;
use std::sync::Arc;

/// Linkage criterion for agglomerative clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linkage {
    /// Minimum pairwise distance between clusters.
    Single,
    /// Maximum pairwise distance.
    Complete,
    /// Mean pairwise distance (UPGMA).
    Average,
}

/// A flat clustering of schemata.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Clusters: each is a list of schema ids.
    pub clusters: Vec<Vec<SchemaId>>,
}

impl Clustering {
    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Cluster index of a schema.
    pub fn cluster_of(&self, id: SchemaId) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&id))
    }
}

/// Pairwise distance matrix over a schema list.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    ids: Vec<SchemaId>,
    /// Row-major `n×n` distances in `[0,1]`.
    d: Vec<f64>,
}

impl DistanceMatrix {
    /// Vocabulary-overlap distances for all schemata in a repository,
    /// served by the repository's maintained token index.
    pub fn from_repository(repo: &MetadataRepository) -> Self {
        Self::from_index(&repo.token_index())
    }

    /// Vocabulary-overlap distances for an explicit schema list, bulk-
    /// prepared through the shared feature cache on the process-wide
    /// executor (the batch layer's Plan-stage primitive — cold registries
    /// prepare concurrently instead of one schema at a time).
    pub fn from_schemas(schemas: &[&Schema]) -> Self {
        Self::from_prepared(&prepare_schemas_global(schemas))
    }

    /// Vocabulary-overlap distances over already-prepared schemata (builds
    /// a transient token index in parallel on the global executor).
    pub fn from_prepared(prepared: &[Arc<PreparedSchema>]) -> Self {
        let exec = harmony_core::exec::Executor::global();
        Self::from_index(&ShardedRepositoryIndex::build_parallel(
            prepared,
            exec,
            exec.threads(),
            ShardConfig::default(),
        ))
    }

    /// Vocabulary-overlap distances from a token index. Pairwise
    /// intersection counts come from one walk over each posting list
    /// (`Σ df²` work) instead of `n²` per-pair set intersections; the
    /// Jaccard distances are identical. Rows cover the index's *live*
    /// schemata, in ascending slot order.
    pub fn from_index(index: &ShardedRepositoryIndex) -> Self {
        let live = index.live_slots();
        let n = live.len();
        let inter = index.pairwise_intersections();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            let len_i = index.signature(live[i]).len();
            for j in (i + 1)..n {
                let shared = f64::from(inter[i * n + j]);
                let union = (len_i + index.signature(live[j]).len()) as f64 - shared;
                let dist = if union == 0.0 {
                    0.0
                } else {
                    1.0 - shared / union
                };
                d[i * n + j] = dist;
                d[j * n + i] = dist;
            }
        }
        DistanceMatrix {
            ids: live.into_iter().map(|s| index.id_at(s)).collect(),
            d,
        }
    }

    /// Number of schemata.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no schemata are present.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Distance between schemata by index.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.ids.len() + j]
    }

    /// The schema ids, in matrix order.
    pub fn ids(&self) -> &[SchemaId] {
        &self.ids
    }
}

/// Cut criterion for [`agglomerative`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// Stop at exactly `k` clusters (or fewer schemata than `k`).
    K(usize),
    /// Stop when the next merge would exceed this distance.
    MaxDistance(f64),
}

/// Agglomerative hierarchical clustering.
pub fn agglomerative(dm: &DistanceMatrix, linkage: Linkage, cut: Cut) -> Clustering {
    let n = dm.len();
    if n == 0 {
        return Clustering { clusters: vec![] };
    }
    // Active clusters as index lists.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    let cluster_dist = |a: &[usize], b: &[usize]| -> f64 {
        let mut acc: f64 = match linkage {
            Linkage::Single => f64::INFINITY,
            Linkage::Complete => f64::NEG_INFINITY,
            Linkage::Average => 0.0,
        };
        let mut count = 0usize;
        for &i in a {
            for &j in b {
                let d = dm.get(i, j);
                match linkage {
                    Linkage::Single => acc = acc.min(d),
                    Linkage::Complete => acc = acc.max(d),
                    Linkage::Average => {
                        acc += d;
                        count += 1;
                    }
                }
            }
        }
        if linkage == Linkage::Average {
            acc / count.max(1) as f64
        } else {
            acc
        }
    };

    loop {
        let stop = match cut {
            Cut::K(k) => clusters.len() <= k.max(1),
            Cut::MaxDistance(_) => clusters.len() <= 1,
        };
        if stop {
            break;
        }
        // Find the closest pair.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let d = cluster_dist(&clusters[i], &clusters[j]);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, d)) = best else { break };
        if let Cut::MaxDistance(max) = cut {
            if d > max {
                break;
            }
        }
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }

    Clustering {
        clusters: clusters
            .into_iter()
            .map(|c| c.into_iter().map(|i| dm.ids()[i]).collect())
            .collect(),
    }
}

/// External clustering-quality metrics against ground-truth labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterEval {
    /// Purity: fraction of schemata in their cluster's majority class.
    pub purity: f64,
    /// Adjusted Rand index in `[-1, 1]` (1 = perfect agreement).
    pub ari: f64,
}

impl ClusterEval {
    /// Evaluate a clustering against ground-truth labels (`labels[i]` is the
    /// true class of `ids[i]` as ordered in the distance matrix / repo).
    pub fn evaluate(clustering: &Clustering, truth: &HashMap<SchemaId, usize>) -> ClusterEval {
        let n: usize = clustering.clusters.iter().map(Vec::len).sum();
        if n == 0 {
            return ClusterEval {
                purity: 0.0,
                ari: 0.0,
            };
        }
        // Purity.
        let mut majority_total = 0usize;
        for cluster in &clustering.clusters {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for id in cluster {
                if let Some(&label) = truth.get(id) {
                    *counts.entry(label).or_insert(0) += 1;
                }
            }
            majority_total += counts.values().copied().max().unwrap_or(0);
        }
        let purity = majority_total as f64 / n as f64;

        // Adjusted Rand index via the pair-counting contingency table.
        let comb2 = |x: usize| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
        let mut contingency: HashMap<(usize, usize), usize> = HashMap::new();
        let mut cluster_sizes: Vec<usize> = Vec::new();
        let mut class_sizes: HashMap<usize, usize> = HashMap::new();
        for (ci, cluster) in clustering.clusters.iter().enumerate() {
            cluster_sizes.push(cluster.len());
            for id in cluster {
                if let Some(&label) = truth.get(id) {
                    *contingency.entry((ci, label)).or_insert(0) += 1;
                    *class_sizes.entry(label).or_insert(0) += 1;
                }
            }
        }
        let sum_ij: f64 = contingency.values().map(|&x| comb2(x)).sum();
        let sum_i: f64 = cluster_sizes.iter().map(|&x| comb2(x)).sum();
        let sum_j: f64 = class_sizes.values().map(|&x| comb2(x)).sum();
        let total = comb2(n);
        let expected = sum_i * sum_j / total.max(1.0);
        let max_index = (sum_i + sum_j) / 2.0;
        let ari = if (max_index - expected).abs() < 1e-12 {
            1.0
        } else {
            (sum_ij - expected) / (max_index - expected)
        };
        ClusterEval { purity, ari }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_schema::{DataType, ElementKind, SchemaFormat};

    fn schema(id: u32, words: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root("Root", ElementKind::Group, DataType::None);
        for w in words {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    /// Two obvious groups: vehicle-ish and medical-ish.
    fn schemas() -> Vec<Schema> {
        vec![
            schema(0, &["vin", "make", "model", "wheel"]),
            schema(1, &["vin", "engine", "model"]),
            schema(2, &["patient", "blood", "admission"]),
            schema(3, &["patient", "diagnosis", "blood"]),
        ]
    }

    fn dm(schemas: &[Schema]) -> DistanceMatrix {
        let refs: Vec<&Schema> = schemas.iter().collect();
        DistanceMatrix::from_schemas(&refs)
    }

    #[test]
    fn distance_matrix_properties() {
        let ss = schemas();
        let m = dm(&ss);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&m.get(i, j)));
            }
        }
        // Same-domain pairs are closer than cross-domain.
        assert!(m.get(0, 1) < m.get(0, 2));
        assert!(m.get(2, 3) < m.get(1, 3));
    }

    #[test]
    fn k2_recovers_the_two_domains() {
        let ss = schemas();
        let m = dm(&ss);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let c = agglomerative(&m, linkage, Cut::K(2));
            assert_eq!(c.len(), 2, "{linkage:?}");
            let c0 = c.cluster_of(SchemaId(0)).unwrap();
            assert_eq!(c.cluster_of(SchemaId(1)), Some(c0));
            let c2 = c.cluster_of(SchemaId(2)).unwrap();
            assert_eq!(c.cluster_of(SchemaId(3)), Some(c2));
            assert_ne!(c0, c2);
        }
    }

    #[test]
    fn distance_cut_stops_before_merging_domains() {
        let ss = schemas();
        let m = dm(&ss);
        let c = agglomerative(&m, Linkage::Average, Cut::MaxDistance(0.8));
        assert_eq!(c.len(), 2);
        // A tiny threshold keeps everything separate.
        let c4 = agglomerative(&m, Linkage::Average, Cut::MaxDistance(0.01));
        assert_eq!(c4.len(), 4);
    }

    #[test]
    fn perfect_clustering_scores_perfectly() {
        let ss = schemas();
        let m = dm(&ss);
        let c = agglomerative(&m, Linkage::Average, Cut::K(2));
        let truth: HashMap<SchemaId, usize> = [
            (SchemaId(0), 0),
            (SchemaId(1), 0),
            (SchemaId(2), 1),
            (SchemaId(3), 1),
        ]
        .into_iter()
        .collect();
        let e = ClusterEval::evaluate(&c, &truth);
        assert_eq!(e.purity, 1.0);
        assert!((e.ari - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broken_clustering_scores_low() {
        let clustering = Clustering {
            clusters: vec![
                vec![SchemaId(0), SchemaId(2)],
                vec![SchemaId(1), SchemaId(3)],
            ],
        };
        let truth: HashMap<SchemaId, usize> = [
            (SchemaId(0), 0),
            (SchemaId(1), 0),
            (SchemaId(2), 1),
            (SchemaId(3), 1),
        ]
        .into_iter()
        .collect();
        let e = ClusterEval::evaluate(&clustering, &truth);
        assert!(e.purity <= 0.5 + 1e-9);
        assert!(e.ari < 0.1, "ari {}", e.ari);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = DistanceMatrix::from_schemas(&[]);
        assert!(agglomerative(&empty, Linkage::Average, Cut::K(3)).is_empty());
        let one = schemas().remove(0);
        let m = DistanceMatrix::from_schemas(&[&one]);
        let c = agglomerative(&m, Linkage::Average, Cut::K(3));
        assert_eq!(c.len(), 1);
        // k = 0 treated as 1.
        let c1 = agglomerative(&m, Linkage::Average, Cut::K(0));
        assert_eq!(c1.len(), 1);
    }

    #[test]
    fn single_cluster_when_k_is_one() {
        let ss = schemas();
        let m = dm(&ss);
        let c = agglomerative(&m, Linkage::Complete, Cut::K(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.clusters[0].len(), 4);
    }
}
