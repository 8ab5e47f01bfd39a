//! Synthetic metadata-repository populations.
//!
//! The paper's §2 scenarios (schema search, clustering, COI proposal) run
//! against "an enterprise schema registry … which now contains thousands of
//! schemata". This module generates such a population: `k` latent domains,
//! each with its own ontology, and `n` schemata per domain that realize
//! overlapping subsets of their domain's concepts. Schemata from the same
//! domain overlap heavily; schemata from different domains share almost
//! nothing — the structure clustering should recover.

use crate::docgen::DocStyle;
use crate::naming::{Case, NameRenderer, NamingStyle};
use crate::ontology::Ontology;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sm_schema::{DataType, Documentation, ElementKind, Schema, SchemaFormat, SchemaId};

/// Configuration of a synthetic repository.
#[derive(Debug, Clone)]
pub struct RepositoryConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of latent domains (ground-truth clusters).
    pub domains: usize,
    /// Schemata generated per domain.
    pub schemas_per_domain: usize,
    /// Concepts in each domain ontology.
    pub concepts_per_domain: usize,
    /// Fraction of the domain's concepts each schema realizes.
    pub concept_coverage: f64,
    /// Attribute range per concept.
    pub attrs_per_concept: (usize, usize),
    /// Scope attribute names to their concept and drop generated prose.
    ///
    /// The default corpus is deliberately adversarial to vocabulary pruning:
    /// every concept carries staple attributes (`identifier`, `name`) plus
    /// draws from a shared generic pool, and sparse documentation injects
    /// common English content words — so even cross-domain schema pairs
    /// select exact-name correspondences. With `scoped_attributes` each
    /// attribute name is prefixed by its concept's head token (for example
    /// `identifier` → `vehicle identifier`) and documentation is suppressed,
    /// which keeps heavy within-domain overlap while pushing cross-domain
    /// pairs below any sensible acceptance threshold. This is the clustered
    /// regime the N-way plan-stage pruning benchmarks rely on.
    pub scoped_attributes: bool,
}

impl Default for RepositoryConfig {
    fn default() -> Self {
        RepositoryConfig {
            seed: 0,
            domains: 4,
            schemas_per_domain: 8,
            concepts_per_domain: 20,
            concept_coverage: 0.5,
            attrs_per_concept: (4, 9),
            scoped_attributes: false,
        }
    }
}

/// A generated repository population with cluster ground truth.
pub struct SyntheticRepository {
    /// All schemata, in generation order.
    pub schemas: Vec<Schema>,
    /// Ground-truth domain index of each schema (aligned with `schemas`).
    pub domain_of: Vec<usize>,
    /// The per-domain ontologies.
    pub ontologies: Vec<Ontology>,
}

impl SyntheticRepository {
    /// Generate a repository population.
    ///
    /// Domains generate independently, each from its own RNG seeded by
    /// `(seed, domain)` — so the population is identical at any executor
    /// width, and registry-scale runs (10⁴+ schemata for the incremental
    /// index benches) fan out across the global executor instead of
    /// threading one RNG through every schema.
    pub fn generate(config: &RepositoryConfig) -> Self {
        let styles = [
            NamingStyle::relational(),
            NamingStyle::legacy(),
            NamingStyle::xml(),
            NamingStyle::clean(Case::Camel),
        ];
        let (amin, amax) = config.attrs_per_concept;

        // One master ontology sliced into disjoint per-domain concept sets:
        // domains must not collide on concept names (their *attribute*
        // vocabulary still overlaps through the shared generic pool, which
        // is the realistic part — every system has identifiers and names).
        let master = Ontology::generate(
            config.seed.wrapping_add(0x1000),
            config.domains * config.concepts_per_domain,
            amin,
            amax,
        );
        let exec = harmony_core::exec::Executor::global();
        let per_domain: Vec<(Vec<Schema>, Ontology)> =
            harmony_core::exec::Job::new(exec, exec.threads()).map(0..config.domains, |_, d| {
                let mut rng = SmallRng::seed_from_u64(
                    (config.seed ^ 0x5EED_5EED_5EED_5EED)
                        .wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let lo = d * config.concepts_per_domain;
                let hi = (lo + config.concepts_per_domain).min(master.len());
                let ontology = Ontology {
                    concepts: master.concepts[lo..hi].to_vec(),
                };
                let doc_style = if config.scoped_attributes {
                    DocStyle::none()
                } else {
                    DocStyle::sparse()
                };
                let schemas: Vec<Schema> = (0..config.schemas_per_domain)
                    .map(|s| {
                        let style = styles[(d + s) % styles.len()].clone();
                        let renderer = NameRenderer::new(style);
                        realize_subset(
                            &ontology,
                            SchemaId((d * config.schemas_per_domain + s) as u32),
                            format!("D{d}_S{s}"),
                            config.concept_coverage,
                            config.scoped_attributes,
                            &renderer,
                            &doc_style,
                            &mut rng,
                        )
                    })
                    .collect();
                (schemas, ontology)
            });

        let mut schemas = Vec::with_capacity(config.domains * config.schemas_per_domain);
        let mut domain_of = Vec::with_capacity(schemas.capacity());
        let mut ontologies = Vec::with_capacity(config.domains);
        for (d, (domain_schemas, ontology)) in per_domain.into_iter().enumerate() {
            domain_of.extend(std::iter::repeat_n(d, domain_schemas.len()));
            schemas.extend(domain_schemas);
            ontologies.push(ontology);
        }
        SyntheticRepository {
            schemas,
            domain_of,
            ontologies,
        }
    }

    /// Total number of schemata.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True when the repository holds no schemata.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }
}

/// Realize a random `coverage` fraction of the ontology's concepts as a
/// generic schema.
#[allow(clippy::too_many_arguments)]
fn realize_subset(
    ontology: &Ontology,
    id: SchemaId,
    name: String,
    coverage: f64,
    scoped: bool,
    renderer: &NameRenderer,
    doc_style: &DocStyle,
    rng: &mut SmallRng,
) -> Schema {
    let mut schema = Schema::new(id, name, SchemaFormat::Generic);
    let n = ((ontology.len() as f64) * coverage.clamp(0.0, 1.0))
        .round()
        .max(1.0) as usize;
    let mut idxs: Vec<usize> = (0..ontology.len()).collect();
    idxs.shuffle(rng);
    idxs.truncate(n);
    idxs.sort_unstable();
    for ci in idxs {
        let spec = &ontology.concepts[ci];
        let anchor = schema.add_root(
            renderer.render(&spec.tokens, rng),
            ElementKind::Group,
            DataType::None,
        );
        if let Some(doc) = crate::docgen::render_doc(&spec.doc, doc_style, rng) {
            schema
                .set_doc(anchor, Documentation::generated(doc))
                .expect("anchor exists");
        }
        // Realize a random prefix of attributes (at least one).
        let k = rng.gen_range(1..=spec.attributes.len());
        for attr in spec.attributes.iter().take(k) {
            let attr_name = if scoped {
                let mut tokens = Vec::with_capacity(attr.tokens.len() + 1);
                tokens.push(spec.tokens[0].clone());
                tokens.extend(attr.tokens.iter().cloned());
                renderer.render(&tokens, rng)
            } else {
                renderer.render(&attr.tokens, rng)
            };
            schema
                .add_child(anchor, attr_name, ElementKind::Column, attr.datatype)
                .expect("anchor exists");
        }
    }
    schema
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts() {
        let cfg = RepositoryConfig {
            domains: 3,
            schemas_per_domain: 4,
            ..Default::default()
        };
        let repo = SyntheticRepository::generate(&cfg);
        assert_eq!(repo.len(), 12);
        assert_eq!(repo.domain_of.len(), 12);
        assert_eq!(repo.ontologies.len(), 3);
        for s in &repo.schemas {
            assert!(!s.is_empty());
            s.validate().unwrap();
        }
    }

    #[test]
    fn domains_assigned_in_blocks() {
        let repo = SyntheticRepository::generate(&RepositoryConfig {
            domains: 2,
            schemas_per_domain: 3,
            ..Default::default()
        });
        assert_eq!(repo.domain_of, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn generation_deterministic() {
        let cfg = RepositoryConfig::default();
        let a = SyntheticRepository::generate(&cfg);
        let b = SyntheticRepository::generate(&cfg);
        for (x, y) in a.schemas.iter().zip(&b.schemas) {
            assert_eq!(x.len(), y.len());
            let nx: Vec<_> = x.preorder().map(|e| e.name.clone()).collect();
            let ny: Vec<_> = y.preorder().map(|e| e.name.clone()).collect();
            assert_eq!(nx, ny);
        }
    }

    #[test]
    fn same_domain_schemata_share_vocabulary() {
        let repo = SyntheticRepository::generate(&RepositoryConfig {
            domains: 2,
            schemas_per_domain: 2,
            concepts_per_domain: 15,
            concept_coverage: 0.7,
            ..Default::default()
        });
        // Token-level Jaccard between root-name sets, same vs cross domain.
        let tokens_of = |s: &Schema| -> std::collections::HashSet<String> {
            s.elements()
                .iter()
                .flat_map(|e| sm_text::tokenize_identifier(&e.name))
                .collect()
        };
        let t: Vec<_> = repo.schemas.iter().map(tokens_of).collect();
        let jac = |a: &std::collections::HashSet<String>, b: &std::collections::HashSet<String>| {
            let i = a.intersection(b).count() as f64;
            let u = (a.len() + b.len()) as f64 - i;
            if u == 0.0 {
                0.0
            } else {
                i / u
            }
        };
        let same = jac(&t[0], &t[1]);
        let cross = jac(&t[0], &t[2]);
        assert!(
            same > cross,
            "same-domain similarity {same} must exceed cross-domain {cross}"
        );
    }

    #[test]
    fn scoped_attributes_break_cross_domain_name_collisions() {
        let cfg = RepositoryConfig {
            seed: 7,
            domains: 3,
            schemas_per_domain: 2,
            concepts_per_domain: 10,
            scoped_attributes: true,
            ..Default::default()
        };
        let repo = SyntheticRepository::generate(&cfg);
        // No element carries generated prose in the scoped regime.
        for s in &repo.schemas {
            for e in s.elements() {
                assert!(e.doc.is_none(), "scoped corpora suppress documentation");
            }
        }
        // Normalized attribute token sequences never collide across domains:
        // the concept head token scopes every staple (`identifier`, `name`).
        let leaf_keys = |s: &Schema| -> std::collections::HashSet<Vec<String>> {
            s.elements()
                .iter()
                .filter(|e| e.kind == ElementKind::Column)
                .map(|e| sm_text::tokenize_identifier(&e.name))
                .collect()
        };
        let keys: Vec<_> = repo.schemas.iter().map(leaf_keys).collect();
        for i in 0..repo.len() {
            for j in (i + 1)..repo.len() {
                if repo.domain_of[i] != repo.domain_of[j] {
                    assert!(
                        keys[i].is_disjoint(&keys[j]),
                        "schemas {i} and {j} from different domains share an \
                         exact attribute name"
                    );
                }
            }
        }
        // Within a domain the scoped names still overlap heavily.
        assert!(!keys[0].is_disjoint(&keys[1]));
    }

    #[test]
    fn coverage_controls_schema_size() {
        let small = SyntheticRepository::generate(&RepositoryConfig {
            concept_coverage: 0.2,
            seed: 4,
            ..Default::default()
        });
        let large = SyntheticRepository::generate(&RepositoryConfig {
            concept_coverage: 0.9,
            seed: 4,
            ..Default::default()
        });
        let mean = |r: &SyntheticRepository| {
            r.schemas.iter().map(Schema::len).sum::<usize>() as f64 / r.len() as f64
        };
        assert!(mean(&large) > mean(&small) * 2.0);
    }
}
