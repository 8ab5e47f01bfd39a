//! Unit checks of the registry token-index law (see [`crate::shard`]) on
//! small hand-built registries whose answers are known by inspection:
//! posting order, IDF weight ordering, probe visits, pairwise counts and
//! all-member shared vocabulary.

#[cfg(test)]
mod tests {
    use crate::shard::{ShardConfig, ShardedRepositoryIndex};
    use harmony_core::prepare::FeatureCache;
    use sm_schema::{DataType, ElementKind, Schema, SchemaFormat, SchemaId};
    use sm_text::normalize::Normalizer;

    fn schema(id: u32, words: &[&str]) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Generic);
        let r = s.add_root("Root", ElementKind::Group, DataType::None);
        for w in words {
            s.add_child(r, *w, ElementKind::Column, DataType::text())
                .unwrap();
        }
        s
    }

    fn index(schemas: &[Schema]) -> ShardedRepositoryIndex {
        let cache = FeatureCache::new(Normalizer::new());
        let prepared: Vec<_> = schemas.iter().map(|s| cache.prepare(s)).collect();
        ShardedRepositoryIndex::build(&prepared, ShardConfig::default())
    }

    fn world() -> Vec<Schema> {
        vec![
            schema(0, &["vin", "make", "model"]),
            schema(1, &["vin", "engine"]),
            schema(2, &["patient", "blood"]),
        ]
    }

    #[test]
    fn postings_are_sorted_slots() {
        let idx = index(&world());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.postings("vin"), [0, 1]);
        assert_eq!(idx.postings("patient"), [2]);
        assert!(idx.postings("absent").is_empty());
        assert_eq!(idx.slot(SchemaId(1)), Some(1));
        assert_eq!(idx.slot(SchemaId(9)), None);
    }

    #[test]
    fn rare_tokens_weigh_more_and_unseen_most() {
        let idx = index(&world());
        assert!(idx.weight("patient") > idx.weight("vin"));
        assert!(idx.weight("never-indexed") > idx.weight("patient"));
    }

    #[test]
    fn accumulate_visits_only_sharing_schemata() {
        let idx = index(&world());
        // "engin" is the stemmed form of "engine", present only in slot 1.
        let hits = idx.accumulate(["engin", "vin"]);
        // Slot 2 shares neither token and must not appear.
        assert_eq!(hits.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![0, 1]);
        let w0 = hits[0].1;
        let w1 = hits[1].1;
        assert!(w1 > w0, "slot 1 shares vin + engin, slot 0 only vin");
    }

    #[test]
    fn pairwise_intersections_match_direct_counts() {
        let idx = index(&world());
        let inter = idx.pairwise_intersections();
        let n = idx.len();
        // Every schema shares the "root" container token; 0 and 1 also
        // share "vin".
        assert_eq!(inter[n], 2, "schemas 1,0 share vin + root");
        assert_eq!(inter[1], 2, "symmetric");
        assert_eq!(inter[2], 1, "vehicle/medical share only root");
        assert_eq!(inter[0], 0, "diagonal untouched");
    }

    #[test]
    fn shared_tokens_require_all_members() {
        let idx = index(&world());
        let both = idx.shared_tokens(&[SchemaId(0), SchemaId(1)]);
        assert!(both.contains(&"vin".to_string()));
        assert!(!both.contains(&"make".to_string()));
        assert!(
            idx.shared_tokens(&[SchemaId(0), SchemaId(2)])
                .iter()
                .all(|t| t == "root"), // only the shared Root container token, if kept
        );
        assert!(idx.shared_tokens(&[SchemaId(0), SchemaId(99)]).is_empty());
        // Duplicate members must not shrink the result.
        assert_eq!(
            idx.shared_tokens(&[SchemaId(0), SchemaId(0)]),
            idx.shared_tokens(&[SchemaId(0)]),
        );
    }
}
