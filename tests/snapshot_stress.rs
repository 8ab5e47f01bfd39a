//! Stress: snapshot publication under concurrent read traffic.
//!
//! Two layers, same invariant — readers must never observe a torn or
//! unpublished value:
//!
//! 1. `harmony_core::swap::SnapCell` raw: N reader threads continuously
//!    pin snapshots while one writer publishes M versions. Every observed
//!    value must be one the writer actually published, and each reader's
//!    sequence must be monotonically non-decreasing (a later read can
//!    never surface an older snapshot than an earlier read — the cell
//!    has a single writer here, so time orders the versions).
//!
//! 2. `MetadataRepository::token_index()` end-to-end: readers share the
//!    repository while a writer interleaves registrations (readers take a
//!    shared lock — `token_index` is `&self` — and the writer an exclusive
//!    one, matching the API's mutation contract). Every snapshot a reader
//!    pins must be internally consistent (live count == live slot count,
//!    every live slot resolvable) and the population must only grow.

use harmony_core::swap::SnapCell;
use sm_enterprise::MetadataRepository;
use sm_schema::{DataType, ElementKind, Schema, SchemaFormat, SchemaId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

#[test]
fn snapcell_readers_only_observe_published_versions_in_order() {
    const READERS: usize = 6;
    const VERSIONS: u64 = 2_000;

    let cell: Arc<SnapCell<u64>> = Arc::new(SnapCell::with_value(Arc::new(0)));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last: u64 = 0;
                let mut observed: HashSet<u64> = HashSet::new();
                let mut reads: u64 = 0;
                // Read before checking `done`, so every reader validates at
                // least one snapshot even if the writer finished before the
                // reader was first scheduled (single-core runners).
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let snap = cell.read().expect("cell starts published");
                    assert!(
                        *snap >= last,
                        "reader went back in time: {last} then {snap}"
                    );
                    last = *snap;
                    observed.insert(*snap);
                    reads += 1;
                    if stop {
                        break;
                    }
                }
                (observed, reads)
            })
        })
        .collect();

    for v in 1..=VERSIONS {
        cell.publish(Arc::new(v));
        if v % 64 == 0 {
            std::thread::yield_now();
        }
    }
    done.store(true, Ordering::Release);

    let published: HashSet<u64> = (0..=VERSIONS).collect();
    for r in readers {
        let (observed, reads) = r.join().expect("reader panicked");
        assert!(reads > 0, "reader made progress");
        assert!(
            observed.is_subset(&published),
            "reader observed values never published: {:?}",
            observed.difference(&published).collect::<Vec<_>>()
        );
    }
    // The final publish is visible once the writer is done.
    assert_eq!(*cell.read().unwrap(), VERSIONS);
}

fn schema(id: u32) -> Schema {
    let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Relational);
    let t = s.add_root(
        format!("Entity{}", id % 7),
        ElementKind::Table,
        DataType::None,
    );
    for col in ["id", "name", "created_at", "status"] {
        s.add_child(
            t,
            format!("{col}_{}", id % 5),
            ElementKind::Column,
            DataType::text(),
        )
        .unwrap();
    }
    s
}

#[test]
fn token_index_snapshots_stay_consistent_under_interleaved_registration() {
    const READERS: usize = 4;
    const WRITES: u32 = 60;
    const SEED_SCHEMAS: u32 = 8;

    let mut repo = MetadataRepository::new();
    for id in 0..SEED_SCHEMAS {
        repo.register_schema(schema(id));
    }
    // Publish the seed snapshot before readers start.
    assert_eq!(repo.token_index().len(), SEED_SCHEMAS as usize);

    let repo = Arc::new(RwLock::new(repo));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let repo = Arc::clone(&repo);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_len = 0usize;
                let mut reads = 0u64;
                // Read before checking `done` (see the test above).
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let index = repo.read().expect("repo lock").token_index();
                    // Internal consistency: the live count, the live slot
                    // list, and per-slot resolution all agree — a torn
                    // snapshot could not satisfy all three.
                    let live = index.live_slots();
                    assert_eq!(live.len(), index.len(), "live count vs slot list");
                    for &slot in &live {
                        assert!(
                            index.prepared(slot).is_some(),
                            "live slot lost its preparation"
                        );
                    }
                    // Registration-only workload: population never shrinks.
                    assert!(
                        index.len() >= last_len,
                        "snapshot went backwards: {last_len} then {}",
                        index.len()
                    );
                    last_len = index.len();
                    reads += 1;
                    if stop {
                        break;
                    }
                }
                reads
            })
        })
        .collect();

    for id in SEED_SCHEMAS..SEED_SCHEMAS + WRITES {
        repo.write().expect("repo lock").register_schema(schema(id));
        // Refresh (and publish) from this thread roughly every other write,
        // leaving the remaining refreshes to racing readers so both the
        // coalesced and first-caller refresh paths run.
        if id % 2 == 0 {
            repo.read().expect("repo lock").token_index();
        }
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0);
    }

    let final_index = repo.read().unwrap().token_index();
    assert_eq!(final_index.len(), (SEED_SCHEMAS + WRITES) as usize);
}
