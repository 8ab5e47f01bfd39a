//! Fault injection against the warm-start image loader
//! (`sm_enterprise::persist::load_registry`).
//!
//! The loader's contract is absolute: a damaged image surfaces as
//! `io::ErrorKind::InvalidData` — never a panic, never a silently wrong
//! registry. These tests attack every layer of the format: byte flips in
//! each section (caught by the checksum), truncation at every stride
//! (caught by the length guard or the checksum), and *structural*
//! corruption with a correctly recomputed trailer (caught by the parser's
//! own bounds checks: magic, version, shard count, counts, table-id ranges,
//! UTF-8, trailing bytes). A torn tmp+rename crash must leave the previous image
//! loadable.

use harmony_core::prepare::{default_normalizer, PreparedSchema};
use sm_enterprise::persist::{load_registry, save_registry};
use sm_enterprise::shard::ShardConfig;
use sm_schema::{DataType, ElementKind, Schema, SchemaFormat, SchemaId};
use sm_text::intern::TokenArena;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn schema(id: u32) -> Schema {
    let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Relational);
    let t = s.add_root("Customer", ElementKind::Table, DataType::None);
    for name in ["customer_id", "firstName", "dob", "emailAddress", "zip"] {
        s.add_child(t, name, ElementKind::Column, DataType::varchar(64))
            .unwrap();
    }
    let o = s.add_root("Order", ElementKind::Table, DataType::None);
    for name in ["order_id", "customer_id", "total_amount"] {
        s.add_child(o, name, ElementKind::Column, DataType::Integer)
            .unwrap();
    }
    s
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sm_faults_{}_{name}.bin", std::process::id()))
}

/// A pristine saved image plus its bytes.
fn saved_image(name: &str) -> (PathBuf, Vec<u8>) {
    let arena = TokenArena::global();
    let prepared: Vec<Arc<PreparedSchema>> = (0..4)
        .map(|i| {
            Arc::new(PreparedSchema::build_with_arena(
                &schema(i),
                default_normalizer(),
                Arc::clone(arena),
            ))
        })
        .collect();
    let path = tmp(name);
    save_registry(&path, &prepared, ShardConfig::default()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

/// The trailer checksum, re-implemented from the documented format
/// (FNV-1a folded 64 bits at an 8-byte stride, byte-wise tail) so
/// structural corruptions can carry a *valid* trailer and exercise the
/// parser's own guards rather than the checksum.
fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().unwrap());
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Replace the 8-byte trailer with a checksum matching the (possibly
/// doctored) body, so only structural validation can reject the image.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body_len = bytes.len() - 8;
    let sum = checksum64(&bytes[..body_len]);
    bytes.truncate(body_len);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

fn expect_invalid(path: &Path, what: &str) {
    let err = load_registry(path).unwrap_err();
    assert_eq!(
        err.kind(),
        ErrorKind::InvalidData,
        "{what}: wrong error kind: {err}"
    );
}

#[test]
fn sanity_pristine_image_loads() {
    let (path, bytes) = saved_image("sanity");
    // The re-implemented checksum matches the writer's.
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
    assert_eq!(
        checksum64(&bytes[..body_len]),
        stored,
        "checksum spec drift"
    );
    let loaded = load_registry(&path).unwrap();
    assert_eq!(loaded.prepared.len(), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_strided_truncation_is_invalid_data() {
    let (path, bytes) = saved_image("trunc");
    // Every prefix at a coarse stride, plus the boundaries the parser
    // special-cases (empty, sub-header, just-missing-the-trailer).
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(11).collect();
    cuts.extend([0, 1, 7, 8, 15, 16, bytes.len() - 8, bytes.len() - 1]);
    for cut in cuts {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        expect_invalid(&path, &format!("truncated to {cut} bytes"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_strided_byte_flip_is_invalid_data() {
    let (path, bytes) = saved_image("flip");
    // Without resealing, any flipped bit — header, tables, records, or the
    // trailer itself — must fail the checksum comparison. Dense over the
    // header, strided over the rest to bound runtime.
    let mut offsets: Vec<usize> = (0..bytes.len().min(64)).collect();
    offsets.extend((64..bytes.len()).step_by(13));
    for off in offsets {
        let mut doctored = bytes.clone();
        doctored[off] ^= 0x5A;
        std::fs::write(&path, &doctored).unwrap();
        expect_invalid(&path, &format!("byte {off} flipped"));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resealed_structural_corruption_is_invalid_data() {
    let (path, bytes) = saved_image("structural");

    // Bad magic, valid checksum.
    let mut doctored = bytes.clone();
    doctored[0] = b'Z';
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "bad magic");

    // Unknown version (offset 8).
    let mut doctored = bytes.clone();
    doctored[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "unsupported version");

    // Implausible shard count (offset 12): a warm start would build that
    // many shards, so it must fail here, not as a ~100 GB allocation.
    let mut doctored = bytes.clone();
    doctored[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "implausible shard count");

    // Implausible string-table count (offset 16): must fail fast, not
    // attempt a multi-GB allocation.
    let mut doctored = bytes.clone();
    doctored[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "implausible count");

    // Zero out the string table count while leaving the rest of the image:
    // every downstream table id is now out of range (or the stream
    // misaligns) — either way, InvalidData.
    let mut doctored = bytes.clone();
    doctored[16..20].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "emptied string table");

    // Invalid UTF-8 inside the first table string (len at 20, bytes at 24).
    let first_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    assert!(first_len > 0, "test schema yields non-empty table strings");
    let mut doctored = bytes.clone();
    doctored[24] = 0xFF;
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "invalid utf-8");

    // Trailing garbage between the records and the trailer.
    let mut doctored = bytes.clone();
    let trailer_at = doctored.len() - 8;
    doctored.splice(trailer_at..trailer_at, [0u8; 3]);
    std::fs::write(&path, reseal(doctored)).unwrap();
    expect_invalid(&path, "trailing bytes");

    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_tmp_write_leaves_previous_image_loadable() {
    let (path, bytes) = saved_image("torn");

    // A crash mid-save leaves a garbage `.tmp` sibling but never touches
    // the published image (rename is the commit point).
    let tmp_sibling = path.with_extension("tmp");
    std::fs::write(&tmp_sibling, &bytes[..bytes.len() / 3]).unwrap();
    let loaded = load_registry(&path).unwrap();
    assert_eq!(
        loaded.prepared.len(),
        4,
        "old image intact despite torn tmp"
    );

    // A fresh save overwrites the stale tmp and republishes cleanly.
    let arena = TokenArena::global();
    let prepared = vec![Arc::new(PreparedSchema::build_with_arena(
        &schema(77),
        default_normalizer(),
        Arc::clone(arena),
    ))];
    save_registry(&path, &prepared, ShardConfig::default()).unwrap();
    assert!(!tmp_sibling.exists(), "tmp consumed by the rename");
    let reloaded = load_registry(&path).unwrap();
    assert_eq!(reloaded.prepared.len(), 1);

    // If the *published* file itself is a torn prefix (e.g. a copy crashed
    // halfway), the loader reports InvalidData rather than panicking.
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();
    expect_invalid(&path, "torn published image");

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp_sibling).ok();
}
