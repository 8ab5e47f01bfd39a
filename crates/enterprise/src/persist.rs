//! Warm-start persistence of the repository's prepared features.
//!
//! Cold-starting a registry of 10⁴ schemata re-runs the full linguistic
//! pipeline (tokenization, abbreviation expansion, stemming, Soundex,
//! blocking features) on every element — by far the dominant cost of the
//! first query. This module serializes each schema's prepared elements —
//! exactly the normalizer *output*, as token lists and counts — to a
//! compact binary image, so a restarted process re-interns strings and
//! recomputes the cheap derived fields instead of re-normalizing.
//!
//! ## Format (version 2, little-endian)
//!
//! ```text
//! magic              8 B   b"SMREPIDX"
//! version            u32   2
//! shard_count        u32   ShardConfig::shards at save time
//! string table       u32 count, then per string: u32 len + UTF-8 bytes
//!                    + 1 role byte (bit 0: appears as a raw element name,
//!                    bit 1: appears as a normalized name token)
//! element table      u32 count, then per distinct element record:
//!                    raw-name table id, acronym table id,
//!                    name list, doc list,
//!                    parent token count + parent set,
//!                    children token count + children set,
//!                    block-feature list;
//!                    each list/set is u32 count + u32 table ids
//! schema count       u32
//! per schema:        schema id u32, fingerprint u64,
//!                    signature (u32 count + u32 table ids, in canonical
//!                    lexical-by-string order),
//!                    u32 count + u32 element-table references
//! checksum           u64   FNV-1a (64-bit folded) over every preceding byte
//! ```
//!
//! Name and doc lists keep normalization order and block features keep
//! resolved-string order. Parent and children sets are stored in the
//! saving process's id order, which means nothing after a restart, so the
//! loader re-sorts them; the token counts beside them keep the voters'
//! evidence with multiplicity.
//!
//! The writer walks interned ids only: its string table is keyed by
//! [`TokenId`] and resolves each distinct id once, when the table is
//! written. Every token string is stored **once** in the string table, and
//! every distinct element record **once** in the element table —
//! registries are massively repetitive at both granularities (the same
//! column under the same concept recurs across thousands of schema
//! variants), and a [`PreparedElement`] carries no schema-specific state,
//! so identical records reconstruct to one shared `Arc<PreparedElement>`.
//! At load the string table is interned into the process-wide
//! [`TokenArena`] in one pass — the table position → arena id remap —
//! every string-derived feature (char profile, token stats, Soundex key,
//! decoded chars) is memoized per distinct table string, and each distinct
//! element record is built exactly once; per-schema reconstruction is then
//! `Arc` clones plus integer-level schema-level views. Interned arena ids
//! are deliberately *not* stored: they are process-local (intern order
//! differs run to run), and everything score-relevant is ordered by
//! resolved string or re-sorted at load.
//!
//! Corruption (bad magic, unknown version — a version-1 image included —
//! truncation, checksum mismatch, invalid UTF-8, out-of-range table ids)
//! surfaces as [`std::io::ErrorKind::InvalidData`] — a damaged image falls
//! back to a cold start, never a wrong index.

use crate::shard::ShardConfig;
use harmony_core::prepare::{PreparedElement, PreparedSchema};
use sm_schema::SchemaId;
use sm_text::bounds::{id_signature, CharProfile, TokenStat};
use sm_text::intern::{to_sorted_set, TokenArena, TokenId};
use sm_text::normalize::TokenBag;
use sm_text::soundex::soundex_key;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SMREPIDX";
const VERSION: u32 = 2;

/// A loaded warm-start image.
#[derive(Debug)]
pub struct LoadedRegistry {
    /// Reconstructed preparations, in the order they were saved
    /// (registration order).
    pub prepared: Vec<Arc<PreparedSchema>>,
    /// The shard count the saving repository indexed with.
    pub shard_count: usize,
}

/// The trailer checksum: FNV-1a folded 64 bits at a stride (8-byte
/// little-endian words, byte-wise tail). Not interoperable with byte-wise
/// FNV-1a — it doesn't need to be, the format is ours and version-gated —
/// but ~8× faster over a multi-MB image, which matters when the whole load
/// budget is a fraction of a second.
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Table-entry role: the string appears as a raw element name somewhere, so
/// the loader must memoize its char decode, char profile, and Soundex key.
const ROLE_RAW: u8 = 1;
/// Table-entry role: the string appears as a normalized name token, so the
/// loader must memoize its [`TokenStat`].
const ROLE_NAME: u8 = 2;

/// Deduplicating string table builder keyed by interned id: first
/// appearance assigns the table position. Each entry accumulates the roles
/// it is referenced under, so the loader derives per-string features only
/// where some element will consume them (block-feature and documentation
/// vocabulary — most of the table — needs none).
#[derive(Default)]
struct TableBuilder {
    tokens: Vec<TokenId>,
    roles: Vec<u8>,
    ids: HashMap<TokenId, u32>,
}

impl TableBuilder {
    fn id(&mut self, token: TokenId, role: u8) -> u32 {
        let next = self.tokens.len() as u32;
        let id = *self.ids.entry(token).or_insert(next);
        if id == next {
            self.tokens.push(token);
            self.roles.push(0);
        }
        self.roles[id as usize] |= role;
        id
    }

    /// Append `tokens` to `out` as a u32 count plus table ids.
    fn put_list(&mut self, out: &mut Vec<u8>, tokens: &[TokenId], role: u8) {
        put_u32(out, tokens.len() as u32);
        for &t in tokens {
            put_u32(out, self.id(t, role));
        }
    }
}

/// Serialize `prepared` (plus the index shard count) to `path`. The image
/// is written atomically-enough for a cache: to a temp sibling first, then
/// renamed over `path`, so readers never observe a half-written file.
///
/// Every preparation must intern through one [`TokenArena`] (a registry's
/// always do); mixed arenas are rejected as
/// [`std::io::ErrorKind::InvalidInput`].
pub fn save_registry(
    path: &Path,
    prepared: &[Arc<PreparedSchema>],
    config: ShardConfig,
) -> io::Result<()> {
    let arena = prepared.first().map_or(TokenArena::global(), |p| p.arena());
    if let Some(p) = prepared.iter().find(|p| !Arc::ptr_eq(p.arena(), arena)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "schema {:?} interns through a different token arena",
                p.schema_id
            ),
        ));
    }
    // Stream schema records straight off the prepared elements' ids; token
    // strings are resolved once per distinct id, when the table is written.
    //
    // Elements are deduplicated by serialized body: registries repeat the
    // same columns across thousands of schema variants, so the element
    // table is typically an order of magnitude smaller than the element
    // count — and the loader reconstructs each distinct record once. The
    // string and element tables are written before the schema records but
    // discovered during the walk, so records land in side buffers that are
    // spliced in order once the walk is done.
    let mut table = TableBuilder::default();
    let mut element_bodies: Vec<u8> = Vec::new();
    let mut element_ids: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut n_distinct_elements: u32 = 0;
    let mut scratch: Vec<u8> = Vec::new();
    let mut records = Vec::new();
    put_u32(&mut records, prepared.len() as u32);
    for p in prepared {
        put_u32(&mut records, p.schema_id.0);
        put_u64(&mut records, p.fingerprint);
        // The schema signature, in its canonical order (distinct name
        // tokens sorted lexicographically by string). Lexical *string*
        // order is process-independent even though arena ids are not, so
        // the loader can reuse this order verbatim and skip a per-schema
        // dedup + string-compare sort — at 10⁴ schemata those dominated
        // warm-start schema assembly.
        table.put_list(&mut records, p.signature_ids(), 0);
        put_u32(&mut records, p.elements().len() as u32);
        for e in p.elements().iter() {
            scratch.clear();
            put_u32(&mut scratch, table.id(e.raw_name_id, ROLE_RAW));
            put_u32(&mut scratch, table.id(e.acronym_id, 0));
            table.put_list(&mut scratch, &e.name_ids, ROLE_NAME);
            table.put_list(&mut scratch, e.doc_ids(), 0);
            put_u32(&mut scratch, e.parent_len);
            table.put_list(&mut scratch, &e.parent_set, 0);
            put_u32(&mut scratch, e.children_len);
            table.put_list(&mut scratch, &e.children_set, 0);
            table.put_list(&mut scratch, &e.block_features, 0);
            // Table ids are assigned deterministically during this walk,
            // so identical element content serializes to identical bytes —
            // the body is its own dedup key.
            let eid = *element_ids.entry(scratch.clone()).or_insert_with(|| {
                element_bodies.extend_from_slice(&scratch);
                n_distinct_elements += 1;
                n_distinct_elements - 1
            });
            put_u32(&mut records, eid);
        }
    }

    let strings = arena.resolve_shared(&table.tokens);
    let mut out =
        Vec::with_capacity(records.len() + element_bodies.len() + 16 * strings.len() + 64);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, config.shards as u32);
    put_u32(&mut out, strings.len() as u32);
    for (s, &role) in strings.iter().zip(&table.roles) {
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
        out.push(role);
    }
    put_u32(&mut out, n_distinct_elements);
    out.extend_from_slice(&element_bodies);
    out.extend_from_slice(&records);
    let checksum = checksum64(&out);
    put_u64(&mut out, checksum);

    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, path)
}

/// Bounds-checked little-endian cursor over the image bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("warm-start image corrupt: {what}"),
    )
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` count with a sanity bound: a count cannot exceed the bytes
    /// remaining (each counted item is ≥ 1 byte in this format), so a
    /// corrupt length fails fast instead of attempting a huge allocation.
    fn count(&mut self) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(corrupt("implausible count"));
        }
        Ok(n)
    }

    /// A string-table id, range-checked.
    fn table_id(&mut self, table_len: usize) -> io::Result<u32> {
        let t = self.u32()?;
        if t as usize >= table_len {
            return Err(corrupt("token id out of range"));
        }
        Ok(t)
    }

    /// A u32 count plus that many range-checked string-table ids.
    fn table_list(&mut self, table_len: usize) -> io::Result<Vec<u32>> {
        let n = self.count()?;
        (0..n).map(|_| self.table_id(table_len)).collect()
    }

    /// The next `u32` of a record [`walk_element_record`] already
    /// validated.
    fn walked(&mut self) -> usize {
        self.u32().expect("record walked") as usize
    }

    /// The next id list of a walked record, remapped to arena ids.
    fn walked_ids(&mut self, remap: &[TokenId]) -> Vec<TokenId> {
        let n = self.walked();
        (0..n).map(|_| remap[self.walked()]).collect()
    }
}

/// Skip one element record, validating structure (counts, bounds, table id
/// range) so the parallel reconstruction pass can parse its byte extent
/// without failure paths. Returns the record's `(start, end)` within the
/// body.
fn walk_element_record(r: &mut Reader<'_>, table_len: usize) -> io::Result<(usize, usize)> {
    let start = r.pos;
    let skip_list = |r: &mut Reader<'_>| -> io::Result<()> {
        let n = r.count()?;
        (0..n).try_for_each(|_| r.table_id(table_len).map(drop))
    };
    r.table_id(table_len)?; // raw name
    r.table_id(table_len)?; // acronym
    skip_list(r)?; // name
    skip_list(r)?; // doc
    r.u32()?; // parent token count
    skip_list(r)?; // parent set
    r.u32()?; // children token count
    skip_list(r)?; // children set
    skip_list(r)?; // block features
    Ok((start, r.pos))
}

/// Everything the record parser needs per table entry, computed exactly once
/// per **distinct** string: the arena remap plus every string-derived
/// per-element feature. A registry has millions of token occurrences but only
/// thousands of distinct tokens, so deriving per occurrence (what cold
/// preparation inherently does — it has no table) is the dominant cost this
/// table removes from the warm path.
struct TableMemos {
    remap: Vec<TokenId>,
    /// The arena's own shared allocation of each table string — name bags
    /// are assembled by `Arc` clone, never by copying string bytes.
    arcs: Vec<Arc<str>>,
    stats: Vec<TokenStat>,
    profiles: Vec<CharProfile>,
    /// One decode per distinct string; every element holding that raw name
    /// shares the allocation (`PreparedElement::raw_chars` is `Arc<[char]>`).
    chars: Vec<Arc<[char]>>,
    soundex: Vec<Option<u32>>,
}

impl TableMemos {
    /// Derive only what some element will consume: `roles` marks which
    /// entries appear as raw names (chars / profile / Soundex) or name
    /// tokens (stats). Most of the table is block-feature and documentation
    /// vocabulary needing neither; unflagged entries get shared placeholders
    /// no element ever reads.
    fn build(table: &[&str], roles: &[u8], arena: &TokenArena) -> Self {
        let remap = arena.intern_all(table);
        let arcs = arena.resolve_shared(&remap);
        let no_chars: Arc<[char]> = Arc::from(&[][..]);
        let no_profile = CharProfile::of_chars(&[]);
        let no_stat = TokenStat::of("");
        let chars: Vec<Arc<[char]>> = table
            .iter()
            .zip(roles)
            .map(|(s, &f)| {
                if f & ROLE_RAW != 0 {
                    s.chars().collect()
                } else {
                    Arc::clone(&no_chars)
                }
            })
            .collect();
        TableMemos {
            stats: table
                .iter()
                .zip(roles)
                .map(|(s, &f)| {
                    if f & ROLE_NAME != 0 {
                        TokenStat::of(s)
                    } else {
                        no_stat
                    }
                })
                .collect(),
            profiles: chars
                .iter()
                .zip(roles)
                .map(|(c, &f)| {
                    if f & ROLE_RAW != 0 {
                        CharProfile::of_chars(c)
                    } else {
                        no_profile.clone()
                    }
                })
                .collect(),
            soundex: table
                .iter()
                .zip(roles)
                .map(|(s, &f)| {
                    if f & ROLE_RAW != 0 {
                        soundex_key(s)
                    } else {
                        None
                    }
                })
                .collect(),
            remap,
            arcs,
            chars,
        }
    }
}

/// Parse one walked (already-validated) element record straight into a
/// [`PreparedElement`]: ids via the remap, name tokens by `Arc` clone off
/// the memos, string-derived features by memo lookup. No hashing, no
/// string-byte copies, and no per-character analysis. Runs once per
/// **distinct** element record; every schema holding the record shares the
/// resulting `Arc`.
fn parse_element_record(bytes: &[u8], memos: &TableMemos) -> Arc<PreparedElement> {
    let remap = &memos.remap;
    let mut r = Reader { buf: bytes, pos: 0 };
    let raw = r.walked();
    let acronym = r.walked();

    let n_names = r.walked();
    let mut name_tokens = Vec::with_capacity(n_names);
    let mut name_ids = Vec::with_capacity(n_names);
    let mut name_token_stats = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        let t = r.walked();
        name_tokens.push(Arc::clone(&memos.arcs[t]));
        name_ids.push(remap[t]);
        name_token_stats.push(memos.stats[t]);
    }
    // The corpus document is name tokens then doc tokens, filled at exact
    // capacity.
    let n_docs = r.walked();
    let mut corpus_ids = Vec::with_capacity(n_names + n_docs);
    corpus_ids.extend_from_slice(&name_ids);
    for _ in 0..n_docs {
        corpus_ids.push(remap[r.walked()]);
    }
    // Sets were written in the saving process's id order; re-sort.
    let parent_len = r.walked() as u32;
    let parent_set = to_sorted_set(r.walked_ids(remap));
    let children_len = r.walked() as u32;
    let children_set = to_sorted_set(r.walked_ids(remap));
    let block_features = r.walked_ids(remap);

    let name_set = to_sorted_set(name_ids.clone());
    Arc::new(PreparedElement {
        name_sig: id_signature(&name_set),
        children_sig: id_signature(&children_set),
        corpus_sig: id_signature(&corpus_ids),
        raw_profile: memos.profiles[raw].clone(),
        name_token_stats,
        name_set,
        name_ids,
        raw_name_id: remap[raw],
        raw_chars: Arc::clone(&memos.chars[raw]),
        acronym_id: remap[acronym],
        raw_soundex: memos.soundex[raw],
        parent_set,
        parent_len,
        children_set,
        children_len,
        corpus_ids,
        block_features,
        name_bag: TokenBag {
            tokens: name_tokens,
        },
    })
}

/// Load a warm-start image saved by [`save_registry`], reconstructing the
/// preparations against the process-wide [`TokenArena`].
///
/// The string table is interned exactly once — the table-position → arena-id
/// remap — after which a serial validation pass walks the schema records
/// (bounds and table-id range checks only, no string work) and a parallel
/// pass parses each record's byte extent straight into prepared elements,
/// assembled via the hash-free
/// [`PreparedSchema::from_prepared_elements_presorted`] (the image carries
/// each schema's signature in canonical order). Per-token work in the hot
/// pass is an index into the remap plus an `Arc` clone — no hashing, no
/// arena lock, no string-byte copy — which is what keeps registry-scale
/// loads a small fraction of cold re-preparation.
pub fn load_registry(path: &Path) -> io::Result<LoadedRegistry> {
    let bytes = std::fs::read(path)?;

    if bytes.len() < MAGIC.len() + 8 {
        return Err(corrupt("too short"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().unwrap());
    if checksum64(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(corrupt("unsupported version"));
    }
    let shard_count = r.u32()? as usize;

    // Borrowed straight off the image bytes — the table is only read during
    // this load, so there is no reason to own 10⁵ short strings.
    let n_strings = r.count()?;
    let mut table: Vec<&str> = Vec::with_capacity(n_strings);
    let mut roles: Vec<u8> = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        let len = r.count()?;
        let s = std::str::from_utf8(r.take(len)?).map_err(|_| corrupt("invalid utf-8"))?;
        table.push(s);
        roles.push(r.take(1)?[0]);
    }

    let n_elem_records = r.count()?;
    let mut extents: Vec<(usize, usize)> = Vec::with_capacity(n_elem_records);
    for _ in 0..n_elem_records {
        extents.push(walk_element_record(&mut r, table.len())?);
    }

    let n_schemas = r.count()?;
    let mut schema_recs: Vec<(SchemaId, u64, Vec<u32>, Vec<u32>)> = Vec::with_capacity(n_schemas);
    for _ in 0..n_schemas {
        let id = SchemaId(r.u32()?);
        let fingerprint = r.u64()?;
        let sig = r.table_list(table.len())?;
        let n = r.count()?;
        let mut refs = Vec::with_capacity(n);
        for _ in 0..n {
            let e = r.u32()?;
            if e as usize >= n_elem_records {
                return Err(corrupt("element id out of range"));
            }
            refs.push(e);
        }
        schema_recs.push((id, fingerprint, sig, refs));
    }
    if r.pos != body.len() {
        return Err(corrupt("trailing bytes"));
    }

    // The table → arena remap plus every string-derived feature, computed
    // once per distinct table string: the only interning and the only
    // per-character analysis the whole load performs.
    let arena = TokenArena::global();
    let memos = TableMemos::build(&table, &roles, arena);

    // Each distinct element record is built exactly once; schemas assemble
    // by `Arc` clone. Registries repeat element content heavily across
    // schema variants, so this pass runs over the much smaller
    // deduplicated element table.
    let exec = harmony_core::exec::Executor::global();
    let elements: Vec<Arc<PreparedElement>> =
        exec.run_map(exec.threads(), &extents, |_idx, &(start, end)| {
            parse_element_record(&body[start..end], &memos)
        });

    let prepared = exec.run_map(exec.threads(), &schema_recs, |_idx, rec| {
        let signature_ids = rec.2.iter().map(|&t| memos.remap[t as usize]).collect();
        let elems = rec
            .3
            .iter()
            .map(|&e| Arc::clone(&elements[e as usize]))
            .collect();
        Arc::new(PreparedSchema::from_prepared_elements_presorted(
            rec.0,
            rec.1,
            elems,
            signature_ids,
            Arc::clone(arena),
        ))
    });
    Ok(LoadedRegistry {
        prepared,
        shard_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_core::prepare::default_normalizer;
    use sm_schema::{DataType, ElementKind, Schema, SchemaFormat, SchemaId};

    fn schema(id: u32) -> Schema {
        let mut s = Schema::new(SchemaId(id), format!("S{id}"), SchemaFormat::Relational);
        let t = s.add_root("Customer", ElementKind::Table, DataType::None);
        for name in ["customer_id", "firstName", "dob", "emailAddress"] {
            s.add_child(t, name, ElementKind::Column, DataType::varchar(64))
                .unwrap();
        }
        s
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sm_persist_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn round_trip_reconstructs_elements_exactly() {
        let arena = TokenArena::global();
        let prepared: Vec<Arc<PreparedSchema>> = (0..5)
            .map(|i| {
                Arc::new(PreparedSchema::build_with_arena(
                    &schema(i),
                    default_normalizer(),
                    Arc::clone(arena),
                ))
            })
            .collect();
        let path = tmp("round_trip");
        save_registry(&path, &prepared, ShardConfig::default()).unwrap();
        let loaded = load_registry(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.shard_count, ShardConfig::default().shards);
        assert_eq!(loaded.prepared.len(), prepared.len());
        for (l, p) in loaded.prepared.iter().zip(&prepared) {
            // Same process, same arena: reconstruction is exact down to ids.
            assert_eq!((l.schema_id, l.fingerprint), (p.schema_id, p.fingerprint));
            assert_eq!(l.signature_ids(), p.signature_ids());
            assert_eq!(l.elements(), p.elements());
            for i in 0..p.len() {
                assert_eq!(l.block_features_of(i), p.block_features_of(i));
            }
        }
    }

    #[test]
    fn preparations_from_a_foreign_arena_are_rejected() {
        let global = Arc::clone(TokenArena::global());
        let own = Arc::new(TokenArena::new());
        let prepared: Vec<Arc<PreparedSchema>> = [global, own]
            .into_iter()
            .enumerate()
            .map(|(i, arena)| {
                Arc::new(PreparedSchema::build_with_arena(
                    &schema(i as u32),
                    default_normalizer(),
                    arena,
                ))
            })
            .collect();
        let path = tmp("foreign_arena");
        let err = save_registry(&path, &prepared, ShardConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists());
    }

    #[test]
    fn corruption_is_invalid_data_not_garbage() {
        let arena = TokenArena::global();
        let prepared = vec![Arc::new(PreparedSchema::build_with_arena(
            &schema(9),
            default_normalizer(),
            Arc::clone(arena),
        ))];
        let path = tmp("corrupt");
        save_registry(&path, &prepared, ShardConfig::default()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip a byte mid-file: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_registry(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Truncation.
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = load_registry(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Bad magic.
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = load_registry(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_registry_round_trips() {
        let path = tmp("empty");
        save_registry(
            &path,
            &[],
            ShardConfig {
                shards: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let loaded = load_registry(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.shard_count, 3);
        assert!(loaded.prepared.is_empty());
    }
}
