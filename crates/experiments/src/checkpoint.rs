//! Compact binary shard-result store for the fleet-scale yield executor.
//!
//! A fleet campaign splits its die population into fixed-size shards and
//! reduces each shard to a tiny integer aggregate (per-scheme histograms of
//! minimum-operational-voltage grid indices plus dead-die counts — see
//! [`crate::fleet`]). This module persists those aggregates so an interrupted
//! campaign can resume without recomputing finished shards, and so a resumed
//! run is **bit-identical** to an uninterrupted one: the on-disk payload is
//! exactly the integer state the in-memory reduction would have produced.
//!
//! # On-disk format (`shard-NNNNNNNN.vfs`)
//!
//! One little-endian binary record per shard, all fields `u64` except the
//! 4-byte magic:
//!
//! ```text
//! offset  field
//! 0       magic  "VFS1"
//! 4       format version (currently 1)
//! 12      campaign fingerprint (FNV-1a over the campaign parameters)
//! 20      shard index
//! 28      first die of the shard
//! 36      number of dies in the shard
//! 44      scheme count S
//! 52      grid length G
//! 60      S x (dead count, then G histogram counts)
//! ...     FNV-1a checksum of every preceding byte
//! ```
//!
//! Writes are atomic (temp file + rename), so a shard file either holds a
//! complete record or does not exist. Loads are strict: a missing file, a
//! short file, a bad magic/version/checksum, a fingerprint/shape mismatch,
//! or counts that do not add up (per scheme, the dead count plus the
//! histogram must equal the shard's die count, without overflow) all yield
//! `Ok(None)` — the shard is simply recomputed. The FNV-1a checksum catches
//! accidents, not tampering, so the counts are checked on their own.
//! Corruption can cost work, never correctness.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes opening every shard record.
const MAGIC: [u8; 4] = *b"VFS1";
/// Current format version.
const VERSION: u64 = 1;
/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the fingerprint and checksum hash. Deterministic,
/// dependency-free and stable across platforms.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The aggregate a finished shard reduces to: everything the campaign needs
/// from its dies, in a few hundred bytes regardless of shard size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Position of the shard in the campaign's shard sequence.
    pub shard_index: u64,
    /// Index of the shard's first die in the population.
    pub die_start: u64,
    /// Number of dies the shard covers.
    pub die_count: u64,
    /// Per scheme (registry order), per grid index (highest voltage first):
    /// how many dies have that grid voltage as their minimum operational
    /// voltage.
    pub hist: Vec<Vec<u64>>,
    /// Per scheme: how many dies are dead (not operational even at the top of
    /// the grid).
    pub dead: Vec<u64>,
}

impl ShardRecord {
    /// Serializes the record (without checksum framing).
    fn encode_body(&self, fingerprint: u64) -> Vec<u8> {
        let schemes = self.hist.len() as u64;
        let grid_len = self.hist.first().map_or(0, Vec::len) as u64;
        let mut out = Vec::with_capacity(
            MAGIC.len() + 8 * (7 + self.hist.len() * (1 + grid_len as usize)),
        );
        out.extend_from_slice(&MAGIC);
        for field in [
            VERSION,
            fingerprint,
            self.shard_index,
            self.die_start,
            self.die_count,
            schemes,
            grid_len,
        ] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        for (counts, &dead) in self.hist.iter().zip(&self.dead) {
            out.extend_from_slice(&dead.to_le_bytes());
            for &c in counts {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

/// Reads the little-endian `u64` at byte offset `*pos`, advancing the cursor.
fn take_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let chunk: [u8; 8] = bytes.get(*pos..end)?.try_into().ok()?;
    *pos = end;
    Some(u64::from_le_bytes(chunk))
}

/// Decodes a shard record, returning `None` on any structural problem: short
/// buffer, bad magic/version/checksum, wrong fingerprint, a shape that
/// disagrees with the expected scheme/grid dimensions, or a scheme whose
/// dead count and histogram do not sum to the die count in `u64`.
fn decode(bytes: &[u8], fingerprint: u64, schemes: usize, grid_len: usize) -> Option<ShardRecord> {
    let body_len = bytes.len().checked_sub(8)?;
    let (body, checksum_bytes) = bytes.split_at(body_len);
    let checksum: [u8; 8] = checksum_bytes.try_into().ok()?;
    if u64::from_le_bytes(checksum) != fnv1a64(body) {
        return None;
    }
    if body.get(..MAGIC.len())? != MAGIC {
        return None;
    }
    let mut pos = MAGIC.len();
    if take_u64(body, &mut pos)? != VERSION {
        return None;
    }
    if take_u64(body, &mut pos)? != fingerprint {
        return None;
    }
    let shard_index = take_u64(body, &mut pos)?;
    let die_start = take_u64(body, &mut pos)?;
    let die_count = take_u64(body, &mut pos)?;
    if take_u64(body, &mut pos)? != schemes as u64 {
        return None;
    }
    if take_u64(body, &mut pos)? != grid_len as u64 {
        return None;
    }
    let mut hist = Vec::with_capacity(schemes);
    let mut dead = Vec::with_capacity(schemes);
    for _ in 0..schemes {
        dead.push(take_u64(body, &mut pos)?);
        let mut counts = Vec::with_capacity(grid_len);
        for _ in 0..grid_len {
            counts.push(take_u64(body, &mut pos)?);
        }
        hist.push(counts);
    }
    if pos != body.len() {
        return None;
    }
    let consistent = hist.iter().zip(&dead).all(|(counts, &dead)| {
        counts.iter().try_fold(dead, |sum, &c| sum.checked_add(c)) == Some(die_count)
    });
    if !consistent {
        return None;
    }
    Some(ShardRecord {
        shard_index,
        die_start,
        die_count,
        hist,
        dead,
    })
}

/// A directory of shard records belonging to one campaign, keyed by a
/// parameter fingerprint so a checkpoint directory can never leak results
/// between campaigns with different parameters.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Opens (creating if necessary) a checkpoint directory for a campaign
    /// with the given parameter fingerprint.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn open(dir: &Path, fingerprint: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            fingerprint,
        })
    }

    /// The campaign fingerprint the store validates records against.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The on-disk path of shard `index`.
    #[must_use]
    pub fn shard_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("shard-{index:08}.vfs"))
    }

    /// Persists a finished shard atomically: the record is written to a
    /// temporary file in the same directory and renamed into place, so
    /// `shard_path(index)` never holds a partial record.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the file.
    pub fn save(&self, record: &ShardRecord) -> io::Result<()> {
        let mut bytes = record.encode_body(self.fingerprint);
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        let tmp = self.dir.join(format!("shard-{:08}.tmp", record.shard_index));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.shard_path(record.shard_index))
    }

    /// Loads shard `index` if a complete, matching record exists.
    ///
    /// Returns `Ok(None)` when the file is missing or fails *any* validation
    /// (magic, version, checksum, fingerprint, shard index, or the expected
    /// scheme-count/grid-length shape): invalid checkpoints are recomputed,
    /// not trusted.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than "file not found" (e.g. permission
    /// problems), so a genuinely unreadable checkpoint directory is loud.
    pub fn load(
        &self,
        index: u64,
        schemes: usize,
        grid_len: usize,
    ) -> io::Result<Option<ShardRecord>> {
        let bytes = match fs::read(self.shard_path(index)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(decode(&bytes, self.fingerprint, schemes, grid_len)
            .filter(|record| record.shard_index == index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ShardRecord {
        ShardRecord {
            shard_index: 3,
            die_start: 96,
            die_count: 32,
            hist: vec![vec![5, 0, 27], vec![1, 2, 3]],
            dead: vec![0, 26],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vccmin-checkpoint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_is_lossless() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::open(&dir, 0xfeed).unwrap();
        let rec = record();
        store.save(&rec).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), Some(rec));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_shard_is_none_not_error() {
        let dir = temp_dir("missing");
        let store = CheckpointStore::open(&dir, 1).unwrap();
        assert_eq!(store.load(7, 2, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let dir = temp_dir("fingerprint");
        let store = CheckpointStore::open(&dir, 0xaaaa).unwrap();
        store.save(&record()).unwrap();
        let other = CheckpointStore::open(&dir, 0xbbbb).unwrap();
        assert_eq!(other.load(3, 2, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let dir = temp_dir("shape");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&record()).unwrap();
        assert_eq!(store.load(3, 2, 4).unwrap(), None);
        assert_eq!(store.load(3, 3, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_bytes_are_rejected() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&record()).unwrap();
        let path = store.shard_path(3);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one histogram bit: the checksum must catch it.
        bytes[70] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), None);
        // Truncation is caught too.
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_index_must_match_the_file_name_slot() {
        let dir = temp_dir("slot");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        store.save(&record()).unwrap();
        // A record copied into the wrong slot is treated as invalid.
        fs::copy(store.shard_path(3), store.shard_path(4)).unwrap();
        assert_eq!(store.load(4, 2, 3).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counts_that_do_not_add_up_are_rejected() {
        let dir = temp_dir("counts");
        let store = CheckpointStore::open(&dir, 5).unwrap();
        // A well-formed, correctly checksummed record whose second scheme
        // accounts for 33 dies out of 32.
        let mut short = record();
        short.dead[1] += 1;
        store.save(&short).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), None);
        // Counts that only add up modulo 2^64.
        let mut wrapped = record();
        wrapped.hist[0] = vec![u64::MAX, 1, 32];
        wrapped.dead[0] = 0;
        store.save(&wrapped).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), None);
        // The consistent record still loads.
        store.save(&record()).unwrap();
        assert_eq!(store.load(3, 2, 3).unwrap(), Some(record()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
