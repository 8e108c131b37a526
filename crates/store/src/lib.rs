//! Content-addressed on-disk result store for Tartan campaigns.
//!
//! Every Tartan run is byte-deterministic (pinned RNG seeds, ordered
//! collection), so a run's result is fully determined by the canonical
//! rendering of its job: config, machine, software, params, seed, and the
//! stats schema version. This crate stores results keyed by the SHA-256 of
//! that rendering, which makes caching and robustness the same mechanism —
//! a cached entry can always be *verified* by re-executing the job and
//! comparing bytes.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/objects/<hh>/<hex64>.entry   committed entries (hh = first 2 hex chars)
//! <root>/tmp/                         in-flight writes (unique name, then rename)
//! <root>/quarantine/                  entries that failed integrity checks
//! ```
//!
//! Entry format (see `SCHEMA.md`): one JSON header line with the key, the
//! payload's own SHA-256, and the payload byte length, followed by the
//! payload verbatim. Reads re-hash the payload and cross-check every header
//! field; any mismatch (truncation, bit flips, wrong file name) moves the
//! entry to `quarantine/` and reports a miss, so the caller transparently
//! re-runs the job — the store self-heals instead of serving bad data.
//!
//! Writes go through a unique temp file in `tmp/` plus an atomic rename,
//! so a crash mid-write can never leave a half-written object visible.

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

mod sha256;

pub use sha256::{sha256_hex, Sha256};

/// Version tag written into every entry header; bump on format changes.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Monotonic counter making concurrent temp-file names unique within a
/// process; the pid makes them unique across processes sharing a store.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A store-layer error: always a path plus a single-line reason, matching
/// the scenario layer's `path: reason` diagnostic style.
#[derive(Debug)]
pub struct StoreError {
    /// File or directory the operation failed on.
    pub path: PathBuf,
    /// Single-line description of what went wrong.
    pub reason: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    fn new(path: &Path, reason: impl fmt::Display) -> StoreError {
        StoreError {
            path: path.to_path_buf(),
            reason: reason.to_string(),
        }
    }
}

/// Checks that `key` is exactly 64 lowercase hex characters (a SHA-256
/// digest as produced by [`sha256_hex`]).
fn validate_key(key: &str) -> Result<(), String> {
    if key.len() != 64 || !key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)) {
        return Err(format!(
            "invalid store key {key:?} (expected 64 lowercase hex characters)"
        ));
    }
    Ok(())
}

/// Per-handle operation counters, snapshot by [`ResultStore::counts`].
///
/// These count *this process's* traffic through one open handle since
/// [`ResultStore::open`] — they are campaign-lifetime counters for the
/// observability layer, not persisted store state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// Validated reads that returned a payload.
    pub hits: u64,
    /// Reads that found no (valid) entry — includes quarantined reads.
    pub misses: u64,
    /// Entries committed.
    pub puts: u64,
    /// Entries moved to `quarantine/` (integrity failures plus explicit
    /// [`ResultStore::quarantine`] calls that found a file).
    pub quarantines: u64,
}

/// On-disk content-addressed result store. See the crate docs for the
/// layout and integrity guarantees.
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    quarantines: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        let root = dir.into();
        for sub in ["objects", "tmp", "quarantine"] {
            let p = root.join(sub);
            fs::create_dir_all(&p).map_err(|e| StoreError::new(&p, e))?;
        }
        Ok(ResultStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        })
    }

    /// Snapshot of this handle's operation counters (see [`StoreCounts`]).
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, key: &str) -> PathBuf {
        self.root
            .join("objects")
            .join(&key[..2])
            .join(format!("{key}.entry"))
    }

    fn quarantine_path(&self, key: &str) -> PathBuf {
        // A timestampless unique name: repeated quarantines of the same key
        // (e.g. corrupt again after a re-put) must not collide.
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        self.root
            .join("quarantine")
            .join(format!("{key}.{}.{seq}.entry", std::process::id()))
    }

    /// Stores `payload` under `key`, atomically replacing any existing
    /// entry. `key` must be a 64-char lowercase hex digest.
    pub fn put(&self, key: &str, payload: &str) -> Result<(), StoreError> {
        validate_key(key).map_err(|e| StoreError::new(&self.root, e))?;
        let header = format!(
            "{{\"tartan_store\":{STORE_FORMAT_VERSION},\"key\":\"{key}\",\"payload_sha256\":\"{}\",\"payload_bytes\":{}}}\n",
            sha256_hex(payload.as_bytes()),
            payload.len(),
        );
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{key}.{}.{seq}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp).map_err(|e| StoreError::new(&tmp, e))?;
            f.write_all(header.as_bytes())
                .and_then(|()| f.write_all(payload.as_bytes()))
                .and_then(|()| f.sync_all())
                .map_err(|e| StoreError::new(&tmp, e))?;
        }
        let dest = self.object_path(key);
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent).map_err(|e| StoreError::new(parent, e))?;
        }
        fs::rename(&tmp, &dest).map_err(|e| StoreError::new(&dest, e))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks up `key`. Returns `Ok(Some(payload))` only when the entry
    /// exists *and* passes every integrity check (header parses, key
    /// matches the file, payload length and SHA-256 match). A corrupt or
    /// truncated entry is moved to `quarantine/` and reported as a miss
    /// (`Ok(None)`) so the caller re-runs the job; only genuine I/O errors
    /// surface as `Err`.
    pub fn get(&self, key: &str) -> Result<Option<String>, StoreError> {
        validate_key(key).map_err(|e| StoreError::new(&self.root, e))?;
        let path = self.object_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(StoreError::new(&path, e)),
        };
        match Self::decode(key, bytes) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(payload))
            }
            Err(why) => {
                eprintln!(
                    "tartan-store: {}: {why}; quarantining",
                    path.display()
                );
                self.quarantine(key)?;
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Validates an entry's raw bytes against `key` and extracts the
    /// payload, reusing the read buffer for it. Pure, so corruption tests
    /// can call it directly.
    fn decode(key: &str, mut bytes: Vec<u8>) -> Result<String, String> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated entry (no header line)")?;
        let header =
            std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8".to_string())?;
        let version = header_field(header, "\"tartan_store\":")
            .ok_or("header missing tartan_store version")?;
        if !is_format_version(version) {
            return Err(format!("unsupported store format version {version}"));
        }
        let header_key = header_field(header, "\"key\":\"").ok_or("header missing key")?;
        if header_key != key {
            return Err(format!("header key {header_key} does not match file name"));
        }
        let want_sha = header_field(header, "\"payload_sha256\":\"")
            .ok_or("header missing payload_sha256")?;
        let want_len: usize = header_field(header, "\"payload_bytes\":")
            .ok_or("header missing payload_bytes")?
            .parse()
            .map_err(|_| "payload_bytes is not a number".to_string())?;
        let payload = &bytes[nl + 1..];
        if payload.len() != want_len {
            return Err(format!(
                "payload is {} bytes, header says {want_len} (truncated or padded)",
                payload.len()
            ));
        }
        if sha256_hex(payload) != want_sha {
            return Err("payload SHA-256 mismatch (bit corruption)".into());
        }
        bytes.drain(..=nl);
        String::from_utf8(bytes).map_err(|_| "payload is not UTF-8".into())
    }

    /// Moves `key`'s entry (if present) into `quarantine/`. Returns whether
    /// an entry was actually moved.
    pub fn quarantine(&self, key: &str) -> Result<bool, StoreError> {
        validate_key(key).map_err(|e| StoreError::new(&self.root, e))?;
        let path = self.object_path(key);
        match fs::rename(&path, self.quarantine_path(key)) {
            Ok(()) => {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::new(&path, e)),
        }
    }

    /// Whether an entry file exists for `key` (no integrity check — use
    /// [`ResultStore::get`] for a validated read).
    pub fn contains(&self, key: &str) -> bool {
        validate_key(key).is_ok() && self.object_path(key).exists()
    }

    /// All committed keys, sorted, regardless of integrity.
    pub fn keys(&self) -> Result<Vec<String>, StoreError> {
        let objects = self.root.join("objects");
        let mut keys = Vec::new();
        let shards = fs::read_dir(&objects).map_err(|e| StoreError::new(&objects, e))?;
        for shard in shards {
            let shard = shard.map_err(|e| StoreError::new(&objects, e))?.path();
            if !shard.is_dir() {
                continue;
            }
            let entries = fs::read_dir(&shard).map_err(|e| StoreError::new(&shard, e))?;
            for entry in entries {
                let name = entry
                    .map_err(|e| StoreError::new(&shard, e))?
                    .file_name()
                    .to_string_lossy()
                    .into_owned();
                if let Some(key) = name.strip_suffix(".entry") {
                    if validate_key(key).is_ok() {
                        keys.push(key.to_string());
                    }
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Number of committed entries.
    pub fn len(&self) -> Result<usize, StoreError> {
        Ok(self.keys()?.len())
    }

    /// Whether the store holds no committed entries.
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Number of quarantined entry files.
    pub fn quarantined(&self) -> Result<usize, StoreError> {
        let dir = self.root.join("quarantine");
        let entries = fs::read_dir(&dir).map_err(|e| StoreError::new(&dir, e))?;
        let mut n = 0;
        for entry in entries {
            entry.map_err(|e| StoreError::new(&dir, e))?;
            n += 1;
        }
        Ok(n)
    }
}

/// Whether `text` is exactly the decimal rendering of
/// [`STORE_FORMAT_VERSION`] that `put` writes. `u32::from_str` also takes a
/// `+` sign and leading zeros; both make the text longer than the
/// rendering, so the length test rejects them.
fn is_format_version(text: &str) -> bool {
    let digits = STORE_FORMAT_VERSION.checked_ilog10().unwrap_or(0) as usize + 1;
    text.len() == digits && text.parse() == Ok(STORE_FORMAT_VERSION)
}

/// Extracts the value following `tag` in a single-line JSON header: up to
/// the next `"`, `,`, or `}`. Good enough for the fixed header this crate
/// itself writes; anything malformed fails decode and quarantines.
fn header_field<'a>(header: &'a str, tag: &str) -> Option<&'a str> {
    let start = header.find(tag)? + tag.len();
    let rest = &header[start..];
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(name: &str) -> (PathBuf, ResultStore) {
        let dir = std::env::temp_dir().join(format!(
            "tartan-store-test-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).expect("open store");
        (dir, store)
    }

    #[test]
    fn round_trip() {
        let (dir, store) = temp_store("round-trip");
        let key = sha256_hex(b"job one");
        let payload = "{\"robot\":\"DeliBot\"}\n{\"wall_cycles\":123}";
        store.put(&key, payload).unwrap();
        assert!(store.contains(&key));
        assert_eq!(store.get(&key).unwrap().as_deref(), Some(payload));
        assert_eq!(store.keys().unwrap(), vec![key.clone()]);
        assert_eq!(store.len().unwrap(), 1);
        assert_eq!(store.quarantined().unwrap(), 0);
        // Overwrite is atomic and idempotent.
        store.put(&key, payload).unwrap();
        assert_eq!(store.len().unwrap(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn miss_is_none() {
        let (dir, store) = temp_store("miss");
        let key = sha256_hex(b"absent");
        assert_eq!(store.get(&key).unwrap(), None);
        assert!(!store.contains(&key));
        assert!(store.is_empty().unwrap());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_bad_keys() {
        let (dir, store) = temp_store("bad-keys");
        for bad in ["", "abc", &"A".repeat(64), &"g".repeat(64)] {
            assert!(store.put(bad, "x").is_err(), "key {bad:?}");
            assert!(store.get(bad).is_err(), "key {bad:?}");
            assert!(!store.contains(bad), "key {bad:?}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn truncation_detected_and_quarantined() {
        let (dir, store) = temp_store("truncation");
        let key = sha256_hex(b"truncate me");
        store.put(&key, "a payload long enough to truncate").unwrap();
        let path = store.object_path(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        assert_eq!(store.get(&key).unwrap(), None, "truncated entry must miss");
        assert!(!store.contains(&key), "entry must be quarantined");
        assert_eq!(store.quarantined().unwrap(), 1);
        // Transparent re-run: a fresh put restores service.
        store.put(&key, "a payload long enough to truncate").unwrap();
        assert!(store.get(&key).unwrap().is_some());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn bit_flip_detected_and_quarantined() {
        let (dir, store) = temp_store("bit-flip");
        let key = sha256_hex(b"flip me");
        let payload = "payload with several bytes to corrupt";
        store.put(&key, payload).unwrap();
        let path = store.object_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip one bit in the payload tail
        fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get(&key).unwrap(), None, "corrupt entry must miss");
        assert_eq!(store.quarantined().unwrap(), 1);
        store.put(&key, payload).unwrap();
        assert_eq!(store.get(&key).unwrap().as_deref(), Some(payload));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn header_tamper_detected() {
        let (dir, store) = temp_store("header-tamper");
        let key = sha256_hex(b"tamper");
        store.put(&key, "payload").unwrap();
        let path = store.object_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        // Claim a different length than the payload actually has.
        let tampered = text.replacen("\"payload_bytes\":7", "\"payload_bytes\":9", 1);
        assert_ne!(text, tampered, "test must actually tamper");
        fs::write(&path, tampered).unwrap();
        assert_eq!(store.get(&key).unwrap(), None);
        assert_eq!(store.quarantined().unwrap(), 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn wrong_key_name_detected() {
        let (dir, store) = temp_store("wrong-name");
        let key_a = sha256_hex(b"a");
        let key_b = sha256_hex(b"b");
        store.put(&key_a, "payload a").unwrap();
        // Copy A's entry to B's name: the embedded key no longer matches.
        fs::create_dir_all(store.object_path(&key_b).parent().unwrap()).unwrap();
        fs::copy(store.object_path(&key_a), store.object_path(&key_b)).unwrap();
        assert_eq!(store.get(&key_b).unwrap(), None);
        assert_eq!(store.get(&key_a).unwrap().as_deref(), Some("payload a"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn operation_counters_track_hits_misses_puts_quarantines() {
        let (dir, store) = temp_store("counters");
        assert_eq!(store.counts(), StoreCounts::default());
        let key = sha256_hex(b"counted");
        // Miss on absent, then put + hit.
        assert_eq!(store.get(&key).unwrap(), None);
        store.put(&key, "payload to count").unwrap();
        assert!(store.get(&key).unwrap().is_some());
        assert_eq!(
            store.counts(),
            StoreCounts {
                hits: 1,
                misses: 1,
                puts: 1,
                quarantines: 0
            }
        );
        // Corrupt the entry: the next read quarantines and counts a miss.
        let path = store.object_path(&key);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(store.get(&key).unwrap(), None);
        assert_eq!(
            store.counts(),
            StoreCounts {
                hits: 1,
                misses: 2,
                puts: 1,
                quarantines: 1
            }
        );
        // Explicit quarantine of a missing entry counts nothing.
        assert!(!store.quarantine(&key).unwrap());
        assert_eq!(store.counts().quarantines, 1);
        // Counters are per-handle: a re-opened store starts at zero.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.counts(), StoreCounts::default());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn format_version_must_match_the_written_text_exactly() {
        let v = STORE_FORMAT_VERSION;
        assert!(is_format_version(&v.to_string()));
        let near_misses = [
            format!("+{v}"),
            format!("0{v}"),
            format!("{v}.0"),
            format!(" {v}"),
            (v + 1).to_string(),
            String::new(),
            "x".to_string(),
        ];
        for bad in &near_misses {
            assert!(!is_format_version(bad), "{bad:?}");
        }
        let key = sha256_hex(b"versioned");
        let entry = |version: &str| {
            format!(
                "{{\"tartan_store\":{version},\"key\":\"{key}\",\"payload_sha256\":\"{}\",\"payload_bytes\":2}}\nok",
                sha256_hex(b"ok")
            )
            .into_bytes()
        };
        assert_eq!(
            ResultStore::decode(&key, entry(&v.to_string())).as_deref(),
            Ok("ok")
        );
        assert_eq!(
            ResultStore::decode(&key, entry(&format!("0{v}"))),
            Err(format!("unsupported store format version 0{v}"))
        );
    }

    #[test]
    fn multi_line_payload_round_trips() {
        let (dir, store) = temp_store("multi-line");
        let key = sha256_hex(b"multi");
        let payload = "line one\nline two\n{\"json\":true}\n";
        store.put(&key, payload).unwrap();
        assert_eq!(store.get(&key).unwrap().as_deref(), Some(payload));
        let _ = fs::remove_dir_all(dir);
    }
}
