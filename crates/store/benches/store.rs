//! Microbenchmarks for the store's read path: hashing and a warm `get`.
//!
//! * `sha256_hex_64b`, `sha256_hex_1k`, `sha256_hex_16k` — one
//!   `sha256_hex` call on 64 B (a one-block message plus its padding
//!   block), 1 KiB (about one cached stats record) and 16 KiB inputs.
//! * `get_warm` — one validated `ResultStore::get` of a 1 KiB payload whose
//!   entry file sits in the OS page cache: open, read, header checks, the
//!   payload re-hash, and the UTF-8 check.
//!
//! Host wall time per iteration is the figure of merit. `cargo bench -p
//! tartan-store` runs these through the in-tree criterion shim; the store
//! lives in a fresh directory under the system temp dir and is removed
//! afterwards.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tartan_store::{sha256_hex, ResultStore};

/// Deterministic, JSON-ish bytes of length `len`.
fn payload(len: usize) -> String {
    let text = "{\"robot\":\"DeliBot\",\"wall_cycles\":1234567,\"l2_hit_rate\":0.8125},";
    text.chars().cycle().take(len).collect()
}

fn hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(20_000);
    for (name, len) in [
        ("sha256_hex_64b", 64),
        ("sha256_hex_1k", 1024),
        ("sha256_hex_16k", 16 * 1024),
    ] {
        let data = payload(len);
        group.bench_function(name, |b| b.iter(|| sha256_hex(black_box(data.as_bytes()))));
    }
    group.finish();
}

fn get_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(20_000);
    let dir = std::env::temp_dir().join(format!("tartan-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("bench store opens in the temp dir");
    let key = sha256_hex(b"bench job");
    let body = payload(1024);
    store.put(&key, &body).expect("bench entry commits");
    assert_eq!(
        store.get(&key).expect("warm-up read").as_deref(),
        Some(body.as_str())
    );
    group.bench_function("get_warm", |b| {
        b.iter(|| store.get(black_box(&key)).expect("entry reads back"))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, hashing, get_warm);
criterion_main!(benches);
