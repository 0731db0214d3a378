//! dmac-served kill-and-restart sweep (PR 6 satellite).
//!
//! A durable server (`data_dir` set) must:
//!
//! * recover its named tenant matrices **bit-for-bit** and re-warm its
//!   plan cache from persisted scripts after a clean restart;
//! * survive the classic crash window — blobs written, manifest not
//!   published (modelled by deleting the newest manifest out from under
//!   the `CURRENT` pointer) — by falling back to the previous snapshot;
//! * detect truncated block files and corrupt checksums at recovery
//!   and cleanly degrade to an older snapshot or an empty store, then
//!   keep serving new work normally.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmac::serve::{Client, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "dmac-serve-restart-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn durable_server(dir: &Path) -> Server {
    Server::start(ServerConfig {
        pool: 1,
        data_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// `X = (B·B) ∘ B` from a seeded random B — no loads, so its plan-cache
/// key is stable across restarts and its value is seed-deterministic.
const STORE_X: &str = "B = random(B, 48, 48)\nC = B %*% B\nX = C * B\nstore(X)\n";
/// A second tenant matrix under a different name.
const STORE_Y: &str = "R = random(R, 32, 32)\nY = R + R\nstore(Y)\n";

fn u64_at(stats: &dmac::cluster::jsonin::Json, path: &[&str]) -> u64 {
    let mut v = stats;
    for k in path {
        v = v.get(k).unwrap_or_else(|| panic!("stats missing {k}"));
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

#[test]
fn restart_recovers_matrices_and_plan_cache_bit_for_bit() {
    let dir = temp_dir("clean");

    // First life: store two matrices, remember X's exact bits.
    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let first = cli.submit("t1", STORE_X, None).expect("store X");
    assert!(!first.plan_cached);
    cli.submit("t1", STORE_Y, None).expect("store Y");
    let (rows, cols, bits) = cli.fetch("X").expect("fetch X");
    let stats = cli.stats().expect("stats");
    assert_eq!(u64_at(&stats, &["durability", "recovered"]), 0);
    assert!(u64_at(&stats, &["durability", "checkpoints"]) >= 2);
    assert_eq!(u64_at(&stats, &["durability", "persist_errors"]), 0);
    cli.shutdown().expect("shutdown");
    server.wait();

    // Second life over the same directory.
    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let stats = cli.stats().expect("stats");
    assert_eq!(
        stats
            .get("durability")
            .and_then(|d| d.get("enabled"))
            .and_then(|b| b.as_bool()),
        Some(true)
    );
    assert_eq!(u64_at(&stats, &["durability", "recovered"]), 2, "X and Y");
    assert!(
        u64_at(&stats, &["durability", "plans_warmed"]) >= 2,
        "both submitted scripts must re-warm the plan cache"
    );

    // Recovered matrix is bit-for-bit what the first life served.
    let (r2, c2, b2) = cli.fetch("X").expect("fetch recovered X");
    assert_eq!((r2, c2), (rows, cols));
    assert_eq!(b2, bits, "recovered X must be bit-identical");

    // Resubmitting the same script hits the warmed cache and produces
    // the identical trace digest.
    let again = cli.submit("t1", STORE_X, None).expect("resubmit X");
    assert!(again.plan_cached, "restart must re-warm the plan cache");
    assert_eq!(again.golden_fnv, first.golden_fnv);

    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn crash_between_blob_write_and_manifest_publish_falls_back() {
    let dir = temp_dir("torn-publish");

    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    cli.submit("t1", STORE_X, None).expect("store X");
    cli.submit("t1", STORE_Y, None).expect("store Y");
    let (_, _, bits) = cli.fetch("X").expect("fetch X");
    cli.shutdown().expect("shutdown");
    server.wait();

    // Model the crash window: the newest manifest never became durable,
    // while its blobs (and the CURRENT pointer naming it) did.
    let newest = {
        let mut manifests: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("manifest-"))
            })
            .collect();
        manifests.sort();
        manifests.pop().expect("at least one manifest")
    };
    fs::remove_file(&newest).unwrap();

    let server = durable_server(&dir);
    let mut cli = Client::connect(server.addr()).expect("connect");
    let stats = cli.stats().expect("stats");
    assert_eq!(
        u64_at(&stats, &["durability", "recovered"]),
        2,
        "previous snapshot still holds X and Y"
    );
    let (_, _, b2) = cli.fetch("X").expect("fetch X after torn publish");
    assert_eq!(b2, bits, "fallback snapshot must serve identical bits");
    cli.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn truncated_and_corrupt_blobs_degrade_cleanly() {
    for (tag, wreck) in [
        (
            "truncate",
            (|data: &mut Vec<u8>| {
                data.truncate(data.len() / 2);
            }) as fn(&mut Vec<u8>),
        ),
        ("corrupt", |data: &mut Vec<u8>| {
            let mid = data.len() / 2;
            data[mid] ^= 0xA5;
        }),
    ] {
        let dir = temp_dir(&format!("wreck-{tag}"));

        let server = durable_server(&dir);
        let mut cli = Client::connect(server.addr()).expect("connect");
        cli.submit("t1", STORE_X, None).expect("store X");
        cli.shutdown().expect("shutdown");
        server.wait();

        // Every block file is damaged: no snapshot can verify.
        for entry in fs::read_dir(dir.join("blocks")).unwrap().flatten() {
            let path = entry.path();
            let mut data = fs::read(&path).unwrap();
            wreck(&mut data);
            fs::write(&path, data).unwrap();
        }

        // The server must still start — with an empty store — and serve.
        let server = durable_server(&dir);
        let mut cli = Client::connect(server.addr()).expect("connect");
        let stats = cli.stats().expect("stats");
        assert_eq!(
            u64_at(&stats, &["durability", "recovered"]),
            0,
            "{tag}: damaged blobs must not recover"
        );
        let err = cli.fetch("X").expect_err("X must be gone");
        assert!(err.to_string().contains("unbound"), "{tag}: {err}");
        // New work proceeds normally and re-establishes durability.
        cli.submit("t1", STORE_X, None)
            .unwrap_or_else(|e| panic!("{tag}: resubmit after damage: {e}"));
        let (_, _, bits) = cli.fetch("X").expect("fetch rebuilt X");
        assert!(!bits.is_empty());
        cli.shutdown().expect("shutdown");
        server.wait();
    }
}
