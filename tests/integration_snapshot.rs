//! Snapshot persistence integration suite: a graph reloaded from its binary
//! snapshot must be indistinguishable from the freshly built one at every
//! level — raw match lists, full engine runs (Spec-QP and TriniT), and the
//! concurrent service booted via `QueryService::from_snapshot` — because the
//! snapshot freezes the *same* posting lists the builder produced, term ids
//! included.

use datagen::{XkgConfig, XkgGenerator};
use kgstore::snapshot::{load_snapshot, read_snapshot, save_snapshot, write_snapshot};
use kgstore::PatternKey;
use operators::PartialAnswer;
use specqp::Engine;
use specqp_common::{Error, SnapshotError};
use specqp_service::{QueryService, Request, ServiceConfig};
use std::sync::Arc;

fn small_xkg() -> datagen::Dataset {
    let mut c = XkgConfig::small(0x5eed001);
    c.queries = 8;
    XkgGenerator::new(c).generate()
}

fn assert_identical_answers(a: &[PartialAnswer], b: &[PartialAnswer], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: answer count differs");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.binding, y.binding, "{ctx}: binding {i} differs");
        assert_eq!(x.score, y.score, "{ctx}: score {i} differs (bit-exact)");
    }
}

#[test]
fn reloaded_graph_matches_all_pattern_lists() {
    let ds = small_xkg();
    let g2 = read_snapshot(&write_snapshot(&ds.graph)).unwrap();
    assert_eq!(g2.len(), ds.graph.len());
    // Every pattern the workload touches answers with identical id/score
    // sequences — posting order included, since nothing was re-sorted.
    for q in &ds.workload.queries {
        for p in q.patterns() {
            let (s, pp, o) = p.const_parts();
            let key = PatternKey { s, p: pp, o };
            let (m1, m2) = (ds.graph.matches(key), g2.matches(key));
            assert_eq!(m1.len(), m2.len(), "{key:?}");
            for r in 0..m1.len() {
                assert_eq!(m1.id_at(r), m2.id_at(r), "{key:?} rank {r}");
                assert_eq!(m1.score_at(r), m2.score_at(r), "{key:?} rank {r}");
            }
        }
    }
}

#[test]
fn engine_runs_identically_on_snapshot_graph() {
    let ds = small_xkg();
    let g2 = read_snapshot(&write_snapshot(&ds.graph)).unwrap();
    let built = Engine::new(&ds.graph, &ds.registry);
    let loaded = Engine::new(&g2, &ds.registry);
    for (qi, q) in ds.workload.queries.iter().enumerate() {
        for k in [1, 5, 10] {
            let a = built.run_specqp(q, k);
            let b = loaded.run_specqp(q, k);
            assert_identical_answers(&a.answers, &b.answers, &format!("specqp q{qi} k{k}"));
            let a = built.run_trinit(q, k);
            let b = loaded.run_trinit(q, k);
            assert_identical_answers(&a.answers, &b.answers, &format!("trinit q{qi} k{k}"));
        }
    }
}

#[test]
fn service_boots_from_snapshot_file() {
    let ds = small_xkg();
    let path = std::env::temp_dir().join(format!(
        "specqp_integration_snapshot_{}.snap",
        std::process::id()
    ));
    save_snapshot(&ds.graph, &path).unwrap();

    let queries = ds.workload.queries.clone();
    let registry = Arc::new(ds.registry);
    let direct = QueryService::new(
        Arc::new(ds.graph),
        registry.clone(),
        ServiceConfig::with_threads(3),
    );
    let booted = QueryService::from_snapshot(&path, registry, ServiceConfig::with_threads(3))
        .expect("snapshot boot");
    for (i, q) in queries.iter().enumerate() {
        let answers = |service: &QueryService| {
            let ticket = service.submit(Request::new(q.clone(), 10)).unwrap();
            ticket.wait().outcome.expect("query executed").answers
        };
        assert_identical_answers(&answers(&direct), &answers(&booted), &format!("query {i}"));
    }
    std::fs::remove_file(&path).ok();
}

/// Readers accept exactly the version they write: an image whose version
/// field says 1 is refused up front, before its checksum or sections are
/// looked at.
#[test]
fn v1_version_field_is_unsupported() {
    let mut bytes = write_snapshot(&small_xkg().graph);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    match read_snapshot(&bytes) {
        Err(Error::Snapshot(SnapshotError::UnsupportedVersion { found: 1, .. })) => {}
        Err(e) => panic!("expected UnsupportedVersion {{ found: 1 }}, got {e:?}"),
        Ok(_) => panic!("a version-1 image must not load"),
    }
}

/// Every v2 section offset is 8-byte aligned in a real workload-sized
/// snapshot, so the fixed-stride columns can be reinterpreted without
/// repacking — the property the page-in-style loader relies on.
#[test]
fn workload_snapshot_sections_are_aligned() {
    let ds = small_xkg();
    let bytes = write_snapshot(&ds.graph);
    assert_eq!(&bytes[..8], b"SPECQPKG");
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    assert_eq!(version, 2);
    let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut off = 16 + sections * 16;
    for i in 0..sections {
        assert_eq!(off % 8, 0, "section {i} starts misaligned at {off}");
        let at = 16 + i * 16 + 8;
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        off += len.div_ceil(8) * 8;
    }
    assert_eq!(off + 8, bytes.len(), "sections + checksum must cover file");
}

#[test]
fn snapshot_file_roundtrip_is_bit_stable() {
    let ds = small_xkg();
    let path = std::env::temp_dir().join(format!(
        "specqp_integration_snapshot_stable_{}.snap",
        std::process::id()
    ));
    save_snapshot(&ds.graph, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    // Re-serializing the loaded graph reproduces the file byte for byte:
    // ids, posting order and section layout are all deterministic.
    let reloaded = load_snapshot(&path).unwrap();
    assert_eq!(write_snapshot(&reloaded), bytes);
    std::fs::remove_file(&path).ok();
}
