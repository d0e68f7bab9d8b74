//! Scenario: the central cloud as a durable dedup archive.
//!
//! Edge rings suppress duplicates; the cloud stores the survivors. This
//! example runs the whole storage path: files are chunked, every
//! distinct chunk is placed once across six cloud storage nodes and a
//! manifest kept per file — once with 3× replication and once with
//! Reed–Solomon RS(4,2) (the paper's future-work extension) — then two
//! storage nodes die and every file is restored byte-exact from the
//! degraded erasure-coded store.
//!
//! ```bash
//! cargo run --release --example cloud_archive
//! ```

use efdedup_repro::prelude::*;

fn main() {
    let dataset = datasets::accelerometer(5, 2026);
    let chunker = FixedChunker::new(dataset.model().chunk_size()).expect("valid chunk size");

    // --- Dedup + manifests, under both durability schemes -------------------
    let mut replicated =
        DurableStore::new(6, Durability::Replicated { copies: 3 }).expect("valid config");
    let mut coded =
        DurableStore::new(6, Durability::ErasureCoded { k: 4, m: 2 }).expect("valid config");
    let mut files: Vec<(Manifest, Vec<u8>)> = Vec::new();
    for participant in 0..5usize {
        for day in 0..2u32 {
            let data = dataset.file(participant, day, 0, 250);
            let chunks = chunker.chunk(&data);
            replicated.store_file(&chunks).expect("put");
            files.push((coded.store_file(&chunks).expect("put"), data));
        }
    }
    let logical: u64 = files.iter().map(|(manifest, _)| manifest.total_len).sum();
    println!(
        "archived {} files: {:.1} MB logical -> {:.1} MB physical (dedup {:.2}x)",
        files.len(),
        logical as f64 / 1e6,
        coded.logical_bytes() as f64 / 1e6,
        logical as f64 / coded.logical_bytes() as f64
    );

    // --- Durability: replication vs erasure coding -------------------------
    println!(
        "\ndurability at 2-failure tolerance over 6 storage nodes:\n  \
         3x replication: {:>7.1} MB physical\n  \
         RS(4,2)       : {:>7.1} MB physical ({:.0}% saved)",
        replicated.physical_bytes() as f64 / 1e6,
        coded.physical_bytes() as f64 / 1e6,
        (1.0 - coded.physical_bytes() as f64 / replicated.physical_bytes() as f64) * 100.0
    );

    // --- Failure + restore --------------------------------------------------
    coded.fail_node(1);
    coded.fail_node(4);
    println!("\nstorage nodes 1 and 4 failed; restoring all files from RS(4,2)…");
    for (n, (manifest, original)) in files.iter().enumerate() {
        let bytes = coded.restore(manifest).expect("reconstructable");
        assert_eq!(&bytes, original, "restore mismatch for file {n}");
    }
    println!(
        "{0}/{0} files restored byte-exact from the degraded store",
        files.len()
    );
}
