//! Using the substrate crates directly: a mini geo-replicated bank built
//! from the pieces MassBFT is assembled from — without the cluster
//! harness.
//!
//! ```text
//! cargo run --release --example bank_ledger
//! ```
//!
//! Walks the lower layers of the public API:
//!
//! 1. batch SmallBank transactions into a log entry and certify it with
//!    a real PBFT quorum certificate ([`massbft::crypto`]);
//! 2. erasure-code the entry with the paper's Algorithm 1 transfer plan
//!    and rebuild it from a lossy chunk subset ([`massbft::codec`],
//!    [`massbft::core::plan`]);
//! 3. execute the rebuilt batch deterministically with Aria
//!    ([`massbft::db`]) on two "replicas" and check they agree.

use massbft::core::entry::{encode_batch, entry_digest, EntryId};
use massbft::core::plan::TransferPlan;
use massbft::core::replication::{ChunkAssembler, ChunkOutcome, ChunkSender};
use massbft::crypto::keys::NodeId;
use massbft::crypto::{KeyRegistry, QuorumCert};
use massbft::db::{AriaExecutor, KvStore};
use massbft::workloads::{Request, WorkloadGen, WorkloadKind};

fn main() {
    // --- 1. batch + certify -------------------------------------------------
    let registry = KeyRegistry::generate(2024, &[4, 7]);
    let mut clients = WorkloadGen::new(WorkloadKind::SmallBank, 11);
    let requests: Vec<Vec<u8>> = (0..100).map(|_| clients.next_request().encode()).collect();

    let id = EntryId::new(0, 1);
    let entry = encode_batch(id, &requests);
    let digest = entry_digest(&entry);

    // 2f+1 = 3 signatures from the 4-node proposing group.
    let cert = QuorumCert::assemble(digest, 0, &registry, (0..3).map(|i| NodeId::new(0, i)));
    cert.validate_for(&digest, &registry)
        .expect("quorum certificate");
    println!(
        "entry {id}: {} bytes, certified by {} signers",
        entry.len(),
        cert.signatures.len()
    );

    // --- 2. erasure-coded bijective transfer -------------------------------
    // 4-node group sends to a 7-node group: the paper's Fig. 5b geometry.
    let plan = std::sync::Arc::new(TransferPlan::generate(4, 7).expect("plan"));
    println!(
        "transfer plan: {} chunks total, {} data + {} parity, {:.2}x WAN amplification",
        plan.n_total,
        plan.n_data,
        plan.n_parity,
        plan.amplification()
    );

    let mut assembler = ChunkAssembler::new(std::sync::Arc::clone(&plan), registry.clone());
    let mut rebuilt = None;
    'send: for sender in 0..4u32 {
        // Sender 3 is faulty and sends nothing; receivers 5 and 6 are
        // faulty and drop what they take — the worst case the parity
        // budget covers.
        if sender == 3 {
            continue;
        }
        for (receiver, chunk) in ChunkSender::encode_for(&plan, sender, id, &entry).expect("encode")
        {
            if receiver == 5 || receiver == 6 {
                continue;
            }
            if let ChunkOutcome::Rebuilt(rec) = assembler.on_chunk(chunk, &cert) {
                rebuilt = Some(rec.bytes().clone());
                break 'send;
            }
        }
    }
    let rebuilt = rebuilt.expect("enough chunks survive the worst case");
    assert_eq!(rebuilt, entry);
    println!("entry rebuilt from surviving chunks despite 1 faulty sender + 2 faulty receivers");

    // --- 3. deterministic execution on two replicas ------------------------
    let decode = |bytes: &[u8]| -> Vec<Request> {
        let (_, reqs) = massbft::core::entry::decode_batch(bytes).expect("framing");
        reqs.iter()
            .filter_map(|r| Request::decode(r).ok())
            .collect()
    };

    let executor = AriaExecutor::new();
    let mut replica_a = KvStore::new();
    let mut replica_b = KvStore::new();
    let out_a = executor.execute_batch(&mut replica_a, &decode(&rebuilt));
    let out_b = executor.execute_batch(&mut replica_b, &decode(&entry));

    println!(
        "executed {} txns ({} committed, {:.1}% conflict aborts)",
        out_a.outcomes.len(),
        out_a.committed,
        100.0 * out_a.abort_rate()
    );
    assert_eq!(out_a.committed, out_b.committed);
    assert_eq!(replica_a.content_hash(), replica_b.content_hash());
    println!(
        "replica states agree: content hash {:#018x}",
        replica_a.content_hash()
    );
}
