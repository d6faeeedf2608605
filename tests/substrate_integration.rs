//! Cross-crate substrate integration: erasure coding × Merkle proofs ×
//! certificates × transfer plans, exercised together the way the
//! replication engine composes them — including property-based sweeps
//! over group-size geometries.

use massbft::core::entry::{encode_batch, entry_digest, EntryId};
use massbft::core::plan::TransferPlan;
use massbft::core::replication::{ChunkAssembler, ChunkOutcome, ChunkSender};
use massbft::crypto::cert::{max_faulty, quorum};
use massbft::crypto::keys::NodeId;
use massbft::crypto::{KeyRegistry, QuorumCert};
use proptest::prelude::*;

fn certified_entry(
    registry: &KeyRegistry,
    gid: u32,
    n: usize,
    payload_txns: usize,
) -> (EntryId, Vec<u8>, QuorumCert) {
    let id = EntryId::new(gid, 1);
    let reqs: Vec<Vec<u8>> = (0..payload_txns)
        .map(|i| format!("txn-{i}-{}", "x".repeat(i % 57)).into_bytes())
        .collect();
    let entry = encode_batch(id, &reqs);
    let cert = QuorumCert::assemble(
        entry_digest(&entry),
        gid,
        registry,
        (0..quorum(n) as u32).map(|i| NodeId::new(gid, i)),
    );
    (id, entry, cert)
}

#[test]
fn worst_case_faults_never_block_rebuild_across_geometries() {
    // For a sweep of (sender, receiver) group sizes: lose every chunk a
    // worst-case fault pattern can take, feed the survivors, and demand a
    // rebuild. This is Algorithm 1's parity bound, end to end.
    for (n1, n2) in [
        (4usize, 4usize),
        (4, 7),
        (7, 4),
        (7, 7),
        (10, 7),
        (13, 13),
        (4, 10),
    ] {
        let Ok(plan) = TransferPlan::generate(n1, n2) else {
            continue;
        };
        let plan = std::sync::Arc::new(plan);
        let registry = KeyRegistry::generate(77, &[n1, n2]);
        let (id, entry, cert) = certified_entry(&registry, 0, n1, 40);
        let f1 = max_faulty(n1);
        let f2 = max_faulty(n2);

        let mut asm = ChunkAssembler::new(std::sync::Arc::clone(&plan), registry.clone());
        let all = ChunkSender::encode_all(&plan, id, &entry).expect("encode");
        // Faulty senders: the last f1; faulty receivers: the last f2.
        let lost: std::collections::BTreeSet<u32> = plan
            .transfers
            .iter()
            .filter(|t| (t.sender as usize) >= n1 - f1 || (t.receiver as usize) >= n2 - f2)
            .map(|t| t.chunk)
            .collect();
        let mut rebuilt = None;
        for msg in all {
            if lost.contains(&msg.chunk_id) {
                continue;
            }
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                rebuilt = Some(rec.bytes().clone());
                break;
            }
        }
        assert_eq!(rebuilt.as_deref(), Some(entry.as_slice()), "({n1},{n2})");
    }
}

#[test]
fn tampered_and_honest_chunk_streams_interleave_safely() {
    // Adversarial interleaving: honest and tampered chunks alternate;
    // the honest encoding must win and the tampered one must never pass
    // certificate validation.
    let plan = std::sync::Arc::new(TransferPlan::generate(7, 7).expect("plan"));
    let registry = KeyRegistry::generate(3, &[7, 7]);
    let (id, entry, cert) = certified_entry(&registry, 0, 7, 25);
    let evil_entry = encode_batch(id, &[b"forged".to_vec()]);

    let honest = ChunkSender::encode_all(&plan, id, &entry).expect("encode");
    let evil = ChunkSender::encode_all(&plan, id, &evil_entry).expect("encode");

    let mut asm = ChunkAssembler::new(plan, registry);
    let mut got = None;
    for (h, e) in honest.into_iter().zip(evil) {
        for msg in [e, h] {
            match asm.on_chunk(msg, &cert) {
                ChunkOutcome::Rebuilt(rec) => {
                    got = Some(rec.bytes().clone());
                }
                ChunkOutcome::Accepted | ChunkOutcome::Rejected(_) => {}
            }
        }
        if got.is_some() {
            break;
        }
    }
    assert_eq!(got.expect("honest rebuild"), entry);
}

#[test]
fn certificates_are_not_transferable_between_entries() {
    let registry = KeyRegistry::generate(5, &[4]);
    let (_, entry_a, cert_a) = certified_entry(&registry, 0, 4, 10);
    let id_b = EntryId::new(0, 2);
    let entry_b = encode_batch(id_b, &[b"other".to_vec()]);
    // cert_a validates entry_a but must reject entry_b.
    assert!(cert_a
        .validate_for(&entry_digest(&entry_a), &registry)
        .is_ok());
    assert!(cert_a
        .validate_for(&entry_digest(&entry_b), &registry)
        .is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_plan_codec_roundtrip(
        n1 in 2usize..16,
        n2 in 2usize..16,
        txns in 1usize..60,
        drop_seed in any::<u64>(),
    ) {
        let Ok(plan) = TransferPlan::generate(n1, n2) else {
            return Ok(()); // geometry outside GF(2^8) limits
        };
        let plan = std::sync::Arc::new(plan);
        let registry = KeyRegistry::generate(9, &[n1.max(4), n2.max(4)]);
        let (id, entry, cert) = certified_entry(&registry, 0, n1.max(4), txns);

        // Drop a random admissible subset of n_parity chunks.
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(drop_seed);
        let mut order: Vec<u32> = (0..plan.n_total as u32).collect();
        order.shuffle(&mut rng);
        let lost: std::collections::BTreeSet<u32> =
            order.into_iter().take(plan.n_parity).collect();

        let mut asm = ChunkAssembler::new(std::sync::Arc::clone(&plan), registry);
        let all = ChunkSender::encode_all(&plan, id, &entry).expect("encode");
        let mut rebuilt = None;
        for msg in all {
            if lost.contains(&msg.chunk_id) {
                continue;
            }
            if let ChunkOutcome::Rebuilt(rec) = asm.on_chunk(msg, &cert) {
                rebuilt = Some(rec.bytes().clone());
                break;
            }
        }
        prop_assert_eq!(rebuilt.as_deref(), Some(entry.as_slice()));
    }
}
