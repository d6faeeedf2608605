//! Per-layer probes: the benchmark walks entries shaped like the
//! workload's (its mean transactions per entry, its group size and group
//! count, its quorum) through each layer's public functions, in the order
//! the protocol would, and times every call as a span. One walk is one
//! entry; a layer's cost is the median over the walks.

use crate::api::{
    decode_batch, decode_msg, encode_batch, encode_frame, entry_digest, max_faulty, quorum, sha256,
    telemetry_emit, telemetry_set_enabled, Actor, Bytes, ChunkAssembler, ChunkMsg, ChunkOutcome,
    ChunkSender, Ctx, EntryCodec, EntryId, ExecutionPipeline, GlobalCmd, KeyRegistry, KvStore,
    Ledger, MerkleTree, Msg, NodeId, OrderingEngine, PbftConfig, PbftMsg, PbftOutput, PbftReplica,
    PreparedEntry, QuorumCert, RaftConfig, RaftMsg, RaftNode, RaftOutput, Request, SimMessage,
    Simulation, TelemetryEvent, TelemetryEventKind, TimerWheel, TopologyBuilder, TransferPlan,
    WorkloadGen, WorkloadKind, FRAME_HEADER,
};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes' inputs are shaped by.
pub struct Shape {
    pub kind: WorkloadKind,
    pub seed: u64,
    /// Mean transactions per entry the traced run executed.
    pub txns_per_entry: usize,
    /// Nodes per group.
    pub n: usize,
    /// Groups.
    pub ng: usize,
    /// Whether the workload runs Aria's same-batch abort fallback.
    pub exec_fallback: bool,
}

/// Median cost per probe, nanoseconds unless the name says otherwise.
pub struct Costs {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub walks: usize,
}

impl Costs {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Median over the walks, if the probe ran.
    pub fn probed(&self, name: &str) -> Option<f64> {
        self.samples.get(name).map(|v| median(v))
    }

    /// Median over the walks. Panics on a name no walk recorded: that is a
    /// typo in this crate.
    pub fn get(&self, name: &str) -> f64 {
        self.probed(name)
            .unwrap_or_else(|| panic!("no probe recorded {name}"))
    }
}

/// Events the simulator-dispatch probe relays per walk.
const RELAY_EVENTS: u64 = 2_000;
/// Timers the wheel probe inserts and expires per walk.
const WHEEL_TIMERS: u64 = 256;
/// Events the telemetry probe emits per walk.
const EMIT_EVENTS: u64 = 256;

/// A token passed round a ring of trivial actors: what is left when the
/// protocol work is taken out of a simulator event.
struct Relay {
    next: NodeId,
    starts: bool,
}

#[derive(Clone)]
struct Token;

impl SimMessage for Token {
    fn wire_size(&self) -> usize {
        64
    }
}

impl Actor for Relay {
    type Msg = Token;

    fn on_start(&mut self, ctx: &mut Ctx<Token>) {
        if self.starts {
            ctx.send(self.next, Token);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Token>, _from: NodeId, msg: Token) {
        ctx.send(self.next, msg);
    }
}

/// `n` in-memory PBFT replicas of group 0 behind a lock-step message bus.
struct PbftBus {
    replicas: Vec<PbftReplica>,
    queue: VecDeque<(u32, u32, PbftMsg)>,
    delivered: u64,
    /// One message of each kind seen, for the frame probe's message mix.
    seen: Vec<PbftMsg>,
    cert: Option<QuorumCert>,
    committed: usize,
}

impl PbftBus {
    fn new(n: usize, registry: &KeyRegistry) -> Self {
        PbftBus {
            replicas: (0..n as u32)
                .map(|node| {
                    PbftReplica::new(
                        PbftConfig {
                            group: 0,
                            n,
                            node,
                            skip_prepare: false,
                            checkpoint_interval: 64,
                        },
                        registry.clone(),
                    )
                })
                .collect(),
            queue: VecDeque::new(),
            delivered: 0,
            seen: Vec::new(),
            cert: None,
            committed: 0,
        }
    }

    fn absorb(&mut self, from: u32, outputs: Vec<PbftOutput>) {
        for o in outputs {
            match o {
                PbftOutput::Send { to, msg } => self.queue.push_back((from, to, msg)),
                PbftOutput::Broadcast(msg) => {
                    if self.seen.len() < 3
                        && !self
                            .seen
                            .iter()
                            .any(|m| std::mem::discriminant(m) == std::mem::discriminant(&msg))
                    {
                        self.seen.push(msg.clone());
                    }
                    for to in (0..self.replicas.len() as u32).filter(|&to| to != from) {
                        self.queue.push_back((from, to, msg.clone()));
                    }
                }
                PbftOutput::Committed { cert, .. } => {
                    self.committed += 1;
                    self.cert.get_or_insert(cert);
                }
                PbftOutput::EnteredView(_) | PbftOutput::ArmViewTimer => {}
            }
        }
    }

    fn run(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.delivered += 1;
            let outs = self.replicas[to as usize].on_message(from, msg);
            self.absorb(to, outs);
        }
    }

    /// Primary proposes, every replica commits. Returns messages delivered.
    fn commit(&mut self, payload: Bytes) -> u64 {
        let before = self.delivered;
        self.committed = 0;
        self.cert = None;
        let outs = self.replicas[0].propose(payload);
        self.absorb(0, outs);
        self.run();
        assert_eq!(
            self.committed,
            self.replicas.len(),
            "pbft probe: not all committed"
        );
        self.delivered - before
    }

    /// Every backup times out on view 0; the group enters view 1.
    fn view_change(&mut self) {
        for r in 1..self.replicas.len() as u32 {
            let outs = self.replicas[r as usize].on_view_timeout();
            self.absorb(r, outs);
        }
        self.run();
        assert!(
            self.replicas[1..].iter().all(|r| r.view() == 1),
            "pbft probe: view change did not complete"
        );
    }
}

/// `ng` in-memory Raft members (one per group), member 0 leading.
struct RaftBus {
    nodes: Vec<RaftNode<GlobalCmd>>,
    queue: VecDeque<(u32, u32, RaftMsg<GlobalCmd>)>,
    delivered: u64,
    committed_at_leader: bool,
}

impl RaftBus {
    fn new(ng: usize) -> Self {
        let members: Vec<u32> = (0..ng as u32).collect();
        RaftBus {
            nodes: members
                .iter()
                .map(|&me| {
                    RaftNode::new(RaftConfig {
                        me,
                        members: members.clone(),
                        initial_leader: Some(0),
                    })
                })
                .collect(),
            queue: VecDeque::new(),
            delivered: 0,
            committed_at_leader: false,
        }
    }

    fn absorb(&mut self, from: u32, outputs: Vec<RaftOutput<GlobalCmd>>) {
        for o in outputs {
            match o {
                RaftOutput::Send { to, msg } => self.queue.push_back((from, to, msg)),
                RaftOutput::Committed { .. } => self.committed_at_leader |= from == 0,
                RaftOutput::BecameLeader(_) | RaftOutput::SteppedDown => {}
            }
        }
    }

    /// Leader proposes; runs until the bus is quiet. Returns messages delivered.
    fn commit(&mut self, cmd: GlobalCmd) -> u64 {
        let before = self.delivered;
        self.committed_at_leader = false;
        let (_, outs) = self.nodes[0]
            .propose(cmd)
            .expect("raft probe: member 0 leads");
        self.absorb(0, outs);
        while let Some((from, to, msg)) = self.queue.pop_front() {
            self.delivered += 1;
            let outs = self.nodes[to as usize].step(from, msg);
            self.absorb(to, outs);
        }
        assert!(self.committed_at_leader, "raft probe: entry did not commit");
        self.delivered - before
    }
}

/// State that lives across walks, as it does across entries in a node.
struct Walker {
    shape: Shape,
    gen: WorkloadGen,
    registry: KeyRegistry,
    pbft: PbftBus,
    raft: RaftBus,
    plan: Arc<TransferPlan>,
    codec: EntryCodec,
    assembler: ChunkAssembler,
    ordering: OrderingEngine,
    pipeline: ExecutionPipeline,
    store: KvStore,
    ledger: Ledger,
    wheel: TimerWheel<u64>,
    wheel_now: u64,
    seq: u64,
}

impl Walker {
    fn new(shape: Shape) -> Self {
        let registry = KeyRegistry::generate(shape.seed, &vec![shape.n; shape.ng]);
        let plan = Arc::new(TransferPlan::generate(shape.n, shape.n).expect("valid group size"));
        Walker {
            gen: WorkloadGen::new(shape.kind, shape.seed),
            pbft: PbftBus::new(shape.n, &registry),
            raft: RaftBus::new(shape.ng),
            codec: EntryCodec::new(plan.n_data, plan.n_total).expect("plan geometry"),
            assembler: ChunkAssembler::new(Arc::clone(&plan), registry.clone()),
            ordering: OrderingEngine::new(shape.ng),
            pipeline: ExecutionPipeline::new(1, false, shape.exec_fallback),
            store: KvStore::new(),
            ledger: Ledger::new(),
            wheel: TimerWheel::new(0),
            wheel_now: 0,
            seq: 0,
            plan,
            registry,
            shape,
        }
    }

    /// Walks one entry through every layer. Each call is a span under the
    /// walk's root span; each cost lands in `costs` under the metric's name.
    fn walk(&mut self, t: &mut Tracer, costs: &mut Costs) {
        self.seq += 1;
        let id = EntryId::new(0, self.seq);
        let (n, ng) = (self.shape.n, self.shape.ng);
        let txns = self.shape.txns_per_entry.max(1);
        let root = t.open("entry_walk", "benchmark", None);
        let p = Some(root);

        // workloads → core.entry: generate, batch, unbatch.
        let gen = &mut self.gen;
        let (reqs, ns) = t.call("workloads.gen", "workloads", p, || {
            gen.next_batch_bytes(txns)
        });
        costs.push("workloads.gen_ns_per_txn", ns / txns as f64);
        let (bytes, enc_ns) = t.call("core.entry.encode_batch", "core.entry", p, || {
            encode_batch(id, &reqs)
        });
        let (decoded, dec_ns) = t.call("core.entry.decode_batch", "core.entry", p, || {
            let (_, raw) = decode_batch(&bytes).expect("probe: batch decodes");
            raw.iter()
                .map(|r| Request::decode(r).expect("probe: request decodes"))
                .collect::<Vec<Request>>()
        });
        costs.push("batch_encode_ns", enc_ns);
        costs.push("batch_decode_ns", dec_ns);
        costs.push(
            "core.entry.batch_codec_ns_per_txn",
            (enc_ns + dec_ns) / txns as f64,
        );
        let kb = bytes.len() as f64 / 1024.0;
        costs.push("entry_bytes", bytes.len() as f64);
        costs.push("txns_per_entry", txns as f64);
        costs.push("plan_n_data", self.plan.n_data as f64);

        // crypto primitives on the entry's bytes.
        let (digest, ns) = t.call("core.entry.digest", "core.entry", p, || {
            entry_digest(&bytes)
        });
        costs.push("digest_ns", ns);
        costs.push("core.entry.digest_ns_per_kb", ns / kb);
        let (_, ns) = t.call("crypto.sha256", "crypto", p, || sha256(&bytes));
        costs.push("crypto.sha256_ns_per_kb", ns / kb);
        let key = self.registry.key_of(NodeId::new(0, 0)).expect("probe: key");
        let q = quorum(n);
        let (_, ns) = t.call("crypto.sign", "crypto", p, || {
            (0..q).map(|_| key.sign_digest(&digest)).collect::<Vec<_>>()
        });
        costs.push("crypto.sign_ns", ns / q as f64);

        // consensus.pbft: one instance on n replicas, then its certificate.
        let payload = Bytes::from(bytes.clone());
        let pbft = &mut self.pbft;
        let (msgs, ns) = t.call("consensus.pbft.commit", "consensus.pbft", p, || {
            pbft.commit(payload)
        });
        costs.push("consensus.pbft.commit_ns_per_instance", ns);
        costs.push("consensus.pbft.msgs_per_instance", msgs as f64);
        let cert = self.pbft.cert.clone().expect("probe: certificate");
        let registry = &self.registry;
        let (ok, ns) = t.call("crypto.cert_validate", "crypto", p, || {
            cert.validate(registry).is_ok()
        });
        assert!(ok, "probe: certificate must validate");
        costs.push("crypto.cert_validate_ns", ns);

        // core.plan and core.replication, sender side. The program has no
        // spans inside `encode_all` yet, so its two parts are re-measured
        // right after it on the same input and linked to it as children.
        let (_, ns) = t.call("core.plan.generate", "core.plan", p, || {
            TransferPlan::generate(n, n).expect("probe: plan")
        });
        costs.push("core.plan.generate_ns", ns);
        let plan = Arc::clone(&self.plan);
        let send: SpanId = t.open("core.replication.send", "core.replication", p);
        let chunks: Vec<ChunkMsg> = std::hint::black_box(
            ChunkSender::encode_all(&plan, id, &bytes).expect("probe: encode"),
        );
        let send_ns = t.close(send) as f64;
        let codec = &self.codec;
        let (shards, encode_ns) = t.call("codec.encode", "codec", Some(send), || {
            codec.encode(&bytes).expect("probe: rs encode")
        });
        let (_, merkle_ns) = t.call("crypto.merkle_build", "crypto", Some(send), || {
            MerkleTree::build(&shards)
        });
        costs.push("core.replication.send_ns_per_entry", send_ns);
        costs.push("send_self_ns", (send_ns - encode_ns - merkle_ns).max(0.0));
        costs.push("codec_encode_ns", encode_ns);
        costs.push("codec.encode_ns_per_kb", encode_ns / kb);
        costs.push("crypto.merkle_build_ns_per_entry", merkle_ns);

        // Receiver side: verify each chunk, decode with f data chunks
        // missing, then the assembler doing both plus certificate
        // validation on the chunks a receiver would actually use.
        let (_, ns) = t.call("crypto.merkle_verify", "crypto", p, || {
            chunks.iter().all(|c| c.proof.verify(&c.root, &c.data))
        });
        let verify_ns = ns / chunks.len() as f64;
        costs.push("crypto.merkle_verify_ns_per_chunk", verify_ns);
        let missing = max_faulty(n).min(plan.n_total - plan.n_data);
        let survivors: Vec<Option<&[u8]>> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| (i >= missing).then_some(c.data.as_ref()))
            .collect();
        let (rebuilt, decode_ns) = t.call("codec.decode", "codec", p, || {
            codec.decode_from(&survivors).expect("probe: rs decode")
        });
        assert_eq!(rebuilt, bytes, "probe: decode must return the entry");
        costs.push("codec_decode_ns", decode_ns);
        costs.push("codec.decode_ns_per_kb", decode_ns / kb);
        let assembler = &mut self.assembler;
        let (got, rebuild_ns) = t.call("core.replication.rebuild", "core.replication", p, || {
            for c in chunks.iter().skip(missing) {
                if let ChunkOutcome::Rebuilt(_) = assembler.on_chunk(c.clone(), &cert) {
                    break;
                }
            }
            assembler.take_rebuilt(id)
        });
        assert_eq!(
            got.as_deref(),
            Some(&bytes[..]),
            "probe: rebuild must return the entry"
        );
        self.assembler.gc(id);
        costs.push("core.replication.rebuild_ns_per_entry", rebuild_ns);

        // consensus.raft: the entry's commitment through ng members.
        let raft = &mut self.raft;
        let (msgs, ns) = t.call("consensus.raft.commit", "consensus.raft", p, || {
            raft.commit(GlobalCmd {
                entry: Some((id, digest)),
                stamps: Vec::new(),
            })
        });
        costs.push("consensus.raft.commit_ns_per_entry", ns);
        costs.push("consensus.raft.msgs_per_entry", msgs as f64);
        for node in &mut self.raft.nodes {
            node.compact_to_applied(16);
        }

        // core.ordering: one synchronised round, every group commits its
        // entry at this sequence and every other group stamps it.
        let (ordering, seq) = (&mut self.ordering, self.seq);
        let (ordered, ns) = t.call("core.ordering.order", "core.ordering", p, || {
            let mut ordered = 0;
            for g in 0..ng as u32 {
                let e = EntryId::new(g, seq);
                ordering.on_entry_committed(e);
                for stamper in (0..ng as u32).filter(|&s| s != g) {
                    ordering.on_timestamp(stamper, e, if stamper < g { seq } else { seq - 1 });
                }
                while ordering.pop_ready().is_some() {
                    ordered += 1;
                }
            }
            ordered
        });
        costs.push("core.ordering.order_ns_per_entry", ns / ng as f64);
        costs.push("ordered_per_round", ordered as f64);

        // core.exec + db: the decoded entry through the Aria pipeline, and
        // the store on its own.
        let pipeline = &mut self.pipeline;
        let (results, ns) = t.call("core.exec.execute", "core.exec", p, || {
            pipeline.execute_entries(vec![PreparedEntry { id, txns: decoded }])
        });
        costs.push("core.exec.execute_ns_per_txn", ns / txns as f64);
        let store = &mut self.store;
        let keys: Vec<Vec<u8>> = (0..txns as u64)
            .map(|i| (seq * 1_000_003 + i).to_be_bytes().to_vec())
            .collect();
        let (_, ns) = t.call("db.store.put", "db", p, || {
            for (k, v) in keys.iter().zip(&reqs) {
                store.put(k.clone(), v.clone());
            }
        });
        costs.push("db.store.put_ns", ns / txns as f64);
        let (hits, ns) = t.call("db.store.get", "db", p, || {
            keys.iter().filter(|k| store.get(k).is_some()).count()
        });
        assert_eq!(hits, txns, "probe: every key put must be found");
        costs.push("db.store.get_ns", ns / txns as f64);

        // core.ledger.
        let (ledger, fingerprint) = (&mut self.ledger, results[0].state_fingerprint);
        let (_, ns) = t.call("core.ledger.append", "core.ledger", p, || {
            ledger.append(id, digest, fingerprint).height
        });
        costs.push("core.ledger.append_ns_per_block", ns);

        // runtime: frame the entry's message mix (one PBFT message of each
        // phase, every chunk with its certificate), then the timer wheel.
        let mix: Vec<Msg> = self
            .pbft
            .seen
            .iter()
            .cloned()
            .map(Msg::Pbft)
            .chain(chunks.iter().map(|c| Msg::Chunk {
                chunk: c.clone(),
                cert: cert.clone(),
            }))
            .collect();
        let (frames, ns) = t.call("runtime.frame.encode", "runtime", p, || {
            mix.iter()
                .map(|m| encode_frame(m).expect("probe: frame encodes"))
                .collect::<Vec<Bytes>>()
        });
        let frame_kb = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / 1024.0;
        costs.push("runtime.frame.encode_ns_per_kb", ns / frame_kb);
        let (_, ns) = t.call("runtime.frame.decode", "runtime", p, || {
            frames
                .iter()
                .map(|f| decode_msg(&f.slice(FRAME_HEADER..)).expect("probe: frame decodes"))
                .collect::<Vec<Msg>>()
        });
        costs.push("runtime.frame.decode_ns_per_kb", ns / frame_kb);
        let (wheel, now) = (&mut self.wheel, self.wheel_now);
        let (fired, ns) = t.call("runtime.wheel.timer", "runtime", p, || {
            // Deadlines spread over 0.5 s, as protocol timers are.
            for i in 0..WHEEL_TIMERS {
                wheel.insert(now + 1 + i * 2_000, i);
            }
            let mut out = Vec::new();
            wheel.advance(now + 1_000_000, &mut out);
            out.len() as u64
        });
        assert_eq!(fired, WHEEL_TIMERS, "probe: every timer must fire");
        self.wheel_now += 1_000_000;
        costs.push("runtime.wheel.timer_ns", ns / WHEEL_TIMERS as f64);

        // sim-net: event dispatch with a trivial actor on the workload's
        // topology.
        let topology = TopologyBuilder::nationwide(&vec![n; ng]).build();
        let last = NodeId::new(ng as u32 - 1, n as u32 - 1);
        let mut sim = Simulation::new(topology, |id| Relay {
            // LAN neighbour, wrapping to the next group at the group's end.
            next: if id.node as usize + 1 < n {
                NodeId::new(id.group, id.node + 1)
            } else {
                NodeId::new((id.group + 1) % ng as u32, 0)
            },
            starts: id == last,
        });
        let (events, ns) = t.call("sim-net.dispatch", "sim-net", p, || {
            let mut events = 0;
            let mut until = 0;
            while events < RELAY_EVENTS {
                until += 1_000_000;
                events += sim.run_until(until);
            }
            events
        });
        costs.push("sim-net.dispatch_ns_per_event", ns / events as f64);

        // telemetry: the program's emit path, switched on for the call.
        let (_, ns) = t.call("telemetry.emit", "telemetry", p, || {
            telemetry_set_enabled(true);
            for i in 0..EMIT_EVENTS {
                telemetry_emit(TelemetryEvent {
                    at: i,
                    kind: TelemetryEventKind::Submitted,
                    node: (0, 0),
                    entry: (0, seq),
                    value: 0,
                });
            }
            telemetry_set_enabled(false);
        });
        costs.push("telemetry.emit_ns", ns / EMIT_EVENTS as f64);

        // consensus.pbft view change, on a fresh group so view 0 → 1 is
        // what is timed every walk.
        let mut group = PbftBus::new(n, &self.registry);
        let (_, ns) = t.call("consensus.pbft.view_change", "consensus.pbft", p, || {
            group.view_change()
        });
        costs.push("consensus.pbft.view_change_ns", ns);

        t.close(root);
    }
}

/// Walks whose spans are kept for the trace file; later walks still count
/// towards the costs, but 100 entries show the shape and keep the file small.
const TRACED_WALKS: usize = 100;

/// Walks entries for about `budget`, at least `min_walks` of them.
pub fn run(shape: Shape, budget: Duration, min_walks: usize, tracer: &mut Tracer) -> Costs {
    let mut walker = Walker::new(shape);
    let mut costs = Costs {
        samples: BTreeMap::new(),
        walks: 0,
    };
    // One discarded walk first: caches fill, lazy tables build.
    let mut discard = Tracer::new();
    walker.walk(
        &mut discard,
        &mut Costs {
            samples: BTreeMap::new(),
            walks: 0,
        },
    );
    let started = Instant::now();
    while costs.walks < min_walks || started.elapsed() < budget {
        if costs.walks < TRACED_WALKS {
            walker.walk(tracer, &mut costs);
        } else {
            discard.spans.clear();
            walker.walk(&mut discard, &mut costs);
        }
        costs.walks += 1;
    }
    costs
}
