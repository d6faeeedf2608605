//! Raft consensus (Ongaro & Ousterhout, USENIX ATC'14), sans-io.
//!
//! In MassBFT, Raft provides **global** replication: each *group* is one
//! logical Raft member (`n_g ≥ 2f_g + 1`), and `n_g` instances run in
//! parallel, each permanently led by its owning group unless that group
//! crashes (paper §V-A, §V-C *Crashed Groups*). Raft messages between
//! groups carry entry digests, PBFT certificates, and piggybacked vector
//! timestamps; because those payloads are certificate-protected, Byzantine
//! nodes cannot tamper with them, and Raft only needs to mask whole-group
//! crashes (paper §II-A).
//!
//! The implementation covers leader election (with pre-set initial
//! leadership so each group starts leading its own instance), log
//! replication with pipelining, commit-index advancement and follower log
//! repair. Membership change, snapshotting and handing leadership back to
//! a recovered owner are out of scope: the paper's deployments have a
//! fixed group roster, and a takeover leader keeps the instance.

use massbft_telemetry::registry::{counter, Counter};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Process-wide Raft counters in the telemetry registry (activity
/// accounting only — the sans-io node has no clock; timing spans are
/// the driver's job).
struct RaftCounters {
    proposals: Counter,
    elections: Counter,
    committed: Counter,
}

fn counters() -> &'static RaftCounters {
    static C: OnceLock<RaftCounters> = OnceLock::new();
    C.get_or_init(|| RaftCounters {
        proposals: counter("consensus.raft.proposals"),
        elections: counter("consensus.raft.elections"),
        committed: counter("consensus.raft.committed_entries"),
    })
}

/// Member identifier: the group id acting as a logical replica.
pub type MemberId = u32;

/// Static configuration of one Raft member.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// This member's id.
    pub me: MemberId,
    /// All members, including `me`.
    pub members: Vec<MemberId>,
    /// The member that starts as leader at term 1 (the instance owner in
    /// MassBFT). `None` starts everyone as followers at term 0.
    pub initial_leader: Option<MemberId>,
}

impl RaftConfig {
    /// Majority quorum size.
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }
}

/// A replicated log slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry<T> {
    /// Term in which the entry was appended at the leader.
    pub term: u64,
    /// Opaque command.
    pub data: T,
}

/// Raft wire messages.
#[derive(Debug, Clone)]
pub enum RaftMsg<T> {
    /// Candidate requests a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote response.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (heartbeat when empty).
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (may be empty).
        entries: Vec<LogEntry<T>>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Append response.
    AppendResp {
        /// Responder's current term.
        term: u64,
        /// Whether the append matched.
        success: bool,
        /// Highest index now matching the leader's log (on success), or a
        /// hint to back off to (on failure).
        match_index: u64,
    },
}

/// Member roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaftRole {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// Serving proposals.
    Leader,
}

/// Actions a Raft member asks its driver to perform.
#[derive(Debug)]
pub enum RaftOutput<T> {
    /// Send a message to another member.
    Send {
        /// Destination member.
        to: MemberId,
        /// The message.
        msg: RaftMsg<T>,
    },
    /// An entry committed at `index` (1-based, contiguous).
    Committed {
        /// Log index.
        index: u64,
        /// Term of the committed entry.
        term: u64,
        /// The command.
        data: T,
    },
    /// This member became leader for `term`.
    BecameLeader(u64),
    /// This member observed a higher term and stepped down.
    SteppedDown,
}

/// A Raft member state machine.
pub struct RaftNode<T: Clone> {
    cfg: RaftConfig,
    role: RaftRole,
    term: u64,
    voted_for: Option<MemberId>,
    /// Suffix of the log starting after `snapshot_index`.
    log: Vec<LogEntry<T>>,
    /// Index of the last compacted-away entry (0 = nothing compacted).
    snapshot_index: u64,
    /// Term of the entry at `snapshot_index`.
    snapshot_term: u64,
    commit_index: u64,
    /// Index of the last entry handed to the application.
    applied_index: u64,
    /// Leader state: next index to send to each follower.
    next_index: BTreeMap<MemberId, u64>,
    /// Leader state: highest index known replicated on each follower.
    match_index: BTreeMap<MemberId, u64>,
    votes_received: BTreeMap<MemberId, bool>,
    /// Who we believe currently leads (for forwarding hints).
    leader_hint: Option<MemberId>,
}

impl<T: Clone> RaftNode<T> {
    /// Creates a member. If `cfg.initial_leader` is set, that member starts
    /// as the term-1 leader and everyone else as a term-1 follower — the
    /// deterministic bootstrap MassBFT uses for each group's own instance.
    pub fn new(cfg: RaftConfig) -> Self {
        let mut node = RaftNode {
            role: RaftRole::Follower,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            snapshot_index: 0,
            snapshot_term: 0,
            commit_index: 0,
            applied_index: 0,
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            votes_received: BTreeMap::new(),
            leader_hint: cfg.initial_leader,
            cfg,
        };
        if let Some(leader) = node.cfg.initial_leader {
            node.term = 1;
            node.voted_for = Some(leader);
            if leader == node.cfg.me {
                node.become_leader();
            }
        }
        node
    }

    /// Current role.
    pub fn role(&self) -> RaftRole {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Whether this member is the leader.
    pub fn is_leader(&self) -> bool {
        self.role == RaftRole::Leader
    }

    /// Best guess at the current leader.
    pub fn leader_hint(&self) -> Option<MemberId> {
        self.leader_hint
    }

    /// Log length (last index).
    pub fn last_index(&self) -> u64 {
        self.snapshot_index + self.log.len() as u64
    }

    /// Commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Index of the last compacted entry (0 when nothing was compacted).
    pub fn snapshot_index(&self) -> u64 {
        self.snapshot_index
    }

    /// Number of entries currently retained in memory.
    pub fn retained_entries(&self) -> usize {
        self.log.len()
    }

    /// Compacts the log up to `upto` (inclusive), which must not exceed
    /// the applied prefix — applied entries are owned by the state
    /// machine, so dropping them is safe. Requests past the applied
    /// prefix are ignored (no-op). Returns how many entries were dropped.
    ///
    /// Followers that fall behind a leader's compaction horizon cannot be
    /// repaired from the log alone; since MassBFT's groups are crash-only
    /// and replication is certificate-protected, the driver layer recovers
    /// such followers through entry repair, not InstallSnapshot — the
    /// leader simply keeps a margin: see [`RaftNode::compact_to_applied`].
    pub fn compact(&mut self, upto: u64) -> usize {
        if upto > self.applied_index || upto <= self.snapshot_index {
            return 0;
        }
        let drop = (upto - self.snapshot_index) as usize;
        self.snapshot_term = self
            .entry(upto)
            .map(|e| e.term)
            .unwrap_or(self.snapshot_term);
        self.log.drain(..drop);
        self.snapshot_index = upto;
        drop
    }

    /// Compacts everything the slowest *matched* follower has applied,
    /// keeping `margin` entries for retransmission. Leaders only; returns
    /// entries dropped.
    pub fn compact_to_applied(&mut self, margin: u64) -> usize {
        if self.role != RaftRole::Leader {
            // Followers compact to their own applied prefix.
            let upto = self.applied_index.saturating_sub(margin);
            return self.compact(upto);
        }
        let min_match = self
            .cfg
            .members
            .iter()
            .map(|m| self.match_index.get(m).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        let upto = min_match.min(self.applied_index).saturating_sub(margin);
        self.compact(upto)
    }

    /// Reads a log entry (1-based index). Compacted entries return `None`.
    pub fn entry(&self, index: u64) -> Option<&LogEntry<T>> {
        if index == 0 || index <= self.snapshot_index {
            return None;
        }
        self.log.get((index - self.snapshot_index) as usize - 1)
    }

    fn last_term(&self) -> u64 {
        self.log
            .last()
            .map(|e| e.term)
            .unwrap_or(self.snapshot_term)
    }

    /// Leader API: appends a command and emits replication messages.
    /// Returns `None` (with no side effects) if not leader.
    pub fn propose(&mut self, data: T) -> Option<(u64, Vec<RaftOutput<T>>)> {
        if self.role != RaftRole::Leader {
            return None;
        }
        counters().proposals.inc();
        self.log.push(LogEntry {
            term: self.term,
            data,
        });
        let index = self.last_index();
        self.match_index.insert(self.cfg.me, index);
        let mut out = Vec::new();
        // Pipelined replication: send immediately, do not wait for acks.
        for &peer in &self.cfg.members.clone() {
            if peer != self.cfg.me {
                out.extend(self.send_append(peer));
            }
        }
        // Single-member degenerate case: commit immediately.
        out.extend(self.advance_commit());
        Some((index, out))
    }

    /// Driver's election timer fired (no heartbeat heard).
    pub fn on_election_timeout(&mut self) -> Vec<RaftOutput<T>> {
        if self.role == RaftRole::Leader {
            return Vec::new();
        }
        counters().elections.inc();
        self.term += 1;
        self.role = RaftRole::Candidate;
        self.voted_for = Some(self.cfg.me);
        self.votes_received.clear();
        self.votes_received.insert(self.cfg.me, true);
        self.leader_hint = None;
        let mut out = Vec::new();
        let (lli, llt) = (self.last_index(), self.last_term());
        for &peer in &self.cfg.members {
            if peer != self.cfg.me {
                out.push(RaftOutput::Send {
                    to: peer,
                    msg: RaftMsg::RequestVote {
                        term: self.term,
                        last_log_index: lli,
                        last_log_term: llt,
                    },
                });
            }
        }
        // Single-member cluster wins instantly.
        if self.votes_received.len() >= self.cfg.majority() {
            self.become_leader();
            out.push(RaftOutput::BecameLeader(self.term));
            out.extend(self.heartbeat());
        }
        out
    }

    /// Driver's heartbeat timer fired (leaders only).
    pub fn on_heartbeat_timeout(&mut self) -> Vec<RaftOutput<T>> {
        if self.role != RaftRole::Leader {
            return Vec::new();
        }
        self.heartbeat()
    }

    fn heartbeat(&mut self) -> Vec<RaftOutput<T>> {
        let peers: Vec<MemberId> = self
            .cfg
            .members
            .iter()
            .copied()
            .filter(|&p| p != self.cfg.me)
            .collect();
        let mut out = Vec::new();
        for peer in peers {
            out.extend(self.send_append(peer));
        }
        out
    }

    /// Handles a message from `from`.
    pub fn step(&mut self, from: MemberId, msg: RaftMsg<T>) -> Vec<RaftOutput<T>> {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term),
            RaftMsg::Vote { term, granted } => self.on_vote(from, term, granted),
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                leader_commit,
            } => self.on_append(from, term, prev_index, prev_term, entries, leader_commit),
            RaftMsg::AppendResp {
                term,
                success,
                match_index,
            } => self.on_append_resp(from, term, success, match_index),
        }
    }

    fn maybe_step_down(&mut self, term: u64) -> Option<RaftOutput<T>> {
        if term > self.term {
            let was_leader = self.role == RaftRole::Leader;
            self.term = term;
            self.role = RaftRole::Follower;
            self.voted_for = None;
            self.votes_received.clear();
            if was_leader {
                return Some(RaftOutput::SteppedDown);
            }
        }
        None
    }

    fn on_request_vote(
        &mut self,
        from: MemberId,
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
    ) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        out.extend(self.maybe_step_down(term));
        let up_to_date = (last_log_term, last_log_index) >= (self.last_term(), self.last_index());
        let grant = term >= self.term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if grant {
            self.voted_for = Some(from);
        }
        out.push(RaftOutput::Send {
            to: from,
            msg: RaftMsg::Vote {
                term: self.term,
                granted: grant,
            },
        });
        out
    }

    fn on_vote(&mut self, from: MemberId, term: u64, granted: bool) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        out.extend(self.maybe_step_down(term));
        if self.role != RaftRole::Candidate || term < self.term {
            return out;
        }
        self.votes_received.insert(from, granted);
        let yes = self.votes_received.values().filter(|&&g| g).count();
        if yes >= self.cfg.majority() {
            self.become_leader();
            out.push(RaftOutput::BecameLeader(self.term));
            out.extend(self.heartbeat());
        }
        out
    }

    fn become_leader(&mut self) {
        self.role = RaftRole::Leader;
        self.leader_hint = Some(self.cfg.me);
        let next = self.last_index() + 1;
        self.next_index = self.cfg.members.iter().map(|&m| (m, next)).collect();
        self.match_index = self.cfg.members.iter().map(|&m| (m, 0)).collect();
        self.match_index.insert(self.cfg.me, self.last_index());
    }

    fn send_append(&mut self, peer: MemberId) -> Vec<RaftOutput<T>> {
        // Never back off below the compaction horizon: the follower's
        // missing prefix is recovered by the application layer.
        let floor = self.snapshot_index + 1;
        let next = self.next_index.get(&peer).copied().unwrap_or(1).max(floor);
        let prev_index = next - 1;
        let prev_term = if prev_index == 0 {
            0
        } else if prev_index == self.snapshot_index {
            self.snapshot_term
        } else {
            self.entry(prev_index).map(|e| e.term).unwrap_or(0)
        };
        let entries: Vec<LogEntry<T>> =
            self.log[(prev_index - self.snapshot_index) as usize..].to_vec();
        // Pipelining: optimistically advance next_index so back-to-back
        // proposals ship disjoint suffixes instead of re-sending.
        self.next_index.insert(peer, self.last_index() + 1);
        vec![RaftOutput::Send {
            to: peer,
            msg: RaftMsg::AppendEntries {
                term: self.term,
                prev_index,
                prev_term,
                entries,
                leader_commit: self.commit_index,
            },
        }]
    }

    fn on_append(
        &mut self,
        from: MemberId,
        term: u64,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<LogEntry<T>>,
        leader_commit: u64,
    ) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        out.extend(self.maybe_step_down(term));
        if term < self.term {
            out.push(RaftOutput::Send {
                to: from,
                msg: RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_index: 0,
                },
            });
            return out;
        }
        // A valid AppendEntries establishes the sender as leader.
        self.role = RaftRole::Follower;
        self.leader_hint = Some(from);

        // Log consistency check.
        let local_prev_term = if prev_index == 0 {
            Some(0)
        } else if prev_index == self.snapshot_index {
            Some(self.snapshot_term)
        } else {
            self.entry(prev_index).map(|e| e.term)
        };
        if local_prev_term != Some(prev_term) {
            // Mismatch: ask the leader to back off to our log end (fast
            // repair hint).
            let hint = self.last_index().min(prev_index.saturating_sub(1));
            out.push(RaftOutput::Send {
                to: from,
                msg: RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_index: hint,
                },
            });
            return out;
        }
        // Append, truncating any conflicting suffix.
        let mut index = prev_index;
        for e in entries {
            index += 1;
            if index <= self.snapshot_index {
                continue; // already compacted (and therefore applied)
            }
            match self.entry(index) {
                Some(existing) if existing.term == e.term => {} // already have it
                _ => {
                    self.log
                        .truncate((index - self.snapshot_index) as usize - 1);
                    self.log.push(e);
                }
            }
        }
        let match_index = index.max(prev_index);
        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(self.last_index());
        }
        out.push(RaftOutput::Send {
            to: from,
            msg: RaftMsg::AppendResp {
                term: self.term,
                success: true,
                match_index,
            },
        });
        out.extend(self.apply_committed());
        out
    }

    fn on_append_resp(
        &mut self,
        from: MemberId,
        term: u64,
        success: bool,
        match_index: u64,
    ) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        out.extend(self.maybe_step_down(term));
        if self.role != RaftRole::Leader || term > self.term {
            return out;
        }
        if success {
            let mi = self.match_index.entry(from).or_insert(0);
            *mi = (*mi).max(match_index);
            self.next_index.insert(
                from,
                (*mi + 1).max(self.next_index.get(&from).copied().unwrap_or(1)),
            );
            out.extend(self.advance_commit());
        } else {
            // Back off and retry from the follower's hint.
            self.next_index.insert(from, match_index + 1);
            out.extend(self.send_append(from));
        }
        out
    }

    /// Leader: advance commit_index to the highest majority-matched index
    /// from the current term (Raft §5.4.2 restriction).
    fn advance_commit(&mut self) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        let candidate = self.commit_candidate();
        debug_assert!(candidate >= self.commit_index);
        if candidate > self.commit_index {
            counters().committed.add(candidate - self.commit_index);
            self.commit_index = candidate;
            out.extend(self.apply_committed());
            // Propagate the new commit index right away instead of waiting
            // for the next heartbeat: followers can't apply without it.
            out.extend(self.heartbeat());
        }
        out
    }

    /// The index `advance_commit` may commit up to: a majority holds an
    /// index exactly when it is at most the majority-th largest
    /// `match_index` (absent members count as 0); the first current-term
    /// entry walking down from there, else the old `commit_index`.
    fn commit_candidate(&self) -> u64 {
        if self.last_index() == self.commit_index {
            return self.commit_index; // a late ack: nothing is uncommitted
        }
        let mut matched: Vec<u64> = (self.cfg.members.iter())
            .map(|m| self.match_index.get(m).copied().unwrap_or(0))
            .collect();
        matched.sort_unstable_by(|a, b| b.cmp(a));
        let majority_th = matched.get(self.cfg.majority() - 1).copied().unwrap_or(0);
        let top = majority_th.min(self.last_index());
        ((self.commit_index + 1)..=top)
            .rev()
            .find(|&idx| self.entry(idx).map(|e| e.term) == Some(self.term))
            .unwrap_or(self.commit_index)
    }

    /// The scan `commit_candidate` replaced — every index above the commit
    /// point probed against every member — kept as the test oracle.
    #[cfg(test)]
    fn commit_candidate_by_scan(&self) -> u64 {
        let mut candidate = self.commit_index;
        for idx in (self.commit_index + 1)..=self.last_index() {
            let replicas = (self.cfg.members.iter())
                .filter(|&&m| self.match_index.get(&m).copied().unwrap_or(0) >= idx)
                .count();
            if replicas >= self.cfg.majority() && self.entry(idx).map(|e| e.term) == Some(self.term)
            {
                candidate = idx;
            }
        }
        candidate
    }

    fn apply_committed(&mut self) -> Vec<RaftOutput<T>> {
        let mut out = Vec::new();
        while self.applied_index < self.commit_index {
            self.applied_index += 1;
            let e = self
                .entry(self.applied_index)
                .expect("committed entry exists");
            out.push(RaftOutput::Committed {
                index: self.applied_index,
                term: e.term,
                data: e.data.clone(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Lock-step harness over an in-memory message bus.
    struct Net {
        nodes: BTreeMap<MemberId, RaftNode<u64>>,
        queue: VecDeque<(MemberId, MemberId, RaftMsg<u64>)>,
        committed: BTreeMap<MemberId, Vec<(u64, u64)>>, // (index, data)
        down: std::collections::BTreeSet<MemberId>,
    }

    impl Net {
        fn new(n: u32, initial_leader: Option<MemberId>) -> Self {
            let members: Vec<MemberId> = (0..n).collect();
            let nodes = members
                .iter()
                .map(|&m| {
                    (
                        m,
                        RaftNode::new(RaftConfig {
                            me: m,
                            members: members.clone(),
                            initial_leader,
                        }),
                    )
                })
                .collect();
            Net {
                nodes,
                queue: VecDeque::new(),
                committed: BTreeMap::new(),
                down: Default::default(),
            }
        }

        fn absorb(&mut self, from: MemberId, outs: Vec<RaftOutput<u64>>) {
            for o in outs {
                match o {
                    RaftOutput::Send { to, msg } => self.queue.push_back((from, to, msg)),
                    RaftOutput::Committed { index, data, .. } => {
                        self.committed.entry(from).or_default().push((index, data))
                    }
                    RaftOutput::BecameLeader(_) | RaftOutput::SteppedDown => {}
                }
            }
        }

        fn run(&mut self) {
            let mut budget = 100_000;
            while let Some((from, to, msg)) = self.queue.pop_front() {
                budget -= 1;
                assert!(budget > 0, "raft harness runaway");
                if self.down.contains(&from) || self.down.contains(&to) {
                    continue;
                }
                let outs = self.nodes.get_mut(&to).unwrap().step(from, msg);
                self.absorb(to, outs);
            }
        }

        fn propose(&mut self, at: MemberId, data: u64) -> Option<u64> {
            let (idx, outs) = self.nodes.get_mut(&at).unwrap().propose(data)?;
            self.absorb(at, outs);
            Some(idx)
        }

        fn timeout(&mut self, at: MemberId) {
            let outs = self.nodes.get_mut(&at).unwrap().on_election_timeout();
            self.absorb(at, outs);
        }
    }

    #[test]
    fn initial_leader_bootstrap() {
        let net = Net::new(3, Some(0));
        assert!(net.nodes[&0].is_leader());
        assert_eq!(net.nodes[&1].role(), RaftRole::Follower);
        assert_eq!(net.nodes[&0].term(), 1);
        assert_eq!(net.nodes[&2].leader_hint(), Some(0));
    }

    #[test]
    fn replicate_and_commit() {
        let mut net = Net::new(3, Some(0));
        net.propose(0, 41).unwrap();
        net.propose(0, 42).unwrap();
        net.run();
        for m in 0..3u32 {
            assert_eq!(net.committed[&m], vec![(1, 41), (2, 42)], "member {m}");
            assert_eq!(net.nodes[&m].commit_index(), 2);
        }
    }

    #[test]
    fn follower_cannot_propose() {
        let mut net = Net::new(3, Some(0));
        assert!(net.propose(1, 7).is_none());
    }

    #[test]
    fn commits_with_minority_down() {
        let mut net = Net::new(5, Some(0));
        net.down.insert(3);
        net.down.insert(4);
        net.propose(0, 9).unwrap();
        net.run();
        assert_eq!(net.committed[&0], vec![(1, 9)]);
        assert_eq!(net.committed[&1], vec![(1, 9)]);
    }

    #[test]
    fn no_commit_without_majority() {
        let mut net = Net::new(5, Some(0));
        for m in 1..=3 {
            net.down.insert(m);
        }
        net.propose(0, 9).unwrap();
        net.run();
        assert!(!net.committed.contains_key(&0));
    }

    #[test]
    fn election_after_leader_crash() {
        let mut net = Net::new(3, Some(0));
        net.propose(0, 1).unwrap();
        net.run();
        net.down.insert(0);
        net.timeout(1);
        net.run();
        assert!(net.nodes[&1].is_leader());
        assert_eq!(net.nodes[&1].term(), 2);
        // The new leader can commit new entries.
        net.propose(1, 2).unwrap();
        net.run();
        assert_eq!(net.committed[&2], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn stale_candidate_with_short_log_loses() {
        let mut net = Net::new(3, Some(0));
        // Commit an entry only on {0, 1}: member 2 is down.
        net.down.insert(2);
        net.propose(0, 10).unwrap();
        net.run();
        net.down.remove(&2);
        net.down.insert(0);
        // Member 2 (empty log) times out; member 1 must refuse the vote.
        net.timeout(2);
        net.run();
        assert!(!net.nodes[&2].is_leader());
        // Member 1 (complete log) then wins.
        net.timeout(1);
        net.run();
        assert!(net.nodes[&1].is_leader());
    }

    #[test]
    fn follower_log_repair_after_rejoin() {
        let mut net = Net::new(3, Some(0));
        net.propose(0, 1).unwrap();
        net.run();
        // Member 2 misses a batch.
        net.down.insert(2);
        net.propose(0, 2).unwrap();
        net.propose(0, 3).unwrap();
        net.run();
        net.down.remove(&2);
        // Heartbeat carries the missing suffix via the backoff path.
        let outs = net.nodes.get_mut(&0).unwrap().on_heartbeat_timeout();
        net.absorb(0, outs);
        net.run();
        assert_eq!(net.committed[&2], vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(net.nodes[&2].last_index(), 3);
    }

    #[test]
    fn divergent_follower_suffix_is_truncated() {
        // Build a follower that appended uncommitted entries from an old
        // leader, then a new leader overwrites them.
        let mut net = Net::new(3, Some(0));
        // Leader 0 proposes to itself only (others down): uncommitted.
        net.down.insert(1);
        net.down.insert(2);
        net.propose(0, 100).unwrap();
        net.propose(0, 101).unwrap();
        net.run();
        assert_eq!(net.nodes[&0].last_index(), 2);
        assert_eq!(net.nodes[&0].commit_index(), 0);
        // 0 crashes; 1 and 2 elect 1; commit different entries.
        net.down.remove(&1);
        net.down.remove(&2);
        net.down.insert(0);
        net.timeout(1);
        net.run();
        net.propose(1, 200).unwrap();
        net.run();
        // 0 rejoins as follower; its divergent suffix must vanish.
        net.down.remove(&0);
        let outs = net.nodes.get_mut(&1).unwrap().on_heartbeat_timeout();
        net.absorb(1, outs);
        net.run();
        assert_eq!(net.nodes[&0].last_index(), 1);
        assert_eq!(net.nodes[&0].entry(1).unwrap().data, 200);
        assert_eq!(net.committed[&0], vec![(1, 200)]);
    }

    #[test]
    fn single_member_instance_commits_instantly() {
        let mut net = Net::new(1, Some(0));
        net.propose(0, 5).unwrap();
        net.run();
        assert_eq!(net.committed[&0], vec![(1, 5)]);
    }

    #[test]
    fn pipelined_proposals_ship_disjoint_suffixes() {
        // After propose() the leader's next_index advances optimistically,
        // so a second propose's AppendEntries must not resend entry 1.
        let mut net = Net::new(3, Some(0));
        net.propose(0, 1).unwrap();
        net.propose(0, 2).unwrap();
        let mut sizes = Vec::new();
        for (_, to, msg) in &net.queue {
            if let RaftMsg::AppendEntries { entries, .. } = msg {
                if *to == 1 {
                    sizes.push(entries.len());
                }
            }
        }
        assert_eq!(sizes, vec![1, 1], "second append must carry only entry 2");
        net.run();
        assert_eq!(net.committed[&1], vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn compaction_drops_applied_prefix_only() {
        let mut net = Net::new(3, Some(0));
        for i in 0..10 {
            net.propose(0, i).unwrap();
        }
        net.run();
        let leader = net.nodes.get_mut(&0).unwrap();
        assert_eq!(leader.last_index(), 10);
        // Compact with a margin of 2: drops indices 1..=8.
        let dropped = leader.compact_to_applied(2);
        assert_eq!(dropped, 8);
        assert_eq!(leader.snapshot_index(), 8);
        assert_eq!(leader.retained_entries(), 2);
        assert_eq!(leader.last_index(), 10);
        assert!(leader.entry(8).is_none());
        assert_eq!(leader.entry(9).unwrap().data, 8);
        // Compacting beyond the applied prefix is a no-op.
        assert_eq!(leader.compact(1000), 0);
    }

    #[test]
    fn replication_continues_after_compaction() {
        let mut net = Net::new(3, Some(0));
        for i in 0..6 {
            net.propose(0, i).unwrap();
        }
        net.run();
        for m in 0..3u32 {
            let n = net.nodes.get_mut(&m).unwrap();
            n.compact_to_applied(1);
            assert!(n.snapshot_index() >= 4, "member {m}");
        }
        // New proposals still replicate and commit everywhere.
        net.propose(0, 100).unwrap();
        net.run();
        for m in 0..3u32 {
            assert!(net.committed[&m].contains(&(7, 100)), "member {m}");
        }
    }

    #[test]
    fn election_works_across_compaction_boundary() {
        let mut net = Net::new(3, Some(0));
        for i in 0..5 {
            net.propose(0, i).unwrap();
        }
        net.run();
        for m in 0..3u32 {
            net.nodes.get_mut(&m).unwrap().compact_to_applied(0);
        }
        net.down.insert(0);
        net.timeout(1);
        net.run();
        assert!(net.nodes[&1].is_leader());
        net.propose(1, 200).unwrap();
        net.run();
        assert!(net.committed[&2].contains(&(6, 200)));
    }

    #[test]
    fn old_term_append_rejected() {
        let mut net = Net::new(3, Some(0));
        // Move member 1 to term 3 via an election.
        net.down.insert(0);
        net.down.insert(2);
        net.timeout(1); // term 2, loses
        net.timeout(1); // term 3, loses
        net.queue.clear();
        net.down.remove(&0);
        net.down.remove(&2);
        // Old leader 0 (term 1) heartbeats; 1 must reject and 0 step down.
        let outs = net.nodes.get_mut(&0).unwrap().on_heartbeat_timeout();
        net.absorb(0, outs);
        net.run();
        assert!(!net.nodes[&0].is_leader());
        assert_eq!(net.nodes[&0].term(), 3);
    }

    proptest::proptest! {
        /// `commit_candidate` against the scan it replaced, on leader
        /// states no message sequence is needed to reach: 3–16 members,
        /// arbitrary `match_index` (the leader's own included, some members
        /// absent), log terms rising across term changes or not at all
        /// monotone, a compacted prefix, any commit point.
        #[test]
        fn commit_candidate_equals_the_scan(
            members in 3usize..17,
            terms in proptest::collection::vec(1u64..5, 0..40),
            sorted in proptest::prelude::any::<bool>(),
            matched in proptest::collection::vec(0u64..48, 16),
            absent in proptest::prelude::any::<u16>(),
            term in 1u64..6,
            snapshot in 0u64..8,
            committed in 0u64..40,
        ) {
            let mut terms = terms;
            if sorted {
                terms.sort_unstable();
            }
            let ids: Vec<MemberId> = (0..members as u32).collect();
            let mut node: RaftNode<u64> = RaftNode::new(RaftConfig {
                me: 0,
                members: ids.clone(),
                initial_leader: Some(0),
            });
            node.term = term;
            node.snapshot_index = snapshot;
            node.log = terms.iter().map(|&term| LogEntry { term, data: 0 }).collect();
            node.commit_index = (snapshot + committed).min(node.last_index());
            node.match_index = ids
                .iter()
                .filter(|&&m| absent & (1 << m) == 0)
                .map(|&m| (m, matched[m as usize]))
                .collect();
            proptest::prop_assert_eq!(node.commit_candidate(), node.commit_candidate_by_scan());
        }
    }
}
