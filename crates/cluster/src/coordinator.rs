//! The coordinator: N `pts-server` nodes behind one engine-shaped surface.
//!
//! ## The distributed two-stage law
//!
//! Every node hosts a full engine over the same universe `[0, n)`; the
//! coordinator routes each update to the node owning its slice, so node
//! `v`'s engine holds exactly the sub-vector `x|slice(v)` and its `Stats`
//! report carries the exact slice mass `M_v = Σ_{i ∈ slice(v)} G(x_i)`.
//! A cluster draw composes two stages, exactly like
//! [`pts_engine::ShardedEngine::sample`] does across in-process shards:
//!
//! ```text
//! Pr[i] = (M_v / Σ_w M_w) · G(x_i) / M_v = G(x_i) / Σ_j G(x_j)
//! ```
//!
//! — scatter a `Stats` query for the masses, pick a node with
//! [`pts_engine::pick_by_mass`] (the *same code* the engine uses for the
//! shard pick), then fetch the draw from that node, whose
//! own two-stage shard draw serves its slice law. Linearity is what
//! makes the composition exact: disjoint slices add, so the per-node
//! masses are the global mass decomposition, for any node count. The ⊥
//! caveat of the engine docs carries over per node (a node's FAIL
//! probability depends on its slice), which is why a cluster draw
//! returns ⊥ honestly rather than re-picking.
//!
//! ## Consistency
//!
//! All coordinator methods take `&mut self`, and since wire v3 the
//! per-node conversations are **pipelined**, not lockstep: a scatter
//! submits every node's request before awaiting any answer (`N · RTT`
//! becomes `~1 · RTT`), and every answer is awaited before the method
//! returns. The serialization story is unchanged: the server processes
//! one connection's requests in submission order and answers a `Stats`
//! only after applying that connection's prior requests, and
//! cross-connection consistency is the server's engine mutex — so the
//! mass scatter of a draw still observes every previously acknowledged
//! ingest. What a cluster does **not** provide is cluster-wide ingest
//! atomicity: each per-node batch applies atomically on its node, but
//! because a pipelined scatter has every sub-batch in flight at once, an
//! ingest that returns an error may leave *any subset of the other
//! nodes* written — the typed [`ClusterError`] tells the caller which
//! node broke so it can rejoin-and-retry (updates are deltas; replaying
//! an *unacknowledged* batch is the caller's idempotence decision).
//!
//! ## Failure model
//!
//! A node that errors at the transport level (I/O, torn frame) is
//! marked **down**; operations that need it return typed errors, and
//! [`Coordinator::stats`] keeps reporting per-node health so an
//! operator can see the degraded topology. Recovery has two paths,
//! matched to what actually failed:
//!
//! * [`Coordinator::reconnect`] — the *connection* failed (network
//!   blip, expired client deadline) but the server survived: re-attach
//!   to the same address, restore nothing, lose nothing.
//! * [`Coordinator::rejoin`] — the *server* died: point the slot at a
//!   restarted server and restore the node's last checkpoint through
//!   the wire. The node rejoins **draw-for-draw identical** —
//!   checkpoints are bit-exact (DESIGN.md S29), so a cluster that lost
//!   and recovered a node serves the same draws as one that never did
//!   (pinned by `tests/cluster_law.rs`).
//!
//! [`Coordinator::rebalance`] is the same checkpoint stream pointed at
//! a live standby instead of a restart.
//!
//! ## Tenancy (wire v4)
//!
//! Since wire v4 every node hosts a *tenant map*, and the coordinator
//! extends the slice partition per tenant: a namespace created through
//! [`Coordinator::create_namespace`] exists on every slice owner, each
//! node holding that tenant's sub-vector over its slice, so the two-stage
//! law above holds per namespace with complete cross-tenant isolation
//! (disjoint engines end to end). Routing is namespace-aware — each
//! tenant starts with the default slice→node assignment and
//! [`Coordinator::migrate_tenant`] (the tenant-granular
//! [`Coordinator::rebalance`]) re-points *one tenant's* slices at a
//! different node by streaming only that tenant's checkpoint, leaving
//! every other namespace where it was. [`Coordinator::checkpoint_tenant`]
//! / [`Coordinator::restore_tenant`] are the matching per-tenant halves
//! of [`Coordinator::checkpoint_node`] / [`Coordinator::rejoin`], so an
//! individual tenant can be shed, persisted, and revived on a different
//! node draw-for-draw identically (pinned by `tests/cluster_law.rs`).

use crate::config::ClusterConfig;
use crate::obs::obs;
use pts_engine::pick_by_mass;
use pts_obs::{event, Span, Stopwatch, Tracer};
use pts_samplers::Sample;
use pts_server::{Client, ClientConfig, ClientError, Pending};
use pts_stream::Update;
use pts_util::protocol::{ServiceStats, TraceContext, DEFAULT_NAMESPACE, MAX_SAMPLE_COUNT};
use pts_util::Xoshiro256pp;
use std::collections::{HashMap, VecDeque};

/// Seed stream tag for the coordinator's node-pick RNG (disjoint from the
/// engine's internal streams by construction — different consumer).
const NODE_PICK_STREAM: u64 = 0xC157;

/// A child span under `trace` (no-op when the operation is untraced).
fn child_span(trace: Option<TraceContext>, name: &'static str) -> Span {
    match trace {
        Some(ctx) => Span::start(ctx.trace_id, ctx.parent_span_id, name),
        None => Span::noop(),
    }
}

/// The context downstream work should parent to: `span`'s own id while it
/// records, `None` when it is a no-op (so untraced stays untraced on the
/// wire).
fn span_ctx(span: &Span) -> Option<TraceContext> {
    span.is_recording().then(|| TraceContext {
        trace_id: span.trace_id(),
        parent_span_id: span.id(),
    })
}

/// Everything a cluster operation can fail with. Transport-level failures
/// mark the node down ([`NodeHealth::Down`]); the error names the node so
/// the caller can [`Coordinator::rejoin`] it.
#[derive(Debug)]
pub enum ClusterError {
    /// Talking to a node failed. Non-recoverable failures (I/O, torn
    /// frames — the connection's demux is dead and every in-flight
    /// request on it is lost) additionally mark the node down; in-band
    /// server errors do not (see [`ClusterError::is_recoverable`]).
    Node {
        /// The node's index in the cluster topology.
        node: usize,
        /// The node's address.
        addr: String,
        /// The underlying client failure.
        source: ClientError,
    },
    /// The operation needed a node that is already marked down.
    NodeDown {
        /// The node's index in the cluster topology.
        node: usize,
        /// The node's address.
        addr: String,
    },
    /// A node serves an engine over the wrong universe — its slice
    /// assignment would be meaningless (detected at connect/rejoin time
    /// from the version-2 `Stats` report).
    UniverseMismatch {
        /// The node's index in the cluster topology.
        node: usize,
        /// The universe the node's engine reports.
        got: u64,
        /// The universe the cluster is configured for.
        want: u64,
    },
    /// An ingested update addresses a coordinate outside the cluster
    /// universe (rejected before anything is sent — cluster batches are
    /// validated atomically like server batches).
    OutOfUniverse {
        /// The offending coordinate.
        index: u64,
    },
    /// A topology operation was misused (bad node index, rebalance from
    /// a node that owns nothing or onto one that is not standby, …).
    Topology(&'static str),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Node { node, addr, source } => {
                write!(f, "node {node} ({addr}) failed: {source}")
            }
            ClusterError::NodeDown { node, addr } => {
                write!(f, "node {node} ({addr}) is down")
            }
            ClusterError::UniverseMismatch { node, got, want } => {
                write!(f, "node {node} serves universe {got}, cluster wants {want}")
            }
            ClusterError::OutOfUniverse { index } => {
                write!(f, "index {index} outside the cluster universe")
            }
            ClusterError::Topology(what) => write!(f, "topology error: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Node { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ClusterError {
    /// Whether the failed operation can be retried on this cluster as-is —
    /// the cluster layer of the stack-wide recoverability contract
    /// ([`pts_util::protocol::FrameError::is_recoverable`] →
    /// [`pts_server::ClientError::is_recoverable`] → here; each layer
    /// derives its answer from the one below instead of re-matching
    /// transport variants).
    ///
    /// * [`ClusterError::Node`] delegates to the client failure: an
    ///   in-band server error is recoverable (the node answered; it is
    ///   still up), a transport failure is not (the node was marked down
    ///   when this error was built — repair it first).
    /// * [`ClusterError::OutOfUniverse`] and [`ClusterError::Topology`]
    ///   are caller mistakes rejected before anything was sent: retry
    ///   with corrected arguments.
    /// * [`ClusterError::NodeDown`] and [`ClusterError::UniverseMismatch`]
    ///   need a topology repair ([`Coordinator::reconnect`] or
    ///   [`Coordinator::rejoin`]) before a retry can succeed.
    pub fn is_recoverable(&self) -> bool {
        match self {
            ClusterError::Node { source, .. } => source.is_recoverable(),
            ClusterError::OutOfUniverse { .. } | ClusterError::Topology(_) => true,
            ClusterError::NodeDown { .. } | ClusterError::UniverseMismatch { .. } => false,
        }
    }
}

/// A node's liveness as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Connected and answering.
    Up,
    /// Marked down after a transport failure (or never reached); needs a
    /// [`Coordinator::rejoin`].
    Down,
}

/// One node's row in a [`ClusterStats`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStatus {
    /// The node's address.
    pub addr: String,
    /// Liveness at report time.
    pub health: NodeHealth,
    /// The slice this node owns (`None` = standby, or drained by a
    /// rebalance).
    pub slice: Option<usize>,
    /// The node's own service report (`None` when down).
    pub service: Option<ServiceStats>,
}

/// A point-in-time view of the whole cluster: per-node health plus the
/// aggregated engine counters of every live slice owner.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-node status, in topology order.
    pub nodes: Vec<NodeStatus>,
    /// Number of slices in the static partition.
    pub slices: usize,
    /// Exact cluster `G`-mass: the sum of live owners' masses.
    pub total_mass: f64,
    /// Updates applied across live owners (as they report them).
    pub total_updates: u64,
    /// Non-zero coordinates across live owners.
    pub total_support: u64,
    /// Successful draws served by the coordinator.
    pub samples: u64,
    /// Coordinator draws that came back ⊥.
    pub fails: u64,
    /// Completed [`Coordinator::rebalance`] migrations.
    pub rebalances: u64,
}

impl ClusterStats {
    /// Whether any slice owner is down — i.e. whether sampling and
    /// full-universe ingest are currently impossible.
    pub fn degraded(&self) -> bool {
        self.nodes
            .iter()
            .any(|n| n.slice.is_some() && n.health == NodeHealth::Down)
    }
}

/// A node slot: its address and (when up) its client connection.
#[derive(Debug)]
struct Node {
    addr: String,
    /// `None` = down.
    client: Option<Client>,
}

/// The multi-node coordinator: one logical always-queryable sampler over
/// N `pts-server` nodes (see the module docs for the law and the failure
/// model).
#[derive(Debug)]
pub struct Coordinator {
    universe: usize,
    /// Slice boundaries: slice `s` covers `[cuts[s], cuts[s+1])`.
    cuts: Vec<u64>,
    /// Which node owns each slice (the default namespace's assignment,
    /// and the starting assignment of every created tenant).
    slice_owner: Vec<usize>,
    /// Per-tenant slice→node overrides for namespaces whose ownership
    /// has diverged from `slice_owner` (created by
    /// [`Coordinator::create_namespace`], re-pointed by
    /// [`Coordinator::migrate_tenant`]).
    tenant_owner: HashMap<u64, Vec<usize>>,
    nodes: Vec<Node>,
    client_config: ClientConfig,
    /// Drives the node pick at query time — the cluster analogue of the
    /// engine's shard-selection RNG.
    rng: Xoshiro256pp,
    /// Reusable per-slice scatter buffers for batched ingest.
    plan: Vec<Vec<Update>>,
    /// Samples whole `sample_many` bursts into distributed traces
    /// (disabled until [`Coordinator::set_trace_sampling`]).
    tracer: Tracer,
    /// The cluster seed, kept so the trace sampler's phase is derived
    /// from the same value as every other seeded stream.
    trace_seed: u64,
    samples: u64,
    fails: u64,
    rebalances: u64,
}

impl Coordinator {
    /// Connects to every configured node and validates that each serves
    /// an engine over the cluster universe (via the version-2 `Stats`
    /// report). Active nodes receive their slices in declaration order.
    ///
    /// # Panics
    /// Panics on a degenerate configuration
    /// ([`ClusterConfig::validate`]).
    pub fn connect(config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate();
        let active = config.active_nodes();
        let cuts: Vec<u64> = (0..=active)
            .map(|i| ((i as u128 * config.universe as u128) / active as u128) as u64)
            .collect();
        let slice_owner: Vec<usize> = config
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, spec)| !spec.standby)
            .map(|(node, _)| node)
            .collect();
        let mut coordinator = Self {
            universe: config.universe,
            cuts,
            slice_owner,
            tenant_owner: HashMap::new(),
            nodes: config
                .nodes
                .iter()
                .map(|spec| Node {
                    addr: spec.addr.clone(),
                    client: None,
                })
                .collect(),
            client_config: config.client,
            rng: Xoshiro256pp::from_seed_stream(config.seed, NODE_PICK_STREAM),
            plan: (0..active).map(|_| Vec::new()).collect(),
            tracer: Tracer::disabled(),
            trace_seed: config.seed,
            samples: 0,
            fails: 0,
            rebalances: 0,
        };
        for node in 0..coordinator.nodes.len() {
            coordinator.attach(node, None)?;
        }
        Ok(coordinator)
    }

    /// Enables wire v5 distributed tracing for coordinator bursts: one
    /// [`Coordinator::sample_many`] in `every` becomes a trace whose
    /// context rides the scatter to every node, so the whole fan-out —
    /// client submits, per-node server stages, gather — lands in one
    /// span tree. `every = 1` traces every burst, `every = 0` disables
    /// (the default). Deterministic like every other knob here: which
    /// bursts are sampled depends only on the cluster seed and the
    /// burst counter, never on a clock or an RNG.
    pub fn set_trace_sampling(&mut self, every: u64) {
        self.tracer = Tracer::new(self.trace_seed, every);
    }

    /// The cluster universe bound.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of slices in the static partition.
    pub fn slices(&self) -> usize {
        self.cuts.len() - 1
    }

    /// The half-open coordinate range of slice `s`.
    ///
    /// # Panics
    /// Panics if `s` is not a slice index.
    pub fn slice_range(&self, s: usize) -> (u64, u64) {
        (self.cuts[s], self.cuts[s + 1])
    }

    /// The node currently owning the slice that contains `index`.
    ///
    /// # Panics
    /// Panics if `index` is outside the universe.
    pub fn owner_of(&self, index: u64) -> usize {
        assert!(
            (index as u128) < self.universe as u128,
            "index outside universe"
        );
        self.slice_owner[self.slice_of(index)]
    }

    /// The address a node slot currently points at.
    ///
    /// # Panics
    /// Panics if `node` is not a node index.
    pub fn node_addr(&self, node: usize) -> &str {
        &self.nodes[node].addr
    }

    /// A node's current liveness.
    ///
    /// # Panics
    /// Panics if `node` is not a node index.
    pub fn node_health(&self, node: usize) -> NodeHealth {
        if self.nodes[node].client.is_some() {
            NodeHealth::Up
        } else {
            NodeHealth::Down
        }
    }

    /// The slice a node currently owns (`None` = standby or drained).
    ///
    /// # Panics
    /// Panics if `node` is not a node index.
    pub fn node_slice(&self, node: usize) -> Option<usize> {
        self.slice_owner.iter().position(|&owner| owner == node)
    }

    fn slice_of(&self, index: u64) -> usize {
        self.cuts.partition_point(|&c| c <= index) - 1
    }

    /// Connects (or reconnects) a node slot, optionally to a new address,
    /// and verifies its universe.
    fn attach(&mut self, node: usize, new_addr: Option<String>) -> Result<(), ClusterError> {
        if let Some(addr) = new_addr {
            self.nodes[node].addr = addr;
        }
        let addr = self.nodes[node].addr.clone();
        let mut client =
            Client::connect_with(&addr, &self.client_config).map_err(|e| ClusterError::Node {
                node,
                addr: addr.clone(),
                source: ClientError::Io(e),
            })?;
        let stats = client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .and_then(Pending::wait);
        let stats = stats.map_err(|source| ClusterError::Node {
            node,
            addr: addr.clone(),
            source,
        })?;
        if stats.universe != self.universe as u64 {
            return Err(ClusterError::UniverseMismatch {
                node,
                got: stats.universe,
                want: self.universe as u64,
            });
        }
        self.nodes[node].client = Some(client);
        obs().node_up.inc();
        event("cluster.node.up", format!("node {node} ({addr})"));
        Ok(())
    }

    /// Converts a client failure on `node` into a [`ClusterError::Node`],
    /// consuming [`ClientError::is_recoverable`] for the down-mark
    /// decision: a recoverable failure (in-band server error) leaves the
    /// node up, anything else (I/O, torn frame — the connection's demux
    /// is dead) marks it down for [`Coordinator::reconnect`] /
    /// [`Coordinator::rejoin`].
    fn fail_node(&mut self, node: usize, source: ClientError) -> ClusterError {
        let addr = self.nodes[node].addr.clone();
        if !source.is_recoverable() {
            self.nodes[node].client = None;
            obs().node_down.inc();
            event(
                "cluster.node.down",
                format!("node {node} ({addr}): {source}"),
            );
        }
        ClusterError::Node { node, addr, source }
    }

    /// The error for an operation that needed `node` while it is marked
    /// down.
    fn node_down(&self, node: usize) -> ClusterError {
        ClusterError::NodeDown {
            node,
            addr: self.nodes[node].addr.clone(),
        }
    }

    /// Runs one blocking exchange against a node's client: submits with
    /// `op`, then waits for the answer; failures go through
    /// [`Coordinator::fail_node`].
    fn with_node<T>(
        &mut self,
        node: usize,
        op: impl FnOnce(&mut Client) -> Result<Pending<T>, ClientError>,
    ) -> Result<T, ClusterError> {
        let Some(client) = self.nodes[node].client.as_mut() else {
            return Err(self.node_down(node));
        };
        match op(client).and_then(Pending::wait) {
            Ok(v) => Ok(v),
            Err(source) => Err(self.fail_node(node, source)),
        }
    }

    /// The slice→node assignment of namespace `ns`: the default
    /// assignment unless a migration re-pointed this tenant.
    fn ns_slice_owner(&self, ns: u64) -> &[usize] {
        self.tenant_owner
            .get(&ns)
            .map(Vec::as_slice)
            .unwrap_or(&self.slice_owner)
    }

    /// The distinct nodes owning `ns`'s slices, in slice order
    /// (deterministic — the draw-for-draw contracts depend on a canonical
    /// scatter order).
    fn owner_nodes(&self, ns: u64) -> Vec<usize> {
        let assignment = self.ns_slice_owner(ns);
        let mut owners: Vec<usize> = Vec::with_capacity(assignment.len());
        for &node in assignment {
            if !owners.contains(&node) {
                owners.push(node);
            }
        }
        owners
    }

    /// Routes a batch of turnstile updates to their owning nodes (one
    /// `IngestBatch` per touched node, preserving in-batch order) and
    /// returns the accepted update count.
    ///
    /// The per-node sub-batches are **pipelined**: every touched node's
    /// `IngestBatch` is submitted before any acknowledgement is awaited,
    /// so the scatter costs ~one round trip instead of one per node. All
    /// acknowledgements are awaited before returning — `Ok(n)` still
    /// means every sub-batch is applied.
    ///
    /// Cluster-level validation is atomic — an out-of-universe index
    /// rejects the whole batch before anything is sent. Cluster-level
    /// *application* is per-node atomic only, and pipelining widens the
    /// mid-scatter failure window: because every sub-batch is in flight
    /// at once, an error return means any subset of the *other* touched
    /// nodes may have applied theirs (see the module docs).
    pub fn ingest_batch(&mut self, batch: &[Update]) -> Result<u64, ClusterError> {
        self.ingest_batch_ns(DEFAULT_NAMESPACE, batch)
    }

    /// [`Coordinator::ingest_batch`] addressed to namespace `ns` — same
    /// routing and pipelining, against that tenant's slice owners.
    pub fn ingest_batch_ns(&mut self, ns: u64, batch: &[Update]) -> Result<u64, ClusterError> {
        if let Some(u) = batch
            .iter()
            .find(|u| (u.index as u128) >= self.universe as u128)
        {
            return Err(ClusterError::OutOfUniverse { index: u.index });
        }
        for run in &mut self.plan {
            run.clear();
        }
        for &u in batch {
            let slice = self.slice_of(u.index);
            self.plan[slice].push(u);
        }
        let owner_of_slice = self.ns_slice_owner(ns).to_vec();
        // Submit every touched node's sub-batch before awaiting any ack.
        let mut sent: Vec<(usize, Pending<u64>)> = Vec::new();
        let mut first_err: Option<ClusterError> = None;
        for (slice, &node) in owner_of_slice.iter().enumerate() {
            if self.plan[slice].is_empty() {
                continue;
            }
            let run = std::mem::take(&mut self.plan[slice]);
            // Two-step match: the submit result must outlive the client
            // borrow before `fail_node` can re-borrow `self`.
            let submitted = self.nodes[node]
                .client
                .as_mut()
                .map(|client| client.submit_ingest_batch_ns(ns, &run));
            self.plan[slice] = run;
            match submitted {
                None => {
                    first_err = Some(self.node_down(node));
                    break;
                }
                Some(Err(source)) => {
                    first_err = Some(self.fail_node(node, source));
                    break;
                }
                Some(Ok(pending)) => sent.push((node, pending)),
            }
        }
        // Await every submitted ack even when a later submit failed: an
        // `Err` return must not leave un-reaped responses racing the next
        // operation's accounting.
        let mut accepted = 0u64;
        for (node, pending) in sent {
            match pending.wait() {
                Ok(n) => accepted += n,
                Err(source) => {
                    let err = self.fail_node(node, source);
                    first_err.get_or_insert(err);
                }
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        obs().ingest_accepted.add(accepted);
        Ok(accepted)
    }

    /// The exact cluster `G`-mass `Σ_j G(x_j)`: a `Stats` scatter over
    /// the slice owners, summed.
    pub fn mass(&mut self) -> Result<f64, ClusterError> {
        self.mass_ns(DEFAULT_NAMESPACE)
    }

    /// [`Coordinator::mass`] for namespace `ns` — that tenant's exact
    /// cluster-wide `G`-mass.
    pub fn mass_ns(&mut self, ns: u64) -> Result<f64, ClusterError> {
        Ok(self.scatter_masses(ns, None)?.2)
    }

    /// Scatters a `Stats` query to every slice owner; returns the owners,
    /// their exact masses (owner order), and the total.
    ///
    /// The scatter is **pipelined**: every owner's `Stats` is submitted
    /// before any answer is awaited, so wall-clock cost is ~one round
    /// trip regardless of owner count (`perfbench`'s `draw` workload
    /// reports this path as its `cluster.scatter_us` row). When `trace` is
    /// set the scatter gets a `cluster.scatter` span and every per-node
    /// `Stats` submit carries that span's context, so each node's stage
    /// spans parent to the scatter in the burst's tree.
    fn scatter_masses(
        &mut self,
        ns: u64,
        trace: Option<TraceContext>,
    ) -> Result<(Vec<usize>, Vec<f64>, f64), ClusterError> {
        let sw = Stopwatch::start();
        let scatter_span = child_span(trace, "cluster.scatter");
        let ctx = span_ctx(&scatter_span);
        let owners = self.owner_nodes(ns);
        let mut pend: Vec<Pending<ServiceStats>> = Vec::with_capacity(owners.len());
        for &node in &owners {
            let submitted = self.nodes[node]
                .client
                .as_mut()
                .map(|client| client.submit_stats_ns_traced(ns, ctx));
            match submitted {
                None => return Err(self.node_down(node)),
                Some(Err(source)) => return Err(self.fail_node(node, source)),
                Some(Ok(pending)) => pend.push(pending),
            }
        }
        let mut masses = Vec::with_capacity(owners.len());
        let mut total = 0.0;
        for (&node, pending) in owners.iter().zip(pend) {
            let stats = pending.wait().map_err(|s| self.fail_node(node, s))?;
            masses.push(stats.mass);
            total += stats.mass;
        }
        drop(scatter_span);
        obs().scatter_ns.observe_elapsed(sw);
        Ok((owners, masses, total))
    }

    /// Draws one sample from the cluster-wide law `G(x_i)/Σ_j G(x_j)`
    /// (`None` is the paper's ⊥, an honest outcome — see the module
    /// docs).
    pub fn sample(&mut self) -> Result<Option<Sample>, ClusterError> {
        self.sample_ns(DEFAULT_NAMESPACE)
    }

    /// [`Coordinator::sample`] from namespace `ns`'s own law.
    pub fn sample_ns(&mut self, ns: u64) -> Result<Option<Sample>, ClusterError> {
        Ok(self.sample_many_ns(ns, 1)?.pop().flatten())
    }

    /// Draws `count` samples: one mass scatter, `count` node picks, then
    /// one batched `Sample` fetch per picked node (split into
    /// protocol-sized requests as needed), reassembled in draw order.
    ///
    /// The node picks all use the scatter's mass snapshot — for a burst
    /// this is the cluster analogue of the engine's consistent-mass
    /// two-stage draw, and it keeps the per-draw round-trip cost at one
    /// scatter per *burst* rather than per draw.
    ///
    /// An error burst delivers nothing and **consumes no coordinator
    /// randomness**: a failure at the scatter stage happens before any
    /// pick, and a mid-fetch failure (a picked node died between
    /// answering `Stats` and its `Sample` fetch) rolls the node-pick RNG
    /// back to its pre-burst state. A node that was already dead when
    /// the burst started always fails at scatter time — so recover-and-
    /// retry stays draw-for-draw identical to a never-failed cluster.
    /// The one side effect a *mid-fetch* failure cannot undo is draws
    /// already consumed from other nodes' pools: those cost pool
    /// instances (which respawn; the law is unaffected), and only exact
    /// draw-for-draw identity with an uninterrupted control is lost in
    /// that narrow window.
    pub fn sample_many(&mut self, count: u64) -> Result<Vec<Option<Sample>>, ClusterError> {
        self.sample_many_ns(DEFAULT_NAMESPACE, count)
    }

    /// [`Coordinator::sample_many`] from namespace `ns`'s own law — the
    /// scatter, picks, and fetches all address that tenant's engines, so
    /// tenants sample independently (no shared state, and the node-pick
    /// RNG is only consumed by delivered bursts, whichever tenant they
    /// serve).
    pub fn sample_many_ns(
        &mut self,
        ns: u64,
        count: u64,
    ) -> Result<Vec<Option<Sample>>, ClusterError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        // The burst's root span: sampled deterministically, the whole
        // fan-out (scatter + per-node stages + gather) parents under it.
        let mut root = match self.tracer.sample() {
            Some(trace_id) => Span::start(trace_id, 0, "cluster.sample_many"),
            None => Span::noop(),
        };
        if root.is_recording() {
            root.tag(format!("ns={ns} count={count}"));
        }
        let trace = span_ctx(&root);
        let (owners, masses, total) = self.scatter_masses(ns, trace)?;
        if total <= 0.0 {
            // The zero vector: ⊥ without consuming RNG, like the engine.
            return Ok(vec![None; count as usize]);
        }
        let rng_before = self.rng.state();
        let picks: Vec<usize> = (0..count)
            .map(|_| pick_by_mass(&mut self.rng, &masses, total))
            .collect();
        let mut per_owner = vec![0u64; owners.len()];
        for &p in &picks {
            per_owner[p] += 1;
        }
        let sw = Stopwatch::start();
        let gather_span = child_span(trace, "cluster.gather");
        let gather_ctx = span_ctx(&gather_span);
        // Submit every node's fetch — chunked into MAX_SAMPLE_COUNT-sized
        // requests, since a coordinator burst may exceed what one Sample
        // request is allowed to carry — before awaiting any draw, so the
        // gather costs ~one round trip regardless of how many nodes were
        // picked. The server answers one connection's requests in
        // submission order, so a node's chunks come back in chunk order.
        let mut in_flight: Vec<Vec<Pending<Vec<Option<Sample>>>>> =
            Vec::with_capacity(owners.len());
        let mut fetch_err: Option<ClusterError> = None;
        'submit: for (o, &node) in owners.iter().enumerate() {
            let mut chunks = Vec::new();
            let mut remaining = per_owner[o];
            while remaining > 0 {
                let take = remaining.min(MAX_SAMPLE_COUNT);
                let submitted = self.nodes[node]
                    .client
                    .as_mut()
                    .map(|client| client.submit_sample_many_ns_traced(ns, take, gather_ctx));
                match submitted {
                    None => {
                        fetch_err = Some(self.node_down(node));
                        break 'submit;
                    }
                    Some(Err(source)) => {
                        fetch_err = Some(self.fail_node(node, source));
                        break 'submit;
                    }
                    Some(Ok(pending)) => chunks.push(pending),
                }
                remaining -= take;
            }
            in_flight.push(chunks);
        }
        let mut fetched: Vec<VecDeque<Option<Sample>>> = Vec::with_capacity(owners.len());
        if fetch_err.is_none() {
            'wait: for (&node, chunks) in owners.iter().zip(in_flight) {
                let mut draws = VecDeque::new();
                for pending in chunks {
                    match pending.wait() {
                        Ok(batch) => draws.extend(batch),
                        Err(source) => {
                            fetch_err = Some(self.fail_node(node, source));
                            break 'wait;
                        }
                    }
                }
                fetched.push(draws);
            }
        }
        if let Some(err) = fetch_err {
            // Un-consume the burst's picks (see the doc comment); draws
            // already fetched from other nodes are discarded — an error
            // burst delivers nothing. Unawaited chunks resolve into the
            // demux's stray buffer and are dropped there.
            self.rng = Xoshiro256pp::from_state(rng_before);
            return Err(err);
        }
        // Picks are counted only for delivered bursts: a rolled-back burst
        // repeats its picks on retry, and double counting would skew the
        // observed node-pick distribution.
        drop(gather_span);
        obs().gather_ns.observe_elapsed(sw);
        for (o, &node) in owners.iter().enumerate() {
            if per_owner[o] > 0 {
                obs().node_pick(node, per_owner[o]);
            }
        }
        let draws: Vec<Option<Sample>> = picks
            .iter()
            .map(|&p| {
                fetched[p]
                    .pop_front()
                    .expect("node returned fewer draws than requested")
            })
            .collect();
        for draw in &draws {
            match draw {
                Some(_) => self.samples += 1,
                None => self.fails += 1,
            }
        }
        Ok(draws)
    }

    /// A full cluster report: per-node health and service stats plus
    /// aggregates over the live slice owners. Never fails — a node that
    /// cannot answer is reported down (and marked so), which is the
    /// point of the report.
    pub fn stats(&mut self) -> ClusterStats {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut total_mass = 0.0;
        let mut total_updates = 0;
        let mut total_support = 0;
        for node in 0..self.nodes.len() {
            let slice = self.node_slice(node);
            let service = self
                .with_node(node, |c| c.submit_stats_ns(DEFAULT_NAMESPACE))
                .ok();
            if let (Some(s), Some(_)) = (&service, slice) {
                total_mass += s.mass;
                total_updates += s.updates;
                total_support += s.support;
            }
            nodes.push(NodeStatus {
                addr: self.nodes[node].addr.clone(),
                health: self.node_health(node),
                slice,
                service,
            });
        }
        ClusterStats {
            nodes,
            slices: self.slices(),
            total_mass,
            total_updates,
            total_support,
            samples: self.samples,
            fails: self.fails,
            rebalances: self.rebalances,
        }
    }

    /// Pulls a node's complete engine checkpoint over the wire — the
    /// bytes an operator persists so a crashed node can
    /// [`Coordinator::rejoin`] identically.
    pub fn checkpoint_node(&mut self, node: usize) -> Result<Vec<u8>, ClusterError> {
        self.check_node_index(node)?;
        self.with_node(node, |c| c.submit_checkpoint_ns(DEFAULT_NAMESPACE))
    }

    /// Creates namespace `ns` on every slice owner (pipelined scatter),
    /// so the tenant exists cluster-wide with the default slice→node
    /// assignment. Every node builds the tenant's engine through its own
    /// spawner — the nodes must be serving with one
    /// ([`pts_server::serve_with_spawner`]).
    ///
    /// On error, the subset of owners that already acknowledged keeps the
    /// namespace (each node's create is atomic, the scatter is not); the
    /// error names the node that broke so the caller can repair and
    /// retry or [`Coordinator::drop_namespace`] the partial tenant.
    pub fn create_namespace(&mut self, ns: u64) -> Result<(), ClusterError> {
        if ns == DEFAULT_NAMESPACE {
            return Err(ClusterError::Topology("namespace 0 always exists"));
        }
        let owners = self.owner_nodes(DEFAULT_NAMESPACE);
        let mut pend: Vec<Pending<()>> = Vec::with_capacity(owners.len());
        for &node in &owners {
            let submitted = self.nodes[node]
                .client
                .as_mut()
                .map(|client| client.submit_create_namespace(ns));
            match submitted {
                None => return Err(self.node_down(node)),
                Some(Err(source)) => return Err(self.fail_node(node, source)),
                Some(Ok(pending)) => pend.push(pending),
            }
        }
        let mut first_err: Option<ClusterError> = None;
        for (&node, pending) in owners.iter().zip(pend) {
            if let Err(source) = pending.wait() {
                let err = self.fail_node(node, source);
                first_err.get_or_insert(err);
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        self.tenant_owner.insert(ns, self.slice_owner.clone());
        event(
            "cluster.tenant.create",
            format!("namespace {ns} on {} owner(s)", owners.len()),
        );
        Ok(())
    }

    /// Drops namespace `ns` from every node currently hosting it
    /// (pipelined scatter), releasing the tenant's engines cluster-wide.
    /// Like [`Coordinator::create_namespace`], the scatter is per-node
    /// atomic only: on error some nodes may have dropped their share
    /// while others kept theirs — retry after repairing the named node.
    pub fn drop_namespace(&mut self, ns: u64) -> Result<(), ClusterError> {
        if ns == DEFAULT_NAMESPACE {
            return Err(ClusterError::Topology("namespace 0 cannot be dropped"));
        }
        let owners = self.owner_nodes(ns);
        let mut pend: Vec<Pending<()>> = Vec::with_capacity(owners.len());
        for &node in &owners {
            let submitted = self.nodes[node]
                .client
                .as_mut()
                .map(|client| client.submit_drop_namespace(ns));
            match submitted {
                None => return Err(self.node_down(node)),
                Some(Err(source)) => return Err(self.fail_node(node, source)),
                Some(Ok(pending)) => pend.push(pending),
            }
        }
        let mut first_err: Option<ClusterError> = None;
        for (&node, pending) in owners.iter().zip(pend) {
            if let Err(source) = pending.wait() {
                let err = self.fail_node(node, source);
                first_err.get_or_insert(err);
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        self.tenant_owner.remove(&ns);
        event("cluster.tenant.drop", format!("namespace {ns}"));
        Ok(())
    }

    /// Pulls one tenant's checkpoint from one node — the bytes covering
    /// exactly `ns`'s sub-vector over `node`'s slices, which is what
    /// makes shedding and reviving an individual tenant possible without
    /// touching its neighbors.
    pub fn checkpoint_tenant(&mut self, node: usize, ns: u64) -> Result<Vec<u8>, ClusterError> {
        self.check_node_index(node)?;
        self.with_node(node, |c| c.submit_checkpoint_ns(ns))
    }

    /// Revives namespace `ns`'s `from`-owned slices on node `to` from a
    /// checkpoint previously pulled via [`Coordinator::checkpoint_tenant`]
    /// — the per-tenant half of [`Coordinator::rejoin`]: `from` itself is
    /// never contacted (it may be dead; that is the point), only `ns`'s
    /// ownership is re-pointed, so every other namespace stays where it
    /// was. The tenant continues draw-for-draw identical on its new node
    /// (S29 bit-exactness, per tenant, through the wire).
    pub fn restore_tenant(
        &mut self,
        ns: u64,
        from: usize,
        to: usize,
        checkpoint: &[u8],
    ) -> Result<(), ClusterError> {
        if ns == DEFAULT_NAMESPACE {
            return Err(ClusterError::Topology(
                "restore the default tenant via rejoin",
            ));
        }
        self.check_node_index(from)?;
        self.check_node_index(to)?;
        if from == to {
            return Err(ClusterError::Topology("restore onto the same node"));
        }
        if !self.ns_slice_owner(ns).contains(&from) {
            return Err(ClusterError::Topology(
                "restore source owns none of this tenant's slices",
            ));
        }
        if self.ns_slice_owner(ns).contains(&to) {
            return Err(ClusterError::Topology(
                "restore target already hosts this tenant",
            ));
        }
        self.with_node(to, |c| c.submit_create_namespace(ns))?;
        let restored = self.with_node(to, |c| c.submit_restore_ns(ns, checkpoint));
        if restored.is_err() {
            // A tenant that accepted the create but not the checkpoint is
            // blank — letting it own slices would corrupt the law. Shed
            // it (best-effort: the node may just have died).
            let _ = self.with_node(to, |c| c.submit_drop_namespace(ns));
            return restored;
        }
        // Universe re-validation, exactly like rejoin: the restore
        // replaced the tenant's engine wholesale.
        let stats = self.with_node(to, |c| c.submit_stats_ns(ns))?;
        if stats.universe != self.universe as u64 {
            let _ = self.with_node(to, |c| c.submit_drop_namespace(ns));
            return Err(ClusterError::UniverseMismatch {
                node: to,
                got: stats.universe,
                want: self.universe as u64,
            });
        }
        let assignment = self
            .tenant_owner
            .entry(ns)
            .or_insert_with(|| self.slice_owner.clone());
        for owner in assignment.iter_mut() {
            if *owner == from {
                *owner = to;
            }
        }
        event(
            "cluster.tenant.restore",
            format!(
                "namespace {ns} slices {from} -> {to}, {} checkpoint bytes",
                checkpoint.len()
            ),
        );
        Ok(())
    }

    /// Migrates one tenant's `from`-owned slices to node `to` — the
    /// tenant-granular [`Coordinator::rebalance`]: checkpoint `ns` on
    /// `from`, create-and-restore it on `to`, drop `from`'s now-stale
    /// copy, and flip only `ns`'s ownership. `from` keeps serving every
    /// other namespace; `to` may be a standby or an active owner of other
    /// tenants — it just must not host `ns` yet. The tenant's law is
    /// preserved exactly (pinned by `tests/cluster_law.rs`).
    pub fn migrate_tenant(&mut self, ns: u64, from: usize, to: usize) -> Result<(), ClusterError> {
        if ns == DEFAULT_NAMESPACE {
            return Err(ClusterError::Topology(
                "migrate the default tenant with rebalance",
            ));
        }
        let sw = Stopwatch::start();
        let checkpoint = self.checkpoint_tenant(from, ns)?;
        self.restore_tenant(ns, from, to, &checkpoint)?;
        // Shed the stale copy. A failure here leaves `from` hosting a
        // no-longer-routed copy of `ns` — harmless to the law (nothing
        // routes there), retryable once the node is repaired.
        self.with_node(from, |c| c.submit_drop_namespace(ns))?;
        self.rebalances += 1;
        let o = obs();
        o.rebalance_bytes.add(checkpoint.len() as u64);
        o.rebalance_ns.observe_elapsed(sw);
        event(
            "cluster.tenant.migrate",
            format!(
                "namespace {ns} slices {from} -> {to}, {} checkpoint bytes",
                checkpoint.len()
            ),
        );
        Ok(())
    }

    /// Migrates `from`'s slice to the standby node `to` by streaming a
    /// checkpoint through the coordinator: `Checkpoint` on `from`,
    /// `Restore` on `to`, then ownership flips. Because a node's engine
    /// holds exactly its slice's sub-vector and every engine spans the
    /// full universe, the checkpoint needs no rewriting — the sampling
    /// law is preserved *exactly* across the migration (pinned by the
    /// rebalance-mid-stream test).
    ///
    /// `from` keeps its (now stale) state but leaves the scatter set; it
    /// becomes a standby eligible to receive a future rebalance.
    pub fn rebalance(&mut self, from: usize, to: usize) -> Result<(), ClusterError> {
        self.check_node_index(from)?;
        self.check_node_index(to)?;
        if from == to {
            return Err(ClusterError::Topology("rebalance onto the same node"));
        }
        if self.node_slice(from).is_none() {
            return Err(ClusterError::Topology("rebalance source owns no slice"));
        }
        if self.node_slice(to).is_some() {
            return Err(ClusterError::Topology("rebalance target is not standby"));
        }
        let sw = Stopwatch::start();
        let checkpoint = self.with_node(from, |c| c.submit_checkpoint_ns(DEFAULT_NAMESPACE))?;
        self.with_node(to, |c| c.submit_restore_ns(DEFAULT_NAMESPACE, &checkpoint))?;
        for owner in &mut self.slice_owner {
            if *owner == from {
                *owner = to;
            }
        }
        self.rebalances += 1;
        let o = obs();
        o.rebalance_bytes.add(checkpoint.len() as u64);
        o.rebalance_ns.observe_elapsed(sw);
        event(
            "cluster.rebalance",
            format!(
                "slice owner {from} -> {to}, {} checkpoint bytes",
                checkpoint.len()
            ),
        );
        Ok(())
    }

    /// Re-establishes the connection to a node marked down, **without**
    /// restoring anything — for transient transport failures (a network
    /// blip, an expired [`pts_server::ClientConfig`] deadline) where the
    /// server process itself survived with its state intact. The node's
    /// universe is re-validated and its slice ownership is unchanged, so
    /// no data is lost: this is the revival path that makes
    /// "rejoin-and-retry" safe after a timeout, where restoring an older
    /// checkpoint via [`Coordinator::rejoin`] would silently roll the
    /// node's slice back.
    pub fn reconnect(&mut self, node: usize) -> Result<(), ClusterError> {
        self.check_node_index(node)?;
        self.attach(node, None)?;
        event(
            "cluster.node.reconnect",
            format!("node {node} ({})", self.nodes[node].addr),
        );
        Ok(())
    }

    /// Revives a node slot after its **server died**: connects to `addr`
    /// (a restarted server — possibly on a new port), restores
    /// `checkpoint` into it through the wire, and puts it back in
    /// rotation with its slice ownership unchanged. With the node's last
    /// pre-failure checkpoint, the cluster continues **draw-for-draw
    /// identical** to one that never lost the node (S29 bit-exactness,
    /// measured through the socket). For a node whose server is still
    /// alive (the connection merely broke), use
    /// [`Coordinator::reconnect`] instead — it loses nothing.
    pub fn rejoin(
        &mut self,
        node: usize,
        addr: impl Into<String>,
        checkpoint: &[u8],
    ) -> Result<(), ClusterError> {
        self.check_node_index(node)?;
        self.attach(node, Some(addr.into()))?;
        let restored = self.with_node(node, |c| c.submit_restore_ns(DEFAULT_NAMESPACE, checkpoint));
        if restored.is_err() {
            // A node that accepted the connection but not the checkpoint
            // is blank — letting it own a slice would corrupt the law.
            self.nodes[node].client = None;
            return restored;
        }
        // The restore replaced the engine wholesale — universe included —
        // so the attach-time validation no longer speaks for it: a
        // checkpoint from a different cluster must not sneak a wrong
        // coordinate space into the scatter set.
        let stats = self.with_node(node, |c| c.submit_stats_ns(DEFAULT_NAMESPACE))?;
        if stats.universe != self.universe as u64 {
            self.nodes[node].client = None;
            return Err(ClusterError::UniverseMismatch {
                node,
                got: stats.universe,
                want: self.universe as u64,
            });
        }
        event(
            "cluster.node.rejoin",
            format!(
                "node {node} ({}) restored {} checkpoint bytes",
                self.nodes[node].addr,
                checkpoint.len()
            ),
        );
        Ok(())
    }

    fn check_node_index(&self, node: usize) -> Result<(), ClusterError> {
        if node < self.nodes.len() {
            Ok(())
        } else {
            Err(ClusterError::Topology("no such node"))
        }
    }
}
