//! The write path, once: the serving `Epoch`, the writer lock with the
//! durable state it guards, and the single pipeline every graph update
//! runs — for one engine or for a router's whole set of replicas.
//!
//! The order is the contract: *validate + apply delta → durable append +
//! fsync → rebuild the materialised indexes off the serving path → install
//! the new epoch on the leader and every follower → checkpoint if the apply
//! compacted*. One writer lock is held from the epoch pin to the last
//! step, so concurrent appliers queue: each extends the graph the previous
//! one installed, the WAL holds the batches in exactly the order their
//! epochs installed, and `recover ≡ serving state`.

use crate::durability::{ApplyError, Durability, RecoveryReport};
use crate::engine::{relock, relock_write, Engine, EngineConfig};
use rbq_core::NeighborIndex;
use rbq_graph::{DeltaBatch, DeltaReport, FormatError, Graph};
use rbq_reach::HierarchicalIndex;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// One immutable serving snapshot: the graph, its generation, and the
/// lazily built indexes over exactly that graph.
///
/// Queries pin an `Arc<Epoch>` once at entry and evaluate entirely against
/// it, so a concurrent [`Engine::apply_deltas`] can swap in a successor
/// epoch without ever invalidating structures a running query holds: the
/// old epoch stays alive until its last in-flight query drops the `Arc`.
/// The generation is the cache-correctness token — it is part of every
/// [`crate::cache::CacheKey`], so answers computed on one epoch are
/// unreachable from any later one. Replicas ([`Engine::replica`]) serve the
/// *same* `Arc<Epoch>`, so an index one of them builds lazily is built for
/// all.
pub(crate) struct Epoch {
    pub(crate) g: Arc<Graph>,
    pub(crate) generation: u64,
    pub(crate) nbr: OnceLock<Arc<NeighborIndex>>,
    pub(crate) reach: OnceLock<Arc<HierarchicalIndex>>,
}

impl Epoch {
    pub(crate) fn new(g: Arc<Graph>, generation: u64) -> Self {
        Epoch {
            g,
            generation,
            nbr: OnceLock::new(),
            reach: OnceLock::new(),
        }
    }

    /// This epoch's neighbor index, building it on first use.
    pub(crate) fn neighbor_index(&self) -> Arc<NeighborIndex> {
        self.nbr
            .get_or_init(|| Arc::new(NeighborIndex::build(&self.g)))
            .clone()
    }

    /// This epoch's reachability index, building it on first use.
    pub(crate) fn reach_index(&self, alpha: f64) -> Arc<HierarchicalIndex> {
        self.reach
            .get_or_init(|| Arc::new(HierarchicalIndex::build(&self.g, alpha)))
            .clone()
    }

    /// Build the wanted indexes this epoch lacks — the neighbor index if
    /// `nbr`, the reachability index at `reach_alpha` if given — side by
    /// side, so the pair costs the slower build, not the sum: the neighbor
    /// index on a scoped thread, the reachability index on the calling
    /// thread. The reachability build frees the most scratch, and freeing
    /// it into the caller's own allocator arena leaves it for the caller's
    /// later allocations, as a build without threads does.
    ///
    /// A panicked build leaves its slot unset: the next query that needs
    /// the index builds it inside the per-query panic containment, where a
    /// deterministic failure settles as `Answer::Failed`, never an abort.
    pub(crate) fn build_indexes(&self, nbr: bool, reach_alpha: Option<f64>) {
        let g = &self.g;
        std::thread::scope(|s| {
            let hn = (nbr && self.nbr.get().is_none())
                .then(|| s.spawn(|| Arc::new(NeighborIndex::build(g))));
            if let Some(alpha) = reach_alpha.filter(|_| self.reach.get().is_none()) {
                let build = || Arc::new(HierarchicalIndex::build(g, alpha));
                if let Ok(r) = std::panic::catch_unwind(AssertUnwindSafe(build)) {
                    let _ = self.reach.set(r);
                }
            }
            if let Some(Ok(n)) = hn.map(|h| h.join()) {
                let _ = self.nbr.set(n);
            }
        });
    }

    /// The epoch that follows this one: `g` at the next generation, with
    /// whichever indexes this epoch had paid for rebuilt side by side
    /// ([`Epoch::build_indexes`]); indexes never queried stay lazy in the
    /// successor too. The batch is already durable by now, so the caller
    /// installs the successor even if a rebuild panicked.
    fn successor(&self, g: Graph, reach_alpha: f64) -> Epoch {
        let next = Epoch::new(Arc::new(g), self.generation + 1);
        let reach_alpha = self.reach.get().map(|_| reach_alpha);
        next.build_indexes(self.nbr.get().is_some(), reach_alpha);
        next
    }
}

impl Engine {
    /// Apply a delta batch: materialize the post-delta graph (CSR overlay,
    /// compacting past the churn threshold), rebuild whichever indexes the
    /// current epoch had built — off the serving path, side by side, as
    /// [`Engine::build_indexes`] does — then swap the new epoch in and drop
    /// the reduction cache.
    ///
    /// Queries running concurrently finish on the epoch they pinned at
    /// entry; queries arriving after the swap see the new graph and a new
    /// generation, so no post-mutation lookup can surface a pre-mutation
    /// cached answer. Concurrent appliers queue on the writer lock, so no
    /// batch is lost and epochs install in WAL order.
    ///
    /// When durability is enabled ([`Engine::enable_durability`]), the
    /// batch is appended to the WAL **and fsynced before the epoch swap**:
    /// an append failure returns [`ApplyError::Durability`] with nothing
    /// installed (the old epoch keeps serving), so no query ever observes
    /// state that would not survive a crash. When the apply compacts (the
    /// graph crate's churn threshold), the compacted graph is written as a
    /// new snapshot and the log is rotated. A checkpoint failure also
    /// surfaces as [`ApplyError::Durability`], but with the batch already
    /// durable *and* installed — serving is consistent and recovery is
    /// unaffected (the WAL still holds every batch); the caller may keep
    /// serving and retry the checkpoint via a later compacting batch.
    pub fn apply_deltas(&self, batch: &DeltaBatch) -> Result<DeltaReport, ApplyError> {
        self.apply_deltas_shared(batch, &[])
    }

    /// [`Engine::apply_deltas`] for a leader and its replicas: the delta is
    /// applied, logged and indexed **once**, and the one successor epoch
    /// is installed on `self` and on every follower — all of them or (on a
    /// rejected batch or a failed append) none of them. The durable state
    /// is the leader's.
    ///
    /// # Panics
    /// Panics, before anything is written, if a follower does not serve
    /// the leader's epoch — followers are [`Engine::replica`]s of `self`
    /// that have only ever been updated through this call.
    pub fn apply_deltas_shared(
        &self,
        batch: &DeltaBatch,
        followers: &[Engine],
    ) -> Result<DeltaReport, ApplyError> {
        let mut durable = relock(&self.writer);
        let ep = self.pin();
        assert!(
            followers.iter().all(|f| Arc::ptr_eq(&f.pin(), &ep)),
            "apply_deltas_shared: a follower does not serve the leader's epoch"
        );
        let (g2, report) = ep.g.apply_delta(batch)?;
        // Durability barrier, before any index build or swap.
        if let Some(d) = durable.as_mut() {
            d.append(batch)?;
        }
        let next = Arc::new(ep.successor(g2, self.config().reach_alpha));
        for engine in std::iter::once(self).chain(followers) {
            engine.install(next.clone());
        }
        if report.compacted {
            // The apply already paid for a full compaction; fold it into a
            // snapshot and rotate the log so recovery replays a short WAL.
            if let Some(d) = durable.as_mut() {
                d.checkpoint(&next.g)?;
            }
        }
        Ok(report)
    }

    /// Swap `next` in as the serving epoch and reclaim the cache. The
    /// reclaim is not correctness (see [`crate::cache`]), so it happens
    /// outside the epoch lock.
    fn install(&self, next: Arc<Epoch>) {
        let generation = next.generation;
        *relock_write(&self.epoch) = next;
        relock(&self.cache).advance(generation);
    }

    /// A cold replica: same configuration, same serving epoch (graph,
    /// generation and indexes, built or yet to be), its own empty cache,
    /// statistics and scratch pool, no durable state. Replicas stay in
    /// step with `self` by riding [`Engine::apply_deltas_shared`] as
    /// followers.
    pub fn replica(&self) -> Engine {
        Engine::over(self.pin(), self.config().clone())
    }

    /// Enable durability: initialize `dir` (created if absent) with a
    /// snapshot of the *current* graph and a fresh WAL, then persist every
    /// subsequent [`Engine::apply_deltas`] batch. Replaces any previous
    /// contents of the directory (to resume an existing directory instead,
    /// use [`Engine::recover`]).
    pub fn enable_durability(&self, dir: &Path) -> Result<(), FormatError> {
        // Under the writer lock, so no batch can install between the
        // snapshot and the first logged append.
        let mut durable = relock(&self.writer);
        *durable = Some(Durability::create(dir, &self.pin().g)?);
        Ok(())
    }

    /// Whether durability is currently enabled.
    pub fn durability_enabled(&self) -> bool {
        relock(&self.writer).is_some()
    }

    /// Recover an engine from a durability directory: load the snapshot,
    /// replay the WAL's valid prefix (skipping records the snapshot
    /// already covers, stopping at a torn tail, quarantining corruption —
    /// see [`crate::durability`]), and serve the result with durability
    /// enabled for further ingest.
    pub fn recover(dir: &Path, cfg: EngineConfig) -> Result<(Engine, RecoveryReport), FormatError> {
        let (g, d, report) = Durability::recover(dir)?;
        let engine = Engine::new(Arc::new(g), cfg);
        *relock(&engine.writer) = Some(d);
        Ok((engine, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use rbq_graph::{GraphBuilder, NodeId};
    use std::sync::Barrier;

    /// Two appliers racing on one engine lose nothing: every batch gets its
    /// own generation, every edge lands, and the WAL recovers exactly what
    /// serves. (Before the writer lock both appliers could extend the same
    /// pinned graph and the later install dropped the earlier batch, while
    /// the log kept both.)
    #[test]
    fn concurrent_appliers_lose_no_batch() {
        const N: u32 = 21; // 21·20 = 420 ordered pairs ≥ the 400 needed
        const PER_THREAD: usize = 200;
        let mut b = GraphBuilder::new();
        for _ in 0..N {
            b.add_node("A");
        }
        let base = Arc::new(b.build());
        let batches: Vec<DeltaBatch> = (0..N)
            .flat_map(|u| (0..N).filter(move |&v| v != u).map(move |v| (u, v)))
            .take(2 * PER_THREAD)
            .map(|(u, v)| {
                let mut batch = DeltaBatch::new();
                batch.add_edge(NodeId(u), NodeId(v));
                batch
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("rbq_ingest_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cfg = EngineConfig {
            reach_alpha: 1.0,
            threads: 1,
            ..Default::default()
        };
        let engine = Engine::new(base, cfg.clone());
        engine.enable_durability(&dir).unwrap();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for half in batches.chunks(PER_THREAD) {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    start.wait();
                    for batch in half {
                        engine.apply_deltas(batch).unwrap();
                    }
                });
            }
        });
        assert_eq!(engine.generation(), 2 * PER_THREAD as u64);
        assert_eq!(engine.graph().edge_count(), 2 * PER_THREAD);

        let (recovered, report) = Engine::recover(&dir, cfg).unwrap();
        assert_eq!(report.last_seq, 2 * PER_THREAD as u64);
        let edges = |e: &Engine| {
            let mut edges: Vec<_> = e.graph().edges().collect();
            edges.sort_unstable();
            edges
        };
        assert_eq!(edges(&recovered), edges(&engine));
        let queries: Vec<Query> = (0..N)
            .map(|v| Query::Reach {
                source: NodeId(v),
                target: NodeId((v * 7 + 3) % N),
            })
            .collect();
        let (live, back) = (engine.run_batch(&queries), recovered.run_batch(&queries));
        for (x, y) in live.results.iter().zip(&back.results) {
            assert_eq!(x.answer, y.answer);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
