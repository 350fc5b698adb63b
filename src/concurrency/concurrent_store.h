#ifndef XMLUP_CONCURRENCY_CONCURRENT_STORE_H_
#define XMLUP_CONCURRENCY_CONCURRENT_STORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "concurrency/read_view.h"
#include "concurrency/update.h"
#include "concurrency/view_delta.h"
#include "observability/metrics.h"
#include "store/document_store.h"
#include "updates/apply_pool.h"
#include "updates/footprint.h"

namespace xmlup::concurrency {

/// Hook invoked at commit boundaries: once before the writer starts
/// (priming — the store is quiescent and fully recovered), after every
/// successful group-commit barrier, and again after a checkpoint rolls
/// the generation. The store's LastCommitPoint() is up to date at each
/// call, and — because the post-commit call precedes the checkpoint —
/// a hook that tails the journal (ReplicationSource) always drains a
/// generation's committed tail before the checkpoint deletes its files.
///
/// Threading: the priming and post-checkpoint calls run on the thread
/// that owns the pipeline at that moment (construction / writer, with
/// the flusher drained); the post-commit call runs on the flusher
/// thread, at the real durability barrier. Calls are never concurrent
/// with each other.
class CommitHook {
 public:
  virtual ~CommitHook() = default;
  virtual void OnCommit(store::DocumentStore* store) = 0;
};

struct ConcurrentStoreOptions {
  /// Options for the underlying DocumentStore. sync_each_update and
  /// auto_checkpoint are overridden by the pipeline (group commit owns
  /// the sync barrier; checkpoints run between batches); everything else
  /// — file system, scheme knobs, checkpoint thresholds — applies as
  /// given.
  store::StoreOptions store;
  /// Observes commit boundaries (see CommitHook). Not owned; must
  /// outlive the store. Null = no hook.
  CommitHook* commit_hook = nullptr;
  /// Capacity of the bounded submission queue; SubmitUpdate blocks when
  /// the queue is full (backpressure, not unbounded memory). Clamped to
  /// >= 1 (a zero-capacity queue could never admit a request).
  size_t queue_capacity = 1024;
  /// Most requests drained into one group commit. Bounds both ack
  /// latency under sustained load and the work a crash can lose. Clamped
  /// to >= 1 (a zero batch could never drain the queue).
  size_t max_batch = 256;
  /// Every Nth delta-published view is cross-checked against a full
  /// snapshot rebuild (XML serialization, label sequence, index
  /// integrity); a mismatch counts in stats and forces the snapshot
  /// path. The audit is O(document), so the default is sparse; soak
  /// tests set 1. 0 disables periodic checks; the pre-checkpoint check
  /// always runs.
  size_t crosscheck_every = 1024;
  /// Publish every view through the full snapshot round-trip (the
  /// pre-delta behaviour). Differential soak tests run a twin store with
  /// this set and assert bit-identical reads.
  bool force_snapshot_views = false;
  /// Cap on the retained delta ring (ops kept so recycled views can be
  /// fast-forwarded). Overflow clears the ring; the next publication
  /// falls back to a full clone and deltas resume from there.
  size_t max_retained_delta_ops = 4096;
  /// Most retired views kept for recycling. Beyond this, dropped views
  /// are simply freed.
  size_t max_recycled_views = 4;
  /// Lanes for the parallel-prepare stage (1 = serial, the pre-existing
  /// behaviour). With w > 1 lanes the writer fans each batch's XPath
  /// resolution and footprint analysis (updates/footprint.h) out over
  /// w threads (itself plus w-1 pool workers) against the latest
  /// published view, then applies transactions proven independent from
  /// their pre-resolved targets — skipping the per-transaction live
  /// XPath evaluation — while mutation, journal append order, and the
  /// single fsync stay strictly serial in submission order. Journal
  /// bytes are therefore identical to a serial apply by construction;
  /// batches with overlapping footprints degrade to the serial path.
  size_t apply_workers = 1;
};

/// Counters for the update pipeline, maintained under stats_mu_ by the
/// writer and flusher threads and snapshotted by stats().
struct ConcurrentStoreStats {
  uint64_t updates_applied = 0;  ///< Requests applied successfully.
  uint64_t updates_failed = 0;   ///< Requests rejected (bad XPath, ...).
  uint64_t batches = 0;          ///< Group commits (one fsync each).
  uint64_t largest_batch = 0;    ///< Most requests in a single commit.
  uint64_t views_published = 0;
  uint64_t views_delta = 0;      ///< Published by O(delta) replay.
  uint64_t views_rebuilt = 0;    ///< Published by full clone or snapshot.
  uint64_t crosschecks = 0;      ///< Delta-vs-snapshot audits run.
  uint64_t crosscheck_failures = 0;  ///< Audits that found divergence.
  uint64_t checkpoints = 0;
  uint64_t checkpoint_failures = 0;  ///< Due checkpoints that failed.
  uint64_t current_epoch = 0;
  // Parallel-prepare stage (zero everywhere when apply_workers == 1).
  uint64_t parallel_batches = 0;   ///< Batches that ran the prepare stage.
  uint64_t txns_prepared = 0;      ///< Transactions planned in parallel.
  uint64_t txns_fast = 0;          ///< Applied from pre-resolved targets.
  uint64_t txns_conflicted = 0;    ///< Overlapping/unanalysable: live path.
  uint64_t prepare_fallbacks = 0;  ///< Stale plans caught at apply time.
};

/// Multi-client engine over a DocumentStore: snapshot-isolated readers,
/// one writer, pipelined group commit, O(delta) view publication.
///
/// Concurrency protocol (see DESIGN.md "The write path"):
///
///   * Readers call PinView() — a mutex-protected shared_ptr copy, a few
///     nanoseconds — and then evaluate any number of queries against the
///     immutable ReadView with no further synchronization. Readers never
///     take the write path's locks and never block, or are blocked by,
///     the writer; they simply keep the epoch they pinned.
///
///   * Writers call SubmitUpdate() from any thread. Requests enter a
///     bounded MPSC queue; the writer thread drains up to max_batch of
///     them, applies each through the journalled store (appending journal
///     records), publishes the next view by replaying the batch's
///     captured delta onto a recycled predecessor (O(delta); full-clone
///     fallback for relabel/overflow batches), stages the commit, and
///     hands the batch to the flusher thread. The flusher runs the one
///     fsync barrier and only then resolves the waiting futures — an
///     acknowledged update is always durable, exactly as with per-update
///     fsync — while the writer is already applying the next batch.
///
///   * Checkpoints run on the writer between batches, after draining the
///     flusher. They compact only the writer's private arena; pinned
///     views are immutable.
class ConcurrentStore : public ViewProvider {
 public:
  /// Creates a new durable store at `dir` (see DocumentStore::Create)
  /// and starts the pipeline threads.
  static common::Result<std::unique_ptr<ConcurrentStore>> Create(
      const std::string& dir, xml::Tree tree, std::string_view scheme_name,
      const ConcurrentStoreOptions& options = {});

  /// Opens an existing store (running crash recovery) and starts the
  /// pipeline threads.
  static common::Result<std::unique_ptr<ConcurrentStore>> Open(
      const std::string& dir, const ConcurrentStoreOptions& options = {});

  /// Stops the pipeline: drains the queue, commits, joins both threads.
  ~ConcurrentStore() override;
  ConcurrentStore(const ConcurrentStore&) = delete;
  ConcurrentStore& operator=(const ConcurrentStore&) = delete;

  /// Pins the latest published view. Never returns null once construction
  /// succeeded; the caller keeps the snapshot alive for as long as it
  /// holds the pointer.
  std::shared_ptr<const ReadView> PinView() const override;

  /// Enqueues one update; blocks while the queue is full. The future
  /// resolves after the batch containing the request is durable (or with
  /// the failure). Safe from any thread.
  std::future<UpdateResult> SubmitUpdate(UpdateRequest request);

  /// Enqueues several updates as one all-or-nothing transaction: either
  /// every request applies (matched sums them) or none does — a failure
  /// partway through rolls the earlier requests' journal records back
  /// before the batch commits, so a failed transaction is never partially
  /// durable or partially visible. The unit a serve-mode frame maps to,
  /// matching `xmlup ed` script semantics.
  std::future<UpdateResult> SubmitTransaction(
      std::vector<UpdateRequest> requests);

  /// Convenience: submit and wait.
  UpdateResult Update(UpdateRequest request);

  /// Drains outstanding requests, commits them, and stops both pipeline
  /// threads. Subsequent submissions fail immediately. Idempotent.
  void Stop();

  ConcurrentStoreStats stats() const;

 private:
  struct Pending {
    std::vector<UpdateRequest> requests;  ///< One all-or-nothing unit.
    std::promise<UpdateResult> promise;
  };

  /// A staged batch travelling from writer to flusher: the journal
  /// barrier to complete, the waiters to resolve, and their results
  /// (already carrying per-request status and epoch from the writer).
  struct FlushJob {
    store::DocumentStore::StagedCommit staged;
    std::vector<Pending> waiters;
    std::vector<UpdateResult> results;
    std::chrono::steady_clock::time_point staged_at;
  };

  /// Retired views waiting to be delta-recycled. Shared with the custom
  /// deleter of published shared_ptrs, so a view dropped by the last
  /// reader finds its way back even after the store is gone (closed
  /// flips on destruction; late drops are then simply freed).
  struct RecycleBin {
    std::mutex mu;
    std::vector<std::unique_ptr<ReadView>> free;
    bool closed = false;
    size_t capacity = 4;
  };

  ConcurrentStore(std::unique_ptr<store::DocumentStore> store,
                  ConcurrentStoreOptions options);

  static common::Result<std::unique_ptr<ConcurrentStore>> Start(
      std::unique_ptr<store::DocumentStore> store,
      const ConcurrentStoreOptions& options);

  void WriterLoop();
  void FlusherLoop();

  /// Parallel-prepare stage: plans every transaction of the batch against
  /// the latest published view (which shares the live arena) on the apply
  /// pool, marks pairwise conflicts, and fills fast[i] = "apply txn i from
  /// its pre-resolved targets". fast stays all-false when the stage cannot
  /// run: no pool, singleton batch, or the published view is not an exact
  /// same-arena image of the live document (snapshot mode, unpublished
  /// ops, checkpoint just rolled the lineage, index unavailable).
  void PrepareBatch(const std::vector<Pending>& batch,
                    std::vector<updates::TransactionPlan>* plans,
                    std::vector<bool>* fast);

  /// Fail-fast path for batches that never reach the flusher (pipeline
  /// already poisoned): counts stats and resolves the waiters on the
  /// writer thread.
  void ResolveOnWriter(std::vector<Pending> batch,
                       std::vector<UpdateResult> results);

  /// Waits until every staged batch's barrier has completed; returns the
  /// sticky flusher error, if any. Writer thread (or Stop) only. Must be
  /// called before RollbackTail or Checkpoint — both reshape the journal
  /// file under the flusher's feet otherwise.
  common::Status DrainFlusher();

  // --- Publication (writer thread) --------------------------------------

  /// Publishes the state after a committed batch: O(delta) replay onto a
  /// recycled view when possible, full clone otherwise. Advances the
  /// delta ring and epoch.
  common::Status PublishAfterBatch();
  /// Publishes a fresh full view of the live document (clone path, or
  /// snapshot path under force_snapshot_views) stamped with the current
  /// delta position.
  common::Status PublishRebuild();
  /// Installs `view` as the published view under a freshly assigned
  /// epoch — one critical section, so the epoch a reader observes always
  /// matches the view it pinned.
  void InstallView(std::shared_ptr<const ReadView> view, bool via_delta);
  /// Pops the best recyclable predecessor (matching lineage, usn inside
  /// the retained ring); purges stale entries.
  std::unique_ptr<ReadView> TryRecycle();
  /// Wraps a view in a shared_ptr whose deleter returns it to the
  /// recycle bin when the last reader drops it.
  std::shared_ptr<const ReadView> MakeRecyclable(
      std::unique_ptr<ReadView> view);
  /// Drops retained ops no recyclable view needs anymore.
  void PruneRetained();
  /// Full-rebuild audit: compares the published delta view against a
  /// snapshot-built twin (XML, labels, index). Counts in stats; on
  /// divergence installs the snapshot truth and restarts the delta ring.
  void CrossCheck();

  bool WillCheckpoint() const;
  void AfterCheckpoint();

  /// Registry cells ("cstore.*"). Submitter-side cells (submitted,
  /// queue_depth, backpressure) are touched under queue_mu_; publish-side
  /// cells by the writer thread; fsync/commit cells by the flusher.
  struct MetricCells {
    obs::Counter* submitted = nullptr;
    obs::Counter* acked = nullptr;
    obs::Counter* failed = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* backpressure_stalls = nullptr;
    obs::Histogram* backpressure_wait_ns = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* commit_ns = nullptr;   ///< Stage-to-durable latency.
    obs::Histogram* publish_ns = nullptr;  ///< Writer-side view publication.
    obs::Histogram* fsync_ns = nullptr;    ///< Flusher-side barrier.
    obs::Counter* txn_rollbacks = nullptr;
    obs::Counter* views_delta = nullptr;
    obs::Counter* views_rebuilt = nullptr;
    obs::Counter* crosschecks = nullptr;
    obs::Counter* crosscheck_failures = nullptr;
    obs::Counter* checkpoint_failures = nullptr;
    obs::Counter* parallel_batches = nullptr;
    obs::Counter* txns_fast = nullptr;
    obs::Counter* txns_conflicted = nullptr;
    obs::Counter* prepare_fallbacks = nullptr;
  };

  ConcurrentStoreOptions options_;
  MetricCells metrics_;
  /// Touched only by the writer thread once Start() returns — except
  /// CompleteCommit/LastCommitPoint, which the flusher drives (see
  /// DocumentStore's pipelined-commit thread contract).
  std::unique_ptr<store::DocumentStore> store_;

  /// Captures the batch's primitive updates for delta publication.
  /// Registered on the store's document; re-registered after every
  /// rollback or checkpoint (AdoptDocument drops foreign observers).
  DeltaCapture capture_;

  /// Workers for the parallel-prepare stage; null when apply_workers <= 1.
  std::unique_ptr<updates::ApplyPool> pool_;

  // --- Writer-private delta state ----------------------------------------
  uint64_t last_epoch_ = 0;     ///< Writer-owned epoch counter.
  uint64_t usn_ = 0;            ///< Committed captured ops, ever.
  uint64_t published_usn_ = 0;  ///< usn of the currently published view.
  uint64_t lineage_ = 0;        ///< Arena generation (checkpoints bump).
  uint64_t retained_base_ = 0;  ///< usn of retained_.front().
  std::deque<DeltaOp> retained_;
  uint64_t publishes_since_crosscheck_ = 0;
  /// First unrecoverable pipeline failure (barrier failure observed from
  /// the flusher, or a rollback that poisoned the store). Once set, every
  /// subsequent batch fails fast without touching the journal.
  common::Status pipeline_error_;

  std::shared_ptr<RecycleBin> bin_;

  mutable std::mutex view_mu_;
  std::shared_ptr<const ReadView> view_;

  std::mutex queue_mu_;
  std::condition_variable queue_ready_;  // writer waits: work or stop
  std::condition_variable queue_space_;  // submitters wait: room
  std::deque<Pending> queue_;
  bool stopping_ = false;

  std::mutex flush_mu_;
  std::condition_variable flush_ready_;  // flusher waits: job or stop
  std::condition_variable flush_idle_;   // writer waits: drained
  std::deque<FlushJob> flush_queue_;
  bool flush_active_ = false;
  bool flush_stop_ = false;
  /// Sticky first barrier failure; the writer observes it at the next
  /// batch (poisoning the store) and every later batch fails fast.
  common::Status flush_error_;

  mutable std::mutex stats_mu_;
  ConcurrentStoreStats stats_;

  std::thread writer_;
  std::thread flusher_;
};

}  // namespace xmlup::concurrency

#endif  // XMLUP_CONCURRENCY_CONCURRENT_STORE_H_
