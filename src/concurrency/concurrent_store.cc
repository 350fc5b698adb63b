#include "concurrency/concurrent_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/label_index.h"
#include "core/snapshot.h"
#include "observability/trace.h"

namespace xmlup::concurrency {

using common::Result;
using common::Status;

ConcurrentStore::ConcurrentStore(std::unique_ptr<store::DocumentStore> store,
                                 ConcurrentStoreOptions options)
    : options_(std::move(options)), store_(std::move(store)) {
  obs::Registry& reg = obs::GlobalMetrics();
  metrics_.submitted = reg.GetCounter("cstore.submitted");
  metrics_.acked = reg.GetCounter("cstore.acked");
  metrics_.failed = reg.GetCounter("cstore.failed");
  metrics_.queue_depth = reg.GetGauge("cstore.queue_depth");
  metrics_.backpressure_stalls = reg.GetCounter("cstore.backpressure_stalls");
  metrics_.backpressure_wait_ns =
      reg.GetHistogram("cstore.backpressure_wait_ns");
  metrics_.batch_size = reg.GetHistogram("cstore.batch_size",
                                         obs::Unit::kCount);
  metrics_.commit_ns = reg.GetHistogram("cstore.commit_ns");
  metrics_.publish_ns = reg.GetHistogram("cstore.publish_ns");
  metrics_.fsync_ns = reg.GetHistogram("cstore.fsync_ns");
  metrics_.txn_rollbacks = reg.GetCounter("cstore.txn_rollbacks");
  metrics_.views_delta = reg.GetCounter("cstore.views_delta");
  metrics_.views_rebuilt = reg.GetCounter("cstore.views_rebuilt");
  metrics_.crosschecks = reg.GetCounter("cstore.crosschecks");
  metrics_.crosscheck_failures = reg.GetCounter("cstore.crosscheck_failures");
  metrics_.checkpoint_failures = reg.GetCounter("cstore.checkpoint_failures");
  metrics_.parallel_batches = reg.GetCounter("cstore.parallel_batches");
  metrics_.txns_fast = reg.GetCounter("cstore.prepare_fast");
  metrics_.txns_conflicted = reg.GetCounter("cstore.prepare_conflicted");
  metrics_.prepare_fallbacks = reg.GetCounter("cstore.prepare_fallbacks");
  bin_ = std::make_shared<RecycleBin>();
  bin_->capacity = options_.max_recycled_views;
}

ConcurrentStore::~ConcurrentStore() {
  Stop();
  if (store_ != nullptr) {
    store_->mutable_document()->RemoveUpdateObserver(&capture_);
  }
  // Close the bin before the store dies: views still pinned by readers
  // outlive the store (they own their documents), and their deleters must
  // free them instead of recycling into a bin nobody will drain.
  std::vector<std::unique_ptr<ReadView>> drop;
  {
    std::lock_guard<std::mutex> lock(bin_->mu);
    bin_->closed = true;
    drop.swap(bin_->free);
  }
}

Result<std::unique_ptr<ConcurrentStore>> ConcurrentStore::Create(
    const std::string& dir, xml::Tree tree, std::string_view scheme_name,
    const ConcurrentStoreOptions& options) {
  ConcurrentStoreOptions opts = options;
  opts.store.sync_each_update = false;  // group commit owns the barrier
  opts.store.auto_checkpoint = false;   // checkpoints run between batches
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<store::DocumentStore> st,
      store::DocumentStore::Create(dir, std::move(tree), scheme_name,
                                   opts.store));
  return Start(std::move(st), opts);
}

Result<std::unique_ptr<ConcurrentStore>> ConcurrentStore::Open(
    const std::string& dir, const ConcurrentStoreOptions& options) {
  ConcurrentStoreOptions opts = options;
  opts.store.sync_each_update = false;
  opts.store.auto_checkpoint = false;
  XMLUP_ASSIGN_OR_RETURN(std::unique_ptr<store::DocumentStore> st,
                         store::DocumentStore::Open(dir, opts.store));
  return Start(std::move(st), opts);
}

Result<std::unique_ptr<ConcurrentStore>> ConcurrentStore::Start(
    std::unique_ptr<store::DocumentStore> store,
    const ConcurrentStoreOptions& options) {
  ConcurrentStoreOptions opts = options;
  // A zero-capacity queue would block every submitter forever; a zero
  // batch would make the writer spin without ever draining.
  opts.queue_capacity = std::max<size_t>(opts.queue_capacity, 1);
  opts.max_batch = std::max<size_t>(opts.max_batch, 1);
  opts.apply_workers = std::max<size_t>(opts.apply_workers, 1);
  std::unique_ptr<ConcurrentStore> engine(
      new ConcurrentStore(std::move(store), opts));
  if (opts.apply_workers > 1) {
    // The writer thread is the first lane; the pool supplies the rest.
    engine->pool_ =
        std::make_unique<updates::ApplyPool>(opts.apply_workers - 1);
  }
  // Capture must observe every primitive update from the very first
  // batch; it rides the same post-apply events the journal does.
  engine->store_->mutable_document()->AddUpdateObserver(&engine->capture_);
  // The first view is published before the pipeline threads exist, so
  // PinView never observes a null view.
  XMLUP_RETURN_NOT_OK(engine->PublishRebuild());
  // Prime the commit hook while the store is still single-threaded: it
  // sees the recovered state (snapshot + committed journal) before any
  // pipeline batch can move the commit point.
  if (opts.commit_hook != nullptr) {
    opts.commit_hook->OnCommit(engine->store_.get());
  }
  engine->writer_ = std::thread([raw = engine.get()] { raw->WriterLoop(); });
  engine->flusher_ = std::thread([raw = engine.get()] { raw->FlusherLoop(); });
  return engine;
}

std::shared_ptr<const ReadView> ConcurrentStore::PinView() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

std::future<UpdateResult> ConcurrentStore::SubmitUpdate(
    UpdateRequest request) {
  std::vector<UpdateRequest> one;
  one.push_back(std::move(request));
  return SubmitTransaction(std::move(one));
}

std::future<UpdateResult> ConcurrentStore::SubmitTransaction(
    std::vector<UpdateRequest> requests) {
  Pending pending;
  pending.requests = std::move(requests);
  std::future<UpdateResult> future = pending.promise.get_future();
  if (pending.requests.empty()) {
    UpdateResult result;
    result.status = Status::InvalidArgument("empty transaction");
    pending.promise.set_value(std::move(result));
    return future;
  }
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (!stopping_ && queue_.size() >= options_.queue_capacity) {
      // The queue is full: this submitter stalls until the writer drains
      // (bounded-queue backpressure). Only genuine stalls are counted and
      // timed — the fast path records nothing.
      metrics_.backpressure_stalls->Add(1);
      XMLUP_SCOPED_TIMER(metrics_.backpressure_wait_ns);
      queue_space_.wait(lock, [this] {
        return stopping_ || queue_.size() < options_.queue_capacity;
      });
    }
    if (stopping_) {
      UpdateResult result;
      result.status = Status::Unsupported("store is shutting down");
      pending.promise.set_value(std::move(result));
      return future;
    }
    queue_.push_back(std::move(pending));
    metrics_.submitted->Add(1);
    metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
  }
  queue_ready_.notify_one();
  return future;
}

UpdateResult ConcurrentStore::Update(UpdateRequest request) {
  return SubmitUpdate(std::move(request)).get();
}

void ConcurrentStore::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_ready_.notify_all();
  queue_space_.notify_all();
  if (writer_.joinable()) writer_.join();
  // The writer exits only after staging every admitted batch; the flusher
  // drains the remaining barriers (resolving their waiters) before it
  // honours the stop flag.
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_stop_ = true;
  }
  flush_ready_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

ConcurrentStoreStats ConcurrentStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ConcurrentStore::WriterLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_ready_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, fully drained
      size_t n = std::min(queue_.size(), options_.max_batch);
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
    queue_space_.notify_all();
    metrics_.batch_size->Record(batch.size());

    // A sticky barrier failure reported by the flusher poisons the store
    // before any new journal append: the durability of the unsynced tail
    // is unknown, so nothing later may be acknowledged either.
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      if (pipeline_error_.ok() && !flush_error_.ok()) {
        pipeline_error_ = flush_error_;
      }
    }
    if (!pipeline_error_.ok()) {
      store_->PoisonSync(pipeline_error_);
      std::vector<UpdateResult> failed(batch.size());
      for (UpdateResult& result : failed) result.status = pipeline_error_;
      ResolveOnWriter(std::move(batch), std::move(failed));
      continue;
    }

    // Parallel-prepare stage: resolve every transaction's XPaths and
    // footprints concurrently against the latest published view (which
    // shares the live arena) before the store is touched. Transactions
    // proven pairwise independent apply below from their pre-resolved
    // targets; everything else re-resolves live, exactly as before.
    std::vector<updates::TransactionPlan> plans;
    std::vector<bool> fast;
    PrepareBatch(batch, &plans, &fast);

    // Apply the whole batch against the live document. Journal records
    // are appended (buffered) as each transaction applies; nothing is
    // durable — or acknowledged — yet. A transaction that fails partway
    // (say the second action of a frame, or a later match of a multi-match
    // action) is rolled back to the mark taken before its first mutation,
    // so the barrier below never makes a failed request's partial effects
    // durable — "a request that fails writes nothing" holds across the
    // whole pipeline, not just XPath resolution. Mutation stays strictly
    // serial in submission order regardless of the prepare stage, so the
    // journal byte stream is identical to a fully serial apply.
    std::vector<UpdateResult> results(batch.size());
    size_t applied = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const store::DocumentStore::BatchMark mark = store_->Mark();
      const size_t capture_mark = capture_.Mark();
      Status status;
      size_t matched = 0;
      for (size_t r = 0; r < batch[i].requests.size(); ++r) {
        const UpdateRequest& request = batch[i].requests[r];
        size_t step = 0;
        if (fast[i] &&
            updates::TargetsStillValid(store_->document(), request,
                                       plans[i].targets[r])) {
          status = updates::ApplyResolved(store_.get(), request,
                                          plans[i].targets[r], &step);
        } else {
          if (fast[i]) {
            // The plan went stale (the independence analysis should make
            // this unreachable); re-resolve live, which is always correct.
            metrics_.prepare_fallbacks->Add(1);
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.prepare_fallbacks;
          }
          status = ApplyUpdate(store_.get(), request, &step);
        }
        if (!status.ok()) break;
        matched += step;
      }
      if (status.ok()) {
        results[i].status = status;
        results[i].matched = matched;
        ++applied;
        continue;
      }
      metrics_.txn_rollbacks->Add(1);
      // The rollback may truncate or reload the journal; the flusher must
      // not be mid-barrier while the file is reshaped under it.
      Status rolled = DrainFlusher();
      if (rolled.ok()) rolled = store_->RollbackTail(mark);
      // A reloading rollback replaces the document and drops observers;
      // remove-then-add keeps exactly one registration on either path.
      store_->mutable_document()->RemoveUpdateObserver(&capture_);
      store_->mutable_document()->AddUpdateObserver(&capture_);
      capture_.TruncateTo(capture_mark);
      // A reloading rollback may have rebuilt the arena, silently
      // re-assigning the NodeIds the remaining plans resolved to; their
      // pre-resolved targets can no longer be trusted.
      std::fill(fast.begin() + static_cast<ptrdiff_t>(i) + 1, fast.end(),
                false);
      if (!rolled.ok()) {
        // The store is poisoned; the rest of the batch cannot apply.
        status = Status::Internal(status.ToString() +
                                  "; rollback failed: " + rolled.ToString());
        pipeline_error_ = rolled;
      }
      results[i].status = status;
      if (!pipeline_error_.ok()) {
        for (size_t j = i + 1; j < batch.size(); ++j) {
          results[j].status = pipeline_error_;
        }
        break;
      }
    }

    if (!pipeline_error_.ok()) {
      // A failed rollback may have left no journal at all: do not stage a
      // barrier. Fail every waiter — including applies that succeeded,
      // which were never acknowledged — exactly as a failed group commit
      // always has.
      for (UpdateResult& result : results) result.status = pipeline_error_;
      ResolveOnWriter(std::move(batch), std::move(results));
      continue;
    }

    if (applied > 0) {
      // Publish before staging the barrier, so a writer that sees its
      // future resolve (post-fsync) and immediately pins a view reads its
      // own write. Readers racing the barrier may briefly observe
      // not-yet-durable state — a deliberate trade documented in
      // DESIGN.md; acknowledgement still waits for durability.
      Status published;
      {
        XMLUP_TRACE_SPAN("cstore.publish");
        XMLUP_SCOPED_TIMER(metrics_.publish_ns);
        published = PublishAfterBatch();
      }
      if (!published.ok()) {
        // The batch is still staged and becomes durable; its waiters are
        // told about the failed publication instead of being acked.
        for (UpdateResult& result : results) {
          if (result.status.ok()) result.status = published;
        }
      } else {
        for (UpdateResult& result : results) {
          if (result.status.ok()) result.epoch = last_epoch_;
        }
      }
    }

    // Stage the barrier and hand the batch to the flusher: the writer is
    // free to apply the next batch while this one's fsync is in flight.
    //
    // Pipeline depth is bounded at one staged barrier beyond the active
    // fsync. Staging deeper adds no overlap — there is only one fsync at
    // a time — it only fragments the offered load into per-arrival
    // barriers (each its own fsync). Waiting here is what makes batches
    // grow under load: submissions arriving during the previous barrier
    // accumulate in the queue and drain into one batch.
    FlushJob job;
    job.staged = store_->StageCommit();
    job.waiters = std::move(batch);
    job.results = std::move(results);
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_idle_.wait(lock, [this] { return flush_queue_.empty(); });
      job.staged_at = std::chrono::steady_clock::now();
      flush_queue_.push_back(std::move(job));
    }
    flush_ready_.notify_one();

    // Audit and roll the journal if due — after staging, so neither cost
    // sits on the ack path of the batch just handed off.
    const bool checkpoint_due = WillCheckpoint();
    const bool crosscheck_due =
        options_.crosscheck_every > 0 &&
        publishes_since_crosscheck_ >= options_.crosscheck_every;
    if (!options_.force_snapshot_views && (crosscheck_due || checkpoint_due)) {
      CrossCheck();
    }
    if (checkpoint_due) {
      // The checkpoint rewrites the journal generation; drain the flusher
      // first. That also guarantees the post-commit hook for every staged
      // batch has fired, so a journal-tailing hook (ReplicationSource)
      // drained this generation's committed tail before its files vanish.
      Status drained = DrainFlusher();
      if (!drained.ok()) {
        pipeline_error_ = drained;
        store_->PoisonSync(drained);
        continue;
      }
      const uint64_t generation_before = store_->stats().sequence;
      // A failed checkpoint leaves the current generation serving (the
      // next due batch retries); a failure that poisoned the store shows
      // up on the next commit. Either way it is counted, not dropped.
      const Status checkpointed = store_->MaybeCheckpoint();
      if (!checkpointed.ok()) metrics_.checkpoint_failures->Add(1);
      if (store_->stats().sequence != generation_before) {
        if (options_.commit_hook != nullptr) {
          options_.commit_hook->OnCommit(store_.get());
        }
        AfterCheckpoint();
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.checkpoints = store_->stats().checkpoints;
      if (!checkpointed.ok()) ++stats_.checkpoint_failures;
    }
  }
}

void ConcurrentStore::PrepareBatch(const std::vector<Pending>& batch,
                                   std::vector<updates::TransactionPlan>* plans,
                                   std::vector<bool>* fast) {
  fast->assign(batch.size(), false);
  plans->clear();
  if (pool_ == nullptr || batch.size() < 2) return;
  // Snapshot views round-trip through a compacted arena: their NodeIds
  // are not the live document's, so plans would resolve garbage.
  if (options_.force_snapshot_views) return;
  std::shared_ptr<const ReadView> view = PinView();
  if (view == nullptr) return;
  // The plans' NodeIds transfer to the live document only when the
  // published view is an exact same-arena image of the live state: same
  // delta lineage (no checkpoint compacted the arena since), every
  // committed op published, and the view's read caches (order keys +
  // LabelIndex) prewarmed, making concurrent planning const-pure.
  if (!view->indexed_ || view->lineage_ != lineage_ || view->usn_ != usn_ ||
      published_usn_ != usn_) {
    return;
  }
  const core::LabeledDocument& doc = view->document();
  plans->resize(batch.size());
  pool_->ParallelFor(batch.size(), [&](size_t i) {
    (*plans)[i] = updates::PlanTransaction(doc, batch[i].requests,
                                           updates::PlanOptions{});
  });
  const std::vector<bool> conflicted = updates::MarkConflicts(*plans);
  uint64_t fast_count = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    (*fast)[i] = (*plans)[i].usable && !conflicted[i] &&
                 (*plans)[i].targets.size() == batch[i].requests.size();
    if ((*fast)[i]) ++fast_count;
  }
  const uint64_t conflicted_count = batch.size() - fast_count;
  metrics_.parallel_batches->Add(1);
  metrics_.txns_fast->Add(fast_count);
  metrics_.txns_conflicted->Add(conflicted_count);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.parallel_batches;
  stats_.txns_prepared += batch.size();
  stats_.txns_fast += fast_count;
  stats_.txns_conflicted += conflicted_count;
}

void ConcurrentStore::ResolveOnWriter(std::vector<Pending> batch,
                                      std::vector<UpdateResult> results) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const UpdateResult& result : results) {
      if (result.status.ok()) {
        ++stats_.updates_applied;
        metrics_.acked->Add(1);
      } else {
        ++stats_.updates_failed;
        metrics_.failed->Add(1);
      }
    }
    ++stats_.batches;
    stats_.largest_batch = std::max(stats_.largest_batch,
                                    static_cast<uint64_t>(batch.size()));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(results[i]));
  }
}

void ConcurrentStore::FlusherLoop() {
  for (;;) {
    FlushJob job;
    Status commit;
    {
      std::unique_lock<std::mutex> lock(flush_mu_);
      flush_ready_.wait(lock,
                        [this] { return flush_stop_ || !flush_queue_.empty(); });
      if (flush_queue_.empty()) return;  // stopping, fully drained
      job = std::move(flush_queue_.front());
      flush_queue_.pop_front();
      flush_active_ = true;
      // The writer may be waiting to stage the next barrier (depth-1
      // throttle); the queue just emptied.
      if (flush_queue_.empty()) flush_idle_.notify_all();
      // Sticky: once a barrier failed, never fsync again — later batches
      // fail with the first cause until the writer poisons the store.
      commit = flush_error_;
    }
    if (commit.ok()) {
      {
        XMLUP_TRACE_SPAN("cstore.commit");
        XMLUP_SCOPED_TIMER(metrics_.fsync_ns);
        commit = store_->CompleteCommit(job.staged);
      }
      // Stage-to-durable latency: what a waiter actually experienced on
      // top of its queueing delay.
      metrics_.commit_ns->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - job.staged_at)
              .count()));
    }
    if (!commit.ok()) {
      {
        std::lock_guard<std::mutex> lock(flush_mu_);
        if (flush_error_.ok()) flush_error_ = commit;
      }
      // Durability of the whole batch is unknown: fail every waiter,
      // including requests whose apply succeeded — they were never
      // acknowledged.
      for (UpdateResult& result : job.results) result.status = commit;
    } else if (options_.commit_hook != nullptr) {
      // At the real barrier: LastCommitPoint() now covers this batch, and
      // once a waiter sees its future resolve, its records are already
      // buffered for shipping (acknowledged implies shipped eventually).
      options_.commit_hook->OnCommit(store_.get());
    }
    // Stats before promises: a test that waits on a future and then reads
    // stats() must see its own update counted.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (const UpdateResult& result : job.results) {
        if (result.status.ok()) {
          ++stats_.updates_applied;
          metrics_.acked->Add(1);
        } else {
          ++stats_.updates_failed;
          metrics_.failed->Add(1);
        }
      }
      ++stats_.batches;
      stats_.largest_batch = std::max(
          stats_.largest_batch, static_cast<uint64_t>(job.waiters.size()));
    }
    for (size_t i = 0; i < job.waiters.size(); ++i) {
      job.waiters[i].promise.set_value(std::move(job.results[i]));
    }
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_active_ = false;
      if (flush_queue_.empty()) flush_idle_.notify_all();
    }
  }
}

Status ConcurrentStore::DrainFlusher() {
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_idle_.wait(lock, [this] {
    return flush_queue_.empty() && !flush_active_;
  });
  return flush_error_;
}

Status ConcurrentStore::PublishAfterBatch() {
  const bool dirty = capture_.TakeDirty();
  std::vector<DeltaOp> ops = capture_.TakeOps();
  if (options_.force_snapshot_views || dirty) {
    // A relabel or overflow rewrote labels of nodes the per-op capture
    // does not carry: the ring is no longer a faithful tail of the live
    // document. Restart it at the current position and publish in full.
    usn_ += ops.size();
    retained_.clear();
    retained_base_ = usn_;
    return PublishRebuild();
  }
  for (DeltaOp& op : ops) retained_.push_back(std::move(op));
  usn_ += ops.size();
  if (retained_.size() > options_.max_retained_delta_ops) {
    retained_.clear();
    retained_base_ = usn_;
    return PublishRebuild();
  }
  std::unique_ptr<ReadView> recycled = TryRecycle();
  if (recycled == nullptr) return PublishRebuild();
  Status advanced = recycled->ApplyDelta(
      retained_, static_cast<size_t>(recycled->usn_ - retained_base_),
      static_cast<size_t>(usn_ - retained_base_));
  if (!advanced.ok()) {
    // Replay diverged from the arena — the class of bug CrossCheck exists
    // to catch. Drop the ring and publish the live truth instead.
    recycled.reset();
    retained_.clear();
    retained_base_ = usn_;
    return PublishRebuild();
  }
  recycled->usn_ = usn_;
  recycled->lineage_ = lineage_;
  recycled->set_epoch(++last_epoch_);
  published_usn_ = usn_;
  ++publishes_since_crosscheck_;
  InstallView(MakeRecyclable(std::move(recycled)), /*via_delta=*/true);
  PruneRetained();
  return Status::Ok();
}

Status ConcurrentStore::PublishRebuild() {
  if (options_.force_snapshot_views) {
    // The pre-delta behaviour, kept verbatim behind a flag so soak tests
    // can run a twin store through the snapshot round-trip and assert
    // bit-identical reads against the delta pipeline.
    XMLUP_ASSIGN_OR_RETURN(
        std::shared_ptr<const ReadView> view,
        ReadView::FromSnapshot(core::SaveSnapshot(store_->document()),
                               last_epoch_ + 1,
                               options_.store.scheme_options));
    ++last_epoch_;
    published_usn_ = usn_;
    InstallView(std::move(view), /*via_delta=*/false);
    return Status::Ok();
  }
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<ReadView> view,
      ReadView::CloneFromLive(store_->document(),
                              options_.store.scheme_options, last_epoch_ + 1));
  ++last_epoch_;
  view->usn_ = usn_;
  view->lineage_ = lineage_;
  published_usn_ = usn_;
  InstallView(MakeRecyclable(std::move(view)), /*via_delta=*/false);
  return Status::Ok();
}

void ConcurrentStore::InstallView(std::shared_ptr<const ReadView> view,
                                  bool via_delta) {
  // The view carries its epoch (stamped before this call); installation
  // is one pointer swap, so the epoch a reader observes always matches
  // the view it pinned — there is no window where view and epoch counter
  // disagree.
  std::shared_ptr<const ReadView> displaced;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    displaced = std::exchange(view_, std::move(view));
  }
  // `displaced` drops here, outside view_mu_: if this was the last pin,
  // releasing it tears down (or recycles) a whole document — work that
  // must not serialize readers, now that publication runs at batch rate.
  displaced.reset();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.current_epoch = last_epoch_;
  ++stats_.views_published;
  if (via_delta) {
    ++stats_.views_delta;
    metrics_.views_delta->Add(1);
  } else {
    ++stats_.views_rebuilt;
    metrics_.views_rebuilt->Add(1);
  }
}

std::shared_ptr<const ReadView> ConcurrentStore::MakeRecyclable(
    std::unique_ptr<ReadView> view) {
  return std::shared_ptr<const ReadView>(
      view.release(), [bin = bin_](const ReadView* dropped) {
        std::unique_ptr<ReadView> owned(const_cast<ReadView*>(dropped));
        {
          std::lock_guard<std::mutex> lock(bin->mu);
          if (!bin->closed && bin->free.size() < bin->capacity) {
            bin->free.push_back(std::move(owned));
          }
        }
        // Not binned: freed here, outside the bin lock.
      });
}

std::unique_ptr<ReadView> ConcurrentStore::TryRecycle() {
  std::vector<std::unique_ptr<ReadView>> stale;
  std::unique_ptr<ReadView> best;
  {
    std::lock_guard<std::mutex> lock(bin_->mu);
    std::vector<std::unique_ptr<ReadView>>& free = bin_->free;
    size_t keep = 0;
    for (std::unique_ptr<ReadView>& candidate : free) {
      // Usable = same arena generation and a usn the retained ring can
      // fast-forward from. Prefer the most advanced one (fewest ops to
      // replay).
      const bool usable = candidate->lineage_ == lineage_ &&
                          candidate->usn_ >= retained_base_ &&
                          candidate->usn_ <= usn_;
      if (!usable) {
        stale.push_back(std::move(candidate));
        continue;
      }
      if (best == nullptr || candidate->usn_ > best->usn_) {
        std::swap(best, candidate);
      }
      if (candidate != nullptr) free[keep++] = std::move(candidate);
    }
    free.resize(keep);
  }
  return best;  // `stale` views are freed here, outside the bin lock
}

void ConcurrentStore::PruneRetained() {
  // Ops below the lowest usn any recyclable view could resume from can
  // never be replayed again. Views still pinned by readers are not
  // consulted: if they return to the bin after their usn fell off the
  // ring, TryRecycle simply frees them.
  uint64_t min_needed = published_usn_;
  {
    std::lock_guard<std::mutex> lock(bin_->mu);
    for (const std::unique_ptr<ReadView>& view : bin_->free) {
      if (view->lineage_ == lineage_ && view->usn_ >= retained_base_ &&
          view->usn_ < min_needed) {
        min_needed = view->usn_;
      }
    }
  }
  while (!retained_.empty() && retained_base_ < min_needed) {
    retained_.pop_front();
    ++retained_base_;
  }
}

void ConcurrentStore::CrossCheck() {
  publishes_since_crosscheck_ = 0;
  // A failed publication can leave the view behind the live document;
  // comparing would report a false divergence.
  if (published_usn_ != usn_) return;
  std::shared_ptr<const ReadView> current;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    current = view_;
  }
  if (current == nullptr) return;
  Result<std::shared_ptr<const ReadView>> reference = ReadView::FromSnapshot(
      core::SaveSnapshot(store_->document()), current->epoch(),
      options_.store.scheme_options);
  if (!reference.ok()) return;  // cannot audit; not a divergence
  metrics_.crosschecks->Add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.crosschecks;
  }
  bool diverged = false;
  Result<std::string> current_xml = current->SerializeXml();
  Result<std::string> reference_xml = (*reference)->SerializeXml();
  if (current_xml.ok() && reference_xml.ok() &&
      *current_xml != *reference_xml) {
    diverged = true;
  }
  if (!diverged) {
    // Labels compare positionally: the snapshot round-trip compacts the
    // arena, so NodeIds may differ while document order and the label
    // bytes at each position must not.
    const core::LabeledDocument& current_doc = current->document();
    const core::LabeledDocument& reference_doc = (*reference)->document();
    const std::vector<xml::NodeId> current_nodes =
        current_doc.tree().PreorderNodes();
    const std::vector<xml::NodeId> reference_nodes =
        reference_doc.tree().PreorderNodes();
    if (current_nodes.size() != reference_nodes.size()) {
      diverged = true;
    } else {
      for (size_t i = 0; i < current_nodes.size(); ++i) {
        if (!(current_doc.label(current_nodes[i]) ==
              reference_doc.label(reference_nodes[i]))) {
          diverged = true;
          break;
        }
      }
    }
  }
  if (!diverged) {
    Result<const core::LabelIndex*> index = current->document().query_index();
    if (index.ok() && !(*index)->Verify().ok()) diverged = true;
  }
  if (!diverged) return;
  metrics_.crosscheck_failures->Add(1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.crosscheck_failures;
  }
  // Publish the live truth and restart the ring: recycled descendants of
  // the bad view fall below the new base and are freed on return.
  retained_.clear();
  retained_base_ = usn_;
  (void)PublishRebuild();
}

bool ConcurrentStore::WillCheckpoint() const {
  const store::StoreStats& s = store_->stats();
  return s.journal_bytes >= options_.store.checkpoint.max_journal_bytes ||
         s.journal_records >= options_.store.checkpoint.max_journal_records;
}

void ConcurrentStore::AfterCheckpoint() {
  // The checkpoint compacted the arena: NodeIds moved, so no retained op
  // or retired view can ever be replayed onto the new generation.
  ++lineage_;
  retained_.clear();
  retained_base_ = usn_;
  capture_.Reset();
  // AdoptDocument dropped foreign observers; re-register the capture.
  store_->mutable_document()->RemoveUpdateObserver(&capture_);
  store_->mutable_document()->AddUpdateObserver(&capture_);
}

}  // namespace xmlup::concurrency
