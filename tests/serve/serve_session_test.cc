#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "ext/streaming.h"
#include "serve/refit_scheduler.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "test_util.h"
#include "truth/ltm.h"

namespace ltm {
namespace serve {
namespace {

namespace fs = std::filesystem;

class ServeSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/serve_session_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    world_ = Dataset::FromRaw("world", testing::RandomRaw(17));
    std::vector<EntityId> first_half;
    for (EntityId e = 0; e < world_.raw.NumEntities() / 2; ++e) {
      first_half.push_back(e);
    }
    auto [arrivals, history] = world_.SplitByEntities(first_half);
    history_ = std::move(history);
    arrivals_ = std::move(arrivals);
  }

  ext::StreamingOptions Options() {
    ext::StreamingOptions options;
    options.ltm = LtmOptions::ScaledDefaults(world_.facts.NumFacts());
    options.ltm.iterations = 40;
    options.ltm.burnin = 10;
    options.ltm.seed = 5;
    options.refit_every_chunks = 0;
    return options;
  }

  /// Opens the store, ingests + flushes `history_`, and bootstraps the
  /// pipeline from it.
  void Bootstrap(ext::StreamingOptions options) {
    auto store = store::PartitionedTruthStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    ASSERT_TRUE(store_->AppendRaw(history_.raw).ok());
    ASSERT_TRUE(store_->Flush().ok());
    pipeline_ = std::make_unique<ext::StreamingPipeline>(options);
    ASSERT_TRUE(pipeline_->BootstrapFromStore(store_.get()).ok());
  }

  FactRef Ref(const Dataset& ds, FactId f) {
    const Fact& fact = ds.facts.fact(f);
    FactRef ref;
    ref.entity = std::string(ds.raw.entities().Get(fact.entity));
    ref.attribute = std::string(ds.raw.attributes().Get(fact.attribute));
    return ref;
  }

  /// Closed-form Eq. 3 posterior for `ref`: LTMinc over the store's full
  /// materialized graph under the pipeline's installed quality. A served
  /// read rebuilds only the entity's slice, so it must agree with this
  /// to FP noise.
  double ClosedForm(const FactRef& ref) {
    auto full = store_->Materialize();
    EXPECT_TRUE(full.ok());
    LtmIncremental reference(pipeline_->quality(), pipeline_->options().ltm);
    const TruthEstimate est = reference.Score(full->facts, full->graph);
    for (FactId f = 0; f < full->facts.NumFacts(); ++f) {
      const FactRef candidate = Ref(*full, f);
      if (candidate.entity == ref.entity &&
          candidate.attribute == ref.attribute) {
        return est.probability[f];
      }
    }
    ADD_FAILURE() << "fact not in store: " << ref.entity << "/"
                  << ref.attribute;
    return -1.0;
  }

  std::string dir_;
  Dataset world_;
  Dataset history_;
  Dataset arrivals_;
  std::unique_ptr<store::PartitionedTruthStore> store_;
  std::unique_ptr<ext::StreamingPipeline> pipeline_;
};

TEST_F(ServeSessionTest, CreateRequiresPipelineWithStore) {
  EXPECT_EQ(ServeSession::Create(nullptr, ServeOptions()).status().code(),
            StatusCode::kInvalidArgument);
  ext::StreamingPipeline detached(Options());
  EXPECT_EQ(ServeSession::Create(&detached, ServeOptions()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServeSessionTest, CreateRejectsInvalidOptions) {
  Bootstrap(Options());
  ServeOptions bad;
  bad.max_inflight = 0;
  EXPECT_EQ(ServeSession::Create(pipeline_.get(), bad).status().code(),
            StatusCode::kInvalidArgument);
}

// A served point read must score the same Eq. 3 posterior the full
// materialized graph yields under the same epoch and quality, even
// though it only ever rebuilds the queried entity's slice.
TEST_F(ServeSessionTest, QueryMatchesFullGraphClosedForm) {
  Bootstrap(Options());
  auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto full = store_->Materialize();
  ASSERT_TRUE(full.ok());
  LtmIncremental reference(pipeline_->quality(), Options().ltm);
  const TruthEstimate est = reference.Score(full->facts, full->graph);
  for (FactId f = 0; f < full->facts.NumFacts(); f += 5) {
    const FactRef ref = Ref(*full, f);
    auto via_session = (*session)->Query(ref);
    ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
    EXPECT_NEAR(*via_session, est.probability[f], 1e-9) << "fact " << f;
  }

  // A fact nobody ever claimed scores at the beta prior mean.
  FactRef unknown;
  unknown.entity = "no-such-entity";
  unknown.attribute = "no-such-attr";
  auto served = (*session)->Query(unknown);
  ASSERT_TRUE(served.ok());
  EXPECT_DOUBLE_EQ(*served, Options().ltm.beta.Mean());
  // The no-claim answer is cached too: a repeat is a hit, not a compute.
  const uint64_t computes = (*session)->Stats().slice_computes;
  auto repeat = (*session)->Query(unknown);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ((*session)->Stats().slice_computes, computes);
}

TEST_F(ServeSessionTest, QueryBatchAlignsWithPointQueries) {
  Bootstrap(Options());
  auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
  ASSERT_TRUE(session.ok());

  std::vector<FactRef> refs;
  for (FactId f = 0; f < history_.facts.NumFacts() && refs.size() < 6;
       f += 3) {
    refs.push_back(Ref(history_, f));
  }
  auto batch = (*session)->QueryBatch(refs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    auto point = (*session)->Query(refs[i]);
    ASSERT_TRUE(point.ok());
    EXPECT_EQ((*batch)[i], *point) << "ref " << i;
  }
}

TEST_F(ServeSessionTest, QueryEntityRangeScoresSliceAndWarmsCache) {
  Bootstrap(Options());
  auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
  ASSERT_TRUE(session.ok());

  const std::string min_entity = "e1";
  const std::string max_entity = "e2";
  auto served = (*session)->QueryEntityRange(min_entity, max_entity);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_FALSE(served->empty());
  for (const ServedFact& fact : *served) {
    EXPECT_GE(fact.entity, min_entity);
    EXPECT_LE(fact.entity, max_entity);
  }

  // Point reads of range-served facts hit the warmed cache — no further
  // slice computations — and agree with the range's posteriors.
  const uint64_t computes = (*session)->Stats().slice_computes;
  for (const ServedFact& fact : *served) {
    FactRef ref;
    ref.entity = fact.entity;
    ref.attribute = fact.attribute;
    auto point = (*session)->Query(ref);
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(*point, fact.posterior);
  }
  EXPECT_EQ((*session)->Stats().slice_computes, computes);
  EXPECT_EQ((*session)->Stats().range_queries, 1u);
}

TEST_F(ServeSessionTest, RefreshQualityServesTheNewFit) {
  ext::StreamingOptions options = Options();
  options.ltm.refit_epoch_delta = 1;  // any ingest refits
  Bootstrap(options);
  auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->Stats().quality_version, 0u);

  const FactRef probe = Ref(history_, 0);
  ASSERT_TRUE((*session)->Query(probe).ok());

  // Drive the pipeline directly (no scheduler is live): the ingest
  // refits, and RefreshQuality republishes the session's view.
  ASSERT_TRUE(pipeline_->ObserveToStore(arrivals_).ok());
  ASSERT_TRUE(pipeline_->last_refit());
  ASSERT_TRUE((*session)->RefreshQuality().ok());
  EXPECT_EQ((*session)->Stats().quality_version, 1u);

  // Post-refresh answers match the closed form under the new fit.
  auto refreshed = (*session)->Query(probe);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_NEAR(*refreshed, ClosedForm(probe), 1e-9);
}

TEST_F(ServeSessionTest, BackgroundSchedulerRefitsAfterForeignIngest) {
  Bootstrap(Options());
  ThreadPool pool(2);
  ServeOptions serve_opts;
  serve_opts.refit_debounce_epochs = 1;
  auto session =
      ServeSession::Create(pipeline_.get(), serve_opts, &pool);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Foreign writer: rows reach the store without the pipeline seeing
  // them; NotifyIngest arms the background refit.
  ASSERT_TRUE(store_->AppendRaw(arrivals_.raw).ok());
  ASSERT_TRUE((*session)->NotifyIngest().ok());

  // The refit runs on the pool; wait for it to land.
  bool refitted = false;
  for (int i = 0; i < 500 && !refitted; ++i) {
    refitted = (*session)->Stats().refit.completed >= 1 &&
               (*session)->Stats().refit.in_flight == false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(refitted);
  EXPECT_GE((*session)->Stats().quality_version, 1u);
  EXPECT_GE(pipeline_->last_fit_epoch(), arrivals_.raw.NumRows());

  // The new fit covers the foreign rows: an arrival fact now serves a
  // real posterior, matching the closed form under the refitted quality.
  const FactRef probe = Ref(arrivals_, 0);
  auto served = (*session)->Query(probe);
  ASSERT_TRUE(served.ok());
  EXPECT_NEAR(*served, ClosedForm(probe), 1e-9);
}

class ServeSessionConcurrencyTest : public ServeSessionTest {};

// Concurrent identical queries share one slice computation: the leader
// lingers batch_window_us, everyone else coalesces onto its result.
TEST_F(ServeSessionConcurrencyTest, DuplicateQueriesCoalesce) {
  Bootstrap(Options());
  ServeOptions serve_opts;
  serve_opts.batch_window_us = 30000;
  auto session = ServeSession::Create(pipeline_.get(), serve_opts);
  ASSERT_TRUE(session.ok());

  const FactRef probe = Ref(history_, 0);
  constexpr int kClients = 4;
  std::vector<double> values(kClients, -1.0);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto served = (*session)->Query(probe);
      if (served.ok()) {
        values[c] = *served;
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(values[c], values[0]);
  // One materialization served all four clients.
  const ServeStats stats = (*session)->Stats();
  EXPECT_EQ(stats.slice_computes, 1u);
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kClients));
}

TEST_F(ServeSessionConcurrencyTest, AdmissionControlShedsBeyondMaxInflight) {
  Bootstrap(Options());
  // Spec-driven construction: one slice computation at a time, with a
  // long pile-on window so the inflight slot is observably occupied.
  auto serve_opts = ParseServeSpec("serve(batch_window_us=150000,max_inflight=1)");
  ASSERT_TRUE(serve_opts.ok());
  auto session = ServeSession::Create(pipeline_.get(), *serve_opts);
  ASSERT_TRUE(session.ok());

  const FactRef held = Ref(history_, 0);
  FactRef other;
  for (FactId f = 1; f < history_.facts.NumFacts(); ++f) {
    other = Ref(history_, f);
    if (other.entity != held.entity) break;
  }
  ASSERT_NE(other.entity, held.entity);

  std::thread leader([&] { ASSERT_TRUE((*session)->Query(held).ok()); });
  // Give the leader time to claim the one inflight slot, then a query
  // for a different entity must be shed, not queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto shed = (*session)->Query(other);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*session)->Stats().shed, 1u);
  leader.join();

  // Once the slot frees, the same query is admitted.
  auto admitted = (*session)->Query(other);
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
}

// The concurrent-correctness contract of the PR: posteriors read from a
// pinned snapshot during overlapping ingest + flush + compaction +
// background refits are bit-identical to what the sequential read path
// returned at that epoch, and no reader blocks writers out of progress.
TEST_F(ServeSessionConcurrencyTest, SnapshotReadsBitIdenticalUnderStorm) {
  Bootstrap(Options());
  ThreadPool pool(2);
  ServeOptions serve_opts;
  serve_opts.refit_debounce_epochs = 1;  // storm includes real refits
  auto session =
      ServeSession::Create(pipeline_.get(), serve_opts, &pool);
  ASSERT_TRUE(session.ok());

  // Sequential baseline: live point reads before any writer starts. The
  // snapshot acquired below pins this same epoch and quality version, so
  // its reads must reproduce these bits exactly, storm or no storm.
  std::vector<FactRef> probes;
  std::vector<double> baseline;
  for (FactId f = 0; f < history_.facts.NumFacts() && probes.size() < 8;
       f += 7) {
    probes.push_back(Ref(history_, f));
    auto served = (*session)->Query(probes.back());
    ASSERT_TRUE(served.ok());
    baseline.push_back(*served);
  }

  const auto snapshot = (*session)->AcquireSnapshot();
  const uint64_t pinned_epoch = snapshot->epoch();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < probes.size(); ++i) {
          auto served = snapshot->Query(probes[i]);
          if (!served.ok() || *served != baseline[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }

  // A live-read client rides along: its answers move with the epoch, so
  // only protocol errors count (shed is legal under load).
  std::thread live([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto served = (*session)->Query(probes[0]);
      if (!served.ok() &&
          served.status().code() != StatusCode::kResourceExhausted) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });

  // The writer storm: durable appends + flushes + compactions, with
  // NotifyIngest arming background refits throughout.
  const std::vector<RawRow>& rows = arrivals_.raw.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    RawDatabase one;
    one.Add(arrivals_.raw.entities().Get(rows[i].entity),
            arrivals_.raw.attributes().Get(rows[i].attribute),
            arrivals_.raw.sources().Get(rows[i].source));
    ASSERT_TRUE(store_->AppendRaw(one).ok());
    (void)(*session)->NotifyIngest();
    if (i % 8 == 7) {
      ASSERT_TRUE(store_->Flush().ok());
    }
    if (i % 24 == 23) {
      ASSERT_TRUE(store_->Compact().ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  live.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(snapshot->epoch(), pinned_epoch);
  EXPECT_GT(store_->epoch(), pinned_epoch);  // writers made progress

  // One final pinned read, after the dust settles, still matches.
  auto final_read = snapshot->QueryBatch(probes);
  ASSERT_TRUE(final_read.ok());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ((*final_read)[i], baseline[i]) << "probe " << i;
  }
}

class RefitSchedulerTest : public ::testing::Test {};

TEST_F(RefitSchedulerTest, DebounceGatesScheduling) {
  ThreadPool pool(1);
  std::atomic<int> fits{0};
  RefitSchedulerOptions options;
  options.debounce_epochs = 10;
  RefitScheduler scheduler(
      &pool,
      [&](const RunContext&) -> Result<uint64_t> {
        fits.fetch_add(1, std::memory_order_relaxed);
        return 15;
      },
      options, /*initial_fit_epoch=*/5);

  ASSERT_TRUE(scheduler.NotifyEpoch(9).ok());  // 9 < 5 + 10: below
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 0);
  EXPECT_EQ(scheduler.Stats().scheduled, 0u);

  ASSERT_TRUE(scheduler.NotifyEpoch(15).ok());  // crosses the threshold
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 1);
  const RefitSchedulerStats stats = scheduler.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.last_fit_epoch, 15u);

  // Re-armed: epochs below the new threshold do nothing.
  ASSERT_TRUE(scheduler.NotifyEpoch(20).ok());
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 1);
}

TEST_F(RefitSchedulerTest, BoundedQueueShedsOldestAndChainsNewest) {
  ThreadPool pool(2);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> fits{0};
  std::vector<uint64_t> fit_epochs;
  std::mutex fit_mu;
  RefitSchedulerOptions options;
  options.debounce_epochs = 1;
  options.max_queue = 1;
  RefitScheduler scheduler(
      &pool,
      [&](const RunContext&) -> Result<uint64_t> {
        if (fits.fetch_add(1, std::memory_order_relaxed) == 0) {
          // First fit blocks until the test releases it, so triggers
          // pile into the pending queue.
          std::unique_lock<std::mutex> lock(gate_mu);
          gate_cv.wait(lock, [&] { return gate_open; });
        }
        // Report the epoch the fit covered: the first run covers the
        // epoch-10 trigger, the chained run the epoch-30 one.
        std::lock_guard<std::mutex> lock(fit_mu);
        fit_epochs.push_back(fit_epochs.empty() ? 10 : 30);
        return fit_epochs.back();
      },
      options, /*initial_fit_epoch=*/0);

  ASSERT_TRUE(scheduler.NotifyEpoch(10).ok());  // runs (and blocks)
  // Wait until the job is actually in flight before queueing triggers.
  for (int i = 0; i < 500 && fits.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fits.load(), 1);

  ASSERT_TRUE(scheduler.NotifyEpoch(20).ok());   // queues
  ASSERT_TRUE(scheduler.NotifyEpoch(20).ok());   // dedup: no-op
  Status shed = scheduler.NotifyEpoch(30);       // sheds epoch-20 trigger
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scheduler.Stats().shed, 1u);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  scheduler.Drain();

  // The blocked fit completed, then the newest pending trigger chained.
  const RefitSchedulerStats stats = scheduler.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_FALSE(stats.in_flight);
  EXPECT_EQ(fits.load(), 2);
}

TEST_F(RefitSchedulerTest, FailedFitKeepsTriggerArmed) {
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  RefitSchedulerOptions options;
  options.debounce_epochs = 5;
  RefitScheduler scheduler(
      &pool,
      [&](const RunContext&) -> Result<uint64_t> {
        if (calls.fetch_add(1, std::memory_order_relaxed) == 0) {
          return Status::Internal("injected fit failure");
        }
        return 40;
      },
      options, /*initial_fit_epoch=*/0);

  ASSERT_TRUE(scheduler.NotifyEpoch(10).ok());
  scheduler.Drain();
  RefitSchedulerStats stats = scheduler.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.last_fit_epoch, 0u);  // unchanged: the fit never landed

  // The next epoch advance retries (the debounce still measures from the
  // last successful fit).
  ASSERT_TRUE(scheduler.NotifyEpoch(12).ok());
  scheduler.Drain();
  stats = scheduler.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.last_fit_epoch, 40u);
}

// Partitioned stores report one epoch per partition; the debounce is
// per slot, and a layout change (split/merge resized the vector) always
// fires regardless of the epoch values.
TEST_F(RefitSchedulerTest, PartitionEpochVectorDebounce) {
  ThreadPool pool(1);
  std::atomic<int> fits{0};
  RefitSchedulerOptions options;
  options.debounce_epochs = 10;
  RefitScheduler scheduler(
      &pool,
      [&](const RunContext&) -> Result<uint64_t> {
        fits.fetch_add(1, std::memory_order_relaxed);
        return 100;
      },
      options, /*initial_fit_epoch=*/0);

  // The scalar seed is a width-1 baseline; a 3-partition vector is a
  // layout change, so the first notify fires and re-baselines per slot.
  ASSERT_TRUE(scheduler.NotifyPartitionEpochs({3, 4, 5}).ok());
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 1);
  EXPECT_EQ(scheduler.Stats().last_fit_epoch, 100u);

  // Every slot below its own baseline + debounce: no trigger.
  ASSERT_TRUE(scheduler.NotifyPartitionEpochs({12, 13, 14}).ok());
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 1);

  // One hot partition crossing its own threshold fires even though the
  // other partitions are idle.
  ASSERT_TRUE(scheduler.NotifyPartitionEpochs({3, 14, 5}).ok());
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 2);

  // A merge shrank the layout to two partitions: fires on width change
  // even though every epoch is behind the baseline.
  ASSERT_TRUE(scheduler.NotifyPartitionEpochs({0, 0}).ok());
  scheduler.Drain();
  EXPECT_EQ(fits.load(), 3);
  EXPECT_FALSE(scheduler.Stats().in_flight);
}

}  // namespace
}  // namespace serve
}  // namespace ltm
