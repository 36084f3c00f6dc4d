// Differential test of the serving miss path. ServeSession::Query and
// ServeSnapshot::Query score an entity straight from its seq-sorted row
// views (restart-array seek inside the block) against per-source Eq. 3
// log tables; the oracle is the slow path they replaced: materialize the
// one-entity slice from a pin, remap the fitted quality onto the slice's
// own source ids by name, and run LtmIncremental. The two must agree to
// the last bit on every fact, absent fact and unknown entity, over random
// stores (segments at several levels plus memtable rows, duplicate rows,
// one and three partitions) and fitted qualities that miss the sources
// added after the fit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ext/streaming.h"
#include "serve/serve_options.h"
#include "serve/serve_session.h"
#include "store/partitioned_store.h"
#include "truth/ltm.h"
#include "truth/ltm_incremental.h"

namespace ltm {
namespace serve {
namespace {

namespace fs = std::filesystem;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// `count` random claim rows over `entities` entities. Entity names share
/// long prefixes (prefix compression, restart seeks); every row draws
/// its attribute and source independently, so (entity, attribute,
/// source) duplicates occur.
RawDatabase RandomRows(Rng* rng, size_t count, size_t entities,
                       const std::vector<std::string>& sources) {
  RawDatabase raw;
  for (size_t i = 0; i < count; ++i) {
    const std::string entity =
        "entity-" + std::to_string(100 + rng->UniformInt(entities));
    const std::string attribute = "attr-" + std::to_string(rng->UniformInt(4));
    raw.Add(entity, attribute, sources[rng->UniformInt(sources.size())]);
  }
  return raw;
}

/// Appends `rows` one row per AppendRaw call, so rows a chunk repeats are
/// stored twice (RawDatabase::Add would dedup them within one call).
void AppendEachRow(store::TruthStoreBase* store, const RawDatabase& rows) {
  for (const RawRow& row : rows.rows()) {
    RawDatabase one;
    one.Add(rows.entities().Get(row.entity),
            rows.attributes().Get(row.attribute),
            rows.sources().Get(row.source));
    ASSERT_TRUE(store->AppendRaw(one).ok());
    if (row.source % 3 == 0) {
      ASSERT_TRUE(store->AppendRaw(one).ok());
    }
  }
}

class PointReadOracleTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    // One directory per test and parameter: ctest runs them in parallel.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "/point_read_oracle_test_" + name;
    fs::remove_all(dir_);
  }

  /// Builds a store with GetParam() partitions for `seed`: fitted
  /// history in flushed and compacted segments, then post-fit rows (new
  /// sources among them) in more segments and in the memtable.
  void BuildStore(uint64_t seed) {
    fs::remove_all(dir_);
    Rng rng(seed);
    store::PartitionedStoreOptions options;
    options.partitions = GetParam();
    if (options.partitions == 3) {
      options.initial_boundaries = {"entity-113", "entity-126"};
    }
    options.store.block_size_bytes = 256;  // entities straddle blocks
    options.store.restart_interval = 3;
    options.store.l0_compaction_trigger = 2;
    auto opened = store::PartitionedTruthStore::Open(dir_, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(*opened);

    const std::vector<std::string> fitted = {"src-a", "src-b", "src-c",
                                             "src-d", "src-e", "src-f"};
    for (int chunk = 0; chunk < 4; ++chunk) {
      AppendEachRow(store_.get(), RandomRows(&rng, 60, 36, fitted));
      ASSERT_TRUE(store_->Flush().ok());
      if (chunk % 2 == 1) {
        ASSERT_TRUE(store_->CompactOnce().ok());
      }
    }

    ext::StreamingOptions stream;
    stream.ltm = LtmOptions::ScaledDefaults(200);
    stream.ltm.iterations = 20;
    stream.ltm.burnin = 5;
    stream.ltm.seed = seed;
    stream.refit_every_chunks = 0;
    pipeline_ = std::make_unique<ext::StreamingPipeline>(stream);
    ASSERT_TRUE(pipeline_->BootstrapFromStore(store_.get()).ok());

    // Post-fit rows: two sources the fit never saw, one more flushed
    // segment, and a memtable tail.
    std::vector<std::string> later = fitted;
    later.push_back("src-new-1");
    later.push_back("src-new-2");
    AppendEachRow(store_.get(), RandomRows(&rng, 50, 40, later));
    ASSERT_TRUE(store_->Flush().ok());
    AppendEachRow(store_.get(), RandomRows(&rng, 30, 40, later));

    auto session = ServeSession::Create(pipeline_.get(), ServeOptions());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);
  }

  /// The slow path: MaterializeSnapshot(pin, e, e), the fitted quality
  /// remapped onto the slice's source ids by name (unseen sources at the
  /// prior means), LtmIncremental over the slice. No-claim facts score at
  /// the beta prior mean. Also checks the pinned slice against the
  /// entity's rows carved out of a full (range-scan) materialization.
  double Oracle(const FactRef& fact, const Dataset& full) {
    const LtmOptions& options = pipeline_->options().ltm;
    const auto pin = store_->PinSnapshot(&fact.entity, &fact.entity);
    auto slice = store_->MaterializeSnapshot(*pin, &fact.entity, &fact.entity);
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    if (!slice.ok()) return -1.0;

    RawDatabase carved;
    for (const RawRow& row : full.raw.rows()) {
      if (full.raw.entities().Get(row.entity) != fact.entity) continue;
      carved.Add(fact.entity, full.raw.attributes().Get(row.attribute),
                 full.raw.sources().Get(row.source));
    }
    EXPECT_EQ(slice->raw.NumRows(), carved.NumRows()) << fact.entity;
    for (size_t i = 0; i < carved.NumRows() && i < slice->raw.NumRows();
         ++i) {
      const RawRow& a = slice->raw.rows()[i];
      const RawRow& b = carved.rows()[i];
      EXPECT_EQ(slice->raw.attributes().Get(a.attribute),
                carved.attributes().Get(b.attribute));
      EXPECT_EQ(slice->raw.sources().Get(a.source),
                carved.sources().Get(b.source));
    }

    const auto eid = slice->raw.entities().Find(fact.entity);
    const auto aid = slice->raw.attributes().Find(fact.attribute);
    if (!eid.has_value() || !aid.has_value()) return options.beta.Mean();
    const auto fid = slice->facts.Find(*eid, *aid);
    if (!fid.has_value()) return options.beta.Mean();

    const SourceQuality& fitted = pipeline_->quality();
    SourceQuality sliced;
    const size_t n = slice->raw.NumSources();
    sliced.sensitivity.resize(n);
    sliced.specificity.resize(n);
    sliced.precision.resize(n, 0.0);
    sliced.accuracy.resize(n, 0.0);
    sliced.expected_counts.resize(n);
    for (SourceId s = 0; s < n; ++s) {
      const auto id =
          pipeline_->cumulative_sources().Find(slice->raw.sources().Get(s));
      if (id.has_value() && *id < fitted.NumSources()) {
        sliced.sensitivity[s] = fitted.sensitivity[*id];
        sliced.specificity[s] = fitted.specificity[*id];
      } else {
        sliced.sensitivity[s] = options.alpha1.Mean();
        sliced.specificity[s] = 1.0 - options.alpha0.Mean();
      }
    }
    LtmIncremental scorer(std::move(sliced), options);
    auto result = scorer.Run(RunContext(), slice->facts, slice->graph);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->estimate.probability[*fid] : -1.0;
  }

  /// Every stored fact, an absent attribute of each stored entity, and
  /// entities the store never saw (one sorting between stored entities).
  std::vector<FactRef> Probes(const Dataset& full) {
    std::vector<FactRef> probes;
    for (FactId f = 0; f < full.facts.NumFacts(); ++f) {
      const Fact& fact = full.facts.fact(f);
      FactRef probe;
      probe.entity = std::string(full.raw.entities().Get(fact.entity));
      probe.attribute = std::string(full.raw.attributes().Get(fact.attribute));
      probes.push_back(std::move(probe));
    }
    for (EntityId e = 0; e < full.raw.NumEntities(); ++e) {
      probes.push_back({std::string(full.raw.entities().Get(e)), "attr-9"});
    }
    probes.push_back({"entity-1175", "attr-0"});
    probes.push_back({"aardvark", "attr-1"});
    probes.push_back({"zzz", "attr-2"});
    return probes;
  }

  std::string dir_;
  std::unique_ptr<store::PartitionedTruthStore> store_;
  std::unique_ptr<ext::StreamingPipeline> pipeline_;
  std::unique_ptr<ServeSession> session_;
};

TEST_P(PointReadOracleTest, LiveAndSnapshotQueriesMatchMaterializeOracle) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    BuildStore(seed);
    if (HasFatalFailure()) return;
    auto full = store_->Materialize();
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    size_t unseen_source_facts = 0;
    for (const FactRef& probe : Probes(*full)) {
      SCOPED_TRACE(probe.entity + "/" + probe.attribute);
      const double oracle = Oracle(probe, *full);
      // A fresh quality version per read: every answer below comes from
      // the miss path, not from a cache entry the other path filled.
      ASSERT_TRUE(session_->RefreshQuality().ok());
      auto live = session_->Query(probe);
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      EXPECT_EQ(Bits(*live), Bits(oracle)) << *live << " vs " << oracle;

      ASSERT_TRUE(session_->RefreshQuality().ok());
      const auto snapshot = session_->AcquireSnapshot();
      auto pinned = snapshot->Query(probe);
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      EXPECT_EQ(Bits(*pinned), Bits(oracle)) << *pinned << " vs " << oracle;
    }
    for (const RawRow& row : full->raw.rows()) {
      if (full->raw.sources().Get(row.source).starts_with("src-new")) {
        ++unseen_source_facts;
      }
    }
    EXPECT_GT(unseen_source_facts, 0u);  // the unseen-source row is hit
    EXPECT_GT(store_->Stats().memtable_rows, 0u);
    EXPECT_GT(store_->Stats().num_segments, 1u);
  }
}

TEST_P(PointReadOracleTest, EntityRangeMatchesPointQueriesOnColdCache) {
  BuildStore(7);
  if (HasFatalFailure()) return;
  ASSERT_TRUE(session_->RefreshQuality().ok());
  auto range = session_->QueryEntityRange("entity-100", "entity-139");
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_FALSE(range->empty());
  for (const ServedFact& served : *range) {
    SCOPED_TRACE(served.entity + "/" + served.attribute);
    ASSERT_TRUE(session_->RefreshQuality().ok());
    auto point = session_->Query({served.entity, served.attribute});
    ASSERT_TRUE(point.ok()) << point.status().ToString();
    EXPECT_EQ(Bits(*point), Bits(served.posterior));
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, PointReadOracleTest,
                         ::testing::Values(size_t{1}, size_t{3}));

}  // namespace
}  // namespace serve
}  // namespace ltm
