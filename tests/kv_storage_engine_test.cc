#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/kv/storage_engine.h"

namespace scalecheck {
namespace {

TEST(StorageEngineTest, PutThenGet) {
  StorageEngine engine;
  engine.Put(42, "hello", 1);
  WorkUnits work = 0;
  auto value = engine.Get(42, &work);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "hello");
  EXPECT_GT(work, 0);
}

TEST(StorageEngineTest, MissingKeyReturnsNullopt) {
  StorageEngine engine;
  WorkUnits work = 0;
  EXPECT_FALSE(engine.Get(42, &work).has_value());
}

TEST(StorageEngineTest, NewerTimestampWins) {
  StorageEngine engine;
  engine.Put(1, "old", 5);
  engine.Put(1, "new", 6);
  WorkUnits work;
  EXPECT_EQ(*engine.Get(1, &work), "new");
  // Stale write is ignored.
  engine.Put(1, "stale", 2);
  EXPECT_EQ(*engine.Get(1, &work), "new");
}

TEST(StorageEngineTest, FlushMovesMemtableToRun) {
  StorageEngine::Config cfg;
  cfg.memtable_limit = 8;
  StorageEngine engine(cfg);
  for (uint64_t k = 0; k < 8; ++k) {
    engine.Put(k, "v", 1);
  }
  EXPECT_EQ(engine.flushes(), 1u);
  EXPECT_EQ(engine.memtable_entries(), 0u);
  EXPECT_EQ(engine.num_runs(), 1u);
  WorkUnits work;
  EXPECT_TRUE(engine.Get(3, &work).has_value());  // found in the run
}

TEST(StorageEngineTest, CompactionMergesRuns) {
  StorageEngine::Config cfg;
  cfg.memtable_limit = 4;
  cfg.compaction_fanin = 3;
  StorageEngine engine(cfg);
  // Write the same keys repeatedly so compaction must pick newest versions.
  int64_t ts = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 4; ++k) {
      engine.Put(k, "v" + std::to_string(round), ++ts);
    }
  }
  EXPECT_GE(engine.compactions(), 1u);
  EXPECT_EQ(engine.num_runs(), 1u);
  WorkUnits work;
  EXPECT_EQ(*engine.Get(2, &work), "v2");  // newest round survives
}

TEST(StorageEngineTest, MemtableShadowsOlderRuns) {
  StorageEngine::Config cfg;
  cfg.memtable_limit = 4;
  StorageEngine engine(cfg);
  for (uint64_t k = 0; k < 4; ++k) {
    engine.Put(k, "flushed", 1);
  }
  engine.Put(2, "fresh", 2);
  WorkUnits work;
  EXPECT_EQ(*engine.Get(2, &work), "fresh");
  EXPECT_EQ(*engine.Get(3, &work), "flushed");
}

// A late write older than a version that has already been flushed must not
// shadow it from the memtable.
TEST(StorageEngineTest, StaleWriteAfterFlushIsDropped) {
  StorageEngine::Config cfg;
  cfg.memtable_limit = 2;
  StorageEngine engine(cfg);
  engine.Put(1, "new", 10);
  engine.Put(2, "x", 1);  // flushes key 1 into a run
  ASSERT_EQ(engine.flushes(), 1u);
  const int64_t bytes = engine.ApproxBytes();
  engine.Put(1, "old", 5);
  WorkUnits work = 0;
  EXPECT_EQ(*engine.Get(1, &work), "new");
  EXPECT_EQ(engine.TimestampOf(1), 10);
  EXPECT_EQ(engine.memtable_entries(), 0u);
  EXPECT_EQ(engine.total_entries(), 2);
  EXPECT_EQ(engine.ApproxBytes(), bytes);
  // A newer write still lands, and an equal timestamp overwrites as it does
  // inside the memtable.
  engine.Put(1, "newer", 11);
  EXPECT_EQ(*engine.Get(1, &work), "newer");
  engine.Put(2, "y", 1);
  EXPECT_EQ(*engine.Get(2, &work), "y");
}

TEST(StorageEngineTest, BytesTrackGrowth) {
  StorageEngine engine;
  int64_t before = engine.ApproxBytes();
  engine.Put(1, std::string(1000, 'x'), 1);
  EXPECT_GT(engine.ApproxBytes(), before + 900);
}

// The engine's observable contract written the obvious way over std::map:
// the LSM shape (memtable, runs newest last, flush and compaction points)
// plus every work and byte formula. The differential test below runs the
// real engine and this model side by side.
class ReferenceEngine {
 public:
  explicit ReferenceEngine(StorageEngine::Config config) : config_(config) {}

  WorkUnits Put(uint64_t key, const std::string& value, int64_t timestamp) {
    WorkUnits work = 1500 + static_cast<WorkUnits>(value.size());
    Version v{config_.emulate_data_space ? std::string() : value, value.size(),
              timestamp};
    auto it = memtable_.find(key);
    if (it == memtable_.end()) {
      const Version* flushed = FindInRuns(key, nullptr);
      if (flushed != nullptr && timestamp < flushed->timestamp) {
        return work;
      }
      bytes_ += static_cast<int64_t>(v.value.size()) + 48;
      ++total_entries_;
      memtable_[key] = v;
    } else if (timestamp >= it->second.timestamp) {
      bytes_ += static_cast<int64_t>(v.value.size()) -
                static_cast<int64_t>(it->second.value.size());
      it->second = v;
    }
    if (memtable_.size() >= config_.memtable_limit) {
      runs_.push_back(memtable_);
      memtable_.clear();
      ++flushes_;
      work += static_cast<WorkUnits>(config_.memtable_limit) * 40;
      if (runs_.size() >= config_.compaction_fanin) {
        std::map<uint64_t, Version> merged;
        for (const auto& run : runs_) {
          for (const auto& [k, version] : run) {
            auto m = merged.find(k);
            if (m == merged.end() || version.timestamp >= m->second.timestamp) {
              merged[k] = version;
            }
          }
        }
        runs_.assign(1, merged);
        total_entries_ = static_cast<int64_t>(merged.size());
        ++compactions_;
      }
    }
    return work;
  }

  std::optional<std::string> Get(uint64_t key, WorkUnits* work) const {
    *work = 2000;
    auto it = memtable_.find(key);
    const Version* v = it != memtable_.end() ? &it->second : FindInRuns(key, work);
    if (v == nullptr) {
      return std::nullopt;
    }
    *work += static_cast<WorkUnits>(v->size) / 4;
    return config_.emulate_data_space ? std::string(v->size, 'x') : v->value;
  }

  int64_t TimestampOf(uint64_t key) const {
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      return it->second.timestamp;
    }
    const Version* v = FindInRuns(key, nullptr);
    return v != nullptr ? v->timestamp : 0;
  }

  size_t memtable_entries() const { return memtable_.size(); }
  size_t num_runs() const { return runs_.size(); }
  int64_t total_entries() const { return total_entries_; }
  uint64_t flushes() const { return flushes_; }
  uint64_t compactions() const { return compactions_; }
  int64_t ApproxBytes() const {
    return bytes_ + static_cast<int64_t>(runs_.size()) * 1024;
  }

 private:
  struct Version {
    std::string value;
    size_t size = 0;
    int64_t timestamp = 0;
  };

  const Version* FindInRuns(uint64_t key, WorkUnits* work) const {
    for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
      if (work != nullptr) {
        *work += 200;
      }
      auto it = run->find(key);
      if (it != run->end()) {
        return &it->second;
      }
    }
    return nullptr;
  }

  StorageEngine::Config config_;
  std::map<uint64_t, Version> memtable_;
  std::vector<std::map<uint64_t, Version>> runs_;
  int64_t total_entries_ = 0;
  int64_t bytes_ = 0;
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
};

class StorageDifferentialTest : public ::testing::TestWithParam<bool> {};

TEST_P(StorageDifferentialTest, MatchesMapReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    StorageEngine::Config cfg;
    cfg.memtable_limit = static_cast<size_t>(rng.UniformInt(2, 40));
    cfg.compaction_fanin = static_cast<size_t>(rng.UniformInt(2, 5));
    cfg.emulate_data_space = GetParam();
    StorageEngine engine(cfg);
    ReferenceEngine model(cfg);
    // Last write wins by timestamp, ties to the later write: what Get and
    // TimestampOf must report whatever the engine's layout.
    std::map<uint64_t, std::pair<std::string, int64_t>> latest;
    // A few memtables' worth of keys: overwrites inside the memtable, stale
    // and fresh writes across flushes, and compactions all happen.
    const int64_t key_space =
        static_cast<int64_t>(cfg.memtable_limit) * rng.UniformInt(2, 8);
    for (int op = 0; op < 6000; ++op) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
      const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, key_space));
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 5) {
        const int64_t ts = rng.UniformInt(1, 60);
        std::string value(static_cast<size_t>(rng.UniformInt(0, 40)),
                          static_cast<char>('a' + op % 26));
        auto it = latest.find(key);
        if (it == latest.end() || ts >= it->second.second) {
          latest[key] = {value, ts};
        }
        ASSERT_EQ(engine.Put(key, value, ts), model.Put(key, value, ts));
      } else if (kind < 8) {
        WorkUnits got_work = -1;
        WorkUnits want_work = -1;
        std::optional<std::string> got = engine.Get(key, &got_work);
        ASSERT_EQ(got, model.Get(key, &want_work));
        ASSERT_EQ(got_work, want_work);
        auto it = latest.find(key);
        ASSERT_EQ(got.has_value(), it != latest.end());
        if (got.has_value()) {
          ASSERT_EQ(*got, cfg.emulate_data_space
                              ? std::string(it->second.first.size(), 'x')
                              : it->second.first);
        }
      } else {
        const int64_t ts = engine.TimestampOf(key);
        ASSERT_EQ(ts, model.TimestampOf(key));
        auto it = latest.find(key);
        ASSERT_EQ(ts, it == latest.end() ? 0 : it->second.second);
      }
      ASSERT_EQ(engine.memtable_entries(), model.memtable_entries());
      ASSERT_EQ(engine.num_runs(), model.num_runs());
      ASSERT_EQ(engine.flushes(), model.flushes());
      ASSERT_EQ(engine.compactions(), model.compactions());
      ASSERT_EQ(engine.total_entries(), model.total_entries());
      ASSERT_EQ(engine.ApproxBytes(), model.ApproxBytes());
    }
    EXPECT_GT(engine.compactions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(DataSpace, StorageDifferentialTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? std::string("Emulated")
                                                   : std::string("Stored");
                         });

}  // namespace
}  // namespace scalecheck
