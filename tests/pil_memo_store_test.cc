#include <gtest/gtest.h>

#include <cstdio>

#include "src/pil/memo_store.h"

namespace scalecheck {
namespace {

DigestValue Key(uint64_t x) { return DigestValue{x, x * 31}; }

MemoRecord Record(std::vector<uint8_t> output, int64_t work) {
  MemoRecord r;
  r.output = std::move(output);
  r.work = work;
  r.cpu_duration = VirtualDuration::Nanos(work);
  return r;
}

TEST(MemoStoreTest, PutThenLookupHits) {
  MemoStore store;
  store.Put(1, Key(7), Record({1, 2, 3}, 100));
  const MemoRecord* rec = store.Lookup(1, Key(7));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->output, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(rec->cpu_duration.nanos(), 100);
  EXPECT_EQ(rec->sequence, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(store.HitRate(), 1.0);
}

TEST(MemoStoreTest, MissesAreCounted) {
  MemoStore store;
  EXPECT_EQ(store.Lookup(1, Key(9)), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(store.HitRate(), 0.0);
}

TEST(MemoStoreTest, FunctionIdPartOfKey) {
  MemoStore store;
  store.Put(1, Key(7), Record({1}, 10));
  EXPECT_EQ(store.Lookup(2, Key(7)), nullptr);
}

TEST(MemoStoreTest, DuplicatePutKeepsFirstAndCounts) {
  MemoStore store;
  store.Put(1, Key(7), Record({1}, 10));
  store.Put(1, Key(7), Record({1}, 20));  // same output: duplicate
  EXPECT_EQ(store.stats().duplicate_puts, 1u);
  EXPECT_EQ(store.stats().determinism_violations, 0u);
  EXPECT_EQ(store.Peek(1, Key(7))->cpu_duration.nanos(), 10);
}

TEST(MemoStoreTest, DifferentOutputFlagsDeterminismViolation) {
  MemoStore store;
  store.Put(1, Key(7), Record({1}, 10));
  store.Put(1, Key(7), Record({2}, 10));  // same input, DIFFERENT output!
  EXPECT_EQ(store.stats().determinism_violations, 1u);
}

TEST(MemoStoreTest, SequencesRecordOrder) {
  MemoStore store;
  store.Put(1, Key(1), Record({1}, 1));
  store.Put(1, Key(2), Record({2}, 1));
  store.Put(2, Key(3), Record({3}, 1));
  EXPECT_EQ(store.Peek(1, Key(1))->sequence, 1u);
  EXPECT_EQ(store.Peek(1, Key(2))->sequence, 2u);
  EXPECT_EQ(store.Peek(2, Key(3))->sequence, 3u);
}

TEST(MemoStoreTest, SerializeRoundTrips) {
  MemoStore store;
  store.Put(1, Key(1), Record({1, 2, 3, 4}, 111));
  store.Put(2, Key(2), Record({}, 222));  // empty output is legal
  store.Put(3, Key(3), Record(std::vector<uint8_t>(1000, 0xab), 333));

  std::vector<uint8_t> bytes = store.Serialize();
  MemoStore loaded;
  ASSERT_TRUE(MemoStore::Parse(bytes, &loaded).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.output_bytes(), store.output_bytes());
  const MemoRecord* rec = loaded.Peek(3, Key(3));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->output.size(), 1000u);
  EXPECT_EQ(rec->cpu_duration.nanos(), 333);
  // Sequences survive, and new puts continue after the max.
  loaded.Put(4, Key(4), Record({9}, 1));
  EXPECT_EQ(loaded.Peek(4, Key(4))->sequence, 4u);
}

TEST(MemoStoreTest, DeserializeRejectsCorruptData) {
  MemoStore store;
  store.Put(1, Key(1), Record({1}, 1));
  std::vector<uint8_t> bytes = store.Serialize();

  MemoStore out;
  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(MemoStore::Parse(bad_magic, &out).ok());

  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_FALSE(MemoStore::Parse(truncated, &out).ok());

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(MemoStore::Parse(trailing, &out).ok());
}

TEST(MemoStoreTest, FileRoundTrip) {
  MemoStore store;
  store.Put(1, Key(1), Record({5, 6}, 50));
  const char* path = "/tmp/scalecheck_memo_test.bin";
  ASSERT_TRUE(store.Save(path).ok());
  Result<MemoStore> loaded = MemoStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
  ASSERT_NE(loaded.value().Peek(1, Key(1)), nullptr);
  std::remove(path);
  EXPECT_FALSE(MemoStore::Load("/nonexistent/nope.bin").ok());
}

}  // namespace
}  // namespace scalecheck
