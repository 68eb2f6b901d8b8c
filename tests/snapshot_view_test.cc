// The query-form view of a published snapshot (SnapshotQueryView,
// src/stream/shard_engine.h): racing first readers all see the values one
// reader derives, the answers' formatted members among them, and copies
// and moves keep the view consistent with the members it was derived from.
// Runs under the `tsan` ctest label.
#include <barrier>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/subpop_estimators.h"
#include "src/service/service.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

// The shape perfbench and the engine golden build their snapshots with.
static_assert(std::is_copy_constructible_v<ServiceSnapshot>);
static_assert(std::is_copy_assignable_v<ServiceSnapshot>);
static_assert(std::is_nothrow_move_constructible_v<ServiceSnapshot>);
static_assert(std::is_nothrow_move_assignable_v<ServiceSnapshot>);

// A sealed snapshot with every companion, saturated keyed KMV and a
// compacted KLL, small enough for ThreadSanitizer.
ServiceSnapshot SealedSnapshot() {
  SketchParams sketch;
  sketch.rows = 3;
  sketch.buckets = 256;
  sketch.scheme = XiScheme::kCw4;
  sketch.seed = 5;
  ShardEngineOptions options;
  options.shards = 2;
  options.shed_p = 0.5;
  options.seed = 6;
  options.chunk_tuples = 512;
  options.distinct_k = 64;
  options.quantile_k = 32;
  options.subpop_k = 64;
  Xoshiro256 rng(7);
  std::vector<uint64_t> stream(20000);
  for (uint64_t& v : stream) v = rng() % 3000;
  VectorSource source(std::move(stream));
  ShardEngine<FagmsSketch> engine(FagmsSketch(sketch), options);
  engine.Run(source);
  return engine.Snapshot();
}

// Every body of the five endpoints that read the view, in the order
// `first` rotates to, so racing threads hit different latches first. Every
// answer reads the snapshot's formatted members; the distinct answer reads
// nothing else, so a thread starting there races for that latch alone.
std::vector<std::string> Answers(const ServiceSnapshot& snap, size_t first) {
  std::vector<std::string> out(5);
  for (size_t i = 0; i < 5; ++i) {
    const size_t which = (first + i) % 5;
    switch (which) {
      case 0:
        out[which] = SelfJoinAnswer(snap, std::nullopt, 0.95);
        break;
      case 1:
        out[which] = PointAnswer(snap, 7, std::nullopt, 0.95);
        break;
      case 2:
        out[which] = QuantileAnswer(snap, 0.9, 0.95);
        break;
      case 3:
        out[which] = DistinctAnswer(snap, 0.95);
        break;
      default:
        out[which] =
            SubpopAnswer(snap, ParseSubpopFilter("mod:10-3"), 0.95);
    }
  }
  return out;
}

bool AllDerived(const ServiceSnapshot& snap) {
  const SnapshotQueryView::Latches& latches = snap.view.latches();
  return latches.self_join.Ready() && latches.quantile.Ready() &&
         latches.subpop.Ready() && latches.answer_members.Ready();
}

bool NoneDerived(const ServiceSnapshot& snap) {
  const SnapshotQueryView::Latches& latches = snap.view.latches();
  return !latches.self_join.Ready() && !latches.quantile.Ready() &&
         !latches.subpop.Ready() && !latches.answer_members.Ready();
}

TEST(SnapshotViewTest, ViewMatchesTheSketchEstimators) {
  const ServiceSnapshot snap = SealedSnapshot();
  ASSERT_TRUE(snap.subpop->saturated());
  ASSERT_GT(snap.quantile->compactions(), 0u);
  EXPECT_EQ(snap.self_join(), snap.sketch.EstimateSelfJoin());
  const std::vector<double> qs = {0.0, 0.01, 0.5, 0.9, 0.99, 1.0};
  EXPECT_EQ(snap.quantile_view().Quantiles(qs),
            snap.quantile->EstimateQuantiles(qs));
  const SubpopPredicate pred = ParseSubpopFilter("range:0-999");
  const SubpopEstimate from_entries = EstimateSubpopulation(
      snap.subpop_entries(), snap.subpop->k(), pred, snap.realized_p());
  const SubpopEstimate from_sketch =
      EstimateSubpopulation(*snap.subpop, pred, snap.realized_p());
  EXPECT_EQ(from_entries.estimate, from_sketch.estimate);
  EXPECT_EQ(from_entries.variance, from_sketch.variance);
  EXPECT_EQ(from_entries.matched, from_sketch.matched);
}

// The formatted members are the snapshot's own fields as a JsonValue tree
// dumps them, and every answer carries them.
TEST(SnapshotViewTest, FormattedMembersMatchTheSnapshotFields) {
  const ServiceSnapshot snap = SealedSnapshot();
  const std::string body = DistinctAnswer(snap, 0.95);
  ASSERT_TRUE(snap.view.latches().answer_members.Ready());
  JsonValue members = JsonValue::Object();
  members.Set("endpoint", JsonValue::String("distinct"));
  members.Set("position",
              JsonValue::Number(static_cast<double>(snap.position)));
  members.Set("kept", JsonValue::Number(static_cast<double>(snap.kept)));
  members.Set("sequence",
              JsonValue::Number(static_cast<double>(snap.sequence)));
  members.Set("p", JsonValue::Number(snap.p));
  members.Set("realized_p", JsonValue::Number(snap.realized_p()));
  std::string prefix = members.Dump();
  prefix.back() = ',';  // the members continue with "staleness"
  EXPECT_EQ(body.substr(0, prefix.size()), prefix);
  const std::string shared = prefix.substr(prefix.find("\"position\""));
  for (const std::string& answer : Answers(snap, 0)) {
    EXPECT_NE(answer.find(shared), std::string::npos) << answer;
  }
}

TEST(SnapshotViewTest, RacingFirstReadersAnswerLikeOneReader) {
  const ServiceSnapshot prototype = SealedSnapshot();
  const ServiceSnapshot untouched = prototype;
  const std::vector<std::string> expected = Answers(untouched, 0);
  constexpr size_t kThreads = 8;
  for (int round = 0; round < 8; ++round) {
    const ServiceSnapshot fresh = prototype;  // a copy starts underived
    ASSERT_TRUE(NoneDerived(fresh));
    std::barrier start(kThreads);
    std::vector<std::vector<std::string>> got(kThreads);
    std::vector<std::thread> readers;
    for (size_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        start.arrive_and_wait();
        got[t] = Answers(fresh, t);
      });
    }
    for (std::thread& reader : readers) reader.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t], expected) << "round " << round << " thread " << t;
    }
    EXPECT_TRUE(AllDerived(fresh));
  }
}

TEST(SnapshotViewTest, CopyAfterDerivationDerivesItsOwnView) {
  ServiceSnapshot snap = SealedSnapshot();
  const std::vector<std::string> expected = Answers(snap, 0);
  ASSERT_TRUE(AllDerived(snap));

  const ServiceSnapshot copy = snap;
  EXPECT_TRUE(NoneDerived(copy));
  EXPECT_EQ(Answers(copy, 0), expected);
  EXPECT_TRUE(AllDerived(copy));

  ServiceSnapshot assigned = SealedSnapshot();
  Answers(assigned, 0);
  assigned = snap;
  EXPECT_TRUE(NoneDerived(assigned));
  EXPECT_EQ(Answers(assigned, 0), expected);
  EXPECT_TRUE(AllDerived(snap));
}

TEST(SnapshotViewTest, MoveAfterDerivationCarriesTheView) {
  ServiceSnapshot snap = SealedSnapshot();
  const std::vector<std::string> expected = Answers(snap, 0);
  const double* self_join = &snap.view.latches().self_join.Get(
      [] { return 0.0; });  // already derived: returns the stored value

  ServiceSnapshot moved = std::move(snap);
  EXPECT_TRUE(AllDerived(moved));
  EXPECT_EQ(&moved.view.latches().self_join.Get([] { return 0.0; }),
            self_join);
  EXPECT_EQ(Answers(moved, 0), expected);

  ServiceSnapshot assigned = SealedSnapshot();
  assigned = std::move(moved);
  EXPECT_TRUE(AllDerived(assigned));
  EXPECT_EQ(Answers(assigned, 0), expected);
}

}  // namespace
}  // namespace sketchsample
