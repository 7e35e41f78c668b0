// RankIndex (src/sim/rank_index.h) against a sorted-vector reference: every
// Set, Contains, count and Select over seeded random operations, with the id
// range growing as it goes.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/rank_index.h"
#include "src/sim/rng.h"

namespace hypertp {
namespace {

TEST(RankIndexTest, EmptyIndexHasNoMembers) {
  RankIndex index(8);
  EXPECT_EQ(index.size(), 8);
  EXPECT_EQ(index.count(), 0);
  for (int id = 0; id < 8; ++id) {
    EXPECT_FALSE(index.Contains(id));
  }
}

TEST(RankIndexTest, SelectWalksMembersInIdOrder) {
  RankIndex index(10);
  for (const int id : {7, 2, 9, 0, 4}) {
    index.Set(id, true);
  }
  index.Set(4, true);  // Already a member: no change.
  index.Set(5, false);  // Not a member: no change.
  ASSERT_EQ(index.count(), 5);
  EXPECT_EQ(index.Select(0), 0);
  EXPECT_EQ(index.Select(1), 2);
  EXPECT_EQ(index.Select(2), 4);
  EXPECT_EQ(index.Select(3), 7);
  EXPECT_EQ(index.Select(4), 9);
  index.Set(2, false);
  EXPECT_EQ(index.count(), 4);
  EXPECT_EQ(index.Select(1), 4);
}

TEST(RankIndexTest, GrowthKeepsMembersAndAddsAbsentIds) {
  RankIndex index(3);
  index.Set(1, true);
  index.Set(2, true);
  index.Resize(70);
  EXPECT_EQ(index.size(), 70);
  EXPECT_EQ(index.count(), 2);
  EXPECT_FALSE(index.Contains(3));
  index.Set(69, true);
  EXPECT_EQ(index.Select(0), 1);
  EXPECT_EQ(index.Select(1), 2);
  EXPECT_EQ(index.Select(2), 69);
}

TEST(RankIndexTest, MatchesASortedVectorOverSeededOperations) {
  Rng rng(20);
  RankIndex index(1);
  std::vector<int> reference;  // Sorted members.
  for (int op = 0; op < 100000; ++op) {
    const uint64_t kind = rng.NextBelow(100);
    if (kind == 0 && index.size() < 5000) {
      // Grow by a ragged step, so sizes cross powers of two.
      index.Resize(index.size() + 1 + static_cast<int>(rng.NextBelow(97)));
      continue;
    }
    if (kind < 30 && !reference.empty()) {
      const int k = static_cast<int>(rng.NextBelow(reference.size()));
      ASSERT_EQ(index.Select(k), reference[static_cast<size_t>(k)]) << "op " << op;
      continue;
    }
    const int id = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(index.size())));
    const bool member = rng.NextBool(0.6);
    index.Set(id, member);
    const auto at = std::lower_bound(reference.begin(), reference.end(), id);
    const bool present = at != reference.end() && *at == id;
    if (member && !present) {
      reference.insert(at, id);
    } else if (!member && present) {
      reference.erase(at);
    }
    ASSERT_EQ(index.Contains(id), member);
    ASSERT_EQ(index.count(), static_cast<int>(reference.size())) << "op " << op;
  }
  EXPECT_GT(index.size(), 500);  // The run really grew the index.
  for (size_t k = 0; k < reference.size(); ++k) {
    ASSERT_EQ(index.Select(static_cast<int>(k)), reference[k]);
  }
}

TEST(RankIndexDeathTest, SelectRejectsARankPastTheCount) {
  EXPECT_DEATH(
      {
        RankIndex index(4);
        index.Set(1, true);
        index.Select(1);
      },
      "check failed");
}

}  // namespace
}  // namespace hypertp
