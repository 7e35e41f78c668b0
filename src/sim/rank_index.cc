#include "src/sim/rank_index.h"

#include <bit>

#include "src/base/logging.h"

namespace hypertp {
namespace {

int LowBit(int i) { return i & -i; }

}  // namespace

void RankIndex::Resize(int size) {
  HYPERTP_CHECK(size >= this->size());
  members_.resize(static_cast<size_t>(size), 0);
  // Linear Fenwick build: each node hands its count on to its parent.
  tree_.assign(static_cast<size_t>(size) + 1, 0);
  for (int i = 1; i <= size; ++i) {
    tree_[static_cast<size_t>(i)] += members_[static_cast<size_t>(i - 1)];
    if (const int parent = i + LowBit(i); parent <= size) {
      tree_[static_cast<size_t>(parent)] += tree_[static_cast<size_t>(i)];
    }
  }
}

void RankIndex::Set(int id, bool member) {
  HYPERTP_CHECK(id >= 0 && id < size());
  uint8_t& slot = members_[static_cast<size_t>(id)];
  if ((slot != 0) == member) {
    return;
  }
  slot = member ? 1 : 0;
  const int delta = member ? 1 : -1;
  count_ += delta;
  for (int i = id + 1; i <= size(); i += LowBit(i)) {
    tree_[static_cast<size_t>(i)] += delta;
  }
}

int RankIndex::Select(int k) const {
  HYPERTP_CHECK(k >= 0 && k < count_);
  // Finds the longest prefix [0, pos) holding at most k members; id `pos`
  // is then the (k+1)-th member.
  int pos = 0;
  int rest = k;
  for (int step = std::bit_floor(static_cast<unsigned>(size())); step > 0; step >>= 1) {
    const int next = pos + step;
    if (next <= size() && tree_[static_cast<size_t>(next)] <= rest) {
      pos = next;
      rest -= tree_[static_cast<size_t>(next)];
    }
  }
  return pos;
}

}  // namespace hypertp
