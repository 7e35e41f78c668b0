// An order-statistic set over dense integer ids: "the k-th smallest member"
// in O(log n), for drawing a uniform member without materializing the set.

#ifndef HYPERTP_SRC_SIM_RANK_INDEX_H_
#define HYPERTP_SRC_SIM_RANK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hypertp {

// A set of ids in [0, size()). Set and Select are O(log n), Contains and
// count O(1). A Fenwick tree over 0/1 membership; Select descends it by
// binary lifting.
class RankIndex {
 public:
  RankIndex() = default;
  explicit RankIndex(int size) { Resize(size); }

  int size() const { return static_cast<int>(members_.size()); }
  int count() const { return count_; }
  bool Contains(int id) const { return members_[static_cast<size_t>(id)] != 0; }

  // Grows the id range to [0, size); the new ids are not members. O(size).
  void Resize(int size);

  // Adds (member) or removes (!member) `id`; a no-op when nothing changes.
  void Set(int id, bool member);

  // The k-th smallest member, for k in [0, count()).
  int Select(int k) const;

 private:
  // 1-based: tree_[i] counts the members among ids [i - lowbit(i), i).
  std::vector<int> tree_;
  std::vector<uint8_t> members_;
  int count_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_RANK_INDEX_H_
