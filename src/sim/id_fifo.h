// An order-preserving FIFO of dense integer ids with O(1) erase from the
// middle, for work queues whose members can leave before their turn.

#ifndef HYPERTP_SRC_SIM_ID_FIFO_H_
#define HYPERTP_SRC_SIM_ID_FIFO_H_

#include <cstddef>
#include <vector>

#include "src/base/logging.h"

namespace hypertp {

// Each id in [0, size()) is queued at most once. PushBack, Erase, Contains
// and next() are O(1): an intrusive doubly-linked list, two links per id.
class IdFifo {
 public:
  static constexpr int kNone = -1;

  // Grows the id range to [0, size); the new ids are not queued.
  void Resize(int size) {
    HYPERTP_CHECK(size >= static_cast<int>(next_.size()));
    next_.resize(static_cast<size_t>(size), kNone);
    prev_.resize(static_cast<size_t>(size), kAbsent);
  }

  bool empty() const { return head_ == kNone; }
  int front() const { return head_; }
  // The id queued right after `id`, or kNone at the back.
  int next(int id) const { return next_[static_cast<size_t>(id)]; }
  bool Contains(int id) const { return prev_[static_cast<size_t>(id)] != kAbsent; }

  void PushBack(int id) {
    HYPERTP_CHECK(!Contains(id));
    prev_[static_cast<size_t>(id)] = tail_;
    next_[static_cast<size_t>(id)] = kNone;
    (tail_ == kNone ? head_ : next_[static_cast<size_t>(tail_)]) = id;
    tail_ = id;
  }

  void Erase(int id) {
    HYPERTP_CHECK(Contains(id));
    const int before = prev_[static_cast<size_t>(id)];
    const int after = next_[static_cast<size_t>(id)];
    (before == kNone ? head_ : next_[static_cast<size_t>(before)]) = after;
    (after == kNone ? tail_ : prev_[static_cast<size_t>(after)]) = before;
    prev_[static_cast<size_t>(id)] = kAbsent;
    next_[static_cast<size_t>(id)] = kNone;
  }

 private:
  static constexpr int kAbsent = -2;  // prev_ of an id that is not queued.

  std::vector<int> next_;
  std::vector<int> prev_;
  int head_ = kNone;
  int tail_ = kNone;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_ID_FIFO_H_
