#include "data/interactions.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"

namespace kgrec {

void InteractionDataset::CopyFrom(const InteractionDataset& other) {
  num_users_.store(other.num_users(), std::memory_order_release);
  num_items_ = other.num_items_;
  interactions_ = other.interactions_;
  user_ptr_.clear();
  user_item_flat_.clear();
  user_item_sorted_.clear();
  index_clean_.store(false, std::memory_order_release);
  index_generation_.store(0, std::memory_order_release);
  frozen_ = false;
  frozen_log_size_ = 0;
  frozen_num_users_ = 0;
}

void InteractionDataset::MoveFrom(InteractionDataset&& other) noexcept {
  num_users_.store(other.num_users(), std::memory_order_release);
  num_items_ = other.num_items_;
  interactions_ = std::move(other.interactions_);
  user_ptr_ = std::move(other.user_ptr_);
  user_item_flat_ = std::move(other.user_item_flat_);
  user_item_sorted_ = std::move(other.user_item_sorted_);
  index_clean_.store(other.index_clean_.load(std::memory_order_acquire),
                     std::memory_order_release);
  index_generation_.store(
      other.index_generation_.load(std::memory_order_acquire),
      std::memory_order_release);
  frozen_ = other.frozen_;
  frozen_log_size_ = other.frozen_log_size_;
  frozen_num_users_ = other.frozen_num_users_;
  // A moved-from vector is only "valid but unspecified", and the next
  // build extends from user_ptr_.back(): leave an explicitly empty log
  // and index behind.
  other.interactions_.clear();
  other.user_ptr_.clear();
  other.user_item_flat_.clear();
  other.user_item_sorted_.clear();
  other.index_clean_.store(false, std::memory_order_release);
  other.frozen_ = false;
}

void InteractionDataset::Add(int32_t user, int32_t item) {
  KGREC_CHECK(user >= 0 && user < num_users());
  KGREC_CHECK(item >= 0 && item < num_items_);
  KGREC_CHECK(interactions_.size() < UINT32_MAX);  // 32-bit index offsets
  interactions_.push_back({user, item});
  if (!frozen_) index_clean_.store(false, std::memory_order_release);
}

void InteractionDataset::GrowUsers(int32_t count) {
  KGREC_CHECK_GE(count, 0);
  KGREC_CHECK(num_users() <= INT32_MAX - count);
  num_users_.fetch_add(count, std::memory_order_acq_rel);
  if (!frozen_) index_clean_.store(false, std::memory_order_release);
}

void InteractionDataset::Freeze() {
  KGREC_CHECK(!frozen_);
  EnsureIndex();
  frozen_ = true;
  frozen_log_size_ = interactions_.size();
  frozen_num_users_ = num_users();
}

void InteractionDataset::Thaw() {
  KGREC_CHECK(frozen_);
  frozen_ = false;
  if (interactions_.size() != frozen_log_size_ ||
      num_users() != frozen_num_users_) {
    index_clean_.store(false, std::memory_order_release);
  }
}

void InteractionDataset::EnsureIndex() const {
  if (index_clean_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_clean_.load(std::memory_order_relaxed)) return;
  // A build moves rows within the flat arrays (and may reallocate them);
  // inside a frozen epoch that would dangle every span handed out since
  // Freeze(). The pin keeps index_clean_ true for the epoch, so reaching
  // here frozen is a contract violation by definition.
  KGREC_CHECK(!frozen_);
  // The log is append-only between builds (Add is its only mutator;
  // CopyFrom resets the index and MoveFrom carries it along with its
  // log), so the last build covers exactly the prefix [0, base) and only
  // the tail [base, size) is new. A first build is the base == 0 case of
  // the same steps.
  const size_t n = static_cast<size_t>(num_users());
  const uint32_t base = user_ptr_.empty() ? 0 : user_ptr_.back();
  const size_t size = interactions_.size();
  KGREC_CHECK(user_ptr_.size() <= n + 1 && base <= size);
  // shift[u] = tail events of users < u: how far user u's row moves right.
  std::vector<uint32_t> shift(n + 1, 0);
  for (size_t i = base; i < size; ++i) ++shift[interactions_[i].user + 1];
  for (size_t u = 0; u < n; ++u) shift[u + 1] += shift[u];
  // Users born since the last build own empty rows at the old end.
  user_ptr_.resize(n + 1, base);
  user_item_flat_.resize(size);
  user_item_sorted_.resize(size);
  // Shift the old rows into place in both lanes, last user first so no
  // row is overwritten before it moves; below the first user with
  // shift 0 every row is already in place.
  for (size_t u = n; u-- > 0 && shift[u] > 0;) {
    const uint32_t first = user_ptr_[u];
    const uint32_t last = user_ptr_[u + 1];
    std::copy_backward(user_item_flat_.begin() + first,
                       user_item_flat_.begin() + last,
                       user_item_flat_.begin() + last + shift[u]);
    std::copy_backward(user_item_sorted_.begin() + first,
                       user_item_sorted_.begin() + last,
                       user_item_sorted_.begin() + last + shift[u]);
  }
  for (size_t u = 0; u <= n; ++u) user_ptr_[u] += shift[u];
  // Append each tail event after its user's old row. Filling backwards
  // from each row's end keeps per-user insertion order (a stable
  // counting sort) and leaves user_ptr_[u + 1] at the user's tail start.
  for (size_t i = size; i-- > base;) {
    const Interaction& x = interactions_[i];
    const uint32_t at = --user_ptr_[x.user + 1];
    user_item_flat_[at] = x.item;
    user_item_sorted_[at] = x.item;
  }
  // The Contains() lane: sort each touched user's tail and merge it into
  // the user's already sorted row; restore the row end.
  for (size_t u = 0; u < n; ++u) {
    const uint32_t added = shift[u + 1] - shift[u];
    if (added == 0) continue;
    const auto row = user_item_sorted_.begin() + user_ptr_[u];
    const auto tail = user_item_sorted_.begin() + user_ptr_[u + 1];
    std::sort(tail, tail + added);
    std::inplace_merge(row, tail, tail + added);
    user_ptr_[u + 1] += added;
  }
  index_generation_.fetch_add(1, std::memory_order_acq_rel);
  index_clean_.store(true, std::memory_order_release);
}

std::span<const int32_t> InteractionDataset::UserItems(int32_t user) const {
  return Row(user_item_flat_, user);
}

std::span<const int32_t> InteractionDataset::SortedUserItems(
    int32_t user) const {
  return Row(user_item_sorted_, user);
}

std::span<const int32_t> InteractionDataset::Row(
    const std::vector<int32_t>& lane, int32_t user) const {
  KGREC_CHECK(user >= 0 && user < num_users());
  EnsureIndex();
  // A user born after a frozen index was pinned has no row yet; the
  // epoch view is an empty history.
  if (static_cast<size_t>(user) + 1 >= user_ptr_.size()) return {};
  return {lane.data() + user_ptr_[user],
          user_ptr_[user + 1] - user_ptr_[user]};
}

bool InteractionDataset::Contains(int32_t user, int32_t item) const {
  KGREC_CHECK(user >= 0 && user < num_users());
  if (!index_clean_.load(std::memory_order_acquire)) {
    // Pre-index (or build pending): answer from the log without forcing
    // a build — a build here would move rows in the flat arrays under
    // any concurrently held UserItems() span.
    for (const Interaction& x : interactions_) {
      if (x.user == user && x.item == item) return true;
    }
    return false;
  }
  if (static_cast<size_t>(user) + 1 >= user_ptr_.size()) return false;
  const auto first = user_item_sorted_.begin() + user_ptr_[user];
  const auto last = user_item_sorted_.begin() + user_ptr_[user + 1];
  return std::binary_search(first, last, item);
}

double InteractionDataset::Density() const {
  if (num_users() == 0 || num_items_ == 0) return 0.0;
  return static_cast<double>(interactions_.size()) /
         (static_cast<double>(num_users()) * num_items_);
}

CsrMatrix InteractionDataset::ToCsr() const {
  std::vector<std::tuple<int32_t, int32_t, float>> triplets;
  triplets.reserve(interactions_.size());
  for (const Interaction& x : interactions_) {
    triplets.emplace_back(x.user, x.item, 1.0f);
  }
  return CsrMatrix::FromTriplets(num_users(), num_items_, triplets);
}

std::vector<int32_t> InteractionDataset::ItemsWithInteractions() const {
  std::vector<bool> seen(num_items_, false);
  for (const Interaction& x : interactions_) seen[x.item] = true;
  std::vector<int32_t> out;
  for (int32_t i = 0; i < num_items_; ++i) {
    if (seen[i]) out.push_back(i);
  }
  return out;
}

void InteractionDataset::MemoryUse(MemoryVisitor& visitor) const {
  visitor.Add("interactions.log", VectorBytes(interactions_));
  visitor.Add("interactions.user_ptr", VectorBytes(user_ptr_));
  visitor.Add("interactions.user_items", VectorBytes(user_item_flat_));
  visitor.Add("interactions.user_items_sorted", VectorBytes(user_item_sorted_));
}

DataSplit RatioSplit(const InteractionDataset& data, double test_fraction,
                     Rng& rng) {
  KGREC_CHECK(test_fraction >= 0.0 && test_fraction < 1.0);
  DataSplit split;
  split.train = InteractionDataset(data.num_users(), data.num_items());
  split.test = InteractionDataset(data.num_users(), data.num_items());
  for (int32_t u = 0; u < data.num_users(); ++u) {
    const std::span<const int32_t> history = data.UserItems(u);
    std::vector<int32_t> items(history.begin(), history.end());
    rng.Shuffle(items);
    size_t num_test = static_cast<size_t>(items.size() * test_fraction);
    if (num_test >= items.size() && !items.empty()) num_test = items.size() - 1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (i < num_test) {
        split.test.Add(u, items[i]);
      } else {
        split.train.Add(u, items[i]);
      }
    }
  }
  return split;
}

DataSplit LeaveOneOutSplit(const InteractionDataset& data, Rng& rng) {
  DataSplit split;
  split.train = InteractionDataset(data.num_users(), data.num_items());
  split.test = InteractionDataset(data.num_users(), data.num_items());
  for (int32_t u = 0; u < data.num_users(); ++u) {
    const auto& items = data.UserItems(u);
    if (items.size() < 2) {
      for (int32_t i : items) split.train.Add(u, i);
      continue;
    }
    const size_t held_out = rng.UniformInt(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (i == held_out) {
        split.test.Add(u, items[i]);
      } else {
        split.train.Add(u, items[i]);
      }
    }
  }
  return split;
}

NegativeSampler::NegativeSampler(const InteractionDataset& reference)
    : reference_(reference) {
  // A sampler exists to issue many Contains() probes; on a dirty index
  // each probe would fall back to an O(log) linear scan, turning a
  // post-growth Update() fold into an accidental quadratic. Membership
  // answers are identical either way, so warm the index up front.
  reference_.WarmIndex();
}

int32_t NegativeSampler::Sample(int32_t user, Rng& rng) const {
  const int32_t n = reference_.num_items();
  KGREC_CHECK_GT(n, 0);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int32_t item = static_cast<int32_t>(rng.UniformInt(n));
    if (!reference_.Contains(user, item)) return item;
  }
  // Dense user: the smallest non-interacted item, found by walking the
  // user's ascending row.
  int32_t first_free = 0;
  for (const int32_t item : reference_.SortedUserItems(user)) {
    if (item > first_free) break;
    if (item == first_free) ++first_free;
  }
  if (first_free < n) return first_free;
  return static_cast<int32_t>(rng.UniformInt(n));  // user owns everything
}

std::vector<int32_t> NegativeSampler::SampleMany(int32_t user, size_t count,
                                                 Rng& rng) const {
  std::unordered_set<int32_t> chosen;
  // Count distinct owned items: the log may hold duplicate events,
  // which the sorted row keeps adjacent.
  const std::span<const int32_t> owned = reference_.SortedUserItems(user);
  size_t distinct = 0;
  for (size_t i = 0; i < owned.size(); ++i) {
    if (i == 0 || owned[i] != owned[i - 1]) ++distinct;
  }
  const size_t available =
      static_cast<size_t>(reference_.num_items()) - distinct;
  count = std::min(count, available);
  std::vector<int32_t> out;
  while (out.size() < count) {
    int32_t item = Sample(user, rng);
    if (chosen.insert(item).second) out.push_back(item);
  }
  return out;
}

}  // namespace kgrec
