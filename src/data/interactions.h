#ifndef KGREC_DATA_INTERACTIONS_H_
#define KGREC_DATA_INTERACTIONS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/mem_stats.h"
#include "math/rng.h"
#include "math/sparse.h"

namespace kgrec {

/// One implicit-feedback event R_ij = 1 (survey Section 3, User Feedback).
struct Interaction {
  int32_t user;
  int32_t item;
};

/// An implicit-feedback dataset: m users, n items, and the observed
/// (user, item) pairs of the binary interaction matrix R.
///
/// Memory model: the only always-on storage is the flat interaction log
/// (8 bytes per event). The per-user history view (UserItems) is served
/// from a flat CSR index — one offset array plus two item lanes, one in
/// insertion order and one sorted per user — built lazily by a stable
/// counting sort, so per-user insertion order is preserved without a
/// heap-allocated vector per user (the old vector<vector> layout cost
/// ~56+ bytes of header/allocator overhead per user at 10^6 users before
/// the first item was stored). The log is append-only between builds,
/// so a build extends from the clean prefix: it takes in only the events
/// appended since the last build, shifting the old rows in place and
/// merging the new items into each touched user's sorted row, and the
/// result is element-for-element the from-scratch build. The index is
/// never held twice.
class InteractionDataset {
 public:
  InteractionDataset() : num_users_(0), num_items_(0) {}
  InteractionDataset(int32_t num_users, int32_t num_items)
      : num_users_(num_users), num_items_(num_items) {}

  /// A copy starts with an empty index and builds it lazily; a move
  /// carries the log and index along and leaves the source with an empty
  /// log and index. Neither ever carries a stale index.
  InteractionDataset(const InteractionDataset& other) { CopyFrom(other); }
  InteractionDataset& operator=(const InteractionDataset& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  InteractionDataset(InteractionDataset&& other) noexcept {
    MoveFrom(std::move(other));
  }
  InteractionDataset& operator=(InteractionDataset&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  int32_t num_users() const {
    return num_users_.load(std::memory_order_acquire);
  }
  int32_t num_items() const { return num_items_; }
  size_t num_interactions() const { return interactions_.size(); }

  /// Appends an interaction (deduplicated per user lazily by callers).
  /// Unfrozen: invalidates the user index; the next UserItems() call
  /// extends it, so it must not race with concurrent readers (see
  /// index_generation()). Frozen: appends to the log WITHOUT touching
  /// the index — epoch readers stay valid (see Freeze()).
  void Add(int32_t user, int32_t item);

  /// Widens the user space by `count` new (empty-history) users at the
  /// tail of the id range. Unfrozen: invalidates the index (the offset
  /// array is sized per user). Frozen: deferred — the new users report
  /// empty histories until the first build after Thaw().
  void GrowUsers(int32_t count);

  /// True if (user, item) is observed. With a built index this is a
  /// binary search over the user's sorted row (hot in streaming dedup
  /// and negative sampling); before the first index build — or while a
  /// build is pending — it linear-scans the log instead of forcing a
  /// build, so a one-off query never moves the index under concurrent
  /// span holders. While frozen it answers from the pinned epoch, like
  /// UserItems().
  bool Contains(int32_t user, int32_t item) const;

  /// Builds the lazy index now if it is dirty (no-op inside a frozen
  /// epoch, whose pinned index is already clean). Call before a burst of
  /// Contains() queries — e.g. negative sampling against a freshly grown
  /// log — so each query takes the binary-search lane instead of the
  /// linear log fallback.
  void WarmIndex() const { EnsureIndex(); }

  const std::vector<Interaction>& interactions() const {
    return interactions_;
  }

  /// The items the user interacted with, in insertion order (the user's
  /// history E_u^0). A view into the flat index: valid until the next
  /// Add(). Safe to call concurrently from many threads — the first
  /// caller builds the index under a lock, later callers take the
  /// lock-free fast path.
  std::span<const int32_t> UserItems(int32_t user) const;

  /// The same items sorted ascending (duplicates kept): the row
  /// Contains() binary-searches. Same lifetime and epoch rules as
  /// UserItems().
  std::span<const int32_t> SortedUserItems(int32_t user) const;

  /// Density |R| / (m * n).
  double Density() const;

  /// The interaction matrix R as sparse CSR (m x n, entries 1.0).
  CsrMatrix ToCsr() const;

  /// Items with at least one interaction.
  std::vector<int32_t> ItemsWithInteractions() const;

  /// Reports logical bytes of the interaction log and the CSR user index
  /// into the visitor.
  void MemoryUse(MemoryVisitor& visitor) const;

  /// --- Streaming epochs -------------------------------------------
  /// The unfrozen index has a documented no-race contract: Add()
  /// invalidates it, and the next UserItems() call extends the flat
  /// arrays in place (moving rows, possibly reallocating) — any
  /// std::span still held from the previous build dangles.
  /// Freeze() pins an epoch for the streaming path: it builds the index
  /// once, and until Thaw() every Add()/GrowUsers() lands in the log
  /// without invalidating it, so readers can never observe a
  /// mid-build index. While frozen, UserItems() and Contains() answer
  /// from the pinned snapshot (post-freeze events and users are
  /// invisible); Thaw() lifts the pin and invalidates iff anything
  /// changed, making the appended events visible on the next build,
  /// which extends from the clean prefix the epoch pinned.
  void Freeze();
  void Thaw();
  bool frozen() const { return frozen_; }

  /// Build counter for the CSR index (0 = never built; +1 per build,
  /// whether it starts from an empty index or extends one). A reader that
  /// caches a span across its own calls can record the generation at
  /// acquisition and KGREC_CHECK it is unchanged before each reuse —
  /// that is the assertable form of the no-race contract. Builds are
  /// themselves KGREC_CHECKed to never run inside a frozen epoch.
  uint64_t index_generation() const {
    return index_generation_.load(std::memory_order_acquire);
  }

 private:
  void CopyFrom(const InteractionDataset& other);
  void MoveFrom(InteractionDataset&& other) noexcept;
  /// Brings a dirty index up to date by extending it from the clean
  /// prefix [0, user_ptr_.back()) the last build covered (the whole log
  /// when the index is empty); no-op when clean.
  void EnsureIndex() const;
  /// The user's row in one lane of the index, built on demand.
  std::span<const int32_t> Row(const std::vector<int32_t>& lane,
                               int32_t user) const;

  /// Atomic because a frozen-epoch writer may GrowUsers() while reader
  /// threads bounds-check against it in UserItems()/Contains(); readers
  /// seeing either the pre- or post-grow count are both correct (a user
  /// born after the pinned index reports an empty history).
  std::atomic<int32_t> num_users_;
  int32_t num_items_;
  std::vector<Interaction> interactions_;

  /// Flat CSR user->items index, derived from interactions_ on demand;
  /// when clean it covers exactly the log prefix [0, user_ptr_.back()).
  /// 32-bit offsets: the interaction count is checked against the
  /// AdjOffset-style cap on Add. user_item_sorted_ mirrors
  /// user_item_flat_ with each user's row sorted ascending — the
  /// Contains() binary-search lane.
  mutable std::vector<uint32_t> user_ptr_;
  mutable std::vector<int32_t> user_item_flat_;
  mutable std::vector<int32_t> user_item_sorted_;
  mutable std::atomic<bool> index_clean_{false};
  mutable std::atomic<uint64_t> index_generation_{0};
  mutable std::mutex index_mutex_;

  /// Epoch pin (see Freeze()). Written only by the single mutator
  /// thread while readers are quiescent at the Freeze/Thaw boundaries.
  bool frozen_ = false;
  size_t frozen_log_size_ = 0;
  int32_t frozen_num_users_ = 0;
};

/// A train/test partition of an InteractionDataset.
struct DataSplit {
  InteractionDataset train;
  InteractionDataset test;
};

/// Splits each user's interactions uniformly at random, holding out
/// `test_fraction` of them (at least one interaction stays in train when
/// the user has any). Users with a single interaction contribute no test
/// pairs.
DataSplit RatioSplit(const InteractionDataset& data, double test_fraction,
                     Rng& rng);

/// Holds out exactly one random interaction per user (users with fewer
/// than two interactions contribute no test pairs).
DataSplit LeaveOneOutSplit(const InteractionDataset& data, Rng& rng);

/// Samples items the user did NOT interact with in the reference dataset;
/// used both for training (BPR/CTR negatives) and evaluation candidates.
class NegativeSampler {
 public:
  /// `reference` must outlive the sampler.
  explicit NegativeSampler(const InteractionDataset& reference);

  /// Uniformly samples a non-interacted item for the user.
  int32_t Sample(int32_t user, Rng& rng) const;

  /// Samples `count` distinct non-interacted items for the user (fewer if
  /// the user interacted with almost everything).
  std::vector<int32_t> SampleMany(int32_t user, size_t count, Rng& rng) const;

 private:
  const InteractionDataset& reference_;
};

}  // namespace kgrec

#endif  // KGREC_DATA_INTERACTIONS_H_
