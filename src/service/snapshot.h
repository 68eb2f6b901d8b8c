// Lock-free snapshot publication: the query side of SF-sketch's "fat
// ingest stage, slim query stage" split.
//
// The ingest engine (single writer) publishes immutable, fully-materialized
// snapshots; query handlers (many readers) borrow the current snapshot for
// the duration of one request without taking any lock. The registry is a
// single-slot hazard-pointer RCU cell:
//
//   * Readers are wait-free: load current, announce it in a per-reader
//     hazard slot, re-check current. If the re-check still matches, the
//     writer is guaranteed to see the announcement before it frees that
//     snapshot; if not, retry (bounded in practice by the publish rate,
//     which is phase-locked to thousands of ingested tuples per swap).
//   * The writer swaps in the new snapshot, retires the old one, and frees
//     any retired snapshot no hazard slot still names. Publication is
//     O(readers) and runs on the ingest thread at quiesce points — exactly
//     where the engine already pays a barrier.
//
// Chosen over std::atomic<std::shared_ptr> (libstdc++ routes it through a
// spinlock pool — readers would take a lock after all) and over a seqlock
// (retrying readers over a non-trivial sketch object is a data race by the
// memory model, and TSan rightly flags it). Readers never observe a torn
// snapshot: they only ever dereference a pointer that was fully constructed
// before the release-publish that made it visible.
//
// The protocol is parameterized over an atomics policy
// (src/util/atomics_policy.h): production uses `StdAtomics` (identical
// codegen to the raw std::atomic version), the interleaving model checker
// uses `mc::McAtomics` to prove no reader ever dereferences a reclaimed
// snapshot and that reclamation completes at quiescence
// (tests/mc_spec_test.cc). The `Deleter` parameter exists for the same
// reason: the checker's spec substitutes a deleter that poisons a canary
// instead of freeing, so use-after-reclaim becomes an assertable value
// (or a detectable race) rather than undefined behavior.
#ifndef SKETCHSAMPLE_SERVICE_SNAPSHOT_H_
#define SKETCHSAMPLE_SERVICE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/util/atomics_policy.h"

namespace sketchsample {

/// Single-slot RCU cell. T must be immutable after publication, with one
/// exception: values derived from the published members behind a OnceLatch
/// (src/util/once_latch.h), which readers may fill in on first use because
/// the latch publishes them exactly once with release/acquire ordering and
/// every reader then sees the same value (ServiceSnapshot's
/// SnapshotQueryView, src/stream/shard_engine.h). One writer thread; up to
/// `max_readers` concurrent reader threads, each using its own slot index
/// (the HTTP server hands every connection a distinct slot).
template <typename T, typename Policy = StdAtomics,
          typename Deleter = std::default_delete<const T>>
class RcuCell {
 public:
  using PtrAtomic = typename Policy::template Atomic<const T*>;

  explicit RcuCell(size_t max_readers, Deleter deleter = Deleter())
      : slots_(std::make_unique<Slot[]>(max_readers)),
        max_readers_(max_readers),
        deleter_(std::move(deleter)) {
    if (max_readers == 0) {
      throw std::invalid_argument("RcuCell needs at least one reader slot");
    }
  }

  ~RcuCell() {
    // Destruction requires quiescence (server stopped, ingest joined);
    // reclaim everything unconditionally.
    const T* last = current_.exchange(nullptr, MemOrder::kAcquire);
    if (last != nullptr) deleter_(last);
    for (const T* retired : retired_) deleter_(retired);
  }

  RcuCell(const RcuCell&) = delete;
  RcuCell& operator=(const RcuCell&) = delete;

  /// Borrowed reference to the current snapshot; releases the hazard slot
  /// on destruction. Holds no lock — copy out what you need and drop it
  /// promptly so the writer can reclaim.
  class ReadGuard {
   public:
    ReadGuard() = default;
    ReadGuard(PtrAtomic* hazard, const T* ptr) : hazard_(hazard), ptr_(ptr) {}
    ReadGuard(ReadGuard&& other) noexcept
        : hazard_(other.hazard_), ptr_(other.ptr_) {
      other.hazard_ = nullptr;
      other.ptr_ = nullptr;
    }
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      Release();
      hazard_ = other.hazard_;
      ptr_ = other.ptr_;
      other.hazard_ = nullptr;
      other.ptr_ = nullptr;
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { Release(); }

    const T* get() const { return ptr_; }
    const T& operator*() const { return *ptr_; }
    const T* operator->() const { return ptr_; }
    explicit operator bool() const { return ptr_ != nullptr; }

   private:
    void Release() {
      if (hazard_ != nullptr) {
        hazard_->store(nullptr, MemOrder::kRelease);
      }
    }

    PtrAtomic* hazard_ = nullptr;
    const T* ptr_ = nullptr;
  };

  /// Wait-free borrow of the current snapshot from reader slot `reader`
  /// (must be < max_readers and not concurrently used by another thread).
  /// Returns an empty guard before the first Publish.
  ReadGuard Read(size_t reader) {
    if (reader >= max_readers_) {
      throw std::out_of_range("RcuCell reader slot out of range");
    }
    PtrAtomic& hazard = slots_[reader].hazard;
    const T* ptr = current_.load(MemOrder::kAcquire);
    while (true) {
      if (ptr == nullptr) return ReadGuard();
      // seq_cst on both the announcement and the re-check pairs with the
      // writer's seq_cst scan: either the writer sees our hazard, or we see
      // its newer pointer and retry.
      hazard.store(ptr, MemOrder::kSeqCst);
      const T* again = current_.load(MemOrder::kSeqCst);
      if (again == ptr) return ReadGuard(&hazard, ptr);
      ptr = again;
    }
  }

  /// Writer-only: swaps in `value`, retires the predecessor, reclaims every
  /// retired snapshot no reader still names.
  void Publish(std::unique_ptr<const T, Deleter> value) {
    const T* next = value.release();
    // seq_cst: the swap must precede the hazard scan in the single total
    // order, or a reader could announce the old pointer after the scan
    // missed it (see file comment).
    const T* prev = current_.exchange(next, MemOrder::kSeqCst);
    if (prev != nullptr) retired_.push_back(prev);
    Reclaim();
    published_.fetch_add(1, MemOrder::kRelaxed);
  }

  /// Publications so far (any thread).
  uint64_t published() const { return published_.load(MemOrder::kRelaxed); }

  /// Retired-but-unreclaimed snapshots (writer thread only; tests).
  size_t retired_count() const { return retired_.size(); }

 private:
  struct alignas(64) Slot {
    PtrAtomic hazard{nullptr, "rcu.hazard"};
  };

  void Reclaim() {
    size_t kept = 0;
    for (size_t i = 0; i < retired_.size(); ++i) {
      const T* candidate = retired_[i];
      bool hazardous = false;
      for (size_t r = 0; r < max_readers_; ++r) {
        if (slots_[r].hazard.load(MemOrder::kSeqCst) == candidate) {
          hazardous = true;
          break;
        }
      }
      if (hazardous) {
        retired_[kept++] = candidate;
      } else {
        deleter_(candidate);
      }
    }
    retired_.resize(kept);
  }

  typename Policy::template Atomic<const T*> current_{nullptr, "rcu.current"};
  std::unique_ptr<Slot[]> slots_;
  size_t max_readers_;
  Deleter deleter_;
  std::vector<const T*> retired_;  // writer-owned
  typename Policy::template Atomic<uint64_t> published_{0, "rcu.published"};
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_SNAPSHOT_H_
