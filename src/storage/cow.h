#ifndef LSENS_STORAGE_COW_H_
#define LSENS_STORAGE_COW_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lsens {

namespace internal {

// The private copy CowPtr::Mutable makes of a shared value. A vector keeps
// its capacity, so the appends that usually follow do not reallocate right
// after the copy.
template <typename T>
T CopyForWrite(const T& value) {
  return value;
}
template <typename U>
std::vector<U> CopyForWrite(const std::vector<U>& value) {
  std::vector<U> out;
  out.reserve(value.capacity());
  out.assign(value.begin(), value.end());
  return out;
}

}  // namespace internal

// A copy-on-write handle to one heap-allocated T. Copying the handle shares
// the value under an intrusive reference count; Mutable() returns a
// writable reference, copying the value first when another handle still
// shares it. A shared value is therefore never written, which is what lets
// the storage layer publish a snapshot by copying handles: the snapshot
// reads values its source will copy before it writes them.
//
// Threads: one handle is used by one thread at a time, but handles that
// share a value may be copied, read and destroyed on different threads.
// The uniqueness test is an acquire load that pairs with the acq_rel
// decrement of a destroyed handle, so every read made through that handle
// happens before a write that follows the test. (shared_ptr::use_count()
// is a relaxed load and gives no such ordering.)
//
// A moved-from handle holds nothing; it may only be assigned or destroyed.
template <typename T>
class CowPtr {
 public:
  CowPtr() : rep_(new Rep()) {}
  explicit CowPtr(T value) : rep_(new Rep(std::move(value))) {}
  CowPtr(const CowPtr& other) noexcept : rep_(other.rep_) {
    rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowPtr(CowPtr&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  CowPtr& operator=(CowPtr other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~CowPtr() { Drop(); }

  const T& operator*() const { return rep_->value; }
  const T* operator->() const { return &rep_->value; }

  // Writable access; copies the value first if another handle shares it.
  T& Mutable() {
    if (!Unique()) Unshare();
    return rep_->value;
  }

  // Writable access without the test, for a caller that knows no other
  // handle shares the value.
  T& MutableUnshared() { return rep_->value; }

  // True iff no other handle shares the value.
  bool Unique() const {
    return rep_->refs.load(std::memory_order_acquire) == 1;
  }

  // Identity of the value: equal exactly for handles that share it.
  const void* id() const { return rep_; }

 private:
  struct Rep {
    Rep() = default;
    explicit Rep(T v) : value(std::move(v)) {}
    std::atomic<uint32_t> refs{1};
    T value;
  };

  // Out of line: the copy is the cold path, and inlined into every
  // Mutable() it slows the writers' per-value loops.
  [[gnu::noinline]] void Unshare() {
    Rep* fresh = new Rep(internal::CopyForWrite(rep_->value));
    Drop();
    rep_ = fresh;
  }

  void Drop() {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete rep_;
    }
  }

  Rep* rep_;
};

// One heap buffer's contribution to a footprint. Handles that share a
// buffer report the same `owner`, so summing over distinct owners counts a
// shared buffer once however many relations, databases or epochs hold it.
struct MemoryPart {
  const void* owner = nullptr;
  size_t bytes = 0;
};

// Sum of `bytes` over distinct owners.
inline size_t SumDistinctBytes(std::vector<MemoryPart> parts) {
  std::sort(parts.begin(), parts.end(),
            [](const MemoryPart& a, const MemoryPart& b) {
              return std::less<const void*>()(a.owner, b.owner);
            });
  size_t total = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i == 0 || parts[i].owner != parts[i - 1].owner) {
      total += parts[i].bytes;
    }
  }
  return total;
}

}  // namespace lsens

#endif  // LSENS_STORAGE_COW_H_
