// Arena backing for the sealed serving form: one relocatable,
// 8-byte-aligned byte image per cache, read through typed span views.
//
// The point of the indirection is that the same read-only view code
// serves two backings:
//
//  - an *owned* arena: Seal() packs the cache's flat arrays into one
//    heap buffer, owned via the shared_ptr below — copies of a
//    SealedCache share the immutable buffer instead of deep-copying
//    eleven vectors, which is what makes publishing a serving generation
//    (a whole-result copy) cheap;
//  - a *borrowed* arena: a view straight into a snapshot file's bytes
//    (src/inum/snapshot.h), either the one heap buffer LoadSnapshot read
//    the file into or MapSnapshot's read-only mapping. The owner handle
//    then pins that buffer or mapping, which all of the file's caches
//    share, so a cache outliving the snapshot that produced it — and
//    every result or serving generation it is copied into — is still
//    backed by live bytes.
//
// Images are relocatable by construction — internal references are byte
// offsets from the image start, never pointers — so the bytes a heap
// arena holds are exactly the bytes the snapshot writes, and mapping a
// file needs no fix-up pass. Every array an image holds starts at an
// offset that is a multiple of kArenaAlign, which together with an
// aligned image start (malloc'ed buffers and page-aligned mappings both
// qualify) makes the typed views below safely dereferenceable.
#ifndef PINUM_INUM_ARENA_H_
#define PINUM_INUM_ARENA_H_

#include <cstddef>
#include <memory>

namespace pinum {

/// Alignment every arena image start and every in-image array offset is
/// a multiple of: the strictest alignment among the element types the
/// sealed form stores (double / uint64_t).
inline constexpr size_t kArenaAlign = 8;

/// `n` rounded up to the next multiple of kArenaAlign.
constexpr size_t ArenaAlignUp(size_t n) {
  return (n + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

/// A read-only view of `size` contiguous T — the serve-time face of an
/// arena-resident array. Non-owning: the SealedCache holding the span
/// also holds the Arena that keeps the bytes alive.
template <typename T>
class ArenaSpan {
 public:
  ArenaSpan() = default;
  ArenaSpan(const T* data, size_t size) : data_(data), size_(size) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

/// One immutable byte image plus whatever keeps it alive: a heap buffer
/// (owned arena) or a snapshot file's buffer or mapping (borrowed
/// arena). Copies share the owner — arenas are immutable after
/// construction, so sharing is safe across threads (the same guarantee
/// SealedCache already documents).
struct Arena {
  const char* data = nullptr;
  size_t size = 0;
  /// Type-erased keep-alive handle. For owned arenas this is the buffer
  /// itself; for borrowed arenas, the snapshot file's buffer or mapping.
  /// Null only for the empty (default-constructed) arena.
  std::shared_ptr<const void> owner;

  bool empty() const { return size == 0; }
};

}  // namespace pinum

#endif  // PINUM_INUM_ARENA_H_
