// Internals shared by the two snapshot readers: LoadSnapshot (file read,
// src/inum/snapshot.cc) and MapSnapshot (mmap, src/inum/snapshot_mmap.cc).
// Everything here operates on raw (pointer, size) ranges, and both
// readers run the one reader body (ReadSnapshot) over them, so the
// hostile-input guarantees in docs/SNAPSHOT_FORMAT.md hold for both.
// Not part of the public API; include only from inum/snapshot*.cc.
#ifndef PINUM_INUM_SNAPSHOT_INTERNAL_H_
#define PINUM_INUM_SNAPSHOT_INTERNAL_H_

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "inum/sealed_cache.h"
#include "inum/snapshot.h"

namespace pinum {

// ---- SealedCache field access (the one friend, see sealed_cache.h) ------
//
// In format v3 a cache record IS the cache's arena image, so the codec
// has three one-line jobs: write the image verbatim, adopt a validated
// copy (decode path), or adopt a validated borrowed view (mmap path).
// All structural validation lives in SealedCache::ValidateImage and runs
// before any view is handed out, on both paths.
class SnapshotCodec {
 public:
  /// Appends the cache's arena image to `out` (the canonical empty
  /// image for a default-constructed, never-sealed cache).
  static void Encode(const SealedCache& c, std::string* out) {
    if (c.arena_.empty()) {
      out->append(SealedCache::PackEmptyImage());
    } else {
      out->append(c.arena_.data, c.arena_.size);
    }
  }

  /// Decode path: copies `data[0, size)` into an owned (heap) arena,
  /// validates the copy, and binds `out`'s views over it. The copy
  /// happens first so validation always reads aligned memory regardless
  /// of where the source bytes sit.
  static Status DecodeOwned(const char* data, size_t size, SealedCache* out) {
    Arena arena = Arena::CopyOf(data, size);
    PINUM_RETURN_IF_ERROR(SealedCache::ValidateImage(arena.data, arena.size));
    out->BindImage(std::move(arena));
    return Status::OK();
  }

  /// Mapped path: validates `data[0, size)` in place and binds `out`'s
  /// views directly over it — zero copy, zero per-element decode.
  /// `owner` pins the bytes (the file mapping) for the cache's
  /// lifetime, copies included. The image start must be 8-aligned —
  /// guaranteed by the format's section/record alignment plus a
  /// page-aligned mapping base, and re-checked here because a crafted
  /// record length can misalign every record after it.
  static Status View(const char* data, size_t size,
                     std::shared_ptr<const void> owner, SealedCache* out) {
    if (reinterpret_cast<uintptr_t>(data) % kArenaAlign != 0) {
      return Status::Internal("snapshot corrupt: cache record is misaligned");
    }
    PINUM_RETURN_IF_ERROR(SealedCache::ValidateImage(data, size));
    Arena arena;
    arena.data = data;
    arena.size = size;
    arena.owner = std::move(owner);
    out->BindImage(std::move(arena));
    return Status::OK();
  }
};

namespace snapshot_internal {

// ---- File-level constants (see docs/SNAPSHOT_FORMAT.md) -----------------

constexpr char kMagic[8] = {'P', 'I', 'N', 'U', 'M', 'S', 'N', 'P'};
/// Written in the host's byte order; a reader on the other endianness
/// sees the bytes reversed and rejects the file instead of decoding
/// garbage.
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kHeaderBytes = 40;
constexpr size_t kSectionEntryBytes = 24;

/// Section tags. Unknown tags are skipped on read (a same-version writer
/// may append informational sections), but the three below are required.
constexpr uint32_t kSectionEpoch = 1;
constexpr uint32_t kSectionQueries = 2;
constexpr uint32_t kSectionCaches = 3;

// ---- FNV-1a 64: the checksum and the epoch fingerprints -----------------

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline Status Corrupt(const std::string& what) {
  return Status::Internal("snapshot corrupt: " + what);
}

/// Appends the originating file path to a failure Status. Fleet logs
/// aggregate errors from many processes serving many snapshots; a
/// path-free "snapshot corrupt" line cannot be acted on. Applied at the
/// boundary where the path is known (the two load paths + the saver), so
/// the byte-level validators stay path-agnostic and shareable.
inline Status AnnotateFile(Status st, const std::string& path) {
  if (st.ok()) return st;
  return Status(st.code(), st.message() + " [file: " + path + "]");
}

// ---- Byte-level encode/decode helpers -----------------------------------

class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Raw(const void* data, size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  /// u64 element count + raw element bytes.
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(T));
  }

  const std::string& bytes() const { return out_; }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Bounds-checked reader over one section's bytes. Overruns report
/// kInternal (corruption): by the time sections are decoded, the
/// header's file-size check has already ruled plain truncation out.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  Status Raw(void* dst, size_t n, const char* what) {
    if (n > size_ - pos_) {
      return Corrupt(std::string(what) + " overruns its section (" +
                     std::to_string(n) + " bytes at section offset " +
                     std::to_string(pos_) + " of " + std::to_string(size_) +
                     ")");
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status U32(uint32_t* v, const char* what) { return Raw(v, sizeof(*v), what); }
  Status U64(uint64_t* v, const char* what) { return Raw(v, sizeof(*v), what); }
  Status I32(int32_t* v, const char* what) { return Raw(v, sizeof(*v), what); }
  Status F64(double* v, const char* what) { return Raw(v, sizeof(*v), what); }

  /// Reads a u64-count-prefixed element array. The count is validated
  /// against the bytes actually remaining before anything is allocated,
  /// so a crafted count cannot trigger a huge resize.
  template <typename T>
  Status Vec(std::vector<T>* out, const char* what) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    PINUM_RETURN_IF_ERROR(U64(&count, what));
    if (count > (size_ - pos_) / sizeof(T)) {
      return Corrupt(std::string(what) + " count overruns its section (" +
                     std::to_string(count) + " elements declared at section"
                     " offset " + std::to_string(pos_ - sizeof(uint64_t)) +
                     ", " + std::to_string(size_ - pos_) + " bytes remain)");
    }
    out->resize(static_cast<size_t>(count));
    if (count != 0) {
      std::memcpy(out->data(), data_ + pos_,
                  static_cast<size_t>(count) * sizeof(T));
      pos_ += static_cast<size_t>(count) * sizeof(T);
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }
  /// Bytes left in the section — the bound every count read from the
  /// file must be validated against *before* any allocation.
  size_t Remaining() const { return size_ - pos_; }
  /// Current offset into the section: lets length-prefixed sub-records
  /// (the caches section's per-record slices) be framed exactly.
  size_t Position() const { return pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- Whole-file framing -------------------------------------------------

/// A validated view of a snapshot's framing: the raw bytes (NOT owned —
/// the caller's buffer or mapping must outlive the view) plus the
/// section table.
struct SnapshotView {
  const char* data = nullptr;
  size_t size = 0;
  struct Section {
    uint32_t tag = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };
  std::vector<Section> sections;

  const Section* Find(uint32_t tag) const {
    for (const Section& s : sections) {
      if (s.tag == tag) return &s;
    }
    return nullptr;
  }
  const char* SectionData(const Section& s) const {
    return data + s.offset;
  }
};

/// Validates the file-level framing over raw bytes: magic, byte order,
/// version, declared length, checksum, and section-table bounds. Every
/// failure mode maps to its own StatusCode (see snapshot.h). This is
/// the one full pass over the bytes the mapped path pays (the checksum);
/// everything after it is O(sections + queries).
inline Status ValidateFraming(const char* data, size_t actual_size,
                              SnapshotView* out) {
  char msg[160];
  if (actual_size < kHeaderBytes) {
    std::snprintf(msg, sizeof(msg),
                  "snapshot truncated: %zu bytes is smaller than the %zu-byte"
                  " header",
                  actual_size, kHeaderBytes);
    return Status::OutOfRange(msg);
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a pinum snapshot (bad magic)");
  }
  uint32_t endian, version, section_count;
  uint64_t declared_size, checksum;
  std::memcpy(&endian, data + 8, 4);
  std::memcpy(&version, data + 12, 4);
  std::memcpy(&section_count, data + 16, 4);
  std::memcpy(&declared_size, data + 24, 8);
  std::memcpy(&checksum, data + 32, 8);
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(
        "snapshot byte order differs from this host's (written on a"
        " foreign-endian machine)");
  }
  if (version > kSnapshotFormatVersion) {
    std::snprintf(msg, sizeof(msg),
                  "snapshot format version %u is newer than the newest"
                  " supported (%u); rebuild the snapshot or upgrade",
                  version, kSnapshotFormatVersion);
    return Status::Unimplemented(msg);
  }
  if (version == 0) return Corrupt("format version 0");
  if (version < kSnapshotFormatVersion) {
    // v1 predates per-query epoch stamps; v2 predates the relocatable
    // arena cache layout (its caches section is a per-field encoding
    // this reader no longer parses). Neither can be served or mapped,
    // so both report the same answer: rebuild and re-save.
    std::snprintf(msg, sizeof(msg),
                  "snapshot format version %u predates the arena cache"
                  " layout (oldest supported is %u); rebuild the caches and"
                  " save a fresh snapshot",
                  version, kSnapshotFormatVersion);
    return Status::Unimplemented(msg);
  }
  if (declared_size > actual_size) {
    std::snprintf(msg, sizeof(msg),
                  "snapshot truncated: file is %zu bytes, header declares"
                  " %" PRIu64,
                  actual_size, declared_size);
    return Status::OutOfRange(msg);
  }
  if (declared_size < actual_size) {
    return Corrupt("trailing bytes past the declared file size");
  }
  if (FnvBytes(kFnvOffset, data + kHeaderBytes,
               actual_size - kHeaderBytes) != checksum) {
    return Corrupt("checksum mismatch");
  }

  out->data = data;
  out->size = actual_size;
  out->sections.clear();
  const size_t table_bytes =
      static_cast<size_t>(section_count) * kSectionEntryBytes;
  if (table_bytes > actual_size - kHeaderBytes) {
    return Corrupt("section table overruns the file");
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = data + kHeaderBytes + i * kSectionEntryBytes;
    SnapshotView::Section s;
    std::memcpy(&s.tag, entry, 4);
    std::memcpy(&s.offset, entry + 8, 8);
    std::memcpy(&s.length, entry + 16, 8);
    if (s.offset < kHeaderBytes + table_bytes || s.offset > actual_size ||
        s.length > actual_size - s.offset) {
      std::snprintf(msg, sizeof(msg),
                    "section %u (tag %u) overruns the file (offset %" PRIu64
                    ", length %" PRIu64 ", file is %zu bytes)",
                    i, s.tag, s.offset, s.length, actual_size);
      return Corrupt(msg);
    }
    out->sections.push_back(s);
  }
  return Status::OK();
}

// ---- Shared section decodes ---------------------------------------------

inline Status DecodeEpochSection(const char* data, size_t size,
                                 SnapshotEpoch* epoch) {
  ByteReader r(data, size);
  PINUM_RETURN_IF_ERROR(r.U64(&epoch->base_schema_hash, "base schema hash"));
  PINUM_RETURN_IF_ERROR(r.I32(&epoch->universe, "universe size"));
  if (epoch->universe < 0) return Corrupt("negative universe size");
  PINUM_RETURN_IF_ERROR(r.Vec(&epoch->candidate_ids, "candidate ids"));
  PINUM_RETURN_IF_ERROR(
      r.U64(&epoch->universe_prefix_hash, "universe prefix hash"));
  if (!r.AtEnd()) return Corrupt("trailing bytes in epoch section");
  return Status::OK();
}

inline StatusOr<SnapshotEpoch> DecodeEpoch(const SnapshotView& file) {
  const SnapshotView::Section* s = file.Find(kSectionEpoch);
  if (s == nullptr) return Corrupt("missing epoch section");
  SnapshotEpoch epoch;
  PINUM_RETURN_IF_ERROR(DecodeEpochSection(
      file.SectionData(*s), static_cast<size_t>(s->length), &epoch));
  return epoch;
}

inline std::string HashMismatch(const char* what, uint64_t stored,
                                uint64_t current) {
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "snapshot epoch mismatch: %s fingerprint is now"
                " %016" PRIx64 " but the snapshot was sealed under"
                " %016" PRIx64 "; rebuild the caches and save a fresh"
                " snapshot",
                what, current, stored);
  return msg;
}

/// The compatibility rule both readers enforce (LoadSnapshot and
/// MapSnapshot): same base schema, and the stored candidate vocabulary
/// must be the live one's first N candidates —
/// equality when nothing grew, a strict prefix when candidates were
/// appended after the seal (append-only growth keeps every stored id
/// meaning the same index). Anything else — removed, reordered, or
/// regenerated candidates — invalidates every sealed subscript and is
/// kFailedPrecondition.
inline Status CheckEpochCompatible(const SnapshotEpoch& stored,
                                   const SnapshotEpoch& expected) {
  if (stored.base_schema_hash != expected.base_schema_hash) {
    return Status::FailedPrecondition(
        HashMismatch("base catalog schema", stored.base_schema_hash,
                     expected.base_schema_hash));
  }
  const size_t stored_count = stored.candidate_ids.size();
  if (stored_count > expected.candidate_ids.size() ||
      !std::equal(stored.candidate_ids.begin(), stored.candidate_ids.end(),
                  expected.candidate_ids.begin())) {
    char msg[224];
    std::snprintf(msg, sizeof(msg),
                  "snapshot epoch mismatch: the snapshot's %zu candidate ids"
                  " are not a prefix of the live universe's %zu (candidates"
                  " were removed, reordered, or regenerated); rebuild the"
                  " caches and save a fresh snapshot",
                  stored_count, expected.candidate_ids.size());
    return Status::FailedPrecondition(msg);
  }
  if (stored.universe > expected.universe) {
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "snapshot epoch mismatch: the snapshot covers %d universe"
                  " ids but the live universe has only %d; rebuild the caches"
                  " and save a fresh snapshot",
                  stored.universe, expected.universe);
    return Status::FailedPrecondition(msg);
  }
  // The prefix's *definitions* must match too (sizes included): verify
  // the stored final hash against the live chain's entry for that
  // prefix length.
  uint64_t live_prefix_hash = 0;
  if (stored_count == expected.candidate_ids.size()) {
    live_prefix_hash = expected.universe_prefix_hash;
  } else if (stored_count < expected.prefix_chain.size()) {
    live_prefix_hash = expected.prefix_chain[stored_count];
  } else {
    return Status::InvalidArgument(
        "expected epoch lacks the prefix chain needed to verify a"
        " strict-prefix snapshot (compute it with ComputeSnapshotEpoch)");
  }
  if (stored.universe_prefix_hash != live_prefix_hash) {
    return Status::FailedPrecondition(HashMismatch(
        "candidate-universe definitions (a candidate's key columns or size"
        " statistics changed)",
        stored.universe_prefix_hash, live_prefix_hash));
  }
  return Status::OK();
}

/// Decodes the query-names section into parallel (names, stamps)
/// vectors. Every count and length is validated against the remaining
/// bytes before any allocation, so a crafted count yields a Status, not
/// bad_alloc.
inline Status DecodeQueries(const SnapshotView& file,
                            std::vector<std::string>* names,
                            std::vector<uint64_t>* stamps) {
  const SnapshotView::Section* queries = file.Find(kSectionQueries);
  if (queries == nullptr) return Corrupt("missing query-names section");
  ByteReader r(file.SectionData(*queries),
               static_cast<size_t>(queries->length));
  uint32_t count = 0;
  PINUM_RETURN_IF_ERROR(r.U32(&count, "query count"));
  // Every entry takes at least its 4-byte length field plus its 8-byte
  // stamp.
  if (count > r.Remaining() / 12) {
    return Corrupt("query count overruns its section");
  }
  names->clear();
  stamps->clear();
  names->reserve(count);
  stamps->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    PINUM_RETURN_IF_ERROR(r.U32(&len, "query-name length"));
    if (len > r.Remaining()) {
      return Corrupt("query name overruns its section");
    }
    std::string name(len, '\0');
    PINUM_RETURN_IF_ERROR(r.Raw(name.data(), len, "query name"));
    uint64_t stamp = 0;
    PINUM_RETURN_IF_ERROR(r.U64(&stamp, "query stamp"));
    names->push_back(std::move(name));
    stamps->push_back(stamp);
  }
  if (!r.AtEnd()) return Corrupt("trailing bytes in query-names section");
  return Status::OK();
}

/// One length-framed cache record inside the caches section: a v3 arena
/// image, viewed in place.
struct CacheRecord {
  const char* data = nullptr;
  size_t size = 0;
};

/// Frames the caches section's records without decoding them:
/// u32 count, u32 reserved, u64-count-prefixed u64 lengths, then the
/// record bytes back-to-back. `expected_count` is the query count — the
/// two sections must agree. Record *contents* are validated later by
/// SnapshotCodec (per record, both paths).
inline Status SliceCacheRecords(const SnapshotView& file,
                                size_t expected_count,
                                std::vector<CacheRecord>* out) {
  const SnapshotView::Section* caches = file.Find(kSectionCaches);
  if (caches == nullptr) return Corrupt("missing caches section");
  const char* section = file.SectionData(*caches);
  ByteReader r(section, static_cast<size_t>(caches->length));
  uint32_t count = 0;
  PINUM_RETURN_IF_ERROR(r.U32(&count, "cache count"));
  if (count != expected_count) {
    return Corrupt("cache count does not match query count");
  }
  uint32_t reserved = 0;
  PINUM_RETURN_IF_ERROR(r.U32(&reserved, "caches-section reserved field"));
  if (reserved != 0) return Corrupt("caches-section reserved field is set");
  std::vector<uint64_t> lengths;
  PINUM_RETURN_IF_ERROR(r.Vec(&lengths, "cache record lengths"));
  if (lengths.size() != count) {
    return Corrupt("cache record-length count does not match cache count");
  }
  out->clear();
  out->reserve(count);
  size_t at = r.Position();
  for (uint32_t i = 0; i < count; ++i) {
    const size_t len = static_cast<size_t>(lengths[i]);
    if (len > static_cast<size_t>(caches->length) - at) {
      return Corrupt("cache record " + std::to_string(i) + " overruns its"
                     " section (" + std::to_string(len) + " bytes declared at"
                     " section offset " + std::to_string(at) + ", section is " +
                     std::to_string(caches->length) + " bytes; file offset " +
                     std::to_string(caches->offset + at) + ")");
    }
    out->push_back(CacheRecord{section + at, len});
    at += len;
  }
  if (at != static_cast<size_t>(caches->length)) {
    return Corrupt("trailing bytes in caches section");
  }
  return Status::OK();
}

/// The one reader body behind LoadSnapshot and MapSnapshot, over the
/// file's bytes wherever they live: framing, epoch compatibility, the
/// query section and record slicing, then `bind(data, size, &cache)`
/// per record — the reader's own one line (DecodeOwned's copy or View's
/// borrow). Each record binds exactly its framed slice: the image's
/// structural validation (SealedCache::ValidateImage) rejects any record
/// whose contents disagree with its declared length, which is also what
/// keeps spliced (patched) records honest. A rejection names the record
/// and its file offset — the byte range to dump when a fleet log reports
/// one bad record among thousands.
template <typename Bind>
StatusOr<WorkloadSnapshot> ReadSnapshot(const char* data, size_t size,
                                        const std::string& path,
                                        const SnapshotEpoch& expected,
                                        const Bind& bind) {
  SnapshotView view;
  PINUM_RETURN_IF_ERROR(
      AnnotateFile(ValidateFraming(data, size, &view), path));
  PINUM_ASSIGN_OR_RETURN(const SnapshotEpoch stored, DecodeEpoch(view));
  PINUM_RETURN_IF_ERROR(CheckEpochCompatible(stored, expected));

  WorkloadSnapshot snapshot;
  snapshot.universe = stored.universe;
  PINUM_RETURN_IF_ERROR(AnnotateFile(
      DecodeQueries(view, &snapshot.query_names, &snapshot.query_stamps),
      path));
  std::vector<CacheRecord> records;
  PINUM_RETURN_IF_ERROR(AnnotateFile(
      SliceCacheRecords(view, snapshot.query_names.size(), &records), path));
  snapshot.sealed.resize(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const Status st =
        bind(records[i].data, records[i].size, &snapshot.sealed[i]);
    if (!st.ok()) {
      return AnnotateFile(
          Status(st.code(), st.message() + " (cache record " +
                                std::to_string(i) + " at file offset " +
                                std::to_string(records[i].data - data) + ")"),
          path);
    }
  }
  return snapshot;
}

}  // namespace snapshot_internal
}  // namespace pinum

#endif  // PINUM_INUM_SNAPSHOT_INTERNAL_H_
