// Implementation of the snapshot format specified in
// docs/SNAPSHOT_FORMAT.md. Keep the two in lockstep: any change to the
// bytes written here must bump kSnapshotFormatVersion (snapshot.h) and
// be recorded in the spec's version history.
//
// Both readers run one reader body (ReadSnapshot) over a byte range plus
// whatever keeps it alive, and bind every cache record in place with
// SnapshotCodec::View. They differ only in where the bytes come from:
// LoadSnapshot reads the file into one heap buffer, MapSnapshot maps it
// read-only. So both run identical checks in identical order.
#include "inum/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/failpoint.h"

namespace pinum {

// ---- SealedCache field access (the one friend, see sealed_cache.h) ------
//
// A cache record IS the cache's arena image, so the codec has two
// one-line jobs: hand the writer the image to copy verbatim, and bind
// views over a record wherever its bytes live. All structural
// validation lives in SealedCache::ValidateImage and runs before any
// view is handed out.
class SnapshotCodec {
 public:
  /// The bytes of `c`'s record: its arena image (the canonical empty
  /// image for a default-constructed, never-sealed cache).
  static std::string_view Image(const SealedCache& c) {
    static const std::string empty = SealedCache::PackEmptyImage();
    if (c.arena_.empty()) return empty;
    return std::string_view(c.arena_.data, c.arena_.size);
  }

  /// Validates `data[0, size)` in place and binds `out`'s views directly
  /// over it: no copy, no per-element decode. `owner` pins the bytes
  /// (LoadSnapshot's file buffer or MapSnapshot's mapping) for the
  /// cache's lifetime, copies included. The image start must be
  /// 8-aligned. The format's section/record alignment plus an aligned
  /// base (operator new's or a page-aligned mapping's) guarantees that,
  /// and it is re-checked here because a crafted caches-section offset
  /// can misalign every record (a record length that is not a multiple
  /// of 8 fails that record's own image check first).
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

namespace {

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

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The file checksum over `data[0, n)`: the FNV-1a step applied to
/// native u64 words, h = (h ^ w) * prime, then any trailing bytes folded
/// one at a time. For a fixed word each step is a bijection on h (the
/// prime is odd), so changing any single word always changes the result,
/// and one multiply per 8 bytes keeps the readers' one pass over the
/// file cheap.
uint64_t Checksum(const char* data, size_t n) {
  uint64_t h = kFnvOffset;
  size_t i = 0;
  for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    h = (h ^ word) * kFnvPrime;
  }
  return FnvBytes(h, data + i, n - i);
}

Status Corrupt(const std::string& what) {
  return Status::Internal("snapshot corrupt: " + what);
}

/// Appends the originating file path to a failure Status. Fleet logs
/// aggregate errors from many processes serving many snapshots; a
/// path-free "snapshot corrupt" line cannot be acted on. Applied at the
/// boundary where the path is known (the readers and the saver), so the
/// byte-level validators stay path-agnostic.
Status AnnotateFile(Status st, const std::string& path) {
  if (st.ok()) return st;
  return Status(st.code(), st.message() + " [file: " + path + "]");
}

// ---- Byte-level encode/decode helpers -----------------------------------

class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
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

/// Why each older format version cannot be read, indexed by version.
/// None is migrated: snapshots are rebuildable caches.
constexpr const char* kOldVersionReasons[] = {
    "",
    "predates per-query epoch stamps",
    "predates the arena cache layout",
    "uses the byte-wise checksum that version 4 replaced",
};
static_assert(std::size(kOldVersionReasons) == kSnapshotFormatVersion,
              "give every format version older than this one a reason");

/// Validates the file-level framing over raw bytes: magic, byte order,
/// version, declared length, checksum, and section-table bounds. Every
/// failure mode maps to its own StatusCode (see snapshot.h). This is
/// the one full pass over the bytes the readers pay (the checksum);
/// everything after it is O(sections + queries).
Status ValidateFraming(const char* data, size_t actual_size,
                       SnapshotView* out) {
  char msg[192];
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
    std::snprintf(msg, sizeof(msg),
                  "snapshot format version %u %s (oldest supported is %u);"
                  " rebuild the caches and save a fresh snapshot",
                  version, kOldVersionReasons[version],
                  kSnapshotFormatVersion);
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
  if (Checksum(data + kHeaderBytes, actual_size - kHeaderBytes) != checksum) {
    return Corrupt("checksum mismatch");
  }

  out->data = data;
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

// ---- Section decodes ----------------------------------------------------

StatusOr<SnapshotEpoch> DecodeEpoch(const SnapshotView& file) {
  const SnapshotView::Section* s = file.Find(kSectionEpoch);
  if (s == nullptr) return Corrupt("missing epoch section");
  SnapshotEpoch epoch;
  ByteReader r(file.SectionData(*s), static_cast<size_t>(s->length));
  PINUM_RETURN_IF_ERROR(r.U64(&epoch.base_schema_hash, "base schema hash"));
  PINUM_RETURN_IF_ERROR(r.I32(&epoch.universe, "universe size"));
  if (epoch.universe < 0) return Corrupt("negative universe size");
  PINUM_RETURN_IF_ERROR(r.Vec(&epoch.candidate_ids, "candidate ids"));
  PINUM_RETURN_IF_ERROR(
      r.U64(&epoch.universe_prefix_hash, "universe prefix hash"));
  if (!r.AtEnd()) return Corrupt("trailing bytes in epoch section");
  return epoch;
}

std::string HashMismatch(const char* what, uint64_t stored,
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

/// The compatibility rule both readers enforce: same base schema, and
/// the stored candidate vocabulary must be the live one's first N
/// candidates — equality when nothing grew, a strict prefix when
/// candidates were appended after the seal (append-only growth keeps
/// every stored id meaning the same index). Anything else — removed,
/// reordered, or regenerated candidates — invalidates every sealed
/// subscript and is kFailedPrecondition.
Status CheckEpochCompatible(const SnapshotEpoch& stored,
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
Status DecodeQueries(const SnapshotView& file, std::vector<std::string>* names,
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

/// One length-framed cache record inside the caches section: an arena
/// image, viewed in place.
struct CacheRecord {
  const char* data = nullptr;
  size_t size = 0;
};

/// Frames the caches section's records without decoding them:
/// u32 count, u32 reserved, u64-count-prefixed u64 lengths, then the
/// record bytes back-to-back. `expected_count` is the query count — the
/// two sections must agree. Record *contents* are validated when each
/// record is bound (SnapshotCodec::View).
Status SliceCacheRecords(const SnapshotView& file, size_t expected_count,
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
/// file's bytes `data[0, size)` wherever they live, with `owner` keeping
/// them alive: framing, epoch compatibility, the query section and
/// record slicing, then SnapshotCodec::View per record, so every
/// returned cache co-owns `owner`. Each record binds exactly its framed
/// slice: the image's structural validation (SealedCache::ValidateImage)
/// rejects any record whose contents disagree with its declared length.
/// A rejection names the record and its file offset — the byte range to
/// dump when a fleet log reports one bad record among thousands.
StatusOr<WorkloadSnapshot> ReadSnapshot(const char* data, size_t size,
                                        std::shared_ptr<const void> owner,
                                        const std::string& path,
                                        const SnapshotEpoch& expected) {
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
    const Status st = SnapshotCodec::View(records[i].data, records[i].size,
                                          owner, &snapshot.sealed[i]);
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

// ---- Byte sources -------------------------------------------------------

/// A whole snapshot file read into one heap buffer, which every cache
/// loaded from it shares. new char[] storage is aligned for every
/// fundamental type, so the buffer start passes View's alignment check
/// just as a page-aligned mapping base does.
struct FileBytes {
  std::shared_ptr<char[]> data;
  size_t size = 0;
};

StatusOr<FileBytes> ReadFileBytes(const std::string& path) {
  {
    Status injected = FailPoint::Check("snapshot.load.read");
    if (!injected.ok()) return AnnotateFile(std::move(injected), path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot " + path);
  }
  // Sized from the open handle, not the path, so a save renaming a new
  // file into place after the open cannot make size and bytes disagree.
  long long size = -1;
#ifndef _WIN32
  struct stat st;
  if (::fstat(fileno(f), &st) == 0) size = st.st_size;
#else
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::rewind(f);
#endif
  std::shared_ptr<char[]> buffer;
  size_t got = 0;
  if (size > 0) {
    buffer.reset(new char[static_cast<size_t>(size)]);
    got = std::fread(buffer.get(), 1, static_cast<size_t>(size), f);
  }
  const bool read_error = size < 0 || std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("I/O error reading snapshot " + path +
                            " at byte offset " + std::to_string(got));
  }
  return FileBytes{std::move(buffer), got};
}

#ifndef _WIN32

/// RAII wrapper for one read-only MAP_PRIVATE file mapping. The mapped
/// base is page-aligned, so a file offset's alignment equals the mapped
/// pointer's alignment — the property the 8-aligned cache records rely
/// on.
class MappedFile {
 public:
  static StatusOr<std::shared_ptr<const MappedFile>> Open(
      const std::string& path) {
    {
      Status injected = FailPoint::Check("snapshot.mmap.map");
      if (!injected.ok()) return AnnotateFile(std::move(injected), path);
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::NotFound("cannot open snapshot " + path);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal("cannot stat snapshot " + path);
    }
    const size_t size = static_cast<size_t>(st.st_size);
    auto file = std::make_shared<MappedFile>();
    if (size > 0) {
      // mmap rejects zero-length maps; an empty file skips straight to
      // framing validation, which reports the truncation (kOutOfRange).
      void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        ::close(fd);
        return Status::Internal("cannot mmap snapshot " + path);
      }
      file->base_ = base;
      file->size_ = size;
    }
    // The mapping outlives the descriptor (POSIX keeps mapped pages
    // valid after close).
    ::close(fd);
    return std::shared_ptr<const MappedFile>(std::move(file));
  }

  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }

  const char* data() const { return static_cast<const char*>(base_); }
  size_t size() const { return size_; }

 private:
  void* base_ = nullptr;
  size_t size_ = 0;
};

#endif  // !_WIN32

// ---- Epoch fingerprints -------------------------------------------------

/// Canonical-serialization hasher for the epoch fingerprints: every
/// field is folded as fixed-width bytes (doubles as their IEEE-754 bit
/// patterns), with lengths prefixed so concatenations cannot collide.
class Fingerprint {
 public:
  void U64(uint64_t v) { h_ = FnvBytes(h_, &v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    h_ = FnvBytes(h_, s.data(), s.size());
  }
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = kFnvOffset;
};

/// Index definitions include the size statistics (leaf/total pages,
/// height): the advisor prices index bytes from them, so a size drift
/// is an epoch change even when key columns are unchanged.
void FoldIndexDef(Fingerprint* fp, IndexId id, const IndexDef& index) {
  fp->I64(id);
  fp->Str(index.name);
  fp->I64(index.table);
  fp->U64(index.key_columns.size());
  for (ColumnIdx c : index.key_columns) fp->I64(c);
  fp->I64(index.hypothetical ? 1 : 0);
  fp->I64(index.leaf_pages);
  fp->I64(index.total_pages);
  fp->I64(index.height);
}

void FoldTableDef(Fingerprint* fp, TableId id, const TableDef& table) {
  fp->I64(id);
  fp->Str(table.name);
  fp->U64(table.columns.size());
  for (const ColumnDef& col : table.columns) {
    fp->Str(col.name);
    fp->I64(static_cast<int64_t>(col.type));
  }
}

void FoldTableStats(Fingerprint* fp, const TableStats& ts) {
  fp->F64(ts.row_count);
  fp->F64(ts.heap_pages);
  fp->U64(ts.columns.size());
  for (const ColumnStats& cs : ts.columns) {
    fp->F64(cs.n_distinct);
    fp->I64(cs.min);
    fp->I64(cs.max);
    fp->F64(cs.correlation);
    fp->U64(cs.histogram.bounds().size());
    for (Value b : cs.histogram.bounds()) fp->I64(b);
  }
}

/// The candidate-free part of the world: tables, foreign keys, and the
/// base (real) index definitions candidates are layered onto. Candidate
/// definitions are covered by the prefix chain instead, so an append
/// does not change this hash.
uint64_t BaseSchemaFingerprint(const CandidateSet& set) {
  Fingerprint fp;
  const Catalog& cat = set.universe;
  fp.U64(cat.tables().size());
  for (const auto& [id, table] : cat.tables()) FoldTableDef(&fp, id, table);
  fp.U64(cat.foreign_keys().size());
  for (const ForeignKey& fk : cat.foreign_keys()) {
    fp.I64(fk.child_table);
    fp.I64(fk.child_column);
    fp.I64(fk.parent_table);
    fp.I64(fk.parent_column);
  }
  fp.U64(set.base_index_ids.size());
  for (IndexId id : set.base_index_ids) {
    if (const IndexDef* def = cat.FindIndex(id)) {
      FoldIndexDef(&fp, id, *def);
    } else {
      fp.I64(id);
    }
  }
  return fp.hash();
}

}  // namespace

std::vector<uint64_t> ComputeUniversePrefixChain(const CandidateSet& set) {
  std::vector<uint64_t> chain;
  chain.reserve(set.candidate_ids.size() + 1);
  Fingerprint fp;
  chain.push_back(fp.hash());  // the empty prefix
  for (IndexId id : set.candidate_ids) {
    if (const IndexDef* def = set.universe.FindIndex(id)) {
      FoldIndexDef(&fp, id, *def);
    } else {
      fp.I64(id);
    }
    chain.push_back(fp.hash());
  }
  return chain;
}

SnapshotEpoch ComputeSnapshotEpoch(const CandidateSet& set) {
  SnapshotEpoch epoch;
  epoch.base_schema_hash = BaseSchemaFingerprint(set);
  epoch.universe = set.NumIndexIds();
  epoch.candidate_ids = set.candidate_ids;
  epoch.prefix_chain = ComputeUniversePrefixChain(set);
  epoch.universe_prefix_hash = epoch.prefix_chain.back();
  return epoch;
}

namespace {

/// The per-table slice ComputeQueryStamp folds per touched table: the
/// table definition, its statistics, foreign keys touching it, and
/// every universe index on it.
uint64_t ComputeTableEpochFingerprint(TableId table, const CandidateSet& set,
                                      const StatsCatalog& stats) {
  Fingerprint fp;
  const Catalog& cat = set.universe;
  if (const TableDef* def = cat.FindTable(table)) {
    FoldTableDef(&fp, table, *def);
  } else {
    fp.I64(table);
  }
  for (const ForeignKey& fk : cat.foreign_keys()) {
    if (fk.child_table == table || fk.parent_table == table) {
      fp.I64(fk.child_table);
      fp.I64(fk.child_column);
      fp.I64(fk.parent_table);
      fp.I64(fk.parent_column);
    }
  }
  // Every universe index on the table — base and candidate alike, in id
  // order — because both shape the table's access costs and the
  // advisor's size pricing; an appended candidate on this table drifts
  // this fingerprint (and so every stamp of a query touching it).
  for (const IndexDef* idx : cat.IndexesOnTable(table)) {
    FoldIndexDef(&fp, idx->id, *idx);
  }
  if (const TableStats* ts = stats.Find(table)) {
    fp.I64(1);
    FoldTableStats(&fp, *ts);
  } else {
    fp.I64(0);
  }
  return fp.hash();
}

}  // namespace

uint64_t ComputeQueryStamp(const Query& query, const CandidateSet& set,
                           const StatsCatalog& stats,
                           std::map<TableId, uint64_t>* table_fp_cache) {
  Fingerprint fp;
  // The query's own structure — the exact IR fields the builders
  // consume, in positional order (the cache's slots are positional),
  // and the fields Query::SameStatement compares. The name is
  // deliberately not folded: a rename is not drift.
  fp.U64(query.tables.size());
  for (TableId t : query.tables) fp.I64(t);
  fp.U64(query.select.size());
  for (const ColumnRef& c : query.select) {
    fp.I64(c.table);
    fp.I64(c.column);
  }
  fp.U64(query.filters.size());
  for (const FilterPredicate& f : query.filters) {
    fp.I64(f.column.table);
    fp.I64(f.column.column);
    fp.I64(static_cast<int64_t>(f.op));
    fp.I64(f.constant);
  }
  fp.U64(query.joins.size());
  for (const JoinPredicate& j : query.joins) {
    fp.I64(j.left.table);
    fp.I64(j.left.column);
    fp.I64(j.right.table);
    fp.I64(j.right.column);
  }
  fp.U64(query.group_by.size());
  for (const ColumnRef& c : query.group_by) {
    fp.I64(c.table);
    fp.I64(c.column);
  }
  fp.I64(static_cast<int64_t>(query.aggregate));
  fp.U64(query.order_by.size());
  for (const SortKey& k : query.order_by) {
    fp.I64(k.column.table);
    fp.I64(k.column.column);
    fp.I64(k.ascending ? 1 : 0);
  }
  // The world slices the cache was derived from: one fingerprint per
  // touched table, in position order.
  for (TableId t : query.tables) {
    if (table_fp_cache != nullptr) {
      auto it = table_fp_cache->find(t);
      if (it == table_fp_cache->end()) {
        it = table_fp_cache
                 ->emplace(t, ComputeTableEpochFingerprint(t, set, stats))
                 .first;
      }
      fp.U64(it->second);
    } else {
      fp.U64(ComputeTableEpochFingerprint(t, set, stats));
    }
  }
  return fp.hash();
}

Status SaveSnapshot(const std::string& path,
                    const std::vector<std::string>& query_names,
                    const std::vector<uint64_t>& query_stamps,
                    const std::vector<SealedCache>& sealed,
                    const SnapshotEpoch& epoch) {
  if (query_names.size() != sealed.size() ||
      query_stamps.size() != sealed.size()) {
    return Status::InvalidArgument(
        "query_names, query_stamps and sealed caches must be parallel"
        " vectors");
  }

  ByteWriter epoch_section;
  epoch_section.U64(epoch.base_schema_hash);
  epoch_section.I32(epoch.universe);
  epoch_section.Vec(epoch.candidate_ids);
  epoch_section.U64(epoch.universe_prefix_hash);

  ByteWriter queries_section;
  queries_section.U32(static_cast<uint32_t>(query_names.size()));
  for (size_t i = 0; i < query_names.size(); ++i) {
    queries_section.U32(static_cast<uint32_t>(query_names[i].size()));
    queries_section.Raw(query_names[i].data(), query_names[i].size());
    queries_section.U64(query_stamps[i]);
  }

  // Cache records: each cache's arena image copied verbatim, framed by
  // its byte length so a reader can slice the records without decoding
  // them.
  ByteWriter caches_section;
  caches_section.U32(static_cast<uint32_t>(sealed.size()));
  caches_section.U32(0);  // reserved; pads the lengths array to 8 bytes
  std::vector<uint64_t> lengths;
  lengths.reserve(sealed.size());
  for (const SealedCache& cache : sealed) {
    lengths.push_back(SnapshotCodec::Image(cache).size());
  }
  caches_section.Vec(lengths);
  for (const SealedCache& cache : sealed) {
    const std::string_view image = SnapshotCodec::Image(cache);
    caches_section.Raw(image.data(), image.size());
  }

  const std::pair<uint32_t, const ByteWriter*> sections[] = {
      {kSectionEpoch, &epoch_section},
      {kSectionQueries, &queries_section},
      {kSectionCaches, &caches_section},
  };
  const uint32_t section_count = 3;

  // Section table + payloads ("the body") — the checksummed region.
  // Every section offset is aligned to kArenaAlign with zero padding in
  // between: with the caches section's 16 + 8n-byte preamble and
  // 8-multiple record lengths, that places every arena image at a
  // file offset that is a multiple of 8 — which is what lets the readers
  // bind typed views over an aligned buffer or a page-aligned mapping.
  const uint64_t table_end =
      kHeaderBytes + static_cast<uint64_t>(section_count) * kSectionEntryBytes;
  uint64_t offsets[section_count];
  uint64_t end = table_end;
  for (uint32_t i = 0; i < section_count; ++i) {
    offsets[i] = ArenaAlignUp(static_cast<size_t>(end));
    end = offsets[i] + sections[i].second->size();
  }
  ByteWriter body;
  for (uint32_t i = 0; i < section_count; ++i) {
    body.U32(sections[i].first);
    body.U32(0);  // reserved
    body.U64(offsets[i]);
    body.U64(sections[i].second->size());
  }
  uint64_t pos = table_end;
  static const char zeros[kArenaAlign] = {};
  for (uint32_t i = 0; i < section_count; ++i) {
    body.Raw(zeros, static_cast<size_t>(offsets[i] - pos));
    body.Raw(sections[i].second->bytes().data(), sections[i].second->size());
    pos = offsets[i] + sections[i].second->size();
  }

  ByteWriter header;
  header.Raw(kMagic, sizeof(kMagic));
  header.U32(kEndianMarker);
  header.U32(kSnapshotFormatVersion);
  header.U32(section_count);
  header.U32(0);  // reserved
  header.U64(kHeaderBytes + body.size());
  header.U64(Checksum(body.bytes().data(), body.size()));

  // Write-temp-then-rename, with fsync on both sides of the rename: a
  // failed or interrupted save (full disk, crash mid-write, power cut)
  // must never destroy the previously good snapshot at `path` — losing
  // it would force exactly the optimizer-call rebuild persistence
  // exists to avoid. The tmp file is fsynced *before* the rename so the
  // metadata operation can never reach disk ahead of the data (the
  // classic renamed-but-empty-file crash), and the directory is fsynced
  // *after* so the rename itself survives a power cut.
  const std::string tmp = path + ".tmp";
  {
    Status injected = FailPoint::Check("snapshot.save.open");
    if (!injected.ok()) return AnnotateFile(std::move(injected), tmp);
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + " for writing");
  }
  // Every failure below cleans up the torn tmp and reports where in the
  // file the write stopped — a fleet log line must identify both the
  // file and the byte.
  auto fail = [&f, &tmp](Status st, uint64_t offset) {
    std::fclose(f);
    f = nullptr;
    std::remove(tmp.c_str());
    return AnnotateFile(Status(st.code(), st.message() + " at byte offset " +
                                              std::to_string(offset)),
                        tmp);
  };

  size_t put = std::fwrite(header.bytes().data(), 1, header.size(), f);
  if (put != header.size()) {
    return fail(Status::Internal("short write of snapshot header"), put);
  }
  {
    // The short-write failpoint models a disk filling mid-body: half
    // the body genuinely lands in the tmp file before the failure, so
    // the cleanup path is tortured with a really-torn file.
    Status injected = FailPoint::Check("snapshot.save.short_write");
    if (!injected.ok()) {
      const size_t torn = body.size() / 2;
      (void)std::fwrite(body.bytes().data(), 1, torn, f);
      return fail(std::move(injected), header.size() + torn);
    }
  }
  put = std::fwrite(body.bytes().data(), 1, body.size(), f);
  if (put != body.size()) {
    return fail(Status::Internal("short write of snapshot body"),
                header.size() + put);
  }

  {
    Status injected = FailPoint::Check("snapshot.save.fsync");
    if (!injected.ok()) {
      return fail(std::move(injected), header.size() + body.size());
    }
  }
#ifndef _WIN32
  if (std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    return fail(Status::Internal("fsync of snapshot tmp file failed"),
                header.size() + body.size());
  }
#endif
  if (std::fclose(f) != 0) {
    f = nullptr;
    std::remove(tmp.c_str());
    return AnnotateFile(Status::Internal("close of snapshot tmp file failed"),
                        tmp);
  }
  f = nullptr;

  {
    Status injected = FailPoint::Check("snapshot.save.rename");
    if (!injected.ok()) {
      std::remove(tmp.c_str());
      return AnnotateFile(std::move(injected), path);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
#ifndef _WIN32
  // Best-effort directory fsync: some filesystems reject it, and by
  // this point the rename has succeeded — the snapshot at `path` is
  // valid either way, so a directory-sync failure is not a save failure.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
#endif
  return Status::OK();
}

StatusOr<SnapshotEpoch> ReadSnapshotEpoch(const std::string& path) {
  PINUM_ASSIGN_OR_RETURN(const FileBytes file, ReadFileBytes(path));
  SnapshotView view;
  PINUM_RETURN_IF_ERROR(AnnotateFile(
      ValidateFraming(file.data.get(), file.size, &view), path));
  return DecodeEpoch(view);
}

StatusOr<WorkloadSnapshot> LoadSnapshot(const std::string& path,
                                        const SnapshotEpoch& expected) {
  PINUM_ASSIGN_OR_RETURN(FileBytes file, ReadFileBytes(path));
  const char* data = file.data.get();
  const size_t size = file.size;
  return ReadSnapshot(data, size, std::move(file.data), path, expected);
}

#ifndef _WIN32

StatusOr<WorkloadSnapshot> MapSnapshot(const std::string& path,
                                       const SnapshotEpoch& expected) {
  PINUM_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                         MappedFile::Open(path));
  const char* data = file->data();
  const size_t size = file->size();
  return ReadSnapshot(data, size, std::move(file), path, expected);
}

#else

StatusOr<WorkloadSnapshot> MapSnapshot(const std::string& path,
                                       const SnapshotEpoch& expected) {
  (void)path;
  (void)expected;
  return Status::Unimplemented(
      "mapped snapshots require POSIX mmap; use LoadSnapshot");
}

#endif  // !_WIN32

}  // namespace pinum
