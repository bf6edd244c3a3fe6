// Implementation of the snapshot format specified in
// docs/SNAPSHOT_FORMAT.md. Keep the two in lockstep: any change to the
// bytes written here must bump kSnapshotFormatVersion (snapshot.h) and
// be recorded in the spec's version history.
//
// Byte-level framing, validation, the cache codec and the reader body
// (ReadSnapshot) live in inum/snapshot_internal.h, shared with the
// zero-copy mapped reader (snapshot_mmap.cc), so both load paths run
// identical checks in identical order.
#include "inum/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/failpoint.h"
#include "inum/snapshot_internal.h"

namespace pinum {

using snapshot_internal::AnnotateFile;
using snapshot_internal::ByteReader;
using snapshot_internal::ByteWriter;
using snapshot_internal::CacheRecord;
using snapshot_internal::DecodeEpoch;
using snapshot_internal::DecodeQueries;
using snapshot_internal::FnvBytes;
using snapshot_internal::kEndianMarker;
using snapshot_internal::kFnvOffset;
using snapshot_internal::kHeaderBytes;
using snapshot_internal::kMagic;
using snapshot_internal::kSectionCaches;
using snapshot_internal::kSectionEntryBytes;
using snapshot_internal::kSectionEpoch;
using snapshot_internal::kSectionQueries;
using snapshot_internal::ReadSnapshot;
using snapshot_internal::SliceCacheRecords;
using snapshot_internal::SnapshotView;
using snapshot_internal::ValidateFraming;

namespace {

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

// ---- Epoch fingerprints -------------------------------------------------

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

// ---- Section payloads ---------------------------------------------------

ByteWriter EncodeEpochSection(const SnapshotEpoch& epoch) {
  ByteWriter w;
  w.U64(epoch.base_schema_hash);
  w.I32(epoch.universe);
  w.Vec(epoch.candidate_ids);
  w.U64(epoch.universe_prefix_hash);
  return w;
}

// ---- Whole-file reading -------------------------------------------------

Status ReadFileBytes(const std::string& path, std::string* out) {
  {
    Status injected = FailPoint::Check("snapshot.load.read");
    if (!injected.ok()) return AnnotateFile(std::move(injected), path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Internal("I/O error reading snapshot " + path +
                            " at byte offset " + std::to_string(bytes.size()));
  }
  *out = std::move(bytes);
  return Status::OK();
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

uint64_t ComputeQueryStamp(const Query& query, const CandidateSet& set,
                           const StatsCatalog& stats,
                           std::map<TableId, uint64_t>* table_fp_cache) {
  Fingerprint fp;
  // The query's own structure — the exact IR fields the builders
  // consume, in positional order (the cache's slots are positional).
  // The name is deliberately not folded: a rename is not drift.
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

namespace {

/// The previous snapshot's cache records, keyed by query name: the
/// patch source for an incremental save. Holds views into `bytes`.
struct OldCacheRecords {
  std::string bytes;  // keeps the viewed records alive
  struct Record {
    uint64_t stamp = 0;
    const char* data = nullptr;
    size_t size = 0;
  };
  std::map<std::string, Record> by_name;
};

/// Best-effort read of the snapshot currently at `path` for patch
/// reuse. Any failure — missing file, older version, corruption —
/// just disables patching; the save then encodes every record fresh.
OldCacheRecords ReadOldRecords(const std::string& path) {
  OldCacheRecords old;
  if (!ReadFileBytes(path, &old.bytes).ok()) return old;
  SnapshotView view;
  if (!ValidateFraming(old.bytes.data(), old.bytes.size(), &view).ok()) {
    return old;
  }
  std::vector<std::string> names;
  std::vector<uint64_t> stamps;
  if (!DecodeQueries(view, &names, &stamps).ok()) return old;
  std::vector<CacheRecord> records;
  if (!SliceCacheRecords(view, names.size(), &records).ok()) return old;
  for (size_t i = 0; i < names.size(); ++i) {
    old.by_name.emplace(
        names[i],
        OldCacheRecords::Record{stamps[i], records[i].data, records[i].size});
  }
  return old;
}

}  // namespace

Status SaveSnapshot(const std::string& path,
                    const std::vector<std::string>& query_names,
                    const std::vector<uint64_t>& query_stamps,
                    const std::vector<SealedCache>& sealed,
                    const SnapshotEpoch& epoch,
                    SnapshotSaveStats* save_stats) {
  if (query_names.size() != sealed.size() ||
      query_stamps.size() != sealed.size()) {
    return Status::InvalidArgument(
        "query_names, query_stamps and sealed caches must be parallel"
        " vectors");
  }
  SnapshotSaveStats stats;

  const ByteWriter epoch_section = EncodeEpochSection(epoch);
  ByteWriter queries_section;
  queries_section.U32(static_cast<uint32_t>(query_names.size()));
  for (size_t i = 0; i < query_names.size(); ++i) {
    queries_section.U32(static_cast<uint32_t>(query_names[i].size()));
    queries_section.Raw(query_names[i].data(), query_names[i].size());
    queries_section.U64(query_stamps[i]);
  }

  // Cache records — each one the cache's relocatable arena image,
  // framed by its byte length so an incremental save can splice
  // unchanged records from the previous snapshot at this path without
  // decoding them. The reuse key is (name, stamp, sealed universe): the
  // stamp fingerprints every input the cache's *costs* are derived
  // from, and the universe bound — the image's leading u64, peeked
  // without a decode — pins the array widths, which can differ across
  // an append-only growth even when costs don't. Together they make a
  // patched file byte-identical to a from-scratch save of the same
  // result (images are deterministically packed, padding included).
  const OldCacheRecords old = ReadOldRecords(path);
  auto universe_matches = [](const OldCacheRecords::Record& record,
                             size_t universe) {
    uint64_t stored = 0;
    if (record.size < sizeof(stored)) return false;
    std::memcpy(&stored, record.data, sizeof(stored));
    return stored == universe;
  };
  std::vector<std::string> fresh(sealed.size());
  std::vector<std::pair<const char*, size_t>> records(sealed.size());
  for (size_t i = 0; i < sealed.size(); ++i) {
    const auto it = old.by_name.find(query_names[i]);
    if (it != old.by_name.end() && it->second.stamp == query_stamps[i] &&
        universe_matches(it->second, sealed[i].UniverseSize())) {
      records[i] = {it->second.data, it->second.size};
      ++stats.caches_patched;
      continue;
    }
    SnapshotCodec::Encode(sealed[i], &fresh[i]);
    records[i] = {fresh[i].data(), fresh[i].size()};
    ++stats.caches_encoded;
  }
  ByteWriter caches_section;
  caches_section.U32(static_cast<uint32_t>(sealed.size()));
  caches_section.U32(0);  // reserved; pads the lengths array to 8 bytes
  std::vector<uint64_t> lengths;
  lengths.reserve(records.size());
  for (const auto& [data, size] : records) {
    (void)data;
    lengths.push_back(size);
  }
  caches_section.Vec(lengths);
  for (const auto& [data, size] : records) caches_section.Raw(data, size);
  if (save_stats != nullptr) *save_stats = stats;

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
  // file offset that is a multiple of 8 — which is what lets the mapped
  // reader (page-aligned base) hand out typed views without a copy.
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
  header.U64(FnvBytes(kFnvOffset, body.bytes().data(), body.size()));

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
  std::string bytes;
  PINUM_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  SnapshotView view;
  PINUM_RETURN_IF_ERROR(AnnotateFile(
      ValidateFraming(bytes.data(), bytes.size(), &view), path));
  return DecodeEpoch(view);
}

StatusOr<WorkloadSnapshot> LoadSnapshot(const std::string& path,
                                        const SnapshotEpoch& expected) {
  std::string bytes;
  PINUM_RETURN_IF_ERROR(ReadFileBytes(path, &bytes));
  return ReadSnapshot(bytes.data(), bytes.size(), path, expected,
                      [](const char* data, size_t size, SealedCache* out) {
                        return SnapshotCodec::DecodeOwned(data, size, out);
                      });
}

}  // namespace pinum
