// MapSnapshot (inum/snapshot.h): the zero-copy snapshot reader. Its
// byte source is a read-only file mapping and its bind is
// SnapshotCodec::View; everything between, checks and failure codes
// included, is the reader body it shares with LoadSnapshot
// (snapshot_internal::ReadSnapshot).
#include <utility>

#include "common/failpoint.h"
#include "inum/snapshot.h"
#include "inum/snapshot_internal.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace pinum {

using snapshot_internal::AnnotateFile;
using snapshot_internal::ReadSnapshot;

#if defined(_WIN32)

StatusOr<WorkloadSnapshot> MapSnapshot(const std::string& path,
                                       const SnapshotEpoch& expected) {
  (void)path;
  (void)expected;
  return Status::Unimplemented(
      "mapped snapshots require POSIX mmap; use LoadSnapshot");
}

#else

namespace {

/// RAII wrapper for one read-only MAP_PRIVATE file mapping. The mapped
/// base is page-aligned, so a file offset's alignment equals the mapped
/// pointer's alignment — the property the 8-aligned v3 cache records
/// rely on.
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

}  // namespace

StatusOr<WorkloadSnapshot> MapSnapshot(const std::string& path,
                                       const SnapshotEpoch& expected) {
  PINUM_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                         MappedFile::Open(path));
  // Each cache's arena co-owns the MappedFile, so the caches stay valid
  // after this function's handle is gone.
  return ReadSnapshot(file->data(), file->size(), path, expected,
                      [&file](const char* data, size_t size,
                              SealedCache* out) {
                        return SnapshotCodec::View(data, size, file, out);
                      });
}

#endif  // !defined(_WIN32)

}  // namespace pinum
