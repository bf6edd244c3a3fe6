// An immutable published unit of serving state. The serving engine
// (serving_engine.h) answers every what-if question from exactly one
// ServingGeneration: readers atomically pin the current one, resealing
// builds the next one off to the side and publishes it with a single
// atomic swap. Nothing in a generation is ever mutated after
// publication — that immutability, not locking, is what makes the read
// path safe under concurrent reseals.
#ifndef PINUM_SERVING_SERVING_GENERATION_H_
#define PINUM_SERVING_SERVING_GENERATION_H_

#include <cstdint>
#include <vector>

#include "inum/sealed_cache.h"
#include "workload/cache_manager.h"

namespace pinum {

/// One immutable generation of serving state: a whole-workload build
/// result (sealed caches + the per-query epoch stamps they were built
/// under) tagged with a monotonically increasing id. Generations are
/// only ever handed out as shared_ptr<const ServingGeneration>; a
/// reader that pinned generation N keeps it alive — and keeps getting
/// bit-identical answers from it — for as long as it holds the pin,
/// regardless of how many newer generations have been published since.
/// The last pin dropped reclaims the generation; there is no other
/// reclamation mechanism.
struct ServingGeneration {
  /// Monotonically increasing publication id, starting at 1 for the
  /// generation the engine was constructed with. Strictly ordered:
  /// id(G') > id(G) means G' was published after G.
  uint64_t id = 0;

  /// The build result this generation serves from. Treat as deeply
  /// immutable — every SealedCache, stamp, and accounting row is
  /// frozen at publication. When the result came from
  /// LoadSnapshotMapped, its caches' arenas borrow the snapshot file
  /// mapping, and each cache's arena pins those pages for as long as
  /// this generation (or any later one still holding that cache) lives.
  WorkloadCacheResult result;

  /// The serve-time caches, parallel to the engine's query vector.
  const std::vector<SealedCache>& sealed() const { return result.sealed; }

  /// The per-query epoch stamps the caches were built under; the drift
  /// watcher diffs these against live QueryStamps to find stale queries.
  const std::vector<uint64_t>& stamps() const { return result.stamps; }
};

}  // namespace pinum

#endif  // PINUM_SERVING_SERVING_GENERATION_H_
