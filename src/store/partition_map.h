#ifndef LTM_STORE_PARTITION_MAP_H_
#define LTM_STORE_PARTITION_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltm {
namespace store {

/// The PartitionedTruthStore's top-level routing table: an ordered list
/// of entity-range partitions, each owning one child store directory.
/// Persisted as a single checksummed file (PARTMAP) in the root
/// directory, rewritten atomically (temp + fsync + rename) on every
/// partition-count change — the commit point of a split or merge:
///
///   header: magic "LTMP" + uint32 format version
///   uint64 generation          (bumped by every commit)
///   uint64 next_partition_id   (ids are never reused)
///   uint32 entry count, then per entry:
///     uint64 id
///     uint32 len + bytes   dir   (child directory name, e.g. "p-000001")
///     uint32 len + bytes   lower (inclusive bound; "" = unbounded below)
///     uint8  has_upper
///     uint32 len + bytes   upper (exclusive bound; "" when !has_upper)
///   uint64 FNV-1a 64 checksum of every preceding byte
///
/// A valid map covers the whole entity keyspace with no gap and no
/// overlap: entries sorted by lower bound, the first lower is "", each
/// upper equals the next entry's lower, and only the last entry is
/// unbounded above. ParsePartitionMapFromBytes checks structure and
/// checksum only (it is the fuzzer entry point); ValidatePartitionMap
/// checks the range invariants.

inline constexpr char kPartitionMapMagic[4] = {'L', 'T', 'M', 'P'};
inline constexpr uint32_t kPartitionMapVersion = 1;
inline constexpr char kPartitionMapFileName[] = "PARTMAP";
/// Most partitions a store may be carved or split into.
inline constexpr size_t kMaxPartitions = 64;

/// One entity-range partition: owns entities in [lower, upper), where an
/// empty `lower` means unbounded below and !has_upper unbounded above.
struct PartitionMapEntry {
  uint64_t id = 0;
  std::string dir;
  std::string lower;
  bool has_upper = false;
  std::string upper;

  bool Contains(std::string_view entity) const {
    return entity >= lower && (!has_upper || entity < upper);
  }

  /// "[lower, upper)" with "-inf"/"+inf" for the unbounded sides.
  std::string RangeString() const;

  bool operator==(const PartitionMapEntry&) const = default;
};

struct PartitionMap {
  uint64_t generation = 0;
  uint64_t next_partition_id = 1;
  std::vector<PartitionMapEntry> entries;

  bool operator==(const PartitionMap&) const = default;
};

/// Child directory name for partition `id` ("p-000042").
std::string PartitionDirName(uint64_t id);

/// Index of the entry owning `entity`. The map must be valid (total
/// coverage, sorted); binary search on the lower bounds.
size_t FindPartition(const PartitionMap& map, std::string_view entity);

/// Serializes `map` in the on-disk format above, checksum included.
std::string SerializePartitionMap(const PartitionMap& map);

/// Parses a serialized map, verifying magic, version, structure, and
/// checksum. `label` names the source in error messages. This is the
/// fuzzer entry point: it must return a non-OK Status — never crash or
/// over-allocate — for every byte string. Does NOT check the range
/// invariants; callers that route on the map must ValidatePartitionMap.
Result<PartitionMap> ParsePartitionMapFromBytes(std::string_view bytes,
                                                const std::string& label);

/// Checks the routing invariants: at least one entry, entries sorted by
/// lower bound with the first unbounded below and only the last
/// unbounded above, each upper exactly equal to the next lower (no gap,
/// no overlap), every bounded range non-empty, and ids/dirs unique with
/// every id below next_partition_id.
Status ValidatePartitionMap(const PartitionMap& map);

/// Reads and parses `dir`/PARTMAP. NotFound when the file does not
/// exist (a fresh or legacy single-store directory).
Result<PartitionMap> LoadPartitionMap(const std::string& dir);

/// Atomically replaces `dir`/PARTMAP (temp + fsync + rename; see
/// AtomicWriteFile, whose "atomic-write-before-rename:" failpoint makes
/// the commit point crash-testable). Validates before writing.
Status CommitPartitionMap(const std::string& dir, const PartitionMap& map);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_PARTITION_MAP_H_
