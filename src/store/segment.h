#ifndef LTM_STORE_SEGMENT_H_
#define LTM_STORE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/block_cache.h"
#include "store/block_format.h"
#include "store/bloom.h"

namespace ltm {
namespace store {

/// Block-encoded segment files ("seg-NNNNNN.blk") — the store's immutable
/// on-disk unit. Layout, back to front:
///
///   [data block 0] ... [data block N-1]   ~block_size_bytes each,
///                                         restartable prefix-compressed
///                                         rows (see block_format.h)
///   [index block]                         per-block offset/size/checksum
///                                         + first/last (entity, attr) keys
///   [bloom block]                         filter over entity and
///                                         entity "\t" attribute keys
///   [footer, 80 bytes, fixed]             offsets + checksums of index
///                                         and bloom, row/block counts,
///                                         its own checksum, version,
///                                         magic "LTMB" in the last bytes
///
/// Chain of trust: the footer checksums itself; the footer's checksums
/// cover the index and bloom; the index's per-block checksums cover every
/// data block. A reader therefore verifies exactly the bytes it touches —
/// a point lookup checks the footer, index, bloom, and ONE data block,
/// never the whole file.

inline constexpr char kSegmentMagic[4] = {'L', 'T', 'M', 'B'};
inline constexpr uint32_t kSegmentFormatVersion = 1;
inline constexpr size_t kSegmentFooterSize = 80;

/// The bloom key for one fact. Entities may contain any byte, so this is
/// only unambiguous together with the entity-only key also being
/// inserted; both sides (writer and prober) build it identically, which
/// is all a bloom filter needs.
inline std::string FactBloomKey(std::string_view entity,
                                std::string_view attribute) {
  std::string key;
  key.reserve(entity.size() + 1 + attribute.size());
  key.append(entity);
  key.push_back('\t');
  key.append(attribute);
  return key;
}

/// One index entry: where a data block lives, its checksum, and the key
/// range it covers (both bounds, so range overlap tests need no
/// neighbor peeking).
struct BlockHandle {
  uint64_t offset = 0;
  uint32_t size = 0;
  uint64_t checksum = 0;
  std::string first_entity;
  std::string first_attribute;
  std::string last_entity;
  std::string last_attribute;

  bool operator==(const BlockHandle&) const = default;
};

/// Decoded fixed-size footer.
struct SegmentFooter {
  uint64_t index_offset = 0;
  uint64_t index_size = 0;
  uint64_t index_checksum = 0;
  uint64_t bloom_offset = 0;
  uint64_t bloom_size = 0;
  uint64_t bloom_checksum = 0;
  uint64_t num_rows = 0;
  uint32_t num_blocks = 0;
  uint32_t bloom_bits_per_key = 0;
};

struct BlockSegmentWriterOptions {
  size_t block_size_bytes = 4096;
  size_t restart_interval = 16;
  /// 0 disables the bloom filter (the bloom block is empty).
  uint32_t bloom_bits_per_key = 10;
};

/// Zone stats measured while writing — the writer is the single source of
/// the manifest's SegmentInfo numbers, so Verify can recompute them from
/// the file and compare.
struct BlockSegmentBuildInfo {
  uint64_t num_rows = 0;
  uint64_t num_facts = 0;    ///< distinct (entity, attribute) pairs
  uint64_t num_sources = 0;  ///< distinct sources
  uint64_t num_positive = 0; ///< rows with observation == 1
  std::string min_entity;
  std::string max_entity;
  uint64_t min_seq = 0;
  uint64_t max_seq = 0;
  uint64_t file_bytes = 0;
  uint32_t num_blocks = 0;
};

/// Writes `rows` (which must be sorted in RowViewOrder and non-empty)
/// as a block segment at `path`, fsyncing before returning. Calls
/// FailpointCheck("segment-block-write:" + path) before each data block —
/// a mid-block-write crash leaves a torn, never-committed file for the
/// next Open's orphan reaper.
Result<BlockSegmentBuildInfo> WriteBlockSegment(
    const std::string& path, std::span<const RowView> rows,
    const BlockSegmentWriterOptions& options);

/// A fully parsed in-memory image: footer, index, bloom — with every data
/// block decoded and checksum-verified. The entry point the block-segment
/// fuzzer drives and Verify uses; it must reject every malformed byte
/// string with a non-OK Status, never crash or over-allocate.
struct ParsedBlockSegment {
  SegmentFooter footer;
  std::vector<BlockHandle> blocks;
  std::vector<SegmentRow> rows;  ///< all rows, in block order
};
Result<ParsedBlockSegment> ParseBlockSegmentFromBytes(std::string_view bytes,
                                                      const std::string& label);

/// Random-access reader over one segment file. Open() reads and verifies
/// only the footer, index, and bloom; data blocks are fetched on demand
/// (through the BlockCache when one is given) and verified against their
/// index checksum on every disk read.
///
/// Thread-safe for concurrent reads (stateless pread).
class BlockSegmentReader {
 public:
  /// `cache_id` keys this segment's blocks in the BlockCache — callers
  /// pass the manifest segment id, which is never reused.
  static Result<std::shared_ptr<BlockSegmentReader>> Open(
      const std::string& path, uint64_t cache_id);

  ~BlockSegmentReader();
  BlockSegmentReader(const BlockSegmentReader&) = delete;
  BlockSegmentReader& operator=(const BlockSegmentReader&) = delete;

  const SegmentFooter& footer() const { return footer_; }
  const std::vector<BlockHandle>& blocks() const { return blocks_; }
  uint64_t cache_id() const { return cache_id_; }

  /// Bloom probes; true when the filter is absent (never a false
  /// negative).
  bool MayContainEntity(std::string_view entity) const;
  bool MayContainFact(std::string_view entity,
                      std::string_view attribute) const;

  /// Block reads performed by one logical operation.
  struct ReadStats {
    uint64_t blocks_read = 0;        ///< decoded blocks (cache + disk)
    uint64_t blocks_from_cache = 0;  ///< of those, served from the cache
    uint64_t bytes_read = 0;         ///< bytes actually read from disk
  };

  /// Verified bytes of block `block_idx`, from the cache or one pread.
  Result<std::shared_ptr<const std::string>> ReadBlock(
      size_t block_idx, BlockCache* cache, ReadStats* stats) const;

  /// Appends to `out` views of every row of `entity` — the point-read
  /// path: block-index binary search, then BlockCursor::Seek inside the
  /// block, stopping when the entity changes; rows that run past the
  /// block's end continue in the next one. Entity views alias `entity`
  /// itself, so the caller's probe must outlive them.
  Status ReadEntityRows(std::string_view entity, BlockCache* cache,
                        ReadStats* stats, RowViews* out) const;

  /// Appends to `out` views of every row with entity in
  /// [*min_entity, *max_entity] (null = unbounded), reading only the
  /// index-selected blocks. Rows arrive in block (key) order, NOT seq
  /// order — the caller re-sorts by seq for replay.
  Status ScanRowsInRange(const std::string* min_entity,
                         const std::string* max_entity, BlockCache* cache,
                         ReadStats* stats, RowViews* out) const;

 private:
  BlockSegmentReader(std::string path, uint64_t cache_id);

  Status ReadRawBlock(const BlockHandle& handle, std::string* out) const;

  const std::string path_;
  const uint64_t cache_id_;
  int fd_ = -1;  ///< -1 on platforms without pread (falls back to ifstream)
  SegmentFooter footer_;
  std::vector<BlockHandle> blocks_;
  std::optional<BloomFilterView> bloom_;  ///< absent when bloom disabled
};

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_SEGMENT_H_
