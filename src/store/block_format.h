#ifndef LTM_STORE_BLOCK_FORMAT_H_
#define LTM_STORE_BLOCK_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltm {
namespace store {

/// Restartable data-block encoding for block segments — the LevelDB idea
/// applied to claim rows. A block holds rows sorted by
/// (entity, attribute, seq); consecutive rows usually share an entity, so
/// the entity string is prefix-compressed against the previous row's.
/// Every `restart_interval` rows the full entity is stored again (a
/// restart point), which bounds how far a decoder must scan and lets a
/// seek binary-search the restart array instead of decoding from byte 0.
///
/// Entry encoding (little-endian, varint = LEB128):
///
///   varint32 entity_shared     bytes shared with the previous entity
///   varint32 entity_unshared   + that many entity bytes
///   varint32 attr_len          + attribute bytes
///   varint32 source_len        + source bytes
///   varint64 seq               global ingest sequence number
///   uint8    observation       1 = assertion (0 reserved)
///
/// Block trailer: restart offsets (uint32 each, ascending, first is 0),
/// then uint32 restart count. The per-block checksum lives in the segment
/// index entry, not in the block itself, so the index is the single
/// chain-of-trust root for data bytes.

/// One decoded claim row plus its global ingest sequence number. Seq
/// order across every segment *is* batch ingest order — sorting merged
/// rows by seq reproduces the exact replay order flat segments had, which
/// is what keeps LTM posteriors bit-identical (see TruthStore).
struct SegmentRow {
  std::string entity;
  std::string attribute;
  std::string source;
  uint64_t seq = 0;
  uint8_t observation = 1;

  bool operator==(const SegmentRow&) const = default;
};

/// One claim row as views into bytes someone else owns: a data block, a
/// pinned memtable record, a SegmentRow, or the caller's probe key.
/// Whoever hands out a RowView names the owner that keeps it valid.
struct RowView {
  std::string_view entity;
  std::string_view attribute;
  std::string_view source;
  uint64_t seq = 0;
  uint8_t observation = 1;
};

/// A view of `row`'s fields (valid while `row` is).
inline RowView ViewOf(const SegmentRow& row) {
  return RowView{row.entity, row.attribute, row.source, row.seq,
                 row.observation};
}

/// An owned copy of `row`.
inline SegmentRow CopyRow(const RowView& row) {
  return SegmentRow{std::string(row.entity), std::string(row.attribute),
                    std::string(row.source), row.seq, row.observation};
}

/// Ordering used everywhere a block or segment sorts rows:
/// (entity, attribute, seq).
inline bool RowViewOrder(const RowView& a, const RowView& b) {
  if (int c = a.entity.compare(b.entity); c != 0) return c < 0;
  if (int c = a.attribute.compare(b.attribute); c != 0) return c < 0;
  return a.seq < b.seq;
}
inline bool SegmentRowOrder(const SegmentRow& a, const SegmentRow& b) {
  return RowViewOrder(ViewOf(a), ViewOf(b));
}

void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);

/// Builds one data block. Add() must be called in RowViewOrder.
class BlockBuilder {
 public:
  explicit BlockBuilder(size_t restart_interval = 16);

  void Add(const RowView& row);

  /// Appends the restart trailer and returns the block bytes; Reset()
  /// starts the next block.
  std::string Finish();
  void Reset();

  /// Bytes the finished block would occupy (entries + trailer).
  size_t CurrentSizeEstimate() const;
  bool empty() const { return num_entries_ == 0; }
  size_t num_entries() const { return num_entries_; }

 private:
  const size_t restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  std::string last_entity_;
  size_t entries_since_restart_ = 0;
  size_t num_entries_ = 0;
};

/// RowViews plus shared ownership of the buffers they point into (data
/// blocks, chunks of copied entity keys). Copies share the buffers, so
/// every copy stays valid; views of bytes held elsewhere (pinned memtable
/// records, a probe key) are only as valid as that owner.
struct RowViews {
  std::vector<RowView> rows;
  std::vector<std::shared_ptr<const void>> buffers;
};

/// Bounds-checked decoder over one block's bytes — the only one: the
/// seek path of point reads, range scans, compaction and the segment
/// parse (via DecodeBlockRows) all run it. The block-segment fuzzer
/// drives it through ParseBlockSegmentFromBytes and Seek: it must return
/// rows or a non-OK Status for every byte string, never crash or
/// over-allocate.
///
/// Restart points are checked as they are crossed: every restart offset
/// must fall on an entry boundary, and the entry there must share no
/// prefix with its predecessor (shared == 0). Error messages name
/// `context` (and the block index, when given); they are formatted only
/// when a failure is returned.
class BlockCursor {
 public:
  static constexpr size_t kNoBlockIndex = static_cast<size_t>(-1);

  /// Validates the restart trailer (count fits, offsets ascending and
  /// in-bounds, first restart at 0) without touching entry bytes. The
  /// cursor views `block` and `context`; both must outlive it.
  static Result<BlockCursor> Parse(std::string_view block,
                                   std::string_view context,
                                   size_t block_index = kNoBlockIndex);

  /// Decodes the next row into `row`; false at end of block. A malformed
  /// entry fails with InvalidArgument. `row->entity` views the cursor's
  /// own key buffer (valid until the next Next/Seek); attribute and
  /// source view the block.
  Result<bool> Next(RowView* row);

  /// Binary-searches the restart array for the last restart whose entity
  /// sorts before `entity`, scans at most one restart interval from
  /// there, and decodes the first row whose entity is >= `entity` into
  /// `row`; false when no such row is in the block. Next() continues
  /// after it.
  Result<bool> Seek(std::string_view entity, RowView* row);

  size_t num_restarts() const { return num_restarts_; }

 private:
  BlockCursor(std::string_view entries, const char* restarts,
              size_t num_restarts, std::string_view context,
              size_t block_index)
      : entries_(entries),
        restarts_(restarts),
        num_restarts_(num_restarts),
        context_(context),
        block_index_(block_index) {}

  uint32_t RestartOffset(size_t i) const;
  /// The full entity stored at restart `i` (a view into the block).
  Result<std::string_view> RestartEntity(size_t i) const;
  /// InvalidArgument "corrupt block: <what> in <context>[ block <i>]".
  Status Corrupt(std::string_view what) const;

  std::string_view entries_;
  const char* restarts_;  ///< the uint32 restart offsets (unaligned)
  size_t num_restarts_;
  std::string_view context_;
  size_t block_index_;
  size_t pos_ = 0;
  /// First restart point not yet passed: the entry that starts at its
  /// offset must have shared == 0, and no entry may straddle it.
  size_t next_restart_ = 0;
  std::string entity_;
};

/// Decodes every row of `block` into owned rows — a copying wrapper over
/// BlockCursor for the segment parse and tests.
Result<std::vector<SegmentRow>> DecodeBlockRows(
    std::string_view block, std::string_view context,
    size_t block_index = BlockCursor::kNoBlockIndex);

}  // namespace store
}  // namespace ltm

#endif  // LTM_STORE_BLOCK_FORMAT_H_
