// Fuzz target for the block-segment and manifest-log parsers — the two
// binary formats the store trusts at Open — and for the block seek that
// point reads run on every posterior-cache miss. Segment files carry a
// footer whose offsets/sizes/counts are all attacker-controllable on
// disk, so the parser must survive torn footers, forged index offsets,
// restart offsets pointing past the block or into the middle of an entry,
// restart entries that claim a shared prefix, allocation-bomb block/row
// counts, and checksum mismatches with a Status — never a crash, hang,
// or giant reserve. The same bytes are also fed to the MANIFEST record
// parser, which has its own torn-tail and count-bomb handling, and to
// the block cursor as one bare data block.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "store/block_format.h"
#include "store/manifest.h"
#include "store/segment.h"

namespace {

/// Seeks `entity` in `block`; true when the first row at or after it has
/// exactly that entity. A decode error counts as "not found".
bool SeekFinds(std::string_view block, size_t index, std::string_view entity) {
  auto cursor = ltm::store::BlockCursor::Parse(block, "fuzz-input", index);
  if (!cursor.ok()) return false;
  ltm::store::RowView row;
  auto found = cursor->Seek(entity, &row);
  return found.ok() && *found && row.entity == entity;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto segment = ltm::store::ParseBlockSegmentFromBytes(bytes, "fuzz-input");
  if (segment.ok()) {
    // Every block of a segment that parsed end to end is well formed, so
    // the seek must find the block's first and last entity (the index
    // keys the parse checked) and nothing past the last one.
    for (size_t i = 0; i < segment->blocks.size(); ++i) {
      const ltm::store::BlockHandle& h = segment->blocks[i];
      const std::string_view block = bytes.substr(h.offset, h.size);
      const std::string absent = h.last_entity + '\0';
      if (!SeekFinds(block, i, h.first_entity) ||
          !SeekFinds(block, i, h.last_entity)) {
        __builtin_trap();
      }
      auto cursor = ltm::store::BlockCursor::Parse(block, "fuzz-input", i);
      ltm::store::RowView row;
      auto past_end = cursor->Seek(absent, &row);
      if (!past_end.ok() || *past_end) __builtin_trap();
    }
  }
  auto manifest = ltm::store::LoadManifestFromBytes(bytes, "fuzz-input");
  if (manifest.ok()) {
    size_t total =
        manifest->manifest.segments.size() + manifest->records;
    (void)total;
  }
  // The whole input as one bare data block: a full decode, and seeks that
  // walk the restart binary search over whatever the trailer claims.
  auto block = ltm::store::BlockCursor::Parse(bytes, "fuzz-input");
  if (block.ok()) {
    ltm::store::RowView row;
    for (auto more = block->Next(&row); more.ok() && *more;
         more = block->Next(&row)) {
    }
    for (const std::string_view probe : {"", "m", "\xff\xff"}) {
      auto seek = ltm::store::BlockCursor::Parse(bytes, "fuzz-input");
      (void)seek->Seek(probe, &row);
    }
  }
  return 0;
}
