#include "store/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "common/failpoint.h"
#include "common/fs_util.h"
#include "common/hash.h"
#include "store/record_io.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#define LTM_HAVE_PREAD 1
#endif

namespace ltm {
namespace store {

namespace {

/// Minimum encoded index entry: u64 offset + u32 size + u64 checksum +
/// four u32 string length prefixes. Guards the reserve against a forged
/// entry count.
constexpr uint64_t kMinIndexEntryBytes = 8 + 4 + 8 + 4 * 4;

std::string EncodeFooter(const SegmentFooter& f) {
  ByteWriter w;
  w.PutU64(f.index_offset);
  w.PutU64(f.index_size);
  w.PutU64(f.index_checksum);
  w.PutU64(f.bloom_offset);
  w.PutU64(f.bloom_size);
  w.PutU64(f.bloom_checksum);
  w.PutU64(f.num_rows);
  w.PutU32(f.num_blocks);
  w.PutU32(f.bloom_bits_per_key);
  std::string out = w.bytes();
  const uint64_t checksum = Fnv1a64(out);
  char tail[16];
  std::memcpy(tail, &checksum, sizeof(checksum));
  const uint32_t version = kSegmentFormatVersion;
  std::memcpy(tail + 8, &version, sizeof(version));
  std::memcpy(tail + 12, kSegmentMagic, 4);
  out.append(tail, sizeof(tail));
  return out;
}

Result<SegmentFooter> DecodeFooter(std::string_view footer_bytes,
                                   uint64_t file_size,
                                   const std::string& label) {
  if (footer_bytes.size() != kSegmentFooterSize) {
    return Status::InvalidArgument("corrupt segment: footer is " +
                                   std::to_string(footer_bytes.size()) +
                                   " bytes, want 80: " + label);
  }
  if (std::memcmp(footer_bytes.data() + kSegmentFooterSize - 4, kSegmentMagic,
                  4) != 0) {
    return Status::InvalidArgument("corrupt segment: bad magic: " + label);
  }
  uint32_t version = 0;
  std::memcpy(&version, footer_bytes.data() + kSegmentFooterSize - 8,
              sizeof(version));
  if (version != kSegmentFormatVersion) {
    return Status::InvalidArgument("unsupported segment format version " +
                                   std::to_string(version) + ": " + label);
  }
  uint64_t expected = 0;
  std::memcpy(&expected, footer_bytes.data() + kSegmentFooterSize - 16,
              sizeof(expected));
  if (Fnv1a64(footer_bytes.data(), kSegmentFooterSize - 16) != expected) {
    return Status::InvalidArgument(
        "corrupt segment: footer checksum mismatch: " + label);
  }
  ByteReader r(footer_bytes.data(), kSegmentFooterSize - 16);
  SegmentFooter f;
  LTM_ASSIGN_OR_RETURN(f.index_offset, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.index_size, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.index_checksum, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.bloom_offset, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.bloom_size, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.bloom_checksum, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.num_rows, r.GetU64());
  LTM_ASSIGN_OR_RETURN(f.num_blocks, r.GetU32());
  LTM_ASSIGN_OR_RETURN(f.bloom_bits_per_key, r.GetU32());
  const uint64_t body = file_size - kSegmentFooterSize;
  if (f.index_offset > body || f.index_size > body - f.index_offset ||
      f.bloom_offset > body || f.bloom_size > body - f.bloom_offset ||
      f.bloom_offset < f.index_offset + f.index_size ||
      f.index_size > UINT32_MAX || f.bloom_size > UINT32_MAX) {
    return Status::InvalidArgument(
        "corrupt segment: footer offsets outside the file: " + label);
  }
  return f;
}

Result<std::vector<BlockHandle>> DecodeIndex(std::string_view index_bytes,
                                             const SegmentFooter& footer,
                                             const std::string& label) {
  if (Fnv1a64(index_bytes) != footer.index_checksum) {
    return Status::InvalidArgument(
        "corrupt segment: index checksum mismatch: " + label);
  }
  ByteReader r(index_bytes.data(), index_bytes.size());
  LTM_ASSIGN_OR_RETURN(const uint32_t num_entries, r.GetU32());
  if (num_entries != footer.num_blocks) {
    return Status::InvalidArgument(
        "corrupt segment: index holds " + std::to_string(num_entries) +
        " entries but the footer says " + std::to_string(footer.num_blocks) +
        " blocks: " + label);
  }
  // Checked against the bytes actually present BEFORE the reserve, so a
  // forged count cannot size a multi-gigabyte allocation.
  if (num_entries > r.Remaining() / kMinIndexEntryBytes) {
    return Status::InvalidArgument(
        "corrupt segment: index entry count larger than the index block: " +
        label);
  }
  std::vector<BlockHandle> handles;
  handles.reserve(num_entries);
  uint64_t prev_end = 0;
  for (uint32_t i = 0; i < num_entries; ++i) {
    BlockHandle h;
    LTM_ASSIGN_OR_RETURN(h.offset, r.GetU64());
    LTM_ASSIGN_OR_RETURN(h.size, r.GetU32());
    LTM_ASSIGN_OR_RETURN(h.checksum, r.GetU64());
    LTM_ASSIGN_OR_RETURN(h.first_entity, r.GetString());
    LTM_ASSIGN_OR_RETURN(h.first_attribute, r.GetString());
    LTM_ASSIGN_OR_RETURN(h.last_entity, r.GetString());
    LTM_ASSIGN_OR_RETURN(h.last_attribute, r.GetString());
    if (h.offset != prev_end || h.size == 0 ||
        h.offset + h.size > footer.index_offset) {
      return Status::InvalidArgument(
          "corrupt segment: block " + std::to_string(i) +
          " offset/size outside the data region: " + label);
    }
    prev_end = h.offset + h.size;
    handles.push_back(std::move(h));
  }
  if (r.Remaining() != 0) {
    return Status::InvalidArgument("corrupt segment: " +
                                   std::to_string(r.Remaining()) +
                                   " trailing index bytes: " + label);
  }
  if (prev_end != footer.index_offset) {
    return Status::InvalidArgument(
        "corrupt segment: data region does not end at the index: " + label);
  }
  return handles;
}

Result<std::optional<BloomFilterView>> DecodeBloom(std::string_view bloom_bytes,
                                                   const SegmentFooter& footer,
                                                   const std::string& label) {
  if (Fnv1a64(bloom_bytes) != footer.bloom_checksum) {
    return Status::InvalidArgument(
        "corrupt segment: bloom checksum mismatch: " + label);
  }
  if (bloom_bytes.empty()) return std::optional<BloomFilterView>();
  Result<BloomFilterView> view = BloomFilterView::FromBytes(bloom_bytes);
  if (!view.ok()) {
    return Status::InvalidArgument(view.status().message() + ": " + label);
  }
  return std::optional<BloomFilterView>(std::move(view).value());
}

/// First block that could contain `entity` (its last_entity >= entity);
/// handles are sorted by key range.
size_t LowerBoundBlock(const std::vector<BlockHandle>& blocks,
                       std::string_view entity) {
  size_t lo = 0;
  size_t hi = blocks.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (blocks[mid].last_entity < entity) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Append-only storage for the entity keys a range scan copies out of
/// the cursor's buffer: chunks that never move once allocated, doubling
/// in size so a scan makes a handful of allocations, not one per entity.
/// Each chunk joins `out->buffers`.
class KeyArena {
 public:
  explicit KeyArena(RowViews* out) : out_(out) {}

  std::string_view Copy(std::string_view key) {
    if (chunk_ == nullptr || capacity_ - used_ < key.size()) {
      capacity_ = std::max(2 * capacity_, key.size());
      chunk_ = std::make_shared_for_overwrite<char[]>(capacity_);
      used_ = 0;
      out_->buffers.push_back(chunk_);
    }
    char* at = chunk_.get() + used_;
    key.copy(at, key.size());
    used_ += key.size();
    return std::string_view(at, key.size());
  }

 private:
  RowViews* out_;
  std::shared_ptr<char[]> chunk_;
  size_t capacity_ = 2048;  ///< the first chunk gets twice this
  size_t used_ = 0;
};

/// Appends views of the rows of `block` (block `index` of the segment
/// named by `context`) whose entity lies in [*min_entity, *max_entity]
/// (null = unbounded). The cursor's entity buffer changes on every row,
/// so each distinct in-range entity gets one copy in `keys` for the
/// views to point at; the block joins out->buffers.
Status AppendBlockRows(std::shared_ptr<const std::string> block,
                       std::string_view context, size_t index,
                       const std::string* min_entity,
                       const std::string* max_entity, KeyArena* keys,
                       RowViews* out) {
  LTM_ASSIGN_OR_RETURN(BlockCursor cursor,
                       BlockCursor::Parse(*block, context, index));
  std::string_view key;
  RowView row;
  const size_t before = out->rows.size();
  while (true) {
    LTM_ASSIGN_OR_RETURN(const bool more, cursor.Next(&row));
    if (!more) break;
    if (min_entity != nullptr && row.entity < *min_entity) continue;
    if (max_entity != nullptr && row.entity > *max_entity) break;
    if (out->rows.size() == before || key != row.entity) {
      key = keys->Copy(row.entity);
    }
    row.entity = key;
    out->rows.push_back(row);
  }
  if (out->rows.size() > before) out->buffers.push_back(std::move(block));
  return Status::OK();
}

}  // namespace

Result<BlockSegmentBuildInfo> WriteBlockSegment(
    const std::string& path, std::span<const RowView> rows,
    const BlockSegmentWriterOptions& options) {
  if (rows.empty()) {
    return Status::InvalidArgument("refusing to write an empty segment: " +
                                   path);
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (RowViewOrder(rows[i], rows[i - 1])) {
      return Status::InvalidArgument(
          "segment rows not sorted at index " + std::to_string(i) + ": " +
          path);
    }
  }

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create segment file: " + path);
  }
  // Any failure below leaves a torn, never-committed file; the next
  // Open's orphan reaper removes it, exactly like a crash here.
  const auto fail = [&](Status st) {
    std::fclose(file);
    return st;
  };
  const auto write_chunk = [&](std::string_view bytes) -> Status {
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
      return Status::IOError("segment write failed: " + path);
    }
    return Status::OK();
  };

  BlockSegmentBuildInfo info;
  BloomFilterBuilder bloom(options.bloom_bits_per_key == 0
                               ? 1
                               : options.bloom_bits_per_key);
  BlockBuilder builder(options.restart_interval);
  ByteWriter index_entries;
  uint64_t data_offset = 0;
  uint32_t num_blocks = 0;
  size_t block_first_row = 0;
  std::unordered_set<std::string_view> sources;

  const auto flush_block = [&](size_t end_row) -> Status {
    Status inject = FailpointCheck("segment-block-write:" + path);
    if (!inject.ok()) return inject;
    const std::string block = builder.Finish();
    LTM_RETURN_IF_ERROR(write_chunk(block));
    index_entries.PutU64(data_offset);
    index_entries.PutU32(static_cast<uint32_t>(block.size()));
    index_entries.PutU64(Fnv1a64(block));
    index_entries.PutString(rows[block_first_row].entity);
    index_entries.PutString(rows[block_first_row].attribute);
    index_entries.PutString(rows[end_row - 1].entity);
    index_entries.PutString(rows[end_row - 1].attribute);
    data_offset += block.size();
    ++num_blocks;
    block_first_row = end_row;
    return Status::OK();
  };

  for (size_t i = 0; i < rows.size(); ++i) {
    const RowView& row = rows[i];
    builder.Add(row);
    if (builder.CurrentSizeEstimate() >= options.block_size_bytes &&
        i + 1 < rows.size()) {
      Status st = flush_block(i + 1);
      if (!st.ok()) return fail(std::move(st));
    }
    // Zone stats + bloom keys; rows are sorted, so a new entity or fact
    // shows up exactly when it differs from the previous row's.
    if (i == 0 || row.entity != rows[i - 1].entity) {
      if (options.bloom_bits_per_key > 0) bloom.AddKey(row.entity);
    }
    if (i == 0 || row.entity != rows[i - 1].entity ||
        row.attribute != rows[i - 1].attribute) {
      ++info.num_facts;
      if (options.bloom_bits_per_key > 0) {
        bloom.AddKey(FactBloomKey(row.entity, row.attribute));
      }
    }
    sources.insert(row.source);
    if (row.observation == 1) ++info.num_positive;
    if (i == 0 || row.seq < info.min_seq) info.min_seq = row.seq;
    if (i == 0 || row.seq > info.max_seq) info.max_seq = row.seq;
  }
  if (!builder.empty()) {
    Status st = flush_block(rows.size());
    if (!st.ok()) return fail(std::move(st));
  }

  info.num_rows = rows.size();
  info.num_sources = sources.size();
  info.min_entity = std::string(rows.front().entity);
  info.max_entity = std::string(rows.back().entity);
  info.num_blocks = num_blocks;

  ByteWriter index_header;
  index_header.PutU32(num_blocks);
  const std::string index_block = index_header.bytes() + index_entries.bytes();
  const std::string bloom_block =
      options.bloom_bits_per_key > 0 ? bloom.Finish() : std::string();

  SegmentFooter footer;
  footer.index_offset = data_offset;
  footer.index_size = index_block.size();
  footer.index_checksum = Fnv1a64(index_block);
  footer.bloom_offset = data_offset + index_block.size();
  footer.bloom_size = bloom_block.size();
  footer.bloom_checksum = Fnv1a64(bloom_block);
  footer.num_rows = info.num_rows;
  footer.num_blocks = num_blocks;
  footer.bloom_bits_per_key = options.bloom_bits_per_key;

  Status st = write_chunk(index_block);
  if (!st.ok()) return fail(std::move(st));
  st = write_chunk(bloom_block);
  if (!st.ok()) return fail(std::move(st));
  st = write_chunk(EncodeFooter(footer));
  if (!st.ok()) return fail(std::move(st));

  if (std::fflush(file) != 0) {
    return fail(Status::IOError("segment flush failed: " + path));
  }
#if defined(LTM_HAVE_PREAD)
  st = FsyncFd(::fileno(file), path);
  if (!st.ok()) return fail(std::move(st));
#endif
  if (std::fclose(file) != 0) {
    return Status::IOError("segment close failed: " + path);
  }
  info.file_bytes = footer.bloom_offset + bloom_block.size() +
                    kSegmentFooterSize;
  return info;
}

Result<ParsedBlockSegment> ParseBlockSegmentFromBytes(
    std::string_view bytes, const std::string& label) {
  if (bytes.size() < kSegmentFooterSize) {
    return Status::InvalidArgument(
        "corrupt segment: shorter than the footer: " + label);
  }
  ParsedBlockSegment parsed;
  LTM_ASSIGN_OR_RETURN(
      parsed.footer,
      DecodeFooter(bytes.substr(bytes.size() - kSegmentFooterSize),
                   bytes.size(), label));
  const SegmentFooter& f = parsed.footer;
  LTM_ASSIGN_OR_RETURN(
      parsed.blocks,
      DecodeIndex(bytes.substr(f.index_offset, f.index_size), f, label));
  LTM_ASSIGN_OR_RETURN(
      const std::optional<BloomFilterView> bloom,
      DecodeBloom(bytes.substr(f.bloom_offset, f.bloom_size), f, label));
  (void)bloom;
  uint64_t rows_seen = 0;
  for (size_t i = 0; i < parsed.blocks.size(); ++i) {
    const BlockHandle& h = parsed.blocks[i];
    const std::string_view block = bytes.substr(h.offset, h.size);
    if (Fnv1a64(block) != h.checksum) {
      return Status::InvalidArgument("corrupt segment: block " +
                                     std::to_string(i) +
                                     " checksum mismatch: " + label);
    }
    LTM_ASSIGN_OR_RETURN(std::vector<SegmentRow> rows,
                         DecodeBlockRows(block, label, i));
    rows_seen += rows.size();
    if (rows.empty() || rows.front().entity != h.first_entity ||
        rows.front().attribute != h.first_attribute ||
        rows.back().entity != h.last_entity ||
        rows.back().attribute != h.last_attribute) {
      return Status::InvalidArgument(
          "corrupt segment: block " + std::to_string(i) +
          " keys do not match its index entry: " + label);
    }
    for (SegmentRow& row : rows) parsed.rows.push_back(std::move(row));
  }
  if (rows_seen != f.num_rows) {
    return Status::InvalidArgument(
        "corrupt segment: blocks hold " + std::to_string(rows_seen) +
        " rows but the footer says " + std::to_string(f.num_rows) + ": " +
        label);
  }
  for (size_t i = 1; i < parsed.rows.size(); ++i) {
    if (SegmentRowOrder(parsed.rows[i], parsed.rows[i - 1])) {
      return Status::InvalidArgument(
          "corrupt segment: rows out of order at index " + std::to_string(i) +
          ": " + label);
    }
  }
  return parsed;
}

BlockSegmentReader::BlockSegmentReader(std::string path, uint64_t cache_id)
    : path_(std::move(path)), cache_id_(cache_id) {}

BlockSegmentReader::~BlockSegmentReader() {
#if defined(LTM_HAVE_PREAD)
  if (fd_ >= 0) ::close(fd_);
#endif
}

Result<std::shared_ptr<BlockSegmentReader>> BlockSegmentReader::Open(
    const std::string& path, uint64_t cache_id) {
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IOError("cannot stat segment file " + path + ": " +
                           ec.message());
  }
  if (file_size < kSegmentFooterSize) {
    return Status::InvalidArgument(
        "corrupt segment: shorter than the footer: " + path);
  }
  std::shared_ptr<BlockSegmentReader> reader(
      new BlockSegmentReader(path, cache_id));
#if defined(LTM_HAVE_PREAD)
  reader->fd_ = ::open(path.c_str(), O_RDONLY);
  if (reader->fd_ < 0) {
    return Status::IOError("cannot open segment file: " + path);
  }
#endif
  const auto read_at = [&](uint64_t offset, size_t size,
                           std::string* out) -> Status {
    BlockHandle h;
    h.offset = offset;
    h.size = static_cast<uint32_t>(size);
    h.checksum = 0;  // caller verifies
    return reader->ReadRawBlock(h, out);
  };

  std::string footer_bytes;
  LTM_RETURN_IF_ERROR(
      read_at(file_size - kSegmentFooterSize, kSegmentFooterSize,
              &footer_bytes));
  LTM_ASSIGN_OR_RETURN(reader->footer_,
                       DecodeFooter(footer_bytes, file_size, path));
  std::string index_bytes;
  LTM_RETURN_IF_ERROR(read_at(reader->footer_.index_offset,
                              reader->footer_.index_size, &index_bytes));
  LTM_ASSIGN_OR_RETURN(reader->blocks_,
                       DecodeIndex(index_bytes, reader->footer_, path));
  std::string bloom_bytes;
  LTM_RETURN_IF_ERROR(read_at(reader->footer_.bloom_offset,
                              reader->footer_.bloom_size, &bloom_bytes));
  LTM_ASSIGN_OR_RETURN(reader->bloom_,
                       DecodeBloom(bloom_bytes, reader->footer_, path));
  return reader;
}

bool BlockSegmentReader::MayContainEntity(std::string_view entity) const {
  return !bloom_.has_value() || bloom_->MayContain(entity);
}

bool BlockSegmentReader::MayContainFact(std::string_view entity,
                                        std::string_view attribute) const {
  if (!bloom_.has_value()) return true;
  // Every serving miss probes here: build the key on the stack when it
  // fits, with the same bytes FactBloomKey writes.
  char buf[128];
  const size_t size = entity.size() + 1 + attribute.size();
  if (size > sizeof(buf)) {
    return bloom_->MayContain(FactBloomKey(entity, attribute));
  }
  entity.copy(buf, entity.size());
  buf[entity.size()] = '\t';
  attribute.copy(buf + entity.size() + 1, attribute.size());
  return bloom_->MayContain(std::string_view(buf, size));
}

Status BlockSegmentReader::ReadRawBlock(const BlockHandle& handle,
                                        std::string* out) const {
  out->resize(handle.size);
#if defined(LTM_HAVE_PREAD)
  size_t done = 0;
  while (done < handle.size) {
    const ssize_t n = ::pread(fd_, out->data() + done, handle.size - done,
                              static_cast<off_t>(handle.offset + done));
    if (n < 0) return Status::IOError("segment pread failed: " + path_);
    if (n == 0) {
      return Status::InvalidArgument(
          "corrupt segment: unexpected EOF at offset " +
          std::to_string(handle.offset + done) + ": " + path_);
    }
    done += static_cast<size_t>(n);
  }
#else
  std::ifstream in(path_, std::ios::binary);
  if (!in) return Status::IOError("cannot open segment file: " + path_);
  in.seekg(static_cast<std::streamoff>(handle.offset));
  in.read(out->data(), static_cast<std::streamsize>(handle.size));
  if (in.gcount() != static_cast<std::streamsize>(handle.size)) {
    return Status::InvalidArgument("corrupt segment: short read at offset " +
                                   std::to_string(handle.offset) + ": " +
                                   path_);
  }
#endif
  return Status::OK();
}

Result<std::shared_ptr<const std::string>> BlockSegmentReader::ReadBlock(
    size_t block_idx, BlockCache* cache, ReadStats* stats) const {
  const BlockHandle& handle = blocks_[block_idx];
  if (cache != nullptr) {
    if (std::shared_ptr<const std::string> hit =
            cache->Get(cache_id_, handle.offset)) {
      if (stats != nullptr) {
        ++stats->blocks_read;
        ++stats->blocks_from_cache;
      }
      return hit;
    }
  }
  auto block = std::make_shared<std::string>();
  LTM_RETURN_IF_ERROR(ReadRawBlock(handle, block.get()));
  if (Fnv1a64(*block) != handle.checksum) {
    return Status::InvalidArgument(
        "corrupt segment: block " + std::to_string(block_idx) +
        " checksum mismatch: " + path_);
  }
  if (stats != nullptr) {
    ++stats->blocks_read;
    stats->bytes_read += block->size();
  }
  std::shared_ptr<const std::string> shared = std::move(block);
  if (cache != nullptr) cache->Insert(cache_id_, handle.offset, shared);
  return shared;
}

Status BlockSegmentReader::ReadEntityRows(std::string_view entity,
                                          BlockCache* cache, ReadStats* stats,
                                          RowViews* out) const {
  for (size_t i = LowerBoundBlock(blocks_, entity); i < blocks_.size(); ++i) {
    if (blocks_[i].first_entity > entity) break;
    LTM_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                         ReadBlock(i, cache, stats));
    LTM_ASSIGN_OR_RETURN(BlockCursor cursor,
                         BlockCursor::Parse(*block, path_, i));
    RowView row;
    LTM_ASSIGN_OR_RETURN(bool more, cursor.Seek(entity, &row));
    const size_t before = out->rows.size();
    while (more && row.entity == entity) {
      row.entity = entity;  // the probe outlives the cursor's key buffer
      out->rows.push_back(row);
      LTM_ASSIGN_OR_RETURN(more, cursor.Next(&row));
    }
    if (out->rows.size() > before) out->buffers.push_back(std::move(block));
    // Still on the entity at the block's end: its rows may continue in
    // the next block (whose first_entity the loop condition checks).
    if (more) break;
  }
  return Status::OK();
}

Status BlockSegmentReader::ScanRowsInRange(const std::string* min_entity,
                                           const std::string* max_entity,
                                           BlockCache* cache, ReadStats* stats,
                                           RowViews* out) const {
  const size_t first =
      min_entity != nullptr ? LowerBoundBlock(blocks_, *min_entity) : 0;
  KeyArena keys(out);
  for (size_t i = first; i < blocks_.size(); ++i) {
    if (max_entity != nullptr && blocks_[i].first_entity > *max_entity) break;
    LTM_ASSIGN_OR_RETURN(std::shared_ptr<const std::string> block,
                         ReadBlock(i, cache, stats));
    LTM_RETURN_IF_ERROR(AppendBlockRows(std::move(block), path_, i,
                                        min_entity, max_entity, &keys, out));
  }
  return Status::OK();
}

}  // namespace store
}  // namespace ltm
