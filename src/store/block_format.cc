#include "store/block_format.h"

#include <cstring>

namespace ltm {
namespace store {

namespace {

/// LEB128 decode with strict bounds: at most 5 (u32) / 10 (u64) bytes,
/// always inside [pos, size). Failures return the reason only; the
/// cursor adds the context.
bool GetVarint(std::string_view data, size_t* pos, int max_bytes,
               uint64_t* out, const char** error) {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < max_bytes; ++i) {
    if (*pos >= data.size()) {
      *error = "truncated varint";
      return false;
    }
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  *error = "over-long varint";
  return false;
}

bool GetVarint32(std::string_view data, size_t* pos, uint32_t* out,
                 const char** error) {
  uint64_t v = 0;
  if (!GetVarint(data, pos, 5, &v, error)) return false;
  if (v > UINT32_MAX) {
    *error = "varint32 overflow";
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool GetBytes(std::string_view data, size_t* pos, size_t len,
              std::string_view* out, const char** error) {
  if (len > data.size() - *pos) {
    *error = "truncated entry bytes";
    return false;
  }
  *out = data.substr(*pos, len);
  *pos += len;
  return true;
}

/// Length-prefixed bytes: a varint32 length, then that many bytes.
bool GetLengthPrefixed(std::string_view data, size_t* pos,
                       std::string_view* out, const char** error) {
  uint32_t len = 0;
  return GetVarint32(data, pos, &len, error) &&
         GetBytes(data, pos, len, out, error);
}

}  // namespace

void PutVarint32(std::string* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

BlockBuilder::BlockBuilder(size_t restart_interval)
    : restart_interval_(restart_interval < 1 ? 1 : restart_interval) {}

void BlockBuilder::Add(const RowView& row) {
  size_t shared = 0;
  if (entries_since_restart_ >= restart_interval_ || num_entries_ == 0) {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    entries_since_restart_ = 0;
  } else {
    const size_t limit = std::min(last_entity_.size(), row.entity.size());
    while (shared < limit && last_entity_[shared] == row.entity[shared]) {
      ++shared;
    }
  }
  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(row.entity.size() - shared));
  buffer_.append(row.entity.substr(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(row.attribute.size()));
  buffer_.append(row.attribute);
  PutVarint32(&buffer_, static_cast<uint32_t>(row.source.size()));
  buffer_.append(row.source);
  PutVarint64(&buffer_, row.seq);
  buffer_.push_back(static_cast<char>(row.observation));
  last_entity_ = row.entity;
  ++entries_since_restart_;
  ++num_entries_;
}

std::string BlockBuilder::Finish() {
  for (const uint32_t offset : restarts_) {
    char buf[sizeof(uint32_t)];
    std::memcpy(buf, &offset, sizeof(offset));
    buffer_.append(buf, sizeof(buf));
  }
  const uint32_t count = static_cast<uint32_t>(restarts_.size());
  char buf[sizeof(uint32_t)];
  std::memcpy(buf, &count, sizeof(count));
  buffer_.append(buf, sizeof(buf));
  std::string out = std::move(buffer_);
  Reset();
  return out;
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  last_entity_.clear();
  entries_since_restart_ = 0;
  num_entries_ = 0;
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) +
         sizeof(uint32_t);
}

Result<BlockCursor> BlockCursor::Parse(std::string_view block,
                                       std::string_view context,
                                       size_t block_index) {
  const BlockCursor unparsed(std::string_view(), nullptr, 0, context,
                             block_index);
  if (block.size() < sizeof(uint32_t)) {
    return unparsed.Corrupt("shorter than the restart trailer");
  }
  uint32_t num_restarts = 0;
  std::memcpy(&num_restarts, block.data() + block.size() - sizeof(uint32_t),
              sizeof(num_restarts));
  const size_t trailer =
      (static_cast<size_t>(num_restarts) + 1) * sizeof(uint32_t);
  // The count is untrusted: checked against the bytes actually present so
  // a forged value cannot push the entries window negative or huge.
  if (trailer > block.size()) {
    return unparsed.Corrupt("restart count " + std::to_string(num_restarts) +
                            " larger than the block");
  }
  const size_t entries_size = block.size() - trailer;
  const char* restart_base = block.data() + entries_size;
  uint32_t prev = 0;
  for (uint32_t i = 0; i < num_restarts; ++i) {
    uint32_t offset = 0;
    std::memcpy(&offset, restart_base + i * sizeof(uint32_t), sizeof(offset));
    if (offset >= entries_size || (i == 0 && offset != 0) ||
        (i > 0 && offset <= prev)) {
      return unparsed.Corrupt("bad restart offset " + std::to_string(offset) +
                              " at index " + std::to_string(i));
    }
    prev = offset;
  }
  if (num_restarts == 0 && entries_size != 0) {
    return unparsed.Corrupt("entry bytes with no restart points");
  }
  return BlockCursor(block.substr(0, entries_size), restart_base,
                     num_restarts, context, block_index);
}

Status BlockCursor::Corrupt(std::string_view what) const {
  std::string msg = "corrupt block: ";
  msg.append(what);
  msg += " in ";
  msg.append(context_);
  if (block_index_ != kNoBlockIndex) {
    msg += " block " + std::to_string(block_index_);
  }
  return Status::InvalidArgument(std::move(msg));
}

uint32_t BlockCursor::RestartOffset(size_t i) const {
  uint32_t offset = 0;
  std::memcpy(&offset, restarts_ + i * sizeof(uint32_t), sizeof(offset));
  return offset;
}

Result<std::string_view> BlockCursor::RestartEntity(size_t i) const {
  size_t pos = RestartOffset(i);
  const char* error = nullptr;
  uint32_t shared = 0;
  uint32_t unshared = 0;
  std::string_view entity;
  if (!GetVarint32(entries_, &pos, &shared, &error) ||
      !GetVarint32(entries_, &pos, &unshared, &error) ||
      !GetBytes(entries_, &pos, unshared, &entity, &error)) {
    return Corrupt(error);
  }
  if (shared != 0) {
    return Corrupt("restart entry " + std::to_string(i) + " shares " +
                   std::to_string(shared) + " prefix byte(s)");
  }
  return entity;
}

Result<bool> BlockCursor::Next(RowView* row) {
  if (pos_ >= entries_.size()) {
    // Every restart offset must have been crossed on an entry boundary.
    if (next_restart_ < num_restarts_) {
      return Corrupt("restart offset " +
                     std::to_string(RestartOffset(next_restart_)) +
                     " points inside an entry");
    }
    return false;
  }
  bool at_restart = false;
  if (next_restart_ < num_restarts_) {
    const uint32_t restart = RestartOffset(next_restart_);
    if (restart < pos_) {
      return Corrupt("restart offset " + std::to_string(restart) +
                     " points inside an entry");
    }
    if (restart == pos_) {
      at_restart = true;
      ++next_restart_;
    }
  }
  const char* error = nullptr;
  uint32_t shared = 0;
  uint32_t unshared = 0;
  std::string_view entity_tail;
  if (!GetVarint32(entries_, &pos_, &shared, &error) ||
      !GetVarint32(entries_, &pos_, &unshared, &error)) {
    return Corrupt(error);
  }
  if (at_restart && shared != 0) {
    return Corrupt("restart entry shares " + std::to_string(shared) +
                   " prefix byte(s)");
  }
  if (shared > entity_.size()) {
    return Corrupt("shared prefix " + std::to_string(shared) +
                   " exceeds previous entity length");
  }
  uint64_t seq = 0;
  if (!GetBytes(entries_, &pos_, unshared, &entity_tail, &error) ||
      !GetLengthPrefixed(entries_, &pos_, &row->attribute, &error) ||
      !GetLengthPrefixed(entries_, &pos_, &row->source, &error) ||
      !GetVarint(entries_, &pos_, 10, &seq, &error)) {
    return Corrupt(error);
  }
  if (pos_ == entries_.size()) {
    return Corrupt("entry missing observation byte");
  }
  entity_.resize(shared);
  entity_.append(entity_tail);
  row->entity = entity_;
  row->seq = seq;
  row->observation = static_cast<uint8_t>(entries_[pos_++]);
  return true;
}

Result<bool> BlockCursor::Seek(std::string_view entity, RowView* row) {
  // First restart whose entity is >= the probe; the probe's first row
  // then lies in the interval before it (or at it).
  size_t lo = 0;
  size_t hi = num_restarts_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    LTM_ASSIGN_OR_RETURN(const std::string_view key, RestartEntity(mid));
    if (key < entity) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t start = lo == 0 ? 0 : lo - 1;
  pos_ = num_restarts_ == 0 ? entries_.size() : RestartOffset(start);
  next_restart_ = start;
  entity_.clear();
  while (true) {
    LTM_ASSIGN_OR_RETURN(const bool more, Next(row));
    if (!more || row->entity >= entity) return more;
  }
}

Result<std::vector<SegmentRow>> DecodeBlockRows(std::string_view block,
                                                std::string_view context,
                                                size_t block_index) {
  LTM_ASSIGN_OR_RETURN(BlockCursor cursor,
                       BlockCursor::Parse(block, context, block_index));
  std::vector<SegmentRow> rows;
  RowView row;
  while (true) {
    LTM_ASSIGN_OR_RETURN(const bool more, cursor.Next(&row));
    if (!more) break;
    rows.push_back(CopyRow(row));
  }
  return rows;
}

}  // namespace store
}  // namespace ltm
