#include "data/interner.h"

namespace ltm {

uint32_t StringInterner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

std::optional<uint32_t> StringInterner::Find(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ltm
