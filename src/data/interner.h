#ifndef LTM_DATA_INTERNER_H_
#define LTM_DATA_INTERNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ltm {

/// Bidirectional string <-> dense-id dictionary. Ids are handed out
/// contiguously from 0 in first-seen order, so they can index plain vectors
/// (dictionary encoding, the standard columnar idiom). Not thread-safe.
class StringInterner {
 public:
  StringInterner() = default;

  /// Returns the id for `s`, interning it if unseen.
  uint32_t Intern(std::string_view s);

  /// Returns the id for `s` if already interned.
  std::optional<uint32_t> Find(std::string_view s) const;

  /// Returns the string for an id; id must be < size().
  std::string_view Get(uint32_t id) const { return strings_[id]; }

  size_t size() const { return strings_.size(); }
  bool empty() const { return strings_.empty(); }

  /// All interned strings in id order.
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  /// Transparent hash: with std::equal_to<> it lets Intern/Find look a
  /// string_view up without building a temporary std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
};

}  // namespace ltm

#endif  // LTM_DATA_INTERNER_H_
