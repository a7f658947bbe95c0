#ifndef LSENS_STORAGE_DICTIONARY_H_
#define LSENS_STORAGE_DICTIONARY_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/value.h"

namespace lsens {

// Interns string attribute values as Values so relations stay flat int64
// rows. Used by examples and workloads with symbolic domains (e.g. the
// Figure 1 database: a1, b2, ...).
//
// Codes start at kBase (10^12) so they never collide with ordinary integer
// data in the same column — ContainsValue() can then reliably distinguish
// interned strings from raw numbers (the CSV layer depends on this when
// rendering mixed columns).
//
// Codes are append-only and stable: interning never renumbers. A database
// copy (Database::Clone/CloneSnapshot) shares its source's dictionary until
// one side interns, which copies the dictionary first (Database::dict()),
// so both stay coherent — a code interned *before* the copy decodes to the
// same string in both, while a code interned afterwards is simply absent
// from the other side (ContainsValue range-checks against that side's own
// size and returns false rather than mis-decoding). The serving layer
// relies on exactly this: epoch snapshots render the codes their epoch
// knew, and a post-publish intern becomes renderable with the next epoch.
class Dictionary {
 public:
  static constexpr Value kBase = 1'000'000'000'000;

  Dictionary() = default;

  // Returns the Value encoding `s`, interning on first use.
  Value Intern(std::string_view s);

  // Returns the encoding or -1 if absent.
  Value Lookup(std::string_view s) const;

  // String for a previously interned value; CHECK-fails otherwise.
  const std::string& String(Value v) const;

  bool ContainsValue(Value v) const {
    return v >= kBase &&
           static_cast<size_t>(v - kBase) < strings_.size();
  }

  size_t size() const { return strings_.size(); }

  // Bytes held by the interned strings and both index structures, for the
  // same epoch/footprint accounting as Relation::MemoryBytes.
  size_t MemoryBytes() const;

 private:
  // Heterogeneous hash/eq so Intern/Lookup probe with the string_view
  // directly instead of allocating a temporary std::string per call.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct StringEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  std::vector<std::string> strings_;
  // lsens-lint: allow(unordered-iter) lookup-only interning table; the
  // ordered view is strings_ (code order) — iterate that instead.
  std::unordered_map<std::string, Value, StringHash, StringEq> values_;
};

}  // namespace lsens

#endif  // LSENS_STORAGE_DICTIONARY_H_
