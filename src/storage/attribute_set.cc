#include "storage/attribute_set.h"

#include <algorithm>

namespace lsens {

AttributeSet MakeAttributeSet(std::vector<AttrId> attrs) {
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

bool IsValidAttributeSet(const AttributeSet& set) {
  for (size_t i = 1; i < set.size(); ++i) {
    if (set[i - 1] >= set[i]) return false;
  }
  return true;
}

AttributeSet Union(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

AttributeSet Intersect(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

AttributeSet Difference(const AttributeSet& a, const AttributeSet& b) {
  AttributeSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool Contains(const AttributeSet& set, AttrId attr) {
  return std::binary_search(set.begin(), set.end(), attr);
}

bool IsSubset(const AttributeSet& sub, const AttributeSet& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool Intersects(const AttributeSet& a, const AttributeSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

std::vector<std::vector<size_t>> ConnectivityComponents(
    const std::vector<AttributeSet>& link) {
  const size_t n = link.size();
  std::vector<size_t> parent(n);
  for (size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (Intersects(link[i], link[j])) parent[find(i)] = find(j);
    }
  }
  std::vector<std::vector<size_t>> components;
  std::vector<int> comp_of(n, -1);
  for (size_t i = 0; i < n; ++i) {
    size_t root = find(i);
    if (comp_of[root] == -1) {
      comp_of[root] = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[static_cast<size_t>(comp_of[root])].push_back(i);
  }
  return components;
}

}  // namespace lsens
