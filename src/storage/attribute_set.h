#ifndef LSENS_STORAGE_ATTRIBUTE_SET_H_
#define LSENS_STORAGE_ATTRIBUTE_SET_H_

#include <vector>

#include "storage/value.h"

namespace lsens {

// An AttributeSet is a strictly sorted vector of attribute ids. All query
// processing (join keys, group-by keys, hypergraph vertices) works on these.
using AttributeSet = std::vector<AttrId>;

// Returns `attrs` sorted with duplicates removed.
AttributeSet MakeAttributeSet(std::vector<AttrId> attrs);

// True if `set` is strictly sorted (a valid AttributeSet).
bool IsValidAttributeSet(const AttributeSet& set);

AttributeSet Union(const AttributeSet& a, const AttributeSet& b);
AttributeSet Intersect(const AttributeSet& a, const AttributeSet& b);
AttributeSet Difference(const AttributeSet& a, const AttributeSet& b);
bool Contains(const AttributeSet& set, AttrId attr);
bool IsSubset(const AttributeSet& sub, const AttributeSet& super);
bool Intersects(const AttributeSet& a, const AttributeSet& b);

// Partitions items into connectivity components over their `link`
// attributes: items whose link attributes intersect transitively end up
// together, and items with no link attributes are singleton components.
// Components are ordered by their first item, items within one in input
// order.
std::vector<std::vector<size_t>> ConnectivityComponents(
    const std::vector<AttributeSet>& link);

}  // namespace lsens

#endif  // LSENS_STORAGE_ATTRIBUTE_SET_H_
