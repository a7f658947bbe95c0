#include "exec/dyn_table.h"

#include <algorithm>
#include <utility>

namespace lsens {

DynTable::DynTable(AttributeSet attrs) : attrs_(std::move(attrs)) {
  LSENS_CHECK_MSG(IsValidAttributeSet(attrs_),
                  "DynTable attrs must be sorted and unique");
}

uint64_t DynTable::HashCols(std::span<const Value> row,
                            std::span<const int> cols) const {
  uint64_t h = kValueHashSeed;
  for (int c : cols) {
    h = HashValueFold(h, row[static_cast<size_t>(c)]);
  }
  return h;
}

uint64_t DynTable::HashKey(std::span<const Value> key) const {
  return HashValues(key);
}

bool DynTable::KeyEquals(uint32_t row, std::span<const Value> key) const {
  std::span<const Value> stored = RowValues(row);
  for (size_t i = 0; i < key.size(); ++i) {
    if (stored[i] != key[i]) return false;
  }
  return true;
}

void DynTable::Load(const CountedRelation& rel) {
  LSENS_CHECK(rel.attrs() == attrs_);
  LoadRows(rel);
}

void DynTable::Release() {
  data_ = {};
  counts_ = {};
  alive_ = {};
  free_ = {};
  live_rows_ = 0;
  saturated_ = false;
  primary_ = FlatRowIndex();
  for (Index& index : secondary_) {
    index.heads = FlatRowIndex();
    index.next = {};
    index.prev = {};
  }
}

void DynTable::LoadRows(const CountedRelation& rel) {
  LSENS_CHECK(rel.attrs().size() == attrs_.size());
  LSENS_CHECK_MSG(!rel.has_default(),
                  "DynTable cannot represent a defaulted (top-k) relation");
  data_.clear();
  counts_.clear();
  alive_.clear();
  free_.clear();
  primary_.Clear();
  for (Index& index : secondary_) {
    index.heads.Clear();
    index.next.clear();
    index.prev.clear();
  }
  live_rows_ = 0;
  saturated_ = false;
  const size_t n = rel.NumRows();
  data_.reserve(n * arity());
  counts_.reserve(n);
  alive_.reserve(n);
  primary_.Reserve(n);
  for (Index& index : secondary_) {
    index.heads.Reserve(n);
    index.next.reserve(n);
    index.prev.reserve(n);
  }
  for (size_t i = 0; i < n; ++i) {
    if (rel.CountAt(i).IsSaturated()) saturated_ = true;
    std::span<const Value> key = rel.Row(i);
    const uint64_t h = HashKey(key);
    ++stats_.key_hashes;
    ++stats_.locates;
    // Unique input: keys are distinct, so the locate is a guaranteed
    // miss that only finds the insert slot.
    FlatRowIndex::Cursor cur =
        primary_.Locate(h, [&](uint32_t r) { return KeyEquals(r, key); });
    LSENS_CHECK(cur.row == FlatRowIndex::kNoRow);
    InsertRow(cur, h, key, rel.CountAt(i));
  }
}

int DynTable::AddIndex(std::vector<int> cols) {
  for (int c : cols) {
    LSENS_CHECK(c >= 0 && static_cast<size_t>(c) < arity());
  }
  for (size_t i = 0; i < secondary_.size(); ++i) {
    if (secondary_[i].cols == cols) return static_cast<int>(i);
  }
  secondary_.push_back(Index{std::move(cols), {}, {}, {}});
  Index& index = secondary_.back();
  index.heads.Reserve(live_rows_);
  index.next.assign(counts_.size(), kNoRow);
  index.prev.assign(counts_.size(), kNoRow);
  ForEachRow([&](uint32_t r) { IndexInsert(index, r); });
  return static_cast<int>(secondary_.size() - 1);
}

uint32_t DynTable::FindRow(std::span<const Value> key) const {
  LSENS_CHECK(key.size() == arity());
  FlatRowIndex::Cursor cur = primary_.Locate(
      HashKey(key), [&](uint32_t r) { return KeyEquals(r, key); });
  return cur.row == FlatRowIndex::kNoRow ? kNoRow : cur.row;
}

Count DynTable::Get(std::span<const Value> key) const {
  uint32_t row = FindRow(key);
  return row == kNoRow ? Count::Zero() : counts_[row];
}

uint32_t DynTable::InsertRow(FlatRowIndex::Cursor cur, uint64_t hash,
                             std::span<const Value> key, Count c) {
  uint32_t row;
  if (!free_.empty()) {
    row = free_.back();
    free_.pop_back();
    std::copy(key.begin(), key.end(),
              data_.begin() + static_cast<size_t>(row) * arity());
    counts_[row] = c;
    alive_[row] = 1;
  } else {
    row = static_cast<uint32_t>(counts_.size());
    data_.insert(data_.end(), key.begin(), key.end());
    counts_.push_back(c);
    alive_.push_back(1);
  }
  ++live_rows_;
  primary_.InsertAt(cur, hash, row);
  for (Index& index : secondary_) {
    if (index.next.size() < counts_.size()) {
      index.next.resize(counts_.size(), kNoRow);
      index.prev.resize(counts_.size(), kNoRow);
    }
    IndexInsert(index, row);
  }
  return row;
}

void DynTable::EraseRow(FlatRowIndex::Cursor cur) {
  const uint32_t row = cur.row;
  for (Index& index : secondary_) IndexErase(index, row);
  primary_.EraseAt(cur);
  alive_[row] = 0;
  counts_[row] = Count::Zero();
  free_.push_back(row);
  --live_rows_;
}

void DynTable::IndexInsert(Index& index, uint32_t row) {
  std::span<const Value> key = RowValues(row);
  const uint64_t h = HashCols(key, index.cols);
  ++stats_.key_hashes;
  FlatRowIndex::Cursor cur = index.heads.Locate(h, [&](uint32_t head) {
    std::span<const Value> stored = RowValues(head);
    for (int c : index.cols) {
      if (stored[static_cast<size_t>(c)] != key[static_cast<size_t>(c)]) {
        return false;
      }
    }
    return true;
  });
  if (cur.row == FlatRowIndex::kNoRow) {
    index.heads.InsertAt(cur, h, row);
    index.next[row] = kNoRow;
    index.prev[row] = kNoRow;
    return;
  }
  // Splice in right after the head: O(1), and the head entry stays put.
  const uint32_t head = cur.row;
  index.next[row] = index.next[head];
  index.prev[row] = head;
  if (index.next[head] != kNoRow) index.prev[index.next[head]] = row;
  index.next[head] = row;
}

void DynTable::IndexErase(Index& index, uint32_t row) {
  const uint32_t p = index.prev[row];
  const uint32_t n = index.next[row];
  if (p != kNoRow) {
    // Mid-chain: pure link surgery, no hashing, no probing.
    index.next[p] = n;
    if (n != kNoRow) index.prev[n] = p;
    return;
  }
  // Head row: rebind the index entry to the next chain row (or drop it).
  ++stats_.key_hashes;
  FlatRowIndex::Cursor cur =
      index.heads.Locate(HashCols(RowValues(row), index.cols),
                         [&](uint32_t r) { return r == row; });
  LSENS_CHECK_MSG(cur.row == row, "DynTable secondary index lost a row");
  if (n == kNoRow) {
    index.heads.EraseAt(cur);
  } else {
    index.heads.SetRowAt(cur, n);
    index.prev[n] = kNoRow;
  }
}

Count DynTable::Set(std::span<const Value> key, Count c) {
  LSENS_CHECK(key.size() == arity());
  if (c.IsSaturated()) saturated_ = true;
  const uint64_t h = HashKey(key);
  ++stats_.key_hashes;
  ++stats_.locates;
  FlatRowIndex::Cursor cur =
      primary_.Locate(h, [&](uint32_t r) { return KeyEquals(r, key); });
  if (cur.row == FlatRowIndex::kNoRow) {
    if (!c.IsZero()) InsertRow(cur, h, key, c);
    return Count::Zero();
  }
  Count old = counts_[cur.row];
  if (c.IsZero()) {
    EraseRow(cur);
  } else {
    counts_[cur.row] = c;
  }
  return old;
}

bool DynTable::Adjust(std::span<const Value> key, Count c, bool add) {
  LSENS_CHECK(key.size() == arity());
  if (c.IsZero()) return true;  // no-op; also keeps zero == absent intact
  const uint64_t h = HashKey(key);
  ++stats_.key_hashes;
  ++stats_.locates;
  FlatRowIndex::Cursor cur =
      primary_.Locate(h, [&](uint32_t r) { return KeyEquals(r, key); });
  Count old =
      cur.row == FlatRowIndex::kNoRow ? Count::Zero() : counts_[cur.row];
  if (add) {
    Count updated = old + c;
    if (updated.IsSaturated()) {
      saturated_ = true;
      return false;
    }
    if (cur.row == FlatRowIndex::kNoRow) {
      InsertRow(cur, h, key, updated);
    } else {
      counts_[cur.row] = updated;
    }
    return true;
  }
  if (old < c) {
    saturated_ = true;  // removing more copies than present: poisoned
    return false;
  }
  Count updated = old.SaturatingSub(c);
  if (updated.IsZero()) {
    EraseRow(cur);
  } else {
    counts_[cur.row] = updated;
  }
  return true;
}

void DynTable::LookupIndex(int index_id, std::span<const Value> key,
                           std::vector<uint32_t>* out) const {
  const Index& index = secondary_[static_cast<size_t>(index_id)];
  LSENS_CHECK(key.size() == index.cols.size());
  // HashKey over the packed key equals HashCols over a row projected onto
  // index.cols — same values, same order, same mixing.
  FlatRowIndex::Cursor cur =
      index.heads.Locate(HashKey(key), [&](uint32_t head) {
        std::span<const Value> stored = RowValues(head);
        for (size_t i = 0; i < index.cols.size(); ++i) {
          if (stored[static_cast<size_t>(index.cols[i])] != key[i]) {
            return false;
          }
        }
        return true;
      });
  for (uint32_t r = cur.row; r != FlatRowIndex::kNoRow; r = index.next[r]) {
    out->push_back(r);
  }
}

size_t DynTable::MemoryBytes() const {
  size_t bytes = attrs_.capacity() * sizeof(AttrId) +
                 data_.capacity() * sizeof(Value) +
                 counts_.capacity() * sizeof(Count) +
                 alive_.capacity() * sizeof(uint8_t) +
                 free_.capacity() * sizeof(uint32_t) +
                 primary_.MemoryBytes() +
                 // The Index structs themselves (cols/next/prev vector
                 // headers and the embedded FlatRowIndex) live in
                 // secondary_'s heap block; the chains below only add the
                 // out-of-line arrays.
                 secondary_.capacity() * sizeof(Index);
  for (const Index& index : secondary_) {
    bytes += index.cols.capacity() * sizeof(int) +
             index.heads.MemoryBytes() +
             (index.next.capacity() + index.prev.capacity()) *
                 sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace lsens
