#ifndef LSENS_STORAGE_DATABASE_H_
#define LSENS_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/cow.h"
#include "storage/dictionary.h"
#include "storage/relation.h"

namespace lsens {

// A batched update to one relation: rows to append plus indices (into the
// pre-delta relation) of rows to remove. See Relation::ApplyDelta.
struct RelationDelta {
  std::string relation;
  std::vector<std::vector<Value>> inserts;
  std::vector<size_t> delete_rows;
};

// A batched update across relations, applied in order.
using DatabaseDelta = std::vector<RelationDelta>;

// A database instance: a set of named relations plus the shared attribute
// catalog (query variables) and an optional value dictionary for symbolic
// domains. Relations are stored by unique name; self-joins are expressed by
// materializing a second copy under a different name (the paper's model).
//
// Copies share storage: column chunks, chunk tables and the dictionary sit
// behind copy-on-write handles (storage/cow.h), so Clone and CloneSnapshot
// cost a handle per column, not a pass over the rows. Whichever side
// writes first copies what it writes — a column's chunk table and the
// chunks a write lands in, or the dictionary on an Intern — and the other
// side never sees the write.
class Database {
 public:
  Database() = default;

  // Movable, not implicitly copyable: Clone() names the copy. A moved-from
  // database may only be assigned to or destroyed.
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // An independent copy: same relations (columns shared until written),
  // versions, change logs, catalog and dictionary.
  Database Clone() const;

  // The copy for an immutable epoch snapshot: like Clone, but relations
  // carry no change log (Relation::CloneSnapshot) — a snapshot never
  // mutates, and a log would only pin memory per epoch. Version counters
  // are kept, so the snapshot's VersionVector still names its epoch.
  Database CloneSnapshot() const;

  // Adds an empty relation; CHECK-fails if the name already exists.
  Relation* AddRelation(std::string name,
                        std::vector<std::string> column_names);

  // Lookup; nullptr if absent.
  Relation* Find(const std::string& name);
  const Relation* Find(const std::string& name) const;

  // Lookup; Status if absent.
  StatusOr<const Relation*> Get(const std::string& name) const;

  const std::vector<std::string>& relation_names() const { return names_; }

  // Applies every RelationDelta in order, all-or-nothing for the whole
  // batch: the full list is validated first (against the row counts each
  // relation will have when its turn comes, so one relation may appear in
  // several deltas), and only a fully valid batch mutates anything. A
  // rejected batch leaves every relation untouched — no version bumps, no
  // changelog entries.
  Status ApplyDelta(const DatabaseDelta& delta);

  // The named relation's monotone version counter (see Relation::version);
  // Status if the relation is absent. Caches key their entries on these.
  StatusOr<uint64_t> VersionOf(const std::string& relation) const;

  size_t TotalRows() const;

  // Bytes held by every relation's columns and change logs (see
  // Relation::MemoryBytes) plus the value dictionary; the serving layer's
  // epoch accounting.
  size_t MemoryBytes() const;

  // MemoryBytes split by buffer (see Relation::AppendMemoryParts; the
  // dictionary is one more part). SumDistinctBytes over the parts of
  // several databases counts the buffers they share once.
  void AppendMemoryParts(std::vector<MemoryPart>* out) const;

  // Every relation's (name, version) in insertion order — the identity of
  // the database state an epoch snapshot captures. Two databases with equal
  // names whose version vectors match have seen the same mutation counts.
  std::vector<std::pair<std::string, uint64_t>> VersionVector() const;

  AttributeCatalog& attrs() { return attrs_; }
  const AttributeCatalog& attrs() const { return attrs_; }
  // Writable dictionary: copies it first when a clone still shares it, so
  // the reference is this database's own until the next Clone or
  // CloneSnapshot — take it again after copying the database.
  Dictionary& dict() { return dict_.Mutable(); }
  const Dictionary& dict() const { return *dict_; }

 private:
  // Clone and CloneSnapshot: both share every column and the dictionary.
  Database Copy(bool keep_change_logs) const;

  std::vector<std::string> names_;  // insertion order, for stable iteration
  // lsens-lint: allow(unordered-iter) lookup-only by name; every walk over
  // the database routes through names_ so iteration order is insertion
  // order, never hash order.
  std::unordered_map<std::string, std::unique_ptr<Relation>> relations_;
  AttributeCatalog attrs_;
  CowPtr<Dictionary> dict_;
};

}  // namespace lsens

#endif  // LSENS_STORAGE_DATABASE_H_
