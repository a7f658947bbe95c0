#include "storage/database.h"

#include <utility>

#include "common/macros.h"

namespace lsens {

Database Database::Clone() const { return Copy(/*keep_change_logs=*/true); }

Database Database::CloneSnapshot() const {
  return Copy(/*keep_change_logs=*/false);
}

Database Database::Copy(bool keep_change_logs) const {
  Database out;
  out.attrs_ = attrs_;
  out.dict_ = dict_;
  out.names_ = names_;
  for (const auto& name : names_) {
    auto it = relations_.find(name);
    LSENS_CHECK(it != relations_.end());
    const Relation& rel = *it->second;
    Relation copy = keep_change_logs ? rel : rel.CloneSnapshot();
    out.relations_.emplace(name, std::make_unique<Relation>(std::move(copy)));
  }
  return out;
}

Relation* Database::AddRelation(std::string name,
                                std::vector<std::string> column_names) {
  LSENS_CHECK_MSG(relations_.find(name) == relations_.end(),
                  "duplicate relation name");
  auto rel = std::make_unique<Relation>(name, std::move(column_names));
  Relation* ptr = rel.get();
  names_.push_back(name);
  relations_.emplace(std::move(name), std::move(rel));
  return ptr;
}

Relation* Database::Find(const std::string& name) {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.get();
}

StatusOr<const Relation*> Database::Get(const std::string& name) const {
  const Relation* r = Find(name);
  if (r == nullptr) {
    return Status::NotFound("relation '" + name + "' not in database");
  }
  return r;
}

Status Database::ApplyDelta(const DatabaseDelta& delta) {
  // Pass 1: validate everything against simulated row counts (a relation
  // may appear in several RelationDeltas; later ones see the size the
  // earlier ones will leave behind) so a poisoned batch rejects before any
  // relation is touched — no version bumps, no changelog entries.
  std::unordered_map<std::string, size_t> simulated_rows;
  for (const RelationDelta& rd : delta) {
    const Relation* rel = Find(rd.relation);
    if (rel == nullptr) {
      return Status::NotFound("relation '" + rd.relation +
                              "' not in database");
    }
    auto [it, inserted] = simulated_rows.emplace(rd.relation, rel->NumRows());
    LSENS_RETURN_IF_ERROR(
        rel->ValidateDelta(rd.inserts, rd.delete_rows, it->second));
    it->second = it->second - rd.delete_rows.size() + rd.inserts.size();
  }
  // Pass 2: all valid — apply. Re-validation inside Relation::ApplyDelta
  // cannot fail here.
  for (const RelationDelta& rd : delta) {
    Relation* rel = Find(rd.relation);
    Status applied = rel->ApplyDelta(rd.inserts, rd.delete_rows);
    LSENS_CHECK_MSG(applied.ok(), "validated delta failed to apply");
  }
  return Status::OK();
}

StatusOr<uint64_t> Database::VersionOf(const std::string& relation) const {
  const Relation* rel = Find(relation);
  if (rel == nullptr) {
    return Status::NotFound("relation '" + relation + "' not in database");
  }
  return rel->version();
}

size_t Database::TotalRows() const {
  // Walk names_ (insertion order), not relations_: the sums are commutative
  // either way, but routing every full-database walk through the ordered
  // view keeps iteration order out of the picture entirely (and out of the
  // lsens-lint unordered-iter audit).
  size_t total = 0;
  for (const auto& name : names_) {
    total += relations_.find(name)->second->NumRows();
  }
  return total;
}

size_t Database::MemoryBytes() const {
  std::vector<MemoryPart> parts;
  AppendMemoryParts(&parts);
  return SumDistinctBytes(std::move(parts));
}

void Database::AppendMemoryParts(std::vector<MemoryPart>* out) const {
  out->push_back({dict_.id(), dict_->MemoryBytes()});
  for (const auto& name : names_) {
    relations_.find(name)->second->AppendMemoryParts(out);
  }
}

std::vector<std::pair<std::string, uint64_t>> Database::VersionVector() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(names_.size());
  for (const auto& name : names_) {
    out.emplace_back(name, relations_.find(name)->second->version());
  }
  return out;
}

}  // namespace lsens
