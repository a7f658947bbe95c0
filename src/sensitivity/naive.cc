#include "sensitivity/naive.h"

#include <algorithm>
#include <set>
#include <utility>

#include "exec/exec_context.h"
#include "query/eval.h"

namespace lsens {

namespace {

StatusOr<Count> Eval(const ConjunctiveQuery& q, const Database& db,
                     const NaiveOptions& options) {
  return CountQuery(q, db, options.join, options.ghd);
}

// Count difference |a - b| (bag-semantics symmetric difference of a
// monotone query's outputs equals the count difference).
Count AbsDiff(Count a, Count b) {
  return a > b ? a.SaturatingSub(b) : b.SaturatingSub(a);
}

// Representative domain of one variable of one atom (Definition 3.1):
// intersection of the variable's active domains in all *other* atoms that
// bind it; if the variable is exclusive, a single arbitrary value — chosen
// to satisfy the atom's predicates on it so that selections (§5.4) do not
// artificially zero the upward sensitivity.
std::vector<Value> RepresentativeDomain(const ConjunctiveQuery& q,
                                        const Database& db, int atom_index,
                                        size_t column) {
  const Atom& atom = q.atom(atom_index);
  AttrId var = atom.vars[column];

  bool shared = false;
  std::vector<Value> domain;
  bool first = true;
  for (int j = 0; j < q.num_atoms(); ++j) {
    if (j == atom_index) continue;
    const Atom& other = q.atom(j);
    auto it = std::find(other.vars.begin(), other.vars.end(), var);
    if (it == other.vars.end()) continue;
    shared = true;
    size_t col = static_cast<size_t>(it - other.vars.begin());
    const Relation* rel = db.Find(other.relation);
    LSENS_CHECK(rel != nullptr);
    std::set<Value> active;
    const ChunkedColumn values = rel->Chunks(col);
    for (size_t k = 0; k < values.num_chunks(); ++k) {
      for (Value v : values.chunk(k)) active.insert(v);
    }
    if (first) {
      domain.assign(active.begin(), active.end());
      first = false;
    } else {
      std::vector<Value> merged;
      std::set_intersection(domain.begin(), domain.end(), active.begin(),
                            active.end(), std::back_inserter(merged));
      domain = std::move(merged);
    }
  }
  if (shared) return domain;

  // Exclusive variable: one arbitrary value, but it must satisfy the atom's
  // predicates on this variable (the full domain always contains one).
  Value v = 0;
  for (const Predicate& p : atom.predicates) {
    if (p.var == var) v = p.SatisfyingValue();
  }
  return {v};
}

}  // namespace

StatusOr<NaiveResult> NaiveLocalSensitivity(const ConjunctiveQuery& q,
                                            Database& db,
                                            const NaiveOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  // rows_out doubles as the number of neighboring databases evaluated.
  OpTimer op(ResolveExecContext(options.join.ctx), "naive.local_sensitivity",
             db.TotalRows());
  auto base_or = Eval(q, db, options);
  if (!base_or.ok()) return base_or.status();
  const Count base = *base_or;

  NaiveResult result;
  result.local_sensitivity = Count::Zero();

  auto consider = [&](Count delta, int atom, std::span<const Value> tuple,
                      bool insertion) {
    if (delta > result.local_sensitivity || result.argmax_atom == -1) {
      result.local_sensitivity = delta;
      result.argmax_atom = atom;
      result.argmax_tuple.assign(tuple.begin(), tuple.end());
      result.argmax_is_insertion = insertion;
    }
  };

  for (int i = 0; i < q.num_atoms(); ++i) {
    Relation* rel = db.Find(q.atom(i).relation);
    LSENS_CHECK(rel != nullptr);

    // Downward: delete one copy of each distinct existing tuple.
    std::set<std::vector<Value>> distinct;
    for (size_t r = 0; r < rel->NumRows(); ++r) {
      distinct.insert(rel->Row(r));
    }
    for (const auto& tuple : distinct) {
      // Find one occurrence, remove it, evaluate, restore. RowEquals
      // compares in place against the column vectors — the position scan
      // materializes no rows.
      size_t pos = SIZE_MAX;
      for (size_t r = 0; r < rel->NumRows(); ++r) {
        if (rel->RowEquals(r, tuple)) {
          pos = r;
          break;
        }
      }
      LSENS_CHECK(pos != SIZE_MAX);
      rel->SwapRemoveRow(pos);
      auto count_or = Eval(q, db, options);
      rel->AppendRow(tuple);
      if (!count_or.ok()) return count_or.status();
      ++result.candidates_evaluated;
      consider(AbsDiff(base, *count_or), i, tuple, /*insertion=*/false);
    }

    // Upward: insert each tuple of the representative domain.
    std::vector<std::vector<Value>> domains;
    size_t num_candidates = 1;
    bool empty_domain = false;
    for (size_t c = 0; c < rel->arity(); ++c) {
      domains.push_back(RepresentativeDomain(q, db, i, c));
      if (domains.back().empty()) empty_domain = true;
      num_candidates *= std::max<size_t>(domains.back().size(), 1);
      if (num_candidates > options.max_insert_candidates) {
        return Status::Unsupported(
            "representative domain too large for the naive baseline");
      }
    }
    if (empty_domain) continue;  // no insertion can join

    std::vector<size_t> idx(rel->arity(), 0);
    std::vector<Value> candidate(rel->arity());
    for (;;) {
      for (size_t c = 0; c < rel->arity(); ++c) {
        candidate[c] = domains[c][idx[c]];
      }
      rel->AppendRow(candidate);
      auto count_or = Eval(q, db, options);
      rel->SwapRemoveRow(rel->NumRows() - 1);
      if (!count_or.ok()) return count_or.status();
      ++result.candidates_evaluated;
      consider(AbsDiff(base, *count_or), i, candidate, /*insertion=*/true);

      // Advance the mixed-radix counter.
      size_t c = 0;
      while (c < rel->arity() && ++idx[c] == domains[c].size()) {
        idx[c] = 0;
        ++c;
      }
      if (c == rel->arity()) break;
    }
  }
  op.set_rows_out(result.candidates_evaluated);
  return result;
}

StatusOr<Count> NaiveTupleSensitivity(const ConjunctiveQuery& q, Database& db,
                                      int atom_index,
                                      std::span<const Value> tuple,
                                      const NaiveOptions& options) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  if (atom_index < 0 || atom_index >= q.num_atoms()) {
    return Status::InvalidArgument("atom index out of range");
  }
  Relation* rel = db.Find(q.atom(atom_index).relation);
  LSENS_CHECK(rel != nullptr);
  if (tuple.size() != rel->arity()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  auto base_or = Eval(q, db, options);
  if (!base_or.ok()) return base_or.status();

  // Upward.
  rel->AppendRow(tuple);
  auto up_or = Eval(q, db, options);
  rel->SwapRemoveRow(rel->NumRows() - 1);
  if (!up_or.ok()) return up_or.status();
  Count delta = AbsDiff(*base_or, *up_or);

  // Downward (only if present). RowEquals compares the tuple against the
  // column vectors in place — no row materialization in the scan.
  for (size_t r = 0; r < rel->NumRows(); ++r) {
    if (rel->RowEquals(r, tuple)) {
      std::vector<Value> saved(tuple.begin(), tuple.end());
      rel->SwapRemoveRow(r);
      auto down_or = Eval(q, db, options);
      rel->AppendRow(saved);
      if (!down_or.ok()) return down_or.status();
      delta = std::max(delta, AbsDiff(*base_or, *down_or));
      break;
    }
  }
  return delta;
}

}  // namespace lsens
