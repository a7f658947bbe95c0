#include "sensitivity/tsens.h"

#include <algorithm>
#include <utility>

#include "exec/exec_context.h"

namespace lsens {

StatusOr<SensitivityResult> ComputeLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  // Times the facade end-to-end (dispatch included) so the stats report
  // shows total sensitivity wall time next to the per-operator rows.
  OpTimer op(ResolveExecContext(options.join.ctx), "tsens.compute",
             db.TotalRows());

  auto plan = ChooseTSensPlan(q, options.ghd, options.prefer_path_algorithm);
  if (!plan.ok()) return plan.status();
  return TSensOverGhd(q, plan->ghd, db, options);
}

StatusOr<SensitivityResult> ComputeDownwardLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options) {
  if (options.top_k > 0) {
    return Status::Unsupported(
        "downward sensitivity needs exact multiplicity tables (top_k = 0)");
  }
  TSensComputeOptions engine_options = options;
  engine_options.keep_tables = true;
  auto full = ComputeLocalSensitivity(q, db, engine_options);
  if (!full.ok()) return full.status();

  // Restrict every atom's view to its existing rows: the max over the
  // active domain replaces the representative-domain max, and the argmax
  // becomes a concrete present tuple's shared projection.
  SensitivityResult result = *std::move(full);
  for (AtomSensitivity& atom : result.atoms) {
    if (atom.skipped) continue;
    auto per_tuple = TupleSensitivities(result, q, db, atom.atom_index,
                                        options);
    if (!per_tuple.ok()) return per_tuple.status();
    const Relation* rel = db.Find(atom.relation);
    LSENS_CHECK(rel != nullptr);

    Count best = Count::Zero();
    size_t best_row = SIZE_MAX;
    for (size_t r = 0; r < per_tuple->size(); ++r) {
      if ((*per_tuple)[r] > best) {
        best = (*per_tuple)[r];
        best_row = r;
      }
    }
    atom.max_sensitivity = best;
    atom.argmax.clear();
    if (best_row != SIZE_MAX) {
      // Project the winning row onto the table attributes.
      const Atom& spec = q.atom(atom.atom_index);
      for (AttrId var : atom.table_attrs) {
        size_t col = 0;
        while (spec.vars[col] != var) ++col;
        atom.argmax.push_back(rel->At(best_row, col));
      }
    }
  }
  result.SelectMostSensitive();
  return result;
}

StatusOr<std::pair<int, std::vector<Value>>> MaterializeMostSensitiveTuple(
    const SensitivityResult& result, const ConjunctiveQuery& q) {
  const AtomSensitivity* best = result.MostSensitive();
  if (best == nullptr || result.local_sensitivity.IsZero()) {
    return Status::NotFound("local sensitivity is zero: every tuple is a"
                            " most sensitive tuple (sensitivity 0)");
  }
  if (best->argmax.size() != best->table_attrs.size()) {
    return Status::Unsupported(
        "argmax row unavailable (top-k approximation bound)");
  }
  const Atom& atom = q.atom(best->atom_index);
  std::vector<Value> tuple(atom.vars.size(), 0);
  for (size_t c = 0; c < atom.vars.size(); ++c) {
    AttrId var = atom.vars[c];
    auto it = std::lower_bound(best->table_attrs.begin(),
                               best->table_attrs.end(), var);
    if (it != best->table_attrs.end() && *it == var) {
      tuple[c] = best->argmax[static_cast<size_t>(
          it - best->table_attrs.begin())];
      continue;
    }
    // Free attribute: pick a value satisfying all predicates on it.
    std::vector<const Predicate*> preds;
    for (const Predicate& p : atom.predicates) {
      if (p.var == var) preds.push_back(&p);
    }
    Value v = 0;
    bool ok = preds.empty();
    for (const Predicate* candidate_source : preds) {
      Value candidate = candidate_source->SatisfyingValue();
      bool all = true;
      for (const Predicate* p : preds) all = all && p->Eval(candidate);
      if (all) {
        v = candidate;
        ok = true;
        break;
      }
    }
    if (!ok) {
      return Status::NotFound(
          "no single value satisfies all predicates on a free attribute");
    }
    tuple[c] = v;
  }
  return std::make_pair(best->atom_index, std::move(tuple));
}

}  // namespace lsens
