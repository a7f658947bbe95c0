#include "query/eval.h"

#include <utility>
#include <vector>

#include "query/atom_scan.h"

namespace lsens {

namespace {

// Shared-variable projections S_a of every atom (the paper's counted base
// relations: exclusive attributes are projected out with multiplicities).
StatusOr<std::vector<CountedRelation>> BuildAtomInputs(
    const ConjunctiveQuery& q, const Database& db, ExecContext* ctx) {
  std::vector<CountedRelation> inputs;
  inputs.reserve(static_cast<size_t>(q.num_atoms()));
  for (int i = 0; i < q.num_atoms(); ++i) {
    auto rel = db.Get(q.atom(i).relation);
    if (!rel.ok()) return rel.status();
    inputs.push_back(ScanAtom(**rel, q.atom(i), q.SharedVarsOf(i), ctx));
  }
  return inputs;
}

}  // namespace

StatusOr<Count> CountGhd(const ConjunctiveQuery& q, const Ghd& ghd,
                         const Database& db, const JoinOptions& options) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  auto inputs_or = BuildAtomInputs(q, db, options.ctx);
  if (!inputs_or.ok()) return inputs_or.status();
  const std::vector<CountedRelation>& s = *inputs_or;

  Count total = Count::One();
  std::vector<CountedRelation> botjoin(
      ghd.bags.size(), CountedRelation(AttributeSet{}));
  for (const JoinTree& tree : ghd.forest.trees) {
    Count tree_count = Count::Zero();
    for (int bag : tree.PostOrder()) {
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      std::vector<const CountedRelation*> pieces;
      for (int atom : spec.atom_indices) {
        pieces.push_back(&s[static_cast<size_t>(atom)]);
      }
      for (int child : tree.Children(bag)) {
        pieces.push_back(&botjoin[static_cast<size_t>(child)]);
      }
      // Only γ reads a fold (a root's is its total), so the last join of
      // each runs straight into the group-by.
      int parent = tree.Parent(bag);
      if (parent == -1) {
        tree_count =
            FoldJoin(std::move(pieces), options, AttributeSet{}).TotalCount();
      } else {
        AttributeSet link = Intersect(
            spec.vars, ghd.bags[static_cast<size_t>(parent)].vars);
        botjoin[static_cast<size_t>(bag)] =
            FoldJoin(std::move(pieces), options, link);
      }
    }
    total *= tree_count;
    if (total.IsZero()) return total;  // empty component zeroes the product
  }
  return total;
}

StatusOr<Count> CountQuery(const ConjunctiveQuery& q, const Database& db,
                           const JoinOptions& options, const Ghd* ghd) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  auto plan = ChooseTSensPlan(q, ghd, /*allow_path=*/false);
  if (!plan.ok()) return plan.status();
  return CountGhd(q, plan->ghd, db, options);
}

StatusOr<CountedRelation> BruteForceJoin(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const JoinOptions& options) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  std::vector<CountedRelation> full;
  full.reserve(static_cast<size_t>(q.num_atoms()));
  for (int i = 0; i < q.num_atoms(); ++i) {
    auto rel = db.Get(q.atom(i).relation);
    if (!rel.ok()) return rel.status();
    full.push_back(
        ScanAtom(**rel, q.atom(i), q.atom(i).VarSet(), options.ctx));
  }
  std::vector<const CountedRelation*> pieces;
  pieces.reserve(full.size());
  for (const auto& r : full) pieces.push_back(&r);
  CountedRelation joined = FoldJoin(std::move(pieces), options);
  joined.Normalize(options.ctx);  // public output: sorted rows
  return joined;
}

StatusOr<Count> BruteForceCount(const ConjunctiveQuery& q, const Database& db,
                                const JoinOptions& options) {
  auto joined = BruteForceJoin(q, db, options);
  if (!joined.ok()) return joined.status();
  return joined->TotalCount();
}

}  // namespace lsens
