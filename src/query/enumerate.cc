#include "query/enumerate.h"

#include <utility>
#include <vector>

#include "exec/hash_group_table.h"
#include "exec/join.h"
#include "query/atom_scan.h"
#include "query/join_tree.h"

namespace lsens {

CountedRelation Semijoin(const CountedRelation& a, const CountedRelation& b,
                         ExecContext* ctx_in) {
  LSENS_CHECK_MSG(a.unique(), "Semijoin input must be unique");
  AttributeSet key = Intersect(a.attrs(), b.attrs());
  if (key.empty()) {
    if (b.NumRows() > 0) return a;
    return CountedRelation(a.attrs());
  }
  ExecContext& ctx = ResolveExecContext(ctx_in);
  OpTimer op(ctx, "semijoin", a.NumRows() + b.NumRows());
  op.set_build_rows(b.NumRows());
  std::vector<int> a_cols;
  std::vector<int> b_cols;
  for (AttrId attr : key) {
    a_cols.push_back(a.ColumnOf(attr));
    b_cols.push_back(b.ColumnOf(attr));
  }
  // Membership probes against the flat group table (runs are key-verified,
  // so collisions can never drop or keep wrong rows).
  FlatGroupTable& table = ctx.group_table();
  table.Build(b, b_cols);
  CountedRelation out(a.attrs());
  out.Reserve(a.NumRows());
  for (size_t i = 0; i < a.NumRows(); ++i) {
    std::span<const Value> row = a.Row(i);
    if (!table.Probe(row, a_cols).empty()) out.AppendRow(row, a.CountAt(i));
  }
  out.MarkUnique();  // a subset of a's unique rows, in a's order
  op.set_rows_out(out.NumRows());
  return out;
}

StatusOr<CountedRelation> EnumerateJoin(const ConjunctiveQuery& q,
                                        const Ghd& ghd, const Database& db,
                                        const JoinOptions& options,
                                        size_t max_rows) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));

  // Materialize each bag over all of its variables (exclusive attributes
  // included — this is full-output enumeration).
  const size_t num_bags = ghd.bags.size();
  std::vector<CountedRelation> bag_rel;
  bag_rel.reserve(num_bags);
  for (const GhdBag& bag : ghd.bags) {
    std::vector<CountedRelation> atoms;
    for (int a : bag.atom_indices) {
      auto rel = db.Get(q.atom(a).relation);
      if (!rel.ok()) return rel.status();
      atoms.push_back(
          ScanAtom(**rel, q.atom(a), q.atom(a).VarSet(), options.ctx));
    }
    std::vector<const CountedRelation*> pieces;
    for (const auto& r : atoms) pieces.push_back(&r);
    bag_rel.push_back(FoldJoin(std::move(pieces), options));
    if (bag_rel.back().NumRows() > max_rows) {
      return Status::Unsupported("bag materialization exceeds max_rows");
    }
  }

  CountedRelation output = CountedRelation::Unit();
  for (const JoinTree& tree : ghd.forest.trees) {
    // Bottom-up semijoin reduction.
    for (int bag : tree.PostOrder()) {
      for (int child : tree.Children(bag)) {
        bag_rel[static_cast<size_t>(bag)] = Semijoin(
            bag_rel[static_cast<size_t>(bag)],
            bag_rel[static_cast<size_t>(child)], options.ctx);
      }
    }
    // Top-down semijoin reduction.
    for (int bag : tree.PreOrder()) {
      int parent = tree.Parent(bag);
      if (parent == -1) continue;
      bag_rel[static_cast<size_t>(bag)] =
          Semijoin(bag_rel[static_cast<size_t>(bag)],
                   bag_rel[static_cast<size_t>(parent)], options.ctx);
    }
    // Join reduced bags, children into parents; every intermediate is
    // bounded by the final output of this component.
    for (int bag : tree.PostOrder()) {
      for (int child : tree.Children(bag)) {
        bag_rel[static_cast<size_t>(bag)] =
            NaturalJoin(bag_rel[static_cast<size_t>(bag)],
                        bag_rel[static_cast<size_t>(child)], options);
        if (bag_rel[static_cast<size_t>(bag)].NumRows() > max_rows) {
          return Status::Unsupported("join output exceeds max_rows");
        }
      }
    }
    output = NaturalJoin(output, bag_rel[static_cast<size_t>(tree.root())],
                         options);
    if (output.NumRows() > max_rows) {
      return Status::Unsupported("join output exceeds max_rows");
    }
  }
  output.Normalize(options.ctx);  // public output: sorted rows
  return output;
}

StatusOr<CountedRelation> EnumerateQuery(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const JoinOptions& options,
                                         size_t max_rows) {
  auto plan = ChooseTSensPlan(q, /*ghd=*/nullptr, /*allow_path=*/false);
  if (!plan.ok()) return plan.status();
  return EnumerateJoin(q, plan->ghd, db, options, max_rows);
}

}  // namespace lsens
