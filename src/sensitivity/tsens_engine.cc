#include "sensitivity/tsens_engine.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "exec/exec_context.h"
#include "exec/row_sort.h"
#include "query/atom_scan.h"
#include "query/eval.h"

namespace lsens {

namespace {

// Relations smaller than this are never worth fanning TupleSensitivities
// out: a pool round trip costs more than the lookups themselves (same
// rationale as the join layer's kParallelProbeMinRows).
constexpr size_t kParallelTupleMinRows = 4096;

// Applies atom `a`'s predicates whose variable lies in rel.attrs().
void ApplyPredicates(const Atom& atom, CountedRelation* rel) {
  std::vector<std::pair<int, Predicate>> checks;
  for (const Predicate& p : atom.predicates) {
    int col = rel->ColumnOf(p.var);
    if (col >= 0) checks.emplace_back(col, p);
  }
  if (checks.empty()) return;
  rel->Filter([&](std::span<const Value> row) {
    for (const auto& [col, pred] : checks) {
      if (!pred.Eval(row[static_cast<size_t>(col)])) return false;
    }
    return true;
  });
}

// True when `group` functionally determines the `dropped` attributes of the
// join of `pieces`, so γ_group sees exactly one join row per group. Starting
// from K = group, a piece whose rows are unique on its attributes in K
// determines the rest of them, and K absorbs its attributes; the test passes
// once K covers `dropped`. Pieces are tried smallest first, and a piece that
// failed is re-tried only after its key grew, so a large piece's failed
// check is paid at most once per key.
bool GroupDeterminesDropped(const std::vector<const CountedRelation*>& pieces,
                            const AttributeSet& group,
                            const AttributeSet& dropped, ExecContext& ctx) {
  const size_t n = pieces.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return pieces[x]->NumRows() < pieces[y]->NumRows();
  });
  std::vector<size_t> failed_key(n, SIZE_MAX);
  std::vector<uint8_t> absorbed(n, 0);
  AttributeSet known = group;
  std::vector<int> cols;
  bool grew = true;
  while (grew && !IsSubset(dropped, known)) {
    grew = false;
    for (size_t i : order) {
      const CountedRelation& piece = *pieces[i];
      if (absorbed[i] != 0) continue;
      AttributeSet key = Intersect(piece.attrs(), known);
      if (key.size() == failed_key[i]) continue;  // K only grows
      if (key.size() < piece.arity()) {
        cols.clear();
        for (AttrId attr : key) cols.push_back(piece.ColumnOf(attr));
        if (!RowsUniqueOn(piece, cols, ctx)) {
          failed_key[i] = key.size();
          continue;
        }
        known = Union(known, piece.attrs());
        grew = true;
      }
      absorbed[i] = 1;
      if (grew) break;  // retry the smaller pieces against the larger K
    }
  }
  return IsSubset(dropped, known);
}

// Max and argmax of T = γ_group(⋈ pieces) without materializing T, given
// GroupDeterminesDropped: every group value g has exactly one join row, so
//   max_g T(g) = max_d Π_j max_{g_j} F_j(g_j, d_j)
// where the F_j are the folds of the sub-components that pieces form when
// linked through group attributes only (distinct F_j share only dropped
// attributes d), filtered by `atom`'s predicates. Saturating products are
// monotone, so the max of products is the product of the maxes. The argmax
// is the lexicographically smallest g attaining the max — the row
// ArgMaxRow picks on the grouped table — written to `argmax` in
// `group` order (left empty when the max is zero). Returns false when the
// max saturates: saturated products also tie below the per-factor maxes,
// and only the materialized table breaks those ties the same way.
bool FactorizedMax(const std::vector<const CountedRelation*>& pieces,
                   const AttributeSet& group, const AttributeSet& dropped,
                   const Atom& atom, ExecContext& ctx, const JoinOptions& jopts,
                   Count* max, std::vector<Value>* argmax) {
  uint64_t rows_in = 0;
  for (const CountedRelation* piece : pieces) rows_in += piece->NumRows();
  OpTimer op(ctx, "tsens.factorized_max", rows_in);

  std::vector<AttributeSet> group_part;
  group_part.reserve(pieces.size());
  for (const CountedRelation* piece : pieces) {
    group_part.push_back(Intersect(piece->attrs(), group));
  }
  const std::vector<std::vector<size_t>> subs =
      ConnectivityComponents(group_part);

  // Per factor j: F_j (a piece itself unless folding or filtering made a
  // copy), its per-d max table over F_j's dropped attributes, and the F_j
  // row attaining each of those maxes.
  const size_t k = subs.size();
  std::vector<std::optional<CountedRelation>> owned(k);
  std::vector<const CountedRelation*> folds(k);
  std::vector<CountedRelation> maxes;
  maxes.reserve(k);
  std::vector<std::vector<uint32_t>> arg_rows(k);
  for (size_t j = 0; j < k; ++j) {
    if (subs[j].size() == 1) {
      folds[j] = pieces[subs[j][0]];
    } else {
      std::vector<const CountedRelation*> sub_pieces;
      for (size_t i : subs[j]) sub_pieces.push_back(pieces[i]);
      owned[j] = FoldJoin(std::move(sub_pieces), jopts);
      folds[j] = &*owned[j];
    }
    if (std::any_of(atom.predicates.begin(), atom.predicates.end(),
                    [&](const Predicate& p) {
                      return folds[j]->ColumnOf(p.var) >= 0;
                    })) {
      if (!owned[j].has_value()) owned[j] = *folds[j];
      ApplyPredicates(atom, &*owned[j]);
      folds[j] = &*owned[j];
    }
    const AttributeSet fold_dropped = Intersect(folds[j]->attrs(), dropped);
    maxes.push_back(GroupByMax(*folds[j], fold_dropped, &arg_rows[j], &ctx));
  }

  std::vector<const CountedRelation*> max_ptrs;
  for (const CountedRelation& m : maxes) max_ptrs.push_back(&m);
  const CountedRelation joined = FoldJoin(std::move(max_ptrs), jopts);
  op.set_rows_out(joined.NumRows());
  const Count best = joined.MaxCount();
  if (best.IsSaturated()) return false;
  *max = best;
  argmax->clear();
  if (best.IsZero()) return true;

  // Column routing: joined columns of each factor's d_j key, and for each
  // group attribute of F_j its column there and its slot in `group`.
  std::vector<std::vector<int>> d_cols(k);
  std::vector<std::vector<std::pair<size_t, size_t>>> g_route(k);
  for (size_t j = 0; j < k; ++j) {
    for (AttrId attr : maxes[j].attrs()) {
      d_cols[j].push_back(joined.ColumnOf(attr));
    }
    const AttributeSet& fattrs = folds[j]->attrs();
    for (size_t c = 0; c < fattrs.size(); ++c) {
      auto it = std::lower_bound(group.begin(), group.end(), fattrs[c]);
      if (it != group.end() && *it == fattrs[c]) {
        g_route[j].emplace_back(c, static_cast<size_t>(it - group.begin()));
      }
    }
  }
  // For one max-attaining d, the g attaining the max are the products of
  // the factors' max-attaining g_j (no saturation, no zero factor), and the
  // lexicographic minimum of a product is the product of the per-factor
  // minima — which GroupByMax's winners are. The answer is the smallest of
  // these candidates over all max-attaining d.
  std::vector<Value> key;
  std::vector<Value> candidate(group.size());
  for (size_t r = 0; r < joined.NumRows(); ++r) {
    if (joined.CountAt(r) != best) continue;
    std::span<const Value> row = joined.Row(r);
    for (size_t j = 0; j < k; ++j) {
      key.clear();
      for (int c : d_cols[j]) key.push_back(row[static_cast<size_t>(c)]);
      const size_t m = maxes[j].FindRow(key);
      LSENS_CHECK(m != SIZE_MAX);
      std::span<const Value> winner = folds[j]->Row(arg_rows[j][m]);
      for (const auto& [col, slot] : g_route[j]) candidate[slot] = winner[col];
    }
    if (argmax->empty() || candidate < *argmax) *argmax = candidate;
  }
  return true;
}

}  // namespace

bool TSensDataflow::CapturesJoin(size_t f) const {
  const TSensFold& fold = folds[f];
  return fold.total || !fold.driven;
}

StatusOr<TSensDataflow> PlanTSensDataflow(const ConjunctiveQuery& q,
                                          const Ghd& ghd,
                                          const std::vector<int>& skip_atoms) {
  const int num_atoms = q.num_atoms();
  const size_t num_bags = ghd.bags.size();
  std::vector<int> bag_of(static_cast<size_t>(num_atoms), -1);
  for (size_t v = 0; v < num_bags; ++v) {
    if (ghd.forest.TreeOf(static_cast<int>(v)) < 0) {
      return Status::InvalidArgument("GHD bag " + std::to_string(v) +
                                     " is in no tree");
    }
    for (int a : ghd.bags[v].atom_indices) {
      if (a < 0 || a >= num_atoms) {
        return Status::InvalidArgument("GHD bag " + std::to_string(v) +
                                       " names atom " + std::to_string(a) +
                                       ", outside the query");
      }
      if (bag_of[static_cast<size_t>(a)] != -1) {
        return Status::InvalidArgument("atom " + std::to_string(a) +
                                       " is in two GHD bags");
      }
      bag_of[static_cast<size_t>(a)] = static_cast<int>(v);
    }
  }
  for (int a = 0; a < num_atoms; ++a) {
    if (bag_of[static_cast<size_t>(a)] == -1) {
      return Status::InvalidArgument("GHD does not cover atom " +
                                     std::to_string(a));
    }
  }
  for (int a : skip_atoms) {
    if (a < 0 || a >= num_atoms) {
      return Status::InvalidArgument("skip_atoms entry " + std::to_string(a) +
                                     " is outside the query");
    }
  }

  TSensDataflow flow;
  std::vector<AttributeSet> attrs;  // per table id
  attrs.reserve(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) attrs.push_back(q.SharedVarsOf(a));
  auto scope_of = [&](const std::vector<int>& inputs) {
    AttributeSet scope;
    for (int id : inputs) scope = Union(scope, attrs[static_cast<size_t>(id)]);
    return scope;
  };
  // Appends `fold`; returns its fold id.
  auto add = [&](TSensFold fold) {
    attrs.push_back(fold.group.value_or(fold.scope));
    flow.folds.push_back(std::move(fold));
    return static_cast<int>(flow.folds.size()) - 1;
  };

  const size_t num_trees = ghd.forest.trees.size();
  flow.tree_folds.resize(num_trees);
  std::vector<int> bot(num_bags, -1);  // table ids of ⊥(v) and ⊤(v)
  std::vector<int> top(num_bags, -1);
  for (size_t t = 0; t < num_trees; ++t) {
    const JoinTree& tree = ghd.forest.trees[t];
    // The fold of `bag`'s atoms and the `keyed` tables, grouped onto `link`
    // (the tree total when there is none); returns its table id.
    auto bag_fold = [&](int bag, const std::vector<int>& keyed,
                        std::optional<AttributeSet> link) {
      const std::vector<int>& atoms =
          ghd.bags[static_cast<size_t>(bag)].atom_indices;
      TSensFold fold;
      fold.inputs = atoms;
      fold.inputs.insert(fold.inputs.end(), keyed.begin(), keyed.end());
      fold.scope = scope_of(fold.inputs);
      fold.total = !link.has_value();
      fold.group = std::move(link);
      fold.tree = static_cast<int>(t);
      fold.driven = atoms.size() == 1;
      const int f = add(std::move(fold));
      flow.tree_folds[t].push_back(f);
      return num_atoms + f;
    };
    auto link_of = [&](int bag, int parent) {
      return Intersect(ghd.bags[static_cast<size_t>(bag)].vars,
                       ghd.bags[static_cast<size_t>(parent)].vars);
    };
    for (int bag : tree.PostOrder()) {
      const int parent = tree.Parent(bag);
      // A root's total only scales the other trees' atoms (§5.4); a lone
      // tree's root ⊥ has no reader, so it is not planned.
      if (parent == -1 && num_trees < 2) continue;
      std::vector<int> children;
      children.reserve(tree.Children(bag).size());
      for (int c : tree.Children(bag)) {
        children.push_back(bot[static_cast<size_t>(c)]);
      }
      bot[static_cast<size_t>(bag)] = bag_fold(
          bag, children,
          parent == -1 ? std::nullopt
                       : std::optional<AttributeSet>(link_of(bag, parent)));
    }
    for (int bag : tree.PreOrder()) {
      const int p = tree.Parent(bag);
      if (p == -1) continue;
      std::vector<int> upper;
      if (tree.Parent(p) != -1) upper.push_back(top[static_cast<size_t>(p)]);
      for (int sibling : tree.Neighbors(bag)) {
        upper.push_back(bot[static_cast<size_t>(sibling)]);
      }
      top[static_cast<size_t>(bag)] = bag_fold(p, upper, link_of(bag, p));
    }
  }

  flow.atom_folds.resize(static_cast<size_t>(num_atoms));
  flow.atom_tree.resize(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    const int v = bag_of[static_cast<size_t>(a)];
    const int t = ghd.forest.TreeOf(v);
    flow.atom_tree[static_cast<size_t>(a)] = t;
    if (std::find(skip_atoms.begin(), skip_atoms.end(), a) !=
        skip_atoms.end()) {
      continue;
    }
    const JoinTree& tree = ghd.forest.trees[static_cast<size_t>(t)];
    std::vector<int> pieces;
    if (tree.Parent(v) != -1) pieces.push_back(top[static_cast<size_t>(v)]);
    for (int c : tree.Children(v)) {
      pieces.push_back(bot[static_cast<size_t>(c)]);
    }
    for (int b : ghd.bags[static_cast<size_t>(v)].atom_indices) {
      if (b != a) pieces.push_back(b);
    }
    std::vector<AttributeSet> piece_attrs;
    piece_attrs.reserve(pieces.size());
    for (int id : pieces) piece_attrs.push_back(attrs[static_cast<size_t>(id)]);
    for (const std::vector<size_t>& comp :
         ConnectivityComponents(piece_attrs)) {
      TSensFold fold;
      for (size_t i : comp) fold.inputs.push_back(pieces[i]);
      fold.scope = scope_of(fold.inputs);
      AttributeSet group = Intersect(q.SharedVarsOf(a), fold.scope);
      if (group != fold.scope) fold.group = std::move(group);
      fold.tree = t;
      fold.driven = comp.size() == 1;
      flow.atom_folds[static_cast<size_t>(a)].push_back(add(std::move(fold)));
    }
  }
  return flow;
}

StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  auto planned = PlanTSensDataflow(q, ghd, options.skip_atoms);
  if (!planned.ok()) return planned.status();
  const TSensDataflow& flow = *planned;
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  const int num_atoms = q.num_atoms();
  const size_t num_folds = flow.folds.size();
  const size_t num_trees = flow.tree_folds.size();
  const int threads = options.join.threads;
  TSensCapture* const capture = options.capture;

  // S_a: shared-variable projections with predicates applied. Relation
  // lookups stay serial (Status propagation stays simple); the per-atom
  // scans (ScanAtom) fan out, each task on its own worker context.
  std::vector<const Relation*> atom_rels(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    auto rel = db.Get(q.atom(a).relation);
    if (!rel.ok()) return rel.status();
    atom_rels[static_cast<size_t>(a)] = *rel;
  }
  std::vector<CountedRelation> s;
  s.reserve(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) s.emplace_back(AttributeSet{});
  ParallelApply(ctx, threads, static_cast<size_t>(num_atoms),
                [&](size_t a, ExecContext& wctx) {
                  const int ai = static_cast<int>(a);
                  s[a] = ScanAtom(
                      *atom_rels[a], q.atom(ai), q.SharedVarsOf(ai), &wctx);
                });

  // Capture slots are pre-sized here so the concurrent tree/atom tasks
  // below only ever write disjoint elements.
  if (capture != nullptr) capture->folds.assign(num_folds, {});
  // Only a forest plans tree totals (a lone tree's would have no reader).
  std::vector<Count> tree_total(num_trees >= 2 ? num_trees : 0,
                                Count::Zero());
  // Per fold: full[f] is the exact output the T_a components read, use[f]
  // the version later ⊥/⊤ folds read — the exact output itself, or its
  // top-k truncation held in trunc[f].
  std::vector<std::optional<CountedRelation>> full(num_folds);
  std::vector<std::optional<CountedRelation>> trunc(num_folds);
  std::vector<const CountedRelation*> use(num_folds, nullptr);
  // Per-tree so concurrent trees never share a flag; OR-reduced below.
  std::vector<uint8_t> tree_truncated(num_trees, 0);

  auto pieces_of = [&](const TSensFold& fold, bool exact) {
    std::vector<const CountedRelation*> pieces;
    pieces.reserve(fold.inputs.size());
    for (int id : fold.inputs) {
      const size_t i = static_cast<size_t>(id);
      if (id < num_atoms) {
        pieces.push_back(&s[i]);
      } else {
        const size_t f = i - static_cast<size_t>(num_atoms);
        pieces.push_back(exact ? &*full[f] : use[f]);
      }
    }
    return pieces;
  };
  // Fold f: γ_group(⋈ pieces), ⋈ pieces itself when f has no group, or
  // γ_∅ (the join's total) for a tree total. The last join runs straight
  // into the group-by unless the capture stores the join: then the join is
  // built, grouped, and stored sorted.
  auto run_fold = [&](size_t f, std::vector<const CountedRelation*> pieces,
                      ExecContext& fctx, const JoinOptions& jopts) {
    const TSensFold& fold = flow.folds[f];
    TSensCapture::Fold* cap =
        capture != nullptr ? &capture->folds[f] : nullptr;
    CountedRelation out{AttributeSet{}};
    if (cap != nullptr && flow.CapturesJoin(f)) {
      CountedRelation join = FoldJoin(std::move(pieces), jopts);
      out = fold.group.has_value() ? GroupBySum(join, *fold.group, &fctx)
                                   : join;
      join.Normalize(&fctx);
      cap->join = std::move(join);
    } else if (fold.total) {
      out = FoldJoin(std::move(pieces), jopts, AttributeSet{});
    } else {
      out = FoldJoin(std::move(pieces), jopts, fold.group);
    }
    return out;
  };

  // The ⊥/⊤ folds of one tree run in order (post-order, then pre-order),
  // but distinct trees of the decomposition forest touch disjoint folds —
  // disconnected components run concurrently, each on its own context.
  // Within a tree the FoldJoins parallelize internally (partitioned probe)
  // whenever this pass runs on the main thread.
  auto run_tree = [&](size_t t, ExecContext& tctx, const JoinOptions& jopts) {
    for (int fi : flow.tree_folds[t]) {
      const size_t f = static_cast<size_t>(fi);
      CountedRelation out = run_fold(
          f, pieces_of(flow.folds[f], /*exact=*/false), tctx, jopts);
      if (flow.folds[f].total) {
        tree_total[t] = out.TotalCount();
        continue;
      }
      full[f] = std::move(out);
      use[f] = &*full[f];
      if (options.top_k > 0 && full[f]->NumRows() > options.top_k) {
        trunc[f] = *full[f];
        trunc[f]->TruncateTopK(options.top_k, &tctx);
        tree_truncated[t] = 1;
        use[f] = &*trunc[f];
      }
    }
  };
  if (ShouldRunParallel(threads, num_trees)) {
    ParallelApply(ctx, threads, num_trees, [&](size_t t, ExecContext& wctx) {
      run_tree(t, wctx, WorkerJoinOptions(options.join, wctx));
    });
  } else {
    for (size_t t = 0; t < num_trees; ++t) run_tree(t, ctx, options.join);
  }
  bool truncation_applied = false;
  for (uint8_t f : tree_truncated) truncation_applied = truncation_applied || f;

  // Multiplicity tables T_a (Eq. 6 generalized: within-bag co-atoms join
  // in). The per-atom subproblems only read shared state (s, the ⊥/⊤
  // tables, tree totals) and write disjoint result.atoms slots, so they
  // fan out one task per atom; the winner reduction runs afterwards in
  // atom order, exactly matching the serial tie-breaking.
  SensitivityResult result;
  result.atoms.resize(static_cast<size_t>(num_atoms));
  auto compute_atom = [&](int a, ExecContext& actx, const JoinOptions& jopts) {
    AtomSensitivity& out = result.atoms[static_cast<size_t>(a)];
    out.atom_index = a;
    out.relation = q.atom(a).relation;
    out.table_attrs = q.SharedVarsOf(a);
    out.free_vars = q.ExclusiveVarsOf(a);
    out.max_sensitivity = Count::Zero();
    if (std::find(options.skip_atoms.begin(), options.skip_atoms.end(), a) !=
        options.skip_atoms.end()) {
      out.skipped = true;
      return;
    }

    // Scale factor from the other connected components (§5.4 disconnected
    // join trees): adding a tuple here combines with every full result of
    // the other components.
    const int t = flow.atom_tree[static_cast<size_t>(a)];
    Count scale = Count::One();
    for (size_t t2 = 0; t2 < num_trees; ++t2) {
      if (t2 != static_cast<size_t>(t)) scale *= tree_total[t2];
    }
    if (options.keep_tables) out.factors = AtomSensitivity::Factors{{}, scale};

    // Each attribute-connectivity component is folded separately; T_a =
    // scale × ⨯ components (kept so), and γ/max/argmax distribute over the
    // product. The argmax row is stitched from the per-component argmax
    // rows.
    Count max_product = scale;
    std::vector<Value> argmax(out.table_attrs.size(), 0);
    bool argmax_known = true;
    auto place = [&](const AttributeSet& attrs, std::span<const Value> row) {
      for (size_t j = 0; j < attrs.size(); ++j) {
        auto it = std::lower_bound(out.table_attrs.begin(),
                                   out.table_attrs.end(), attrs[j]);
        LSENS_CHECK(it != out.table_attrs.end() && *it == attrs[j]);
        argmax[static_cast<size_t>(it - out.table_attrs.begin())] = row[j];
      }
    };
    // Only max and argmax are needed unless a table is kept or captured:
    // then a component whose group determines its join rows is maxed per
    // factor instead of materialized (FactorizedMax).
    const bool max_only = !options.keep_tables && capture == nullptr;
    const std::vector<Predicate>& atom_preds = q.atom(a).predicates;
    for (int fi : flow.atom_folds[static_cast<size_t>(a)]) {
      const size_t f = static_cast<size_t>(fi);
      const TSensFold& fold = flow.folds[f];
      const std::vector<const CountedRelation*> pieces =
          pieces_of(fold, /*exact=*/true);
      const bool defaulted = std::any_of(
          pieces.begin(), pieces.end(),
          [](const CountedRelation* p) { return p->has_default(); });
      if (max_only && !defaulted && fold.group.has_value()) {
        const AttributeSet dropped = Difference(fold.scope, *fold.group);
        Count comp_max;
        std::vector<Value> comp_argmax;
        if (GroupDeterminesDropped(pieces, *fold.group, dropped, actx) &&
            FactorizedMax(pieces, *fold.group, dropped, q.atom(a), actx,
                          jopts, &comp_max, &comp_argmax)) {
          max_product *= comp_max;
          if (!comp_max.IsZero()) place(*fold.group, comp_argmax);
          continue;
        }
      }
      // The component table: a lone piece that is already the table, with
      // no predicate to apply, is read in place (every component of a path
      // query) and copied only when the table is kept. Otherwise the fold,
      // filtered by the atom's predicates.
      std::optional<CountedRelation> owned;
      const bool in_place =
          !fold.group.has_value() && pieces.size() == 1 &&
          std::none_of(atom_preds.begin(), atom_preds.end(),
                       [&](const Predicate& p) {
                         return std::binary_search(fold.scope.begin(),
                                                   fold.scope.end(), p.var);
                       });
      if (!in_place) {
        owned = run_fold(f, pieces, actx, jopts);
        if (capture != nullptr && fold.group.has_value()) {
          capture->folds[f].grouped = *owned;
        }
        ApplyPredicates(q.atom(a), &*owned);
      }
      const CountedRelation& table = owned.has_value() ? *owned : *pieces[0];
      max_product *= table.MaxCount();
      if (table.arity() > 0) {  // a scalar component carries no values
        const size_t r = table.ArgMaxRow();
        if (r == SIZE_MAX) {
          argmax_known = false;  // empty or attained by a top-k default
        } else {
          place(table.attrs(), table.Row(r));
        }
      }
      if (out.factors.has_value()) {
        CountedRelation& kept = out.factors->components.emplace_back(
            owned.has_value() ? std::move(*owned) : CountedRelation(table));
        kept.Normalize(&actx);
      }
    }
    out.max_sensitivity = max_product;
    out.approximate = truncation_applied;
    if (!out.max_sensitivity.IsZero() && argmax_known) {
      out.argmax = std::move(argmax);
    }
  };

  // Per-atom task parallelism pays off once two or more tables actually
  // get computed; otherwise stay serial so the single atom's joins keep
  // their partitioned-probe parallelism (regions never nest).
  size_t unskipped = 0;
  for (int a = 0; a < num_atoms; ++a) {
    if (std::find(options.skip_atoms.begin(), options.skip_atoms.end(), a) ==
        options.skip_atoms.end()) {
      ++unskipped;
    }
  }
  if (ShouldRunParallel(threads, unskipped)) {
    ParallelApply(ctx, threads, static_cast<size_t>(num_atoms),
                  [&](size_t a, ExecContext& wctx) {
                    compute_atom(static_cast<int>(a), wctx,
                                 WorkerJoinOptions(options.join, wctx));
                  });
  } else {
    for (int a = 0; a < num_atoms; ++a) compute_atom(a, ctx, options.join);
  }

  result.SelectMostSensitive();
  if (capture != nullptr) {
    capture->s = std::move(s);
    capture->tree_total = std::move(tree_total);
    for (size_t f = 0; f < num_folds; ++f) {  // the ⊥ and ⊤ outputs
      if (full[f].has_value()) capture->folds[f].grouped = std::move(full[f]);
    }
  }
  return result;
}

StatusOr<std::vector<Count>> TupleSensitivities(const SensitivityResult& result,
                                                const ConjunctiveQuery& q,
                                                const Database& db,
                                                int atom_index,
                                                const TSensOptions& options) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  if (atom_index < 0 || atom_index >= static_cast<int>(result.atoms.size()) ||
      atom_index >= q.num_atoms()) {
    return Status::InvalidArgument("atom index out of range");
  }
  const AtomSensitivity& as = result.atoms[static_cast<size_t>(atom_index)];
  if (as.skipped) return Status::InvalidArgument("atom was skipped");
  if (!as.factors.has_value()) {
    return Status::InvalidArgument(
        "multiplicity table not stored; compute with keep_tables = true");
  }
  const Atom& atom = q.atom(atom_index);
  if (as.relation != atom.relation) {
    return Status::InvalidArgument("result is for another query's atom");
  }
  auto column_of = [&](AttrId var) {
    return static_cast<size_t>(
        std::find(atom.vars.begin(), atom.vars.end(), var) - atom.vars.begin());
  };
  for (AttrId var : as.table_attrs) {
    if (column_of(var) == atom.vars.size()) {
      return Status::InvalidArgument(
          "table attribute is not a variable of the query atom");
    }
  }
  const Relation& rel = *db.Find(atom.relation);

  // δ(t) = scale × Π_c T_c(t|attrs(c)), one lookup per component table
  // until a factor is zero; each row writes only its own slot, so the
  // fan-out below returns the exact serial vector. Rows are read a chunk
  // at a time from `columns`: the components' key columns in component
  // order, then one column per predicate.
  const std::vector<CountedRelation>& tables = as.factors->components;
  std::vector<ChunkedColumn> columns;
  for (const CountedRelation& table : tables) {
    for (AttrId var : table.attrs()) {
      columns.push_back(rel.Chunks(column_of(var)));
    }
  }
  const size_t num_keys = columns.size();
  for (const Predicate& p : atom.predicates) {
    columns.push_back(rel.Chunks(column_of(p.var)));
  }
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  OpTimer op(ctx, "tsens.tuple_sens", rel.NumRows());
  const size_t n = rel.NumRows();
  std::vector<Count> out(n, Count::Zero());
  auto lookup_range = [&](size_t begin, size_t end) {
    std::vector<Value> key_values(num_keys);
    const std::span<const Value> key(key_values);
    std::vector<std::span<const Value>> spans(columns.size());
    while (begin < end) {
      const size_t k = begin / kChunkRows;
      const size_t first = begin - k * kChunkRows;
      const size_t last = std::min(end - k * kChunkRows, kChunkRows);
      for (size_t j = 0; j < spans.size(); ++j) spans[j] = columns[j].chunk(k);
      Count* slot = out.data() + k * kChunkRows;
      for (size_t i = first; i < last; ++i) {
        bool pass = true;
        for (size_t p = 0; p < atom.predicates.size() && pass; ++p) {
          pass = atom.predicates[p].Eval(spans[num_keys + p][i]);
        }
        if (!pass) continue;
        for (size_t j = 0; j < num_keys; ++j) key_values[j] = spans[j][i];
        Count delta = as.factors->scale;
        size_t at = 0;
        for (const CountedRelation& table : tables) {
          if (delta.IsZero()) break;
          delta *= table.Lookup(key.subspan(at, table.arity()));
          at += table.arity();
        }
        slot[i] = delta;
      }
      begin = k * kChunkRows + last;
    }
  };
  const int threads = options.join.threads;
  if (ShouldRunParallel(threads, n) && n >= kParallelTupleMinRows) {
    const size_t parts = std::min(static_cast<size_t>(threads), n);
    ParallelApply(ctx, threads, parts, [&](size_t p, ExecContext&) {
      lookup_range(p * n / parts, (p + 1) * n / parts);
    });
  } else {
    lookup_range(0, n);
  }
  op.set_rows_out(n);
  return out;
}

}  // namespace lsens
