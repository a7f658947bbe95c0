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

StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options) {
  LSENS_RETURN_IF_ERROR(q.ValidateForSensitivity(db));
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  const int num_atoms = q.num_atoms();
  const size_t num_bags = ghd.bags.size();
  const int threads = options.join.threads;

  std::vector<int> bag_of(static_cast<size_t>(num_atoms), -1);
  for (size_t v = 0; v < num_bags; ++v) {
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

  const size_t num_trees = ghd.forest.trees.size();
  // Capture slots are pre-sized here so the concurrent tree/atom tasks
  // below only ever write disjoint elements.
  if (options.capture != nullptr) {
    options.capture->bot_join.assign(num_bags, std::nullopt);
    options.capture->top_join.assign(num_bags, std::nullopt);
    options.capture->root_join.assign(num_trees, std::nullopt);
    options.capture->atom_components.assign(static_cast<size_t>(num_atoms),
                                            {});
  }
  std::vector<Count> tree_total(num_trees, Count::Zero());
  // ⊥ and ⊤ per bag: *_full are the exact tables the multiplicity-table
  // step consumes, *_use point at the versions the recursions consume —
  // the exact table itself, or its top-k truncation held in *_trunc.
  std::vector<std::optional<CountedRelation>> bot_full(num_bags);
  std::vector<std::optional<CountedRelation>> top_full(num_bags);
  std::vector<std::optional<CountedRelation>> bot_trunc(num_bags);
  std::vector<std::optional<CountedRelation>> top_trunc(num_bags);
  std::vector<const CountedRelation*> bot_use(num_bags, nullptr);
  std::vector<const CountedRelation*> top_use(num_bags, nullptr);
  // Per-tree so concurrent trees never share a flag; OR-reduced below.
  std::vector<uint8_t> tree_truncated(num_trees, 0);

  // The ⊥/⊤ recursions of one tree are order-dependent (post/pre order),
  // but distinct trees of the decomposition forest touch disjoint bags —
  // disconnected components run concurrently, each on its own context.
  // Within a tree the FoldJoins parallelize internally (partitioned probe)
  // whenever this pass runs on the main thread.
  auto run_tree = [&](size_t t, ExecContext& tctx, const JoinOptions& jopts) {
    const JoinTree& tree = ghd.forest.trees[t];
    auto maybe_truncate = [&](const CountedRelation& full,
                              std::optional<CountedRelation>* trunc)
        -> const CountedRelation* {
      if (options.top_k == 0 || full.NumRows() <= options.top_k) return &full;
      *trunc = full;
      (*trunc)->TruncateTopK(options.top_k, &tctx);
      tree_truncated[t] = 1;
      return &**trunc;
    };
    // γ_group(⋈ pieces). The last join runs straight into the group-by,
    // unless the capture keeps the fold: then the fold is built, grouped,
    // and stored sorted in `keep` (its capture slot).
    auto fold_group = [&](std::vector<const CountedRelation*> pieces,
                          const AttributeSet& group,
                          std::optional<CountedRelation>* keep) {
      if (keep == nullptr) {
        return FoldJoin(std::move(pieces), jopts, group);
      }
      CountedRelation folded = FoldJoin(std::move(pieces), jopts);
      CountedRelation grouped = GroupBySum(folded, group, &tctx);
      folded.Normalize(&tctx);
      *keep = std::move(folded);
      return grouped;
    };
    // Botjoins, leaves to root (Eq. 7 generalized to bags).
    for (int bag : tree.PostOrder()) {
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      std::vector<const CountedRelation*> pieces;
      for (int a : spec.atom_indices) {
        pieces.push_back(&s[static_cast<size_t>(a)]);
      }
      for (int c : tree.Children(bag)) {
        pieces.push_back(bot_use[static_cast<size_t>(c)]);
      }
      int parent = tree.Parent(bag);
      if (parent == -1) {
        if (options.capture != nullptr && num_trees >= 2) {
          CountedRelation folded = FoldJoin(std::move(pieces), jopts);
          tree_total[t] = folded.TotalCount();
          folded.Normalize(&tctx);
          options.capture->root_join[t] = std::move(folded);
        } else {
          tree_total[t] =
              FoldJoin(std::move(pieces), jopts, AttributeSet{}).TotalCount();
        }
      } else {
        AttributeSet link = Intersect(
            spec.vars, ghd.bags[static_cast<size_t>(parent)].vars);
        bot_full[static_cast<size_t>(bag)] = fold_group(
            std::move(pieces), link,
            options.capture != nullptr && spec.atom_indices.size() >= 2
                ? &options.capture->bot_join[static_cast<size_t>(bag)]
                : nullptr);
        bot_use[static_cast<size_t>(bag)] =
            maybe_truncate(*bot_full[static_cast<size_t>(bag)],
                           &bot_trunc[static_cast<size_t>(bag)]);
      }
    }
    // Topjoins, root to leaves (Eq. 8 generalized to bags).
    for (int bag : tree.PreOrder()) {
      int p = tree.Parent(bag);
      if (p == -1) continue;
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      const GhdBag& pspec = ghd.bags[static_cast<size_t>(p)];
      std::vector<const CountedRelation*> pieces;
      for (int a : pspec.atom_indices) {
        pieces.push_back(&s[static_cast<size_t>(a)]);
      }
      if (tree.Parent(p) != -1) {
        pieces.push_back(top_use[static_cast<size_t>(p)]);
      }
      for (int sibling : tree.Neighbors(bag)) {
        pieces.push_back(bot_use[static_cast<size_t>(sibling)]);
      }
      AttributeSet link = Intersect(spec.vars, pspec.vars);
      top_full[static_cast<size_t>(bag)] = fold_group(
          std::move(pieces), link,
          options.capture != nullptr && pspec.atom_indices.size() >= 2
              ? &options.capture->top_join[static_cast<size_t>(bag)]
              : nullptr);
      top_use[static_cast<size_t>(bag)] =
          maybe_truncate(*top_full[static_cast<size_t>(bag)],
                         &top_trunc[static_cast<size_t>(bag)]);
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
  result.local_sensitivity = Count::Zero();
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

    const int v = bag_of[static_cast<size_t>(a)];
    const int t = ghd.forest.TreeOf(v);
    LSENS_CHECK(t >= 0);
    const JoinTree& tree = ghd.forest.trees[static_cast<size_t>(t)];

    std::vector<const CountedRelation*> pieces;
    if (tree.Parent(v) != -1) {
      pieces.push_back(&*top_full[static_cast<size_t>(v)]);
    }
    for (int c : tree.Children(v)) {
      pieces.push_back(&*bot_full[static_cast<size_t>(c)]);
    }
    for (int b : ghd.bags[static_cast<size_t>(v)].atom_indices) {
      if (b != a) pieces.push_back(&s[static_cast<size_t>(b)]);
    }

    // Scale factor from the other connected components (§5.4 disconnected
    // join trees): adding a tuple here combines with every full result of
    // the other components.
    Count scale = Count::One();
    for (size_t t2 = 0; t2 < num_trees; ++t2) {
      if (t2 != static_cast<size_t>(t)) scale *= tree_total[t2];
    }
    if (options.keep_tables) out.factors = AtomSensitivity::Factors{{}, scale};

    // Fold each attribute-connectivity component separately; T_a = scale ×
    // ⨯ components (kept so), and γ/max/argmax distribute over the product.
    // The argmax row is stitched from the per-component argmax rows.
    std::vector<AttributeSet> piece_attrs;
    for (const CountedRelation* piece : pieces) {
      piece_attrs.push_back(piece->attrs());
    }
    std::vector<std::vector<size_t>> components =
        ConnectivityComponents(piece_attrs);
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
    const bool max_only = !options.keep_tables && options.capture == nullptr;
    const std::vector<Predicate>& atom_preds = q.atom(a).predicates;
    for (const auto& comp : components) {
      std::vector<const CountedRelation*> comp_pieces;
      AttributeSet comp_attrs;
      bool defaulted = false;
      for (size_t idx : comp) {
        comp_pieces.push_back(pieces[idx]);
        comp_attrs = Union(comp_attrs, pieces[idx]->attrs());
        defaulted = defaulted || pieces[idx]->has_default();
      }
      AttributeSet group = Intersect(out.table_attrs, comp_attrs);
      const bool group_is_full = group == comp_attrs;
      if (max_only && !defaulted) {
        const AttributeSet dropped = Difference(comp_attrs, group);
        Count comp_max;
        std::vector<Value> comp_argmax;
        if (!dropped.empty() &&
            GroupDeterminesDropped(comp_pieces, group, dropped, actx) &&
            FactorizedMax(comp_pieces, group, dropped, q.atom(a), actx, jopts,
                          &comp_max, &comp_argmax)) {
          max_product *= comp_max;
          if (!comp_max.IsZero()) place(group, comp_argmax);
          continue;
        }
      }
      TSensCapture::AtomComponent* cap = nullptr;
      if (options.capture != nullptr) {
        cap = &options.capture->atom_components[static_cast<size_t>(a)]
                   .emplace_back();
      }
      // The component table: a lone piece that is already the table, with
      // no predicate to apply, is read in place (every component of a path
      // query) and copied only when the table is kept. Otherwise the fold,
      // grouped when the group projects it — with the last join run
      // straight into the group-by unless the capture keeps the fold.
      std::optional<CountedRelation> owned;
      const bool in_place =
          comp.size() == 1 && group_is_full &&
          std::none_of(atom_preds.begin(), atom_preds.end(),
                       [&](const Predicate& p) {
                         return std::binary_search(comp_attrs.begin(),
                                                   comp_attrs.end(), p.var);
                       });
      if (!in_place && cap == nullptr && !group_is_full) {
        owned = FoldJoin(std::move(comp_pieces), jopts, group);
      } else if (!in_place) {
        CountedRelation folded = FoldJoin(std::move(comp_pieces), jopts);
        // Multi-piece folds must be kept whole (no single piece covers
        // them); grouped tables only when grouping actually projected.
        if (cap != nullptr && comp.size() >= 2) {
          cap->join = folded;
          cap->join->Normalize(&actx);
        }
        owned = group_is_full ? std::move(folded)
                              : GroupBySum(folded, group, &actx);
        if (cap != nullptr && !group_is_full) cap->table = *owned;
      }
      if (owned.has_value()) ApplyPredicates(q.atom(a), &*owned);
      const CountedRelation& table =
          owned.has_value() ? *owned : *pieces[comp[0]];
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

  for (int a = 0; a < num_atoms; ++a) {
    const AtomSensitivity& out = result.atoms[static_cast<size_t>(a)];
    if (out.max_sensitivity > result.local_sensitivity ||
        (result.argmax_atom == -1 && !out.max_sensitivity.IsZero())) {
      result.local_sensitivity = out.max_sensitivity;
      result.argmax_atom = a;
    }
  }
  if (options.capture != nullptr) {
    options.capture->s_sig.clear();
    options.capture->s_sig.reserve(s.size());
    for (size_t a = 0; a < s.size(); ++a) {
      options.capture->s_sig.push_back(CanonicalSourceSignature(
          q.atom(static_cast<int>(a)), s[a].attrs()));
    }
    options.capture->s = std::move(s);
    options.capture->bot = std::move(bot_full);
    options.capture->top = std::move(top_full);
    options.capture->tree_total = tree_total;
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
