#include "query/ghd.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace lsens {

int Ghd::Width() const {
  int w = 0;
  for (const auto& bag : bags) {
    w = std::max(w, static_cast<int>(bag.atom_indices.size()));
  }
  return w;
}

namespace {

// Wraps the bag hyperedges in a synthetic single-atom-per-bag query so we
// can reuse BuildJoinForestGYO. The synthetic query shares no database, so
// we build the forest manually through a bag-level CQ facade.
StatusOr<JoinForest> BuildBagForest(const std::vector<GhdBag>& bags) {
  ConjunctiveQuery bag_query;
  for (size_t i = 0; i < bags.size(); ++i) {
    Atom a;
    a.relation = "bag" + std::to_string(i);
    a.vars.assign(bags[i].vars.begin(), bags[i].vars.end());
    bag_query.AddAtom(std::move(a));
  }
  return BuildJoinForestGYO(bag_query);
}

}  // namespace

StatusOr<Ghd> BuildGhd(const ConjunctiveQuery& q,
                       std::vector<std::vector<int>> bag_specs) {
  const int m = q.num_atoms();
  std::vector<char> assigned(static_cast<size_t>(m), 0);
  Ghd ghd;
  for (auto& spec : bag_specs) {
    if (spec.empty()) return Status::InvalidArgument("empty GHD bag");
    GhdBag bag;
    for (int atom : spec) {
      if (atom < 0 || atom >= m) {
        return Status::InvalidArgument("GHD bag references unknown atom");
      }
      if (assigned[static_cast<size_t>(atom)]) {
        return Status::InvalidArgument(
            "atom assigned to two GHD bags; the §5.4 join-plan form requires "
            "a partition");
      }
      assigned[static_cast<size_t>(atom)] = 1;
      bag.vars = Union(bag.vars, q.atom(atom).VarSet());
      bag.atom_indices.push_back(atom);
    }
    ghd.bags.push_back(std::move(bag));
  }
  for (int i = 0; i < m; ++i) {
    if (!assigned[static_cast<size_t>(i)]) {
      return Status::InvalidArgument("atom " + std::to_string(i) +
                                     " not assigned to any GHD bag");
    }
  }
  auto forest = BuildBagForest(ghd.bags);
  if (!forest.ok()) {
    return Status::Unsupported(
        "bag hypergraph is cyclic; not a valid decomposition");
  }
  ghd.forest = std::move(forest).value();
  return ghd;
}

StatusOr<Ghd> SearchGhd(const ConjunctiveQuery& q, int max_width,
                        int max_atoms) {
  const int m = q.num_atoms();
  if (m > max_atoms) {
    return Status::Unsupported(
        "GHD search is exhaustive over set partitions; query has too many "
        "atoms (" +
        std::to_string(m) + " > " + std::to_string(max_atoms) + ")");
  }
  // Enumerate set partitions via restricted growth strings: rgs[0] = 0 and
  // rgs[i] <= max(rgs[0..i-1]) + 1. Track the best (minimum-width) valid
  // decomposition.
  std::vector<int> rgs(static_cast<size_t>(m), 0);
  bool have_best = false;
  Ghd best;
  // Per atom, its connected component (atoms linked by shared variables).
  // A bag spanning two components would fold their cross product and merge
  // their trees, losing §5.4's per-tree scale factors.
  std::vector<AttributeSet> atom_vars;
  for (int i = 0; i < m; ++i) atom_vars.push_back(q.atom(i).VarSet());
  std::vector<size_t> component(static_cast<size_t>(m));
  const std::vector<std::vector<size_t>> components =
      ConnectivityComponents(atom_vars);
  for (size_t c = 0; c < components.size(); ++c) {
    for (size_t i : components[c]) component[i] = c;
  }

  auto try_partition = [&]() {
    int num_blocks = *std::max_element(rgs.begin(), rgs.end()) + 1;
    std::vector<std::vector<int>> blocks(static_cast<size_t>(num_blocks));
    for (int i = 0; i < m; ++i) {
      blocks[static_cast<size_t>(rgs[static_cast<size_t>(i)])].push_back(i);
    }
    int width = 0;
    for (const auto& b : blocks) {
      width = std::max(width, static_cast<int>(b.size()));
    }
    if (width > max_width) return;
    if (have_best && width >= best.Width()) return;
    for (const auto& b : blocks) {
      for (int atom : b) {
        if (component[static_cast<size_t>(atom)] !=
            component[static_cast<size_t>(b[0])]) {
          return;
        }
      }
    }
    auto ghd = BuildGhd(q, blocks);
    if (!ghd.ok()) return;
    best = std::move(ghd).value();
    have_best = true;
  };

  // Iterative RGS enumeration.
  for (;;) {
    try_partition();
    if (have_best && best.Width() == 1) break;  // can't do better
    // Advance to the next restricted growth string.
    int i = m - 1;
    for (; i > 0; --i) {
      int prefix_max = 0;
      for (int j = 0; j < i; ++j) {
        prefix_max = std::max(prefix_max, rgs[static_cast<size_t>(j)]);
      }
      if (rgs[static_cast<size_t>(i)] <= prefix_max) {
        ++rgs[static_cast<size_t>(i)];
        std::fill(rgs.begin() + i + 1, rgs.end(), 0);
        break;
      }
      // else carry: reset handled by fill above when an increment happens
    }
    if (i == 0) break;  // exhausted
  }

  if (!have_best) {
    return Status::NotFound("no GHD of width <= " + std::to_string(max_width) +
                            " in the atom-partition form");
  }
  return best;
}

Ghd MakeTrivialGhd(const ConjunctiveQuery& q, const JoinForest& forest) {
  Ghd ghd;
  for (int i = 0; i < q.num_atoms(); ++i) {
    GhdBag bag;
    bag.atom_indices = {i};
    bag.vars = q.atom(i).VarSet();
    ghd.bags.push_back(std::move(bag));
  }
  ghd.forest = forest;  // bag index == atom index
  return ghd;
}

int BagOf(const Ghd& ghd, int atom) {
  for (size_t i = 0; i < ghd.bags.size(); ++i) {
    for (int a : ghd.bags[i].atom_indices) {
      if (a == atom) return static_cast<int>(i);
    }
  }
  return -1;
}

StatusOr<TSensPlan> ChooseTSensPlan(const ConjunctiveQuery& q, const Ghd* ghd,
                                    bool allow_path) {
  TSensPlan plan;
  if (ghd != nullptr) {
    plan.source = TSensPlan::Source::kSupplied;
    plan.ghd = *ghd;
    return plan;
  }
  auto forest = BuildJoinForestGYO(q);
  if (!forest.ok()) {
    auto searched = SearchGhd(q, q.num_atoms());
    if (!searched.ok()) return searched.status();
    plan.source = TSensPlan::Source::kSearched;
    plan.ghd = *std::move(searched);
    return plan;
  }
  if (allow_path) {
    std::vector<int> order = PathOrder(q);
    if (order.size() >= 2) {
      // The chain join tree: rooted at order[0], each atom the parent of
      // the next, so ⊤/⊥ are Algorithm 1's prefix and suffix folds.
      std::vector<int> parent(order.size(), -1);
      for (size_t i = 1; i < order.size(); ++i) {
        parent[static_cast<size_t>(order[i])] = order[i - 1];
      }
      JoinForest chain;
      chain.trees.emplace_back(std::move(order), std::move(parent));
      plan.source = TSensPlan::Source::kPath;
      plan.ghd = MakeTrivialGhd(q, chain);
      return plan;
    }
  }
  plan.ghd = MakeTrivialGhd(q, *forest);
  return plan;
}

}  // namespace lsens
