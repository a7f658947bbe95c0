#ifndef LSENS_QUERY_GHD_H_
#define LSENS_QUERY_GHD_H_

#include <vector>

#include "common/status.h"
#include "query/conjunctive_query.h"
#include "query/join_tree.h"
#include "storage/attribute_set.h"

namespace lsens {

// A generalized hypertree decomposition in the restricted form §5.4 uses:
// every atom is assigned to exactly one bag, a bag's attribute set is the
// union of its atoms' variables, and the bags form a join forest (GYO-
// acyclic when each bag is viewed as one hyperedge). Evaluating/analyzing a
// cyclic query then reduces to the acyclic machinery over bag relations.
struct GhdBag {
  std::vector<int> atom_indices;  // >= 1 atoms, disjoint across bags
  AttributeSet vars;              // union of the atoms' variables
};

struct Ghd {
  std::vector<GhdBag> bags;
  JoinForest forest;  // trees over bag indices

  // Max atoms per bag (the parameter p of §5.4's O(m^p d n^{pd} log n)).
  int Width() const;
};

// Builds a GHD from explicit bags (vectors of atom indices). Fails if the
// bags do not partition the atoms or the bag hypergraph is cyclic.
StatusOr<Ghd> BuildGhd(const ConjunctiveQuery& q,
                       std::vector<std::vector<int>> bags);

// Exhaustive search for a minimum-width GHD of this restricted form, by
// enumerating set partitions of the atoms (restricted-growth strings) with
// block size <= max_width, none spanning two connected components of the
// query, and testing bag-hypergraph acyclicity. Exponential in the number
// of atoms — intended for the small queries of the paper (<= ~10 atoms);
// returns Unsupported beyond `max_atoms`.
StatusOr<Ghd> SearchGhd(const ConjunctiveQuery& q, int max_width,
                        int max_atoms = 12);

// Wraps an acyclic query's join forest as a width-1 GHD (one atom per bag,
// bag index == atom index), so acyclic and cyclic queries share one
// execution/sensitivity engine.
Ghd MakeTrivialGhd(const ConjunctiveQuery& q, const JoinForest& forest);

// Bag index containing `atom`, or -1.
int BagOf(const Ghd& ghd, int atom);

// The decomposition the TSens facade (sensitivity/tsens.h) runs
// TSensOverGhd over. One chooser serves the facade, the SensitivityCache's
// repair plans, ExplainQuery, and count evaluation, so they cannot
// disagree.
struct TSensPlan {
  // Where `ghd` came from: the chain join tree of a path query (§4; its
  // ⊤/⊥ are Algorithm 1's prefix and suffix folds), the caller, GYO (one
  // atom per bag), or SearchGhd.
  enum class Source { kPath, kSupplied, kGyo, kSearched };
  Source source = Source::kGyo;
  Ghd ghd;
};

// A supplied `ghd` wins for every query. Otherwise an acyclic query takes
// its chain join tree when `allow_path` and PathOrder finds a chain of at
// least two atoms (rooted at the chain's first atom, each atom the parent
// of the next), else its GYO join forest; a cyclic query takes a
// minimum-width SearchGhd decomposition, or that search's error.
StatusOr<TSensPlan> ChooseTSensPlan(const ConjunctiveQuery& q, const Ghd* ghd,
                                    bool allow_path);

}  // namespace lsens

#endif  // LSENS_QUERY_GHD_H_
