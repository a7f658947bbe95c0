#ifndef LSENS_SENSITIVITY_TSENS_ENGINE_H_
#define LSENS_SENSITIVITY_TSENS_ENGINE_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "exec/fold_join.h"
#include "query/ghd.h"
#include "sensitivity/result.h"
#include "storage/database.h"

namespace lsens {

// Algorithm 2's dataflow over one decomposition (and its §5.4 GHD
// extension), planned from the query and the GHD before any table is read.
// Tables are numbered: id a below the query's atom count n is S_a, atom a's
// relation projected onto its shared variables; id n + f is fold f's
// output.
//
// Every fold is γ_group(r⋈ inputs). Per tree of the decomposition forest:
//   ⊥(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ v}, {⊥(c) : c child} )
//   ⊤(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ parent}, ⊤(parent),
//                                          {⊥(s) : s sibling} )
// and, only in a forest of two or more trees, the root bag's fold
// r⋈( {S_a : a ∈ root}, {⊥(c)} ), whose total is the tree's join size: it
// scales the other trees' atoms (§5.4), and nothing else reads it, so a
// lone tree's root has no ⊥ fold. Per unskipped atom, T_a's
// attribute-disjoint components:
//   T_a  = γ_{shared(a)} r⋈( ⊤(bag(a)), {⊥(c) : c child},
//                            {S_b : b ∈ bag(a), b ≠ a} )
// split into the components the pieces form when linked by shared
// attributes, one fold per component.
struct TSensFold {
  std::vector<int> inputs;  // table ids, in the engine's piece order
  AttributeSet scope;       // ∪ of the inputs' attributes
  // The output's attributes. Disengaged when the output is the join itself:
  // a tree total, or a component whose group covers its scope.
  std::optional<AttributeSet> group;
  int tree = -1;       // the decomposition tree the fold belongs to
  bool total = false;  // a forest root's fold: TotalCount is the tree's size
  // inputs[0] covers the scope and every other input is keyed on its
  // columns, so the fold is a sum over inputs[0]'s rows: a bag fold whose
  // bag (the parent's, for ⊤) holds one atom, or a component of one piece.
  // Otherwise two or more of the inputs join as equals.
  bool driven = false;
};

struct TSensDataflow {
  std::vector<TSensFold> folds;
  // Per tree: its ⊥ folds in post-order (in a forest, the root's total
  // last), then its ⊤ folds in pre-order. Fold ids ascend along the list.
  std::vector<std::vector<int>> tree_folds;
  // Per atom: the folds of T_a's components, in component order; empty for
  // a skipped atom.
  std::vector<std::vector<int>> atom_folds;
  std::vector<int> atom_tree;  // per atom: the tree its bag is in

  // Whether a capture stores fold f's join: a repairing cache keeps it as
  // its own table when no input drives the fold, and keeps every tree
  // total (only forests plan them) for the other trees' scale factors.
  bool CapturesJoin(size_t f) const;
};

// Validates `ghd` against `q` (every atom in exactly one bag, every bag in a
// tree) and `skip_atoms` (each a query atom), and plans the dataflow.
StatusOr<TSensDataflow> PlanTSensDataflow(const ConjunctiveQuery& q,
                                          const Ghd& ghd,
                                          const std::vector<int>& skip_atoms);

// The tables a TSensOverGhd run derived its result from (TSensOptions::
// capture): S_a per atom, and per dataflow fold its join (when
// TSensDataflow::CapturesJoin) and its grouped output before any predicate
// filter (when it has a group). Every captured table is sorted(); the
// folds' tables are the exact ones, never their top-k truncations.
struct TSensCapture {
  struct Fold {
    std::optional<CountedRelation> join;
    std::optional<CountedRelation> grouped;
  };
  std::vector<CountedRelation> s;
  std::vector<Fold> folds;
  // Per tree, its join size, for a forest of two or more trees; empty for
  // a lone tree, whose total nothing reads (so none was computed).
  std::vector<Count> tree_total;
};

// Options shared by all TSens algorithm variants.
struct TSensOptions {
  // Join kernel selection, stats context, and parallelism: join.threads > 1
  // lets the engine fan its independent subproblems (per-atom multiplicity
  // tables, the trees of a disconnected forest, per-tuple lookups) and
  // large hash-join probes out over the process-wide thread pool. Results
  // are bit-identical to serial at any thread count.
  JoinOptions join;

  // §5.4 "Efficient approximations": when > 0, botjoins and topjoins keep
  // only the top_k highest-count rows plus the k-th largest count as a
  // default for the remaining active values. All reported sensitivities
  // become upper bounds (AtomSensitivity::approximate is set when a table
  // was affected).
  size_t top_k = 0;

  // Store each unskipped atom's multiplicity table T_i in the result
  // (AtomSensitivity::factors) for TupleSensitivities' per-tuple lookups.
  bool keep_tables = false;

  // Atoms whose multiplicity table should not be computed, e.g. relations
  // whose query variables contain a superkey so δ <= 1 by construction (the
  // paper skips Lineitem in q3 this way). Skipped atoms report
  // max_sensitivity 0 and do not participate in the argmax. An entry
  // outside the query is InvalidArgument.
  std::vector<int> skip_atoms;

  // When non-null, the engine also exports the tables its result was
  // derived from here (the result is unaffected). SensitivityCache seeds
  // its repairable state from them.
  TSensCapture* capture = nullptr;
};

// TSens over a generalized hypertree decomposition (Algorithm 2 and its
// §5.4 GHD extension; acyclic queries use the trivial width-1 GHD): plans
// the dataflow (PlanTSensDataflow), scans S_a per atom, runs each tree's
// folds and then each atom's T_a components, and reduces the per-atom
// maxima. Algorithm 1 is this engine over a path query's chain join tree,
// whose ⊤/⊥ are the prefix and suffix folds along the chain. S_a keeps an
// atom's shared variables with multiplicity counts (exclusive attributes
// contribute their multiplicity and are reported as free values of the most
// sensitive tuple).
//
// Disconnected queries (§5.4): T_a counts are scaled by the product of the
// other trees' total join sizes.
//
// T_a is never materialized across its components: γ_{X∪Y}(A × B) =
// γ_X(A) × γ_Y(B), so max and argmax combine per component, and
// keep_tables keeps the components' tables apart.
StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options = {});

// δ(t) for every row of the relation bound by `atom_index`, in row order:
// scale × one lookup per component table (AtomSensitivity::factors).
// Requires `result` computed with keep_tables = true over the same query
// and database, with the atom unskipped; otherwise InvalidArgument. Rows
// failing the atom's predicates have sensitivity 0.
// `options.join` supplies the stats context and the thread count: with
// threads > 1 the per-row lookups are chunked over the global pool (each
// row writes its own slot, so the vector is bit-identical to serial).
StatusOr<std::vector<Count>> TupleSensitivities(const SensitivityResult& result,
                                                const ConjunctiveQuery& q,
                                                const Database& db,
                                                int atom_index,
                                                const TSensOptions& options =
                                                    {});

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_TSENS_ENGINE_H_
