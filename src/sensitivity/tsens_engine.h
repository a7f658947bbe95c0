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

// Internal engine state exported for the incremental sensitivity subsystem
// (sensitivity/incremental.h) when TSensOptions::capture is set: the
// per-atom projections and the untruncated fold tables the result was
// derived from, so a cache can repair them under updates instead of
// rebuilding. `s` is indexed by atom, `bot`/`top` by bag (disengaged at
// roots).
//
// The capture also holds the intermediate fold tables the grouped results
// were derived from, exactly where a repairing cache needs to materialize
// them as its own maintained state: per-bag pre-group-by joins (multi-atom
// bags have no single relation covering the fold, so the join itself must
// be kept to route deltas through), per-tree root folds and totals (§5.4
// disconnected scale factors), and per-atom multiplicity-table
// components. Every captured table is sorted().
struct TSensCapture {
  std::vector<CountedRelation> s;

  // Canonical subtree tag per s[i] (query/conjunctive_query.h:
  // CanonicalSourceSignature over the producing atom and its keep set),
  // filled alongside `s`. The cross-query plan cache keys
  // shared S_a tables by these; BuildState cross-checks them against its
  // own derivation so engine and cache can never disagree silently about
  // what a captured table is.
  std::vector<std::string> s_sig;
  std::vector<std::optional<CountedRelation>> bot;
  std::vector<std::optional<CountedRelation>> top;

  // Per bag: the fold behind bot[v] / top[v] before the group-by onto the
  // parent link. bot_join[v] is filled when bag v holds >= 2 atoms;
  // top_join[v] when v's *parent* bag does (otherwise the fold is covered
  // by a single S table and needs no separate state).
  std::vector<std::optional<CountedRelation>> bot_join;
  std::vector<std::optional<CountedRelation>> top_join;

  // Per tree of the decomposition forest: the root bag's full fold (whose
  // TotalCount is the tree's join size) and that total. root_join is only
  // filled for forests with >= 2 trees — connected queries never consume
  // the cross-tree scale factors.
  std::vector<std::optional<CountedRelation>> root_join;
  std::vector<Count> tree_total;

  // Per atom, per attribute-connectivity component of its multiplicity
  // table (engine component order): `join` is the fold over the
  // component's pieces (filled when the component has >= 2 pieces), and
  // `table` the grouped — but not yet predicate-filtered — component table
  // (filled when grouping actually projected the fold, i.e. the group
  // attributes are a proper subset of the fold's). Skipped atoms keep an
  // empty component list.
  struct AtomComponent {
    std::optional<CountedRelation> join;
    std::optional<CountedRelation> table;
  };
  std::vector<std::vector<AtomComponent>> atom_components;
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
  // max_sensitivity 0 and do not participate in the argmax.
  std::vector<int> skip_atoms;

  // When non-null, the engine additionally exports its internal tables
  // here (copies made after the run; the result is unaffected). Used by
  // SensitivityCache to seed its repairable state from the exact tables
  // the from-scratch answer was computed from.
  TSensCapture* capture = nullptr;
};

// TSens over a generalized hypertree decomposition (Algorithm 2 and its
// §5.4 GHD extension; acyclic queries use the trivial width-1 GHD).
// Algorithm 1 is this engine over a path query's chain join tree, whose
// ⊤/⊥ are the prefix and suffix folds along the chain.
//
// Per tree of the decomposition forest:
//   ⊥(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ v}, {⊥(c) : c child} )
//   ⊤(v) = γ_{vars(v) ∩ vars(parent)} r⋈( {S_a : a ∈ parent}, ⊤(parent),
//                                          {⊥(s) : s sibling} )
//   T_a  = γ_{shared(a)}             r⋈( ⊤(bag(a)), {⊥(c) : c child},
//                                          {S_b : b ∈ bag(a), b ≠ a} )
// where S_a is atom a's relation projected onto its shared variables with
// multiplicity counts (exclusive attributes contribute their multiplicity
// and are reported as free values of the most sensitive tuple).
//
// Disconnected queries (§5.4): T_a counts are scaled by the product of the
// other components' total join sizes.
//
// The T_a expression can factor into attribute-disjoint groups (always the
// case for path queries: ⊤ and ⊥ share nothing). The engine exploits
// γ_{X∪Y}(A × B) = γ_X(A) × γ_Y(B) to never materialize such cross
// products: max and argmax combine per group, and keep_tables keeps the
// groups' tables apart.
StatusOr<SensitivityResult> TSensOverGhd(const ConjunctiveQuery& q,
                                         const Ghd& ghd, const Database& db,
                                         const TSensOptions& options = {});

// Partitions pieces into connectivity components over `link`: pieces whose
// link attributes intersect transitively end up together, and pieces with
// no link attributes are singleton components (scalars, when linking by
// the pieces' own attributes). Components are ordered by their first
// piece, pieces within one in input order. The engine factors T_a along
// these; SensitivityCache's state builder reuses it so the two partitions
// line up index for index.
std::vector<std::vector<size_t>> ConnectivityComponents(
    const std::vector<AttributeSet>& link);

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
