#ifndef LSENS_SENSITIVITY_TSENS_H_
#define LSENS_SENSITIVITY_TSENS_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "query/ghd.h"
#include "sensitivity/result.h"
#include "sensitivity/tsens_engine.h"
#include "storage/database.h"

namespace lsens {

// Facade options for ComputeLocalSensitivity.
struct TSensComputeOptions : TSensOptions {
  // Run a single-attribute-link path query over its chain join tree
  // (Algorithm 1's ⊤/⊥ folds) rather than its GYO join forest. Both trees
  // give identical results; the choice only changes the work done.
  bool prefer_path_algorithm = true;

  // Decomposition to run TSensOverGhd over. When set it is used for every
  // query, acyclic ones included (no path or GYO choice is made). When
  // null, acyclic queries use their chain join tree or GYO join forest,
  // and cyclic ones a minimum-width atom-partition GHD from SearchGhd()
  // (small queries only). ChooseTSensPlan (query/ghd.h) is the dispatch.
  const Ghd* ghd = nullptr;
};

// Entry point for the local sensitivity problem (Definition 2.3): computes
// LS(Q, D) and a most sensitive tuple by running TSensOverGhd over the
// decomposition ChooseTSensPlan picks: Algorithm 1 is Algorithm 2 over a
// path query's chain tree, Algorithm 2 runs acyclic queries over their GYO
// join trees, and the §5.4 GHD extension covers cyclic queries (or any
// query with options.ghd set).
StatusOr<SensitivityResult> ComputeLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options = {});

// Turns the result's most sensitive tuple into a concrete row insertable
// into its relation: bound attributes take the argmax values; free
// (exclusive) attributes take any value satisfying the atom's predicates.
// Fails if LS = 0, the argmax row is unknown (top-k default), or no single
// value satisfies all predicates on a free attribute.
StatusOr<std::pair<int, std::vector<Value>>> MaterializeMostSensitiveTuple(
    const SensitivityResult& result, const ConjunctiveQuery& q);

// Downward-only local sensitivity: max_t δ⁻(t) over the tuples *present*
// in D — the deletion-propagation view the paper contrasts with (§8).
// The result's per-atom maxima/argmaxes and tables range over the active
// domain only; insertions are not considered. Incompatible with top_k
// (exact tables are required).
StatusOr<SensitivityResult> ComputeDownwardLocalSensitivity(
    const ConjunctiveQuery& q, const Database& db,
    const TSensComputeOptions& options = {});

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_TSENS_H_
