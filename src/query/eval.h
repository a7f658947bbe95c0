#ifndef LSENS_QUERY_EVAL_H_
#define LSENS_QUERY_EVAL_H_

#include "common/count.h"
#include "common/status.h"
#include "exec/fold_join.h"
#include "query/ghd.h"
#include "storage/database.h"

namespace lsens {

// |Q(D)| for a (possibly cyclic) query via a generalized hypertree
// decomposition: bags are folded together with their children's botjoins
// (greedy join order — bag-internal cross products are deferred until
// selective pieces have pruned the accumulator).
StatusOr<Count> CountGhd(const ConjunctiveQuery& q, const Ghd& ghd,
                         const Database& db, const JoinOptions& options = {});

// Facade: validates, decomposes through ChooseTSensPlan (`ghd` if given,
// else the GYO join forest, else a searched GHD — the decomposition the
// TSens facade runs over), and counts. Acyclic queries count
// Yannakakis-style: near-linear in the input, never in the output.
StatusOr<Count> CountQuery(const ConjunctiveQuery& q, const Database& db,
                           const JoinOptions& options = {},
                           const Ghd* ghd = nullptr);

// Test oracle: materializes the full join output over all variables by
// folding atoms pairwise, returned sorted(). Exponential in general —
// small inputs only.
StatusOr<CountedRelation> BruteForceJoin(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const JoinOptions& options = {});
StatusOr<Count> BruteForceCount(const ConjunctiveQuery& q, const Database& db,
                                const JoinOptions& options = {});

}  // namespace lsens

#endif  // LSENS_QUERY_EVAL_H_
