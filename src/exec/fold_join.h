#ifndef LSENS_EXEC_FOLD_JOIN_H_
#define LSENS_EXEC_FOLD_JOIN_H_

#include <optional>
#include <vector>

#include "exec/join.h"

namespace lsens {

// Joins a set of counted relations into one, choosing the join order
// greedily: the accumulator starts at the piece with the fewest rows (among
// non-defaulted pieces) and each step picks the remaining piece minimizing
// the result-row count, preferring attribute-sharing pieces over cross
// products. A lone sharing piece is joined next without a count, and
// cross-product sizes are plain products. Two or more sharing pieces
// compete by key bounds when each has one: pieces are unique(), so when
// one side's attributes lie inside the other's, the join has at most the
// other side's rows. A contest with any unbounded contender counts every
// contender exactly (EstimateJoinRows) instead. Defaulted (top-k) pieces
// are only joined once the accumulator covers their attributes; a
// defaulted piece the accumulator never covers is a caller error and
// CHECK-fails (its dropped rows cannot be restored).
//
// This is the workhorse behind the paper's r⋈(X1, ..., Xp) expressions:
// botjoins/topjoins (Eq. 7–8), multiplicity tables (Eq. 6, including the
// potentially cyclic joins of §5.2's hard example), bag materialization for
// GHDs, and query-count evaluation.
//
// Pieces must be unique(). The output has NaturalJoin's contract: unique,
// row order unspecified but deterministic. An empty `pieces` yields the
// unit relation.
//
// With a `group`, the result is γ_group of the fold, sorted, and the last
// join never materializes: it runs as JoinGroupBySum (a lone piece is
// grouped as it is). Join order and kernels are the same as without one.
// Only callers that read nothing but the grouped table pass a group; a
// caller that keeps the fold itself folds without. Recorded as
// "fold_join", rows_out being the rows returned (grouped ones, with a
// group).
CountedRelation FoldJoin(std::vector<const CountedRelation*> pieces,
                         const JoinOptions& options = {},
                         const std::optional<AttributeSet>& group =
                             std::nullopt);

}  // namespace lsens

#endif  // LSENS_EXEC_FOLD_JOIN_H_
