#ifndef LSENS_QUERY_ENUMERATE_H_
#define LSENS_QUERY_ENUMERATE_H_

#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/fold_join.h"
#include "query/ghd.h"
#include "storage/database.h"

namespace lsens {

// Full join-output materialization (over *all* query variables, bag
// multiplicities preserved) in the spirit of Yannakakis [46]: relations are
// first semijoin-reduced bottom-up and top-down along the join tree so that
// every surviving tuple participates in some output, then joined leaves-to-
// root — intermediate results never exceed the final output size.
//
// Cyclic queries go through the GHD: bags are materialized (FoldJoin) and
// the bag tree is reduced/joined the same way.
//
// The output is sorted(). `max_rows` guards runaway outputs
// (Status::Unsupported when exceeded; the output of a join can be
// exponential in the query size).
StatusOr<CountedRelation> EnumerateJoin(const ConjunctiveQuery& q,
                                        const Ghd& ghd, const Database& db,
                                        const JoinOptions& options = {},
                                        size_t max_rows = 50'000'000);

// Facade: GYO for acyclic queries, GHD search otherwise.
StatusOr<CountedRelation> EnumerateQuery(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const JoinOptions& options = {},
                                         size_t max_rows = 50'000'000);

// Semijoin a ⋉ b: rows of `a` (which must be unique()) whose
// shared-attribute projection has a match in `b`, counts and row order
// untouched. An empty intersection keeps `a` iff `b` is
// non-empty. The membership filter runs over the flat hash-group table
// owned by `ctx` (thread-local default when null).
CountedRelation Semijoin(const CountedRelation& a, const CountedRelation& b,
                         ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_QUERY_ENUMERATE_H_
