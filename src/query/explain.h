#ifndef LSENS_QUERY_EXPLAIN_H_
#define LSENS_QUERY_EXPLAIN_H_

#include <string>

#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "storage/catalog.h"

namespace lsens {

class ExecContext;

// Human-readable report of how a query will be processed: its datalog form,
// acyclicity, the join forest or GHD (ASCII tree with link attributes), the
// Theorem 5.1 complexity parameters (max degree, doubly-acyclic, path), and
// which algorithm the TSens facade would pick (ChooseTSensPlan, so `ghd`,
// when given, is the decomposition rendered, acyclic queries included).
// Intended for logs, examples, and debugging decompositions.
std::string ExplainQuery(const ConjunctiveQuery& q,
                         const AttributeCatalog& attrs,
                         const Ghd* ghd = nullptr);

// Just the ASCII tree for a decomposition.
std::string RenderGhdTree(const ConjunctiveQuery& q,
                          const AttributeCatalog& attrs, const Ghd& ghd);

// The execution profile collected in `ctx` (exec/exec_context.h), one
// aligned row per operator (calls, rows in/out, hash-build rows, wall
// milliseconds). Run a query or TSens pass with TSensOptions::join.ctx /
// JoinOptions::ctx pointing at a context, then print this. Wall times of
// nested operators overlap (a fold_join's time includes its joins).
// Parallel runs (JoinOptions::threads > 1) report here too: worker-context
// stats are merged back into the primary context after every parallel
// region, so calls/rows columns are identical to a serial run's at any
// thread count (wall times overlap across workers, like nested operators).
// This is the one place the query layer reads exec state — reporting only,
// kept header-light via the forward declaration above.
std::string RenderExecStats(const ExecContext& ctx);

}  // namespace lsens

#endif  // LSENS_QUERY_EXPLAIN_H_
