#ifndef LSENS_QUERY_ATOM_SCAN_H_
#define LSENS_QUERY_ATOM_SCAN_H_

#include "exec/counted_relation.h"
#include "query/conjunctive_query.h"
#include "storage/attribute_set.h"
#include "storage/relation.h"

namespace lsens {

// Ingests one atom of a query into a CountedRelation: binds columns to
// variables, applies the atom's predicates, projects onto `keep` (must be a
// subset of the atom's variables), and normalizes (duplicates grouped,
// counts summed; the output is sorted()). Normalize scratch comes from
// `ctx` (the thread-local default when null — pass the worker context when
// called from a parallel region).
//
// This is the query layer's bridge from stored relations to the exec
// layer's counted representation. It lives here (not on CountedRelation)
// so exec never depends on query-layer types like Atom — the include DAG
// is common ← storage ← exec ← query ← sensitivity ← {server, dp,
// workload}, enforced by tools/lsens_lint.
CountedRelation ScanAtom(const Relation& rel, const Atom& atom,
                         const AttributeSet& keep, ExecContext* ctx = nullptr);

}  // namespace lsens

#endif  // LSENS_QUERY_ATOM_SCAN_H_
