#ifndef LSENS_QUERY_ATOM_SCAN_H_
#define LSENS_QUERY_ATOM_SCAN_H_

#include "exec/counted_relation.h"
#include "query/conjunctive_query.h"
#include "storage/attribute_set.h"
#include "storage/relation.h"

namespace lsens {

// Ingests one atom of a query into a CountedRelation: binds columns to
// variables, applies the atom's predicates, and projects onto `keep` (must
// be a subset of the atom's variables) with one row per distinct projected
// row, counting its source rows; the output is sorted(). A lone kept
// column whose selected values strictly increase is copied out with count
// 1 as it is checked. Otherwise, when the kept columns' ranges fit in 64
// bits together, each row's key is packed straight from the column
// chunks, the keys are sorted (radix, skipped when already ordered), and
// runs of equal keys are decoded into the output; wider keys are
// projected row-major and normalized. Scratch comes from
// `ctx` (the thread-local default when null — pass the worker context when
// called from a parallel region), which records one "scan" call with
// rows_in = selected rows and rows_out = distinct rows.
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
