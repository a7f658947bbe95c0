#ifndef LSENS_TESTS_TEST_UTIL_H_
#define LSENS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/counted_relation.h"
#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "sensitivity/naive.h"
#include "sensitivity/result.h"
#include "storage/database.h"

namespace lsens::testing {

// Relation equality, row for row: same attributes, same default, and the
// same row and count at every position. For contracts where row order is
// part of the answer — thread-count and engine determinism.
::testing::AssertionResult SameRowsInOrder(const CountedRelation& expected,
                                           const CountedRelation& actual);

// Relation equality up to row order: normalized copies compared row for
// row. For outputs whose order is unspecified (join kernels, join orders).
::testing::AssertionResult SameRowsUpToOrder(const CountedRelation& expected,
                                             const CountedRelation& actual);

// Fixture data for the paper's running examples.
struct PaperExample {
  Database db;
  ConjunctiveQuery query;
};

// Figure 1: R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F); |Q(D)| = 1,
// LS = 4 with most sensitive tuple R1(a2, b2, c1).
PaperExample MakeFigure1Example();

// Figure 3 (clean variant): Qpath-4(A..E) :- R1(A,B),R2(B,C),R3(C,D),R4(D,E)
// with R1 = {(a1,b1),(a2,b1)}, R2 = {(b1,c1),(b2,c2)},
// R3 = {(c1,d1),(c1,d2)}, R4 = {(d1,e1),(d2,e1)}; |Q(D)| = 4 and the most
// sensitive tuple is R2(b1, c1) with sensitivity 4.
PaperExample MakeFigure3Example();

// TupleSensitivities(result, atom) — result computed with keep_tables over
// ex — against NaiveTupleSensitivity, row for row. The rows are
// snapshotted first: the oracle restores the relation's contents but may
// permute its row order.
void ExpectTupleSensitivitiesMatchOracle(const SensitivityResult& result,
                                         PaperExample& ex, int atom,
                                         const NaiveOptions& nopts = {});

// Random-instance generators for property-based tests. Values are drawn
// from a small domain so joins collide; duplicate rows are possible (bag
// semantics must handle them).
struct RandomQuerySpec {
  int min_atoms = 2;
  int max_atoms = 5;
  int max_attrs_per_atom = 3;
  int max_rows = 8;
  int domain_size = 3;
  double predicate_probability = 0.15;
  bool allow_exclusive_attrs = true;
};

// Generates a random acyclic query (built as an explicit join tree: each
// atom shares a nonempty attribute subset with its parent) plus a random
// database instance for it.
PaperExample MakeRandomAcyclicInstance(Rng& rng, const RandomQuerySpec& spec);

// Generates a random path query R0(x0,x1), R1(x1,x2), ..., R{m-1} whose
// relations hold up to `max_rows` rows each (duplicates allowed) over
// [0, domain_size). The atoms enter the query in a random order, so the
// chain order PathOrder finds is generally not the atom order.
PaperExample MakeRandomPathInstance(Rng& rng, int m, int max_rows,
                                    int domain_size);

// Generates a random instance of the triangle query
// Q(A,B,C) :- R1(A,B), R2(B,C), R3(C,A)  (cyclic).
PaperExample MakeRandomTriangleInstance(Rng& rng, int max_rows,
                                        int domain_size);

// How MakeRandomCycleInstance shapes the data around E1's first column.
enum class CycleKeys {
  // E1's first column is a key (each value in at most one row), so `X0,X1`
  // determine X2 and E0's multiplicity table takes the factorized max.
  kKeyed,
  // Every relation repeats values in both columns, predicates included: no
  // column is a key and no multiplicity table takes the factorized max.
  kUnkeyed,
};

// Random instance of the cycle query E0(X0,X1), E1(X1,X2), ...,
// E{length-1}(X{length-1},X0) for length 3 (triangle) or 4 (4-cycle). With
// probability 1/2 atom E0 carries a predicate on one of its variables.
PaperExample MakeRandomCycleInstance(Rng& rng, int length, int max_rows,
                                     int domain_size, CycleKeys keys);

// The width-2 GHD of a MakeRandomCycleInstance query pairing consecutive
// atoms: {E0,E1},{E2} for the triangle, {E0,E1},{E2,E3} for the 4-cycle.
Ghd PairedCycleGhd(const ConjunctiveQuery& q);

// --- Seeded stream workloads ---------------------------------------------
// Shared by the streaming suites (incremental_test, plan_cache_test,
// serving_test): one seed determines both the instance build and the delta
// stream, so every suite replays the identical workload family instead of
// keeping its own diverging copy of the generator.

// Query shapes the streaming suites replay.
enum class StreamShape { kPath, kTree, kTriangle };

// A db+query instance for `shape`: path = the Figure 3 running example
// (non-trivial by construction), tree = a random acyclic instance,
// triangle = a random cyclic instance.
PaperExample MakeStreamInstance(Rng& rng, StreamShape shape);

// The query's relation names in atom order (an atom per element, so
// relations mentioned by more atoms are mutated proportionally more often).
std::vector<std::string> QueryRelationNames(const ConjunctiveQuery& q);

// One randomized batch of 1..max_ops inserts/deletes against a single
// random relation of `relations`, returned as a DatabaseDelta that applies
// cleanly through Database::ApplyDelta (delete indices are distinct and in
// range for the relation's current size).
DatabaseDelta MakeRandomDelta(Rng& rng, const Database& db,
                              const std::vector<std::string>& relations,
                              int domain, size_t max_ops = 3);

// Applies one randomized batch (1..max_ops inserts/deletes) to a random
// relation of `relations`, mixing the direct mutators
// (AppendRow/SwapRemoveRow) and the batched ApplyDelta path so streams
// exercise both changelog producers.
void ApplyRandomMutation(Rng& rng, Database& db,
                         const std::vector<std::string>& relations,
                         int domain, size_t max_ops = 3);

}  // namespace lsens::testing

#endif  // LSENS_TESTS_TEST_UTIL_H_
