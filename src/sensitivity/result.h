#ifndef LSENS_SENSITIVITY_RESULT_H_
#define LSENS_SENSITIVITY_RESULT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/count.h"
#include "exec/counted_relation.h"
#include "storage/attribute_set.h"
#include "storage/catalog.h"
#include "storage/dictionary.h"

namespace lsens {

// Sensitivity summary for one atom (relation) of the query.
struct AtomSensitivity {
  int atom_index = -1;
  std::string relation;

  // Attributes of the multiplicity table T_i — the atom's shared variables.
  // A most-sensitive tuple binds these; `free_vars` (variables exclusive to
  // this atom) may take any value satisfying the atom's predicates (§5.4
  // "extrapolate a value").
  AttributeSet table_attrs;
  AttributeSet free_vars;

  // max_t δ(t, Q, D) over the representative domain of this relation.
  Count max_sensitivity;

  // Values for table_attrs attaining max_sensitivity; empty when
  // max_sensitivity is zero or attained only by a top-k default bound.
  // Ties are broken deterministically: among the table rows attaining the
  // max, the lexicographically smallest in table_attrs order wins.
  // TSensOverGhd reports that same row under any decomposition, with or
  // without keep_tables.
  std::vector<Value> argmax;

  // True if the caller excluded this atom (TSensOptions::skip_atoms).
  bool skipped = false;

  // True when max_sensitivity is an upper bound rather than exact
  // (top-k approximation touched this table).
  bool approximate = false;

  // T_i as the engine factors it, populated for unskipped atoms when
  // TSensOptions::keep_tables: T_i(t) = scale × Π_c components[c](t) over
  // attribute-disjoint, sorted component tables on subsets of table_attrs,
  // with `scale` the §5.4 product of the other trees' join sizes.
  struct Factors {
    std::vector<CountedRelation> components;
    Count scale;
  };
  std::optional<Factors> factors;
};

// Output of the local sensitivity problem (Definition 2.3): LS(Q, D) plus a
// most sensitive tuple, and per-relation detail.
struct SensitivityResult {
  Count local_sensitivity;
  int argmax_atom = -1;                 // index into `atoms`
  std::vector<AtomSensitivity> atoms;   // one per query atom

  const AtomSensitivity* MostSensitive() const;

  // Sets local_sensitivity and argmax_atom from `atoms`: a strictly greater
  // max_sensitivity wins, so the lowest atom index wins a tie, and an
  // all-zero result (skipped atoms are zero) has LS 0 and no argmax atom.
  void SelectMostSensitive();

  // Human-readable description of the most sensitive tuple, e.g.
  // "R1(A=a2, B=b2, C=c1) with sensitivity 4". Uses `dict` to render
  // interned string values when provided.
  std::string DescribeMostSensitive(const AttributeCatalog& attrs,
                                    const Dictionary* dict = nullptr) const;
};

}  // namespace lsens

#endif  // LSENS_SENSITIVITY_RESULT_H_
