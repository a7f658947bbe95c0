#include "exec/fold_join.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "exec/exec_context.h"

namespace lsens {

namespace {

// The most rows acc ⋈ piece can have when a key bounds it. Both are
// unique(), so a side whose attributes lie inside the other's meets each
// row of the other at most once: the join has at most the other's rows.
std::optional<size_t> KeyBound(const CountedRelation& acc,
                               const CountedRelation& piece) {
  std::optional<size_t> bound;
  if (IsSubset(acc.attrs(), piece.attrs())) bound = piece.NumRows();
  if (IsSubset(piece.attrs(), acc.attrs())) {
    bound = std::min(bound.value_or(SIZE_MAX), acc.NumRows());
  }
  return bound;
}

}  // namespace

CountedRelation FoldJoin(std::vector<const CountedRelation*> pieces,
                         const JoinOptions& options,
                         const std::optional<AttributeSet>& group) {
  if (pieces.empty()) {
    LSENS_CHECK(!group.has_value() || group->empty());
    return CountedRelation::Unit();
  }
  ExecContext& ctx = ResolveExecContext(options.ctx);
  uint64_t rows_in = 0;
  for (const CountedRelation* piece : pieces) rows_in += piece->NumRows();
  OpTimer op(ctx, "fold_join", rows_in);

  std::vector<const CountedRelation*> remaining = pieces;
  // Start from the smallest non-defaulted piece; if everything is
  // defaulted (degenerate), undo the first piece's truncation semantics by
  // treating its explicit rows as exact (sound upper-bound direction is
  // preserved because defaults only ever raise counts).
  size_t start = SIZE_MAX;
  for (size_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i]->has_default()) continue;
    if (start == SIZE_MAX ||
        remaining[i]->NumRows() < remaining[start]->NumRows()) {
      start = i;
    }
  }
  LSENS_CHECK_MSG(start != SIZE_MAX,
                  "FoldJoin needs at least one non-defaulted piece");
  // The accumulator points at the first piece, which the first join only
  // reads, and then at `joined`; a piece is copied only when it is the
  // whole fold.
  const CountedRelation* acc = remaining[start];
  remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(start));
  CountedRelation joined{AttributeSet{}};

  while (!remaining.empty()) {
    // Pick the piece minimizing the joined row count; among pieces that
    // share no attribute with the accumulator (cross products) only pick
    // one if no sharing piece exists. Defaulted pieces are eligible only
    // when covered by the accumulator's attributes. Only a contest between
    // two or more sharing pieces needs row counts: a lone sharing piece
    // wins regardless of its size. A contest ranks by key bounds when
    // every contender has one, and by exact counts otherwise, never by a
    // mix of the two.
    auto eligible = [&](const CountedRelation* piece) {
      return !piece->has_default() || IsSubset(piece->attrs(), acc->attrs());
    };
    size_t sharing = 0;
    bool keyed = true;
    for (const CountedRelation* piece : remaining) {
      if (eligible(piece) && Intersects(piece->attrs(), acc->attrs())) {
        ++sharing;
        keyed = keyed && KeyBound(*acc, *piece).has_value();
      }
    }
    size_t best = SIZE_MAX;
    size_t best_rows = std::numeric_limits<size_t>::max();
    bool best_shares = false;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const CountedRelation* piece = remaining[i];
      if (!eligible(piece)) continue;
      bool shares = Intersects(piece->attrs(), acc->attrs());
      size_t rows = 0;
      if (piece->has_default()) {
        rows = acc->NumRows();  // covering join keeps acc's rows
      } else if (!shares) {
        rows = acc->NumRows() * piece->NumRows();  // cross product
      } else if (sharing >= 2) {
        rows = keyed ? *KeyBound(*acc, *piece)
                     : EstimateJoinRows(*acc, *piece, options.ctx,
                                        options.threads);
      }
      if (best == SIZE_MAX || (shares && !best_shares) ||
          (shares == best_shares && rows < best_rows)) {
        best = i;
        best_rows = rows;
        best_shares = shares;
      }
    }
    // Only deferred defaulted pieces remain and none is covered. Their
    // truncation cannot be undone (the rows were dropped), and joining
    // their explicit rows alone would undercount the absent ones, so the
    // caller must never pass such a piece.
    LSENS_CHECK_MSG(best != SIZE_MAX,
                    "defaulted piece never covered by the accumulator");
    if (group.has_value() && remaining.size() == 1) {
      CountedRelation grouped =
          JoinGroupBySum(*acc, *remaining[best], *group, options);
      op.set_rows_out(grouped.NumRows());
      return grouped;
    }
    joined = NaturalJoin(*acc, *remaining[best], options);
    acc = &joined;
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
  }
  if (group.has_value()) {  // a lone piece: nothing to join
    CountedRelation grouped = GroupBySum(*acc, *group, &ctx);
    op.set_rows_out(grouped.NumRows());
    return grouped;
  }
  op.set_rows_out(acc->NumRows());
  if (acc != &joined) return *acc;
  return joined;
}

}  // namespace lsens
