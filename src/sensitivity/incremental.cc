#include "sensitivity/incremental.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "exec/dyn_table.h"
#include "exec/exec_context.h"
#include "query/ghd.h"
#include "query/join_tree.h"

namespace lsens {

// Internal machinery. The repairable state is the engine's dataflow
// (PlanTSensDataflow), one node form per fold, as a DAG of maintained
// tables:
//
//   sources      S_a = γ_keep(σ_pred(R_a))           one per atom
//   group nodes  out = γ_group(driver ⋈ inputs...)   a driven fold's γ
//   join nodes   out[t] = Π_i pieces[i][proj_i(t)]   an undriven fold's r⋈
//
// A driven fold's other inputs are keyed on column subsets of its driver
// (running intersection guarantees this for join trees), so a node's
// group `g` re-aggregates as
//
//   out[g] = Σ_{driver rows r, r.group = g} cnt(r) · Π_i inputs[i][r.key_i]
//
// — the exact multiset of saturating products the from-scratch FoldJoin +
// GroupBySum pipeline sums, which is why repaired tables are bit-identical
// (saturating + and · are order-independent over a fixed multiset). Where
// no single input drives a fold — a multi-atom GHD bag, a T_a component
// whose pieces share attributes — a join node materializes the fold (and a
// group node driven by it takes the γ): pieces are unique, so every output
// row combines exactly one row per piece and its count is a pure product,
// recomputable per row from point lookups. A forest's tree totals keep
// their full fold the same way, for the §5.4 cross-tree scale factors.
//
// Cross-query sharing: nodes are not owned per cache entry. Every node is
// keyed by its canonical subtree signature (query/conjunctive_query.h) in
// one store; entries acquire nodes by signature and attach when the node
// already exists, so overlapping queries maintain each distinct subtree
// once. Node tables use canonical attribute ids {0..arity-1} — equal
// signatures guarantee equal column order by induction, so rows transfer
// positionally between queries with different AttrId vocabularies.
//
// One delta pass (SyncStore) repairs the whole store: it applies the
// relations' row deltas to the source nodes, then walks the fold nodes in
// creation order (children always precede parents) re-aggregating only
// groups (or join rows) reachable from a changed key; newly joinable rows
// of a join node are enumerated by extending each changed piece key
// through the other pieces' secondary indexes. Per-piece max/argmax
// trackers — registered on the node by every dependent entry — maintain
// the engine's predicate-filtered MaxCount/ArgMaxRow (first, i.e.
// lexicographically smallest, row attaining the max), falling back to a
// table rescan only when the tracked argmax group itself decays.
// Disconnected forests additionally keep one running join total per tree
// root node (exact subtract-old/add-new per changed root-fold row),
// re-multiplied into every atom's scale factor at assembly. Nodes the pass
// cannot repair (unanswerable log, over-budget delta, saturation, spill)
// are marked stale with a reason that cascades to their dependents;
// entries touching a stale node recompute from scratch, and the rebuild
// reloads the node from the fresh engine capture for everyone at once.
namespace incremental_detail {

namespace {

int ColOf(const AttributeSet& attrs, AttrId attr) {
  auto it = std::lower_bound(attrs.begin(), attrs.end(), attr);
  LSENS_CHECK(it != attrs.end() && *it == attr);
  return static_cast<int>(it - attrs.begin());
}

std::vector<int> ColsOf(const AttributeSet& attrs, const AttributeSet& sub) {
  std::vector<int> cols;
  cols.reserve(sub.size());
  for (AttrId a : sub) cols.push_back(ColOf(attrs, a));
  return cols;
}

bool LexLess(std::span<const Value> a, std::span<const Value> b) {
  return CompareRows(a, b) < 0;
}

AttributeSet CanonicalAttrs(size_t arity) {
  AttributeSet attrs;
  attrs.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs.push_back(static_cast<AttrId>(i));
  }
  return attrs;
}

}  // namespace

struct SharedNode;

// One max/argmax view of a maintained table (a shared node's output),
// filtered by an atom's predicates: the incremental stand-in for the
// engine's `ApplyPredicates + MaxCount + ArgMaxRow` on one
// multiplicity-table piece. Owned by a cache entry (its RepairState);
// registered on the target node so the global delta pass updates every
// dependent entry's trackers in one sweep.
// `attrs` is the owning entry's attribute view of the target table (same
// order as the table columns — signature sharing guarantees it), used to
// build the checks and to map the argmax row back into result attributes.
struct Tracker {
  SharedNode* target = nullptr;
  AttributeSet attrs;
  std::vector<std::pair<int, Predicate>> checks;  // (column, predicate)
  Count max = Count::Zero();
  std::vector<Value> argmax;  // lexmin row attaining max; empty when none
  bool dirty = false;

  bool Passes(std::span<const Value> key) const {
    for (const auto& [col, pred] : checks) {
      if (!pred.Eval(key[static_cast<size_t>(col)])) return false;
    }
    return true;
  }
};

// One shared, canonically-keyed maintained table plus the recipe to repair
// it. Three kinds:
//
//   kSource — S_a = γ_keep(σ_pred(R_a)): repaired straight from the
//   relation's change log (keep_cols/preds address relation columns).
//
//   kGroup — out = γ_group(driver ⋈ inputs...). The driver is a driven
//   fold's first input, a source or a node (inputs keyed on driver
//   columns), or a join node's output (a γ over a materialized fold;
//   inputs stay empty — the join already folded everything in).
//
//   kJoin — out = r⋈(pieces...): the materialized fold of pieces no single
//   relation covers. Pieces are unique, so every output row combines
//   exactly one row per piece and carries their saturating count product
//   over the scope = ∪ piece attrs.
//
// Children are held by shared_ptr (a node keeps its subtree alive);
// `parents` are raw back-pointers maintained by the destructor, used to
// cascade staleness upward. Entries keep shared_ptrs to every node they
// depend on, so the store can drop exactly the nodes no entry references.
struct SharedNode {
  enum class Kind { kSource, kGroup, kJoin };
  enum class StaleReason { kNone, kLog, kLargeDelta, kSaturated, kSpilled };

  struct Input {
    std::shared_ptr<SharedNode> node;
    std::vector<int> driver_cols;  // driver columns forming its key
    int driver_index = -1;         // secondary index on the driver for them
  };

  // One expansion step for a changed key of an origin piece: probe this
  // piece's table on the columns it shares with the scope attributes bound
  // so far and extend each partial scope row with the matches.
  struct Expand {
    size_t piece = 0;                   // index into `pieces`
    int index = -1;                     // secondary index on its table
    std::vector<int> probe_scope_cols;  // scope columns carrying the key
  };

  struct Piece {
    std::shared_ptr<SharedNode> ref;
    std::vector<int> scope_cols;  // scope column per piece-table column
    int out_index = -1;           // index on `table` over scope_cols
    std::vector<Expand> expands;  // the other pieces, in piece order
  };

  SharedNode(Kind k, size_t arity, std::string signature)
      : sig(std::move(signature)), kind(k), table(CanonicalAttrs(arity)) {}
  SharedNode(const SharedNode&) = delete;
  SharedNode& operator=(const SharedNode&) = delete;
  ~SharedNode() {
    auto drop = [&](const std::shared_ptr<SharedNode>& child) {
      if (child == nullptr) return;
      auto& v = child->parents;
      v.erase(std::remove(v.begin(), v.end(), this), v.end());
    };
    drop(driver);
    for (const Input& in : inputs) drop(in.node);
    for (const Piece& p : pieces) drop(p.ref);
  }

  std::string sig;
  uint64_t fp = 0;  // CanonicalFingerprint(sig); stats/display only
  Kind kind;
  DynTable table;  // canonical attrs {0..arity-1}

  // kSource
  std::string relation;
  std::vector<size_t> keep_cols;  // relation column per output column
  std::vector<std::pair<size_t, Predicate>> preds;  // (relation column, p)
  uint64_t version = 0;  // relation version the table reflects

  // kGroup
  std::shared_ptr<SharedNode> driver;
  std::vector<int> group_cols;  // driver columns forming the out key
  int driver_group_index = -1;  // secondary index on the driver for them
  std::vector<Input> inputs;

  // kJoin
  std::vector<Piece> pieces;

  // §5.4: this node is a tree's root fold and `total` is its running join
  // size (TotalCount), consumed as the other trees' scale factor.
  bool track_total = false;
  Count total = Count::Zero();

  StaleReason stale = StaleReason::kNone;
  bool released = false;  // table storage dropped by the byte budget

  std::vector<SharedNode*> parents;   // fold nodes consuming this one
  std::vector<Tracker*> trackers;     // attached entry trackers
  uint64_t seq = 0;        // creation order: children precede parents
  uint64_t last_used = 0;  // LRU tick for the spill policy
  size_t accounted_bytes = 0;  // last MemoryBytes charged to state_bytes

  // Per delta pass: output keys whose count changed, sorted, for the
  // parents, and (parallel) each key's count before the pass.
  std::vector<std::vector<Value>> changed;
  std::vector<Count> changed_old;

  // A key's count before this delta pass: its recorded old count if the
  // pass changed it, else the (unchanged) current one.
  Count OldCount(std::span<const Value> key) const {
    auto it = std::lower_bound(
        changed.begin(), changed.end(), key,
        [](const std::vector<Value>& a, std::span<const Value> b) {
          return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                              b.end());
        });
    if (it != changed.end() && std::equal(it->begin(), it->end(), key.begin(),
                                          key.end())) {
      return changed_old[static_cast<size_t>(it - changed.begin())];
    }
    return table.Get(key);
  }

  void ClearChanged() {
    changed.clear();
    changed_old.clear();
  }
};

// Marks a node unrepairable and cascades to every dependent fold node (a
// stale child makes the parent's re-aggregation read stale state). The
// first reason sticks; an already-stale node implies already-stale
// ancestors, so the walk stops there.
void MarkStale(SharedNode* node, SharedNode::StaleReason reason) {
  if (node->stale != SharedNode::StaleReason::kNone) return;
  node->stale = reason;
  for (SharedNode* p : node->parents) MarkStale(p, reason);
}

struct RepairState {
  RepairState() = default;
  RepairState(const RepairState&) = delete;
  RepairState& operator=(const RepairState&) = delete;
  ~RepairState() {
    for (auto& unit : trackers) {
      for (Tracker& t : unit) {
        auto& v = t.target->trackers;
        v.erase(std::remove(v.begin(), v.end(), &t), v.end());
      }
    }
  }

  std::vector<std::shared_ptr<SharedNode>> sources;  // per atom
  std::vector<std::shared_ptr<SharedNode>> nodes;    // acquire order
  // Result assembly: atom a multiplies the pieces trackers[a] (engine
  // component order). Tracker addresses must stay stable (the target nodes
  // point back at them): the vectors are sized once in BuildState and
  // never touched again.
  std::vector<std::vector<Tracker>> trackers;
  // §5.4 disconnected forests: the root node carrying each tree's running
  // total (empty for a single tree — the scale factor is then an empty
  // product), and the tree each atom lives in.
  std::vector<std::shared_ptr<SharedNode>> total_nodes;
  std::vector<int> atom_tree;
};

// The plan the facade picks (ChooseTSensPlan), and whether repair models it.
struct Plan {
  bool supported = false;
  std::string reason;  // when !supported
  TSensPlan engine;    // the decomposition TSensOverGhd runs over
};

namespace {

// The facade's own dispatch, so the capture run below executes the same
// engine over the same decomposition the facade would pick and BuildState
// consumes matching tables. Cyclic queries search their GHD once per
// fingerprint here, pinned in the plan. Only top_k and keep_tables remain
// unsupported: both change what the engine computes (truncated tables /
// the kept component tables of each T_a) in ways the maintained state
// deliberately does not model, so they stay version-memoized fallbacks.
Plan MakePlan(const ConjunctiveQuery& q, const TSensComputeOptions& options) {
  Plan plan;
  if (options.top_k > 0 || options.keep_tables) {
    plan.reason =
        options.top_k > 0 ? "top-k approximation" : "keep_tables requested";
    return plan;
  }
  auto engine = ChooseTSensPlan(q, options.ghd, options.prefer_path_algorithm);
  if (!engine.ok()) {
    plan.reason = "cyclic query (GHD search failed)";
    return plan;
  }
  plan.supported = true;
  plan.engine = *std::move(engine);
  return plan;
}

// Full recomputation of a tracker from its table (also the initial fill).
void RescanTracker(Tracker& t, uint64_t* rows_touched) {
  const DynTable& table = t.target->table;
  t.max = Count::Zero();
  t.argmax.clear();
  table.ForEachRow([&](uint32_t r) {
    ++*rows_touched;
    std::span<const Value> key = table.RowValues(r);
    if (!t.Passes(key)) return;
    Count c = table.RowCount(r);
    if (c > t.max) {
      t.max = c;
      t.argmax.assign(key.begin(), key.end());
    } else if (c == t.max && !c.IsZero() && LexLess(key, t.argmax)) {
      t.argmax.assign(key.begin(), key.end());
    }
  });
  t.dirty = false;
}

// O(1) maintenance under one group change; marks dirty when only a rescan
// can re-establish the engine's first-attaining-row tie-break.
void UpdateTracker(Tracker& t, std::span<const Value> key, Count value) {
  if (t.dirty || !t.Passes(key)) return;
  if (value > t.max) {
    t.max = value;
    t.argmax.assign(key.begin(), key.end());
    return;
  }
  if (!value.IsZero() && value == t.max) {
    if (t.argmax.empty() || LexLess(key, t.argmax)) {
      t.argmax.assign(key.begin(), key.end());
    }
    return;
  }
  // The tracked argmax group decreased below the recorded max: other
  // attaining groups (if any) are unknown without a rescan.
  if (!t.argmax.empty() && value < t.max &&
      CompareRows(key, t.argmax) == 0) {
    t.dirty = true;
  }
}

void Project(std::span<const Value> row, const std::vector<int>& cols,
             std::vector<Value>* out) {
  out->clear();
  for (int c : cols) out->push_back(row[static_cast<size_t>(c)]);
}

void SortUnique(std::vector<std::vector<Value>>* keys) {
  std::sort(keys->begin(), keys->end());
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

// Sorts `keys` and drops repeats, keeping with each key the first of its
// `old` counts (parallel to `keys`) — its count before the first change.
void SortUniqueKeepFirst(std::vector<std::vector<Value>>* keys,
                         std::vector<Count>* old) {
  std::vector<size_t> order(keys->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*keys)[a] < (*keys)[b];
  });
  std::vector<std::vector<Value>> sorted_keys;
  std::vector<Count> sorted_old;
  for (size_t i : order) {
    if (!sorted_keys.empty() && sorted_keys.back() == (*keys)[i]) continue;
    sorted_keys.push_back(std::move((*keys)[i]));
    sorted_old.push_back((*old)[i]);
  }
  *keys = std::move(sorted_keys);
  *old = std::move(sorted_old);
}

}  // namespace

// The canonical-signature node store: one shared_ptr per live node. The
// map ref plus children refs plus entry refs make use_count() == 1 the
// exact "no entry depends on this anymore" test the sweep uses.
struct NodeStore {
  std::unordered_map<std::string, std::shared_ptr<SharedNode>> by_sig;
  uint64_t next_seq = 0;
};

}  // namespace incremental_detail

using incremental_detail::CanonicalAttrs;
using incremental_detail::ColsOf;
using incremental_detail::MakePlan;
using incremental_detail::MarkStale;
using incremental_detail::NodeStore;
using incremental_detail::Plan;
using incremental_detail::Project;
using incremental_detail::RepairState;
using incremental_detail::RescanTracker;
using incremental_detail::SharedNode;
using incremental_detail::SortUnique;
using incremental_detail::SortUniqueKeepFirst;
using incremental_detail::Tracker;
using incremental_detail::UpdateTracker;

struct SensitivityCache::Store {
  NodeStore ns;
};

struct SensitivityCache::Entry {
  std::string key;
  std::vector<std::string> relations;  // atom order (unique: no self-joins)
  std::vector<uint64_t> versions;      // parallel to `relations`
  SensitivityResult result;
  std::unique_ptr<RepairState> state;  // null: memoize-only entry
  std::string unsupported_reason;      // when state is null
  uint64_t last_used = 0;
};

SensitivityCache::SensitivityCache(SensitivityCacheConfig config)
    : config_(config), store_(std::make_unique<Store>()) {
  // At least the entry being inserted must survive an eviction sweep.
  config_.max_entries = std::max<size_t>(1, config_.max_entries);
  // The delta gate compares change counts against fraction * (rows +
  // changes); outside [0, 1] the fraction either always or never rejects
  // in surprising ways, so clamp to the meaningful range.
  config_.max_delta_fraction =
      std::clamp(config_.max_delta_fraction, 0.0, 1.0);
  LSENS_CHECK(config_.changelog_capacity > 0);
}

SensitivityCache::~SensitivityCache() = default;

void SensitivityCache::Clear() {
  entries_.clear();
  SweepStore();
}

// Drops store nodes no entry references anymore. A node is held by the
// store map, by its parents' recipes, and by every dependent entry; once
// only the map holds it (use_count == 1) nothing can reach it. Erasing a
// parent releases its children, so iterate to the fixpoint.
void SensitivityCache::SweepStore() {
  auto& by_sig = store_->ns.by_sig;
  bool erased = true;
  while (erased) {
    erased = false;
    // lsens-lint: allow(unordered-iter) erase-to-fixpoint over a set: which
    // nodes die is determined by use_count alone and the byte gauge is a
    // commutative sum, so visit order cannot reach results or stats.
    for (auto it = by_sig.begin(); it != by_sig.end();) {
      if (it->second.use_count() == 1) {
        stats_.state_bytes -= it->second->accounted_bytes;
        it = by_sig.erase(it);
        erased = true;
      } else {
        ++it;
      }
    }
  }
  stats_.shared_nodes = by_sig.size();
}

namespace {

// Re-charges a node's DynTable footprint against the global gauge.
void RefreshNodeBytes(SharedNode& node, SensitivityCacheStats& stats) {
  stats.state_bytes -= node.accounted_bytes;
  node.accounted_bytes = node.released ? 0 : node.table.MemoryBytes();
  stats.state_bytes += node.accounted_bytes;
}

}  // namespace

// Spills shared-node tables, stale-first then least-recently-used, until
// the held DynTable bytes fit the budget. Results stay memoized (unchanged
// versions still hit) and the node recipes stay installed; a spilled node
// is stale, so the next dependent recompute reloads it from that entry's
// fresh capture — for every other dependent too.
void SensitivityCache::EnforceStateBudget(ExecContext& ctx) {
  if (config_.max_state_bytes == 0) return;
  while (stats_.state_bytes > config_.max_state_bytes) {
    SharedNode* victim = nullptr;
    // lsens-lint: allow(unordered-iter) argmin under a strict total order
    // (stale beats fresh, then oldest last_used, then smallest seq): the
    // winner — and therefore the spill sequence and stats — is the same
    // whatever order the map yields candidates in.
    for (const auto& [sig, node] : store_->ns.by_sig) {
      if (node->released || node->accounted_bytes == 0) continue;
      if (victim == nullptr) {
        victim = node.get();
        continue;
      }
      const bool v_stale = victim->stale != SharedNode::StaleReason::kNone;
      const bool n_stale = node->stale != SharedNode::StaleReason::kNone;
      bool better;
      if (n_stale != v_stale) {
        better = n_stale;
      } else if (node->last_used != victim->last_used) {
        better = node->last_used < victim->last_used;
      } else {
        better = node->seq < victim->seq;  // total order: ties cannot leak
      }
      if (better) victim = node.get();
    }
    if (victim == nullptr) return;  // nothing left to spill
    ++stats_.spills;
    ctx.Record("cache.spill", victim->accounted_bytes, 0, 0, 0.0);
    victim->table.Release();
    victim->released = true;
    MarkStale(victim, SharedNode::StaleReason::kSpilled);
    RefreshNodeBytes(*victim, stats_);
  }
}

std::string SensitivityCache::Fingerprint(const ConjunctiveQuery& q,
                                          const TSensComputeOptions& options) {
  std::ostringstream out;
  for (const Atom& atom : q.atoms()) {
    out << atom.relation << '(';
    for (AttrId v : atom.vars) out << v << ',';
    out << ')';
    for (const Predicate& p : atom.predicates) {
      out << '[' << p.var << ' ' << static_cast<int>(p.op) << ' ' << p.rhs
          << ']';
    }
    out << ';';
  }
  out << "|top_k=" << options.top_k << "|keep=" << options.keep_tables
      << "|path=" << options.prefer_path_algorithm;
  std::vector<int> skips = options.skip_atoms;
  std::sort(skips.begin(), skips.end());
  skips.erase(std::unique(skips.begin(), skips.end()), skips.end());
  out << "|skip=";
  for (int a : skips) out << a << ',';
  out << "|ghd=";
  if (options.ghd != nullptr) {
    for (const GhdBag& bag : options.ghd->bags) {
      out << '{';
      for (int a : bag.atom_indices) out << a << ',';
      out << '}';
    }
    // Two GHDs over identical bags can differ in forest shape, and the
    // repair state is wired to one shape — distinguish them.
    out << "|forest=";
    for (const JoinTree& tree : options.ghd->forest.trees) {
      out << '(';
      for (int b : tree.members()) out << b << ':' << tree.Parent(b) << ',';
      out << ')';
    }
  }
  return out.str();
}

bool SensitivityCache::RepairSupported(const ConjunctiveQuery& q,
                                       const TSensComputeOptions& options,
                                       std::string* reason) {
  Plan plan = MakePlan(q, options);
  if (!plan.supported && reason != nullptr) *reason = plan.reason;
  return plan.supported;
}

namespace {

bool ContainsAtom(const std::vector<int>& skip_atoms, int atom) {
  return std::find(skip_atoms.begin(), skip_atoms.end(), atom) !=
         skip_atoms.end();
}

// Entry-local handle on an acquired node: the index spaces mirror the old
// per-entry layout (sources by atom, fold nodes by acquire order). Exactly
// one of the two is set.
struct TableRef {
  int source = -1;
  int node = -1;
};

// Builds one entry's RepairState against the shared store: every table is
// acquired by canonical signature — attached when a structurally identical
// node already exists (reloading it from this entry's capture when stale
// or spilled, and rescanning every attached tracker so the non-stale ⇒
// valid-trackers invariant holds), created and loaded otherwise. Because
// SyncStore runs before the engine on every path that reaches here, an
// existing non-stale node is guaranteed current, which the acquire
// verifies against the capture snapshot.
struct StateBuilder {
  const ConjunctiveQuery& q;
  const Database& db;
  NodeStore& store;
  SensitivityCacheStats& stats;
  const uint64_t tick;
  RepairState& state;
  std::vector<AttributeSet> source_attrs;  // entry view, parallel to sources
  std::vector<AttributeSet> node_attrs;    // entry view, parallel to nodes
  uint64_t scan_rows = 0;                  // tracker rescans on reload

  const AttributeSet& attrs_of(TableRef ref) const {
    return ref.source >= 0 ? source_attrs[static_cast<size_t>(ref.source)]
                           : node_attrs[static_cast<size_t>(ref.node)];
  }
  const std::shared_ptr<SharedNode>& ptr_of(TableRef ref) const {
    return ref.source >= 0 ? state.sources[static_cast<size_t>(ref.source)]
                           : state.nodes[static_cast<size_t>(ref.node)];
  }

  template <typename BuildFn>
  std::shared_ptr<SharedNode> Acquire(const std::string& sig,
                                      SharedNode::Kind kind,
                                      const CountedRelation& snapshot,
                                      BuildFn&& build, bool* current) {
    auto it = store.by_sig.find(sig);
    if (it != store.by_sig.end()) {
      const std::shared_ptr<SharedNode>& node = it->second;
      LSENS_CHECK(node->kind == kind);
      node->last_used = tick;
      ++stats.shared_attaches;
      if (node->stale != SharedNode::StaleReason::kNone) {
        node->table.LoadRows(snapshot);
        node->released = false;
        node->stale = SharedNode::StaleReason::kNone;
        for (Tracker* t : node->trackers) RescanTracker(*t, &scan_rows);
        *current = false;
      } else {
        // SyncStore already advanced it to the data the engine just read.
        LSENS_CHECK(node->table.num_rows() == snapshot.NumRows());
        *current = true;
      }
      RefreshNodeBytes(*node, stats);
      return node;
    }
    std::shared_ptr<SharedNode> node = build();
    node->fp = CanonicalFingerprint(sig);
    node->seq = store.next_seq++;
    node->last_used = tick;
    node->table.LoadRows(snapshot);
    store.by_sig.emplace(sig, node);
    stats.shared_nodes = store.by_sig.size();
    RefreshNodeBytes(*node, stats);
    *current = false;
    return node;
  }

  // S_a = γ_keep(σ_pred(R_a)).
  TableRef AcquireSource(int atom_index, AttributeSet keep,
                         const CountedRelation& snapshot) {
    const Atom& atom = q.atom(atom_index);
    std::string sig = CanonicalSourceSignature(atom, keep);
    bool current = false;
    std::shared_ptr<SharedNode> node = Acquire(
        sig, SharedNode::Kind::kSource, snapshot,
        [&] {
          auto n = std::make_shared<SharedNode>(SharedNode::Kind::kSource,
                                                keep.size(), sig);
          n->relation = atom.relation;
          n->keep_cols.reserve(keep.size());
          for (AttrId a : keep) {
            size_t col = 0;
            while (atom.vars[col] != a) ++col;
            n->keep_cols.push_back(col);
          }
          n->preds.reserve(atom.predicates.size());
          for (const Predicate& p : atom.predicates) {
            size_t col = 0;
            while (atom.vars[col] != p.var) ++col;
            n->preds.emplace_back(col, p);
          }
          return n;
        },
        &current);
    const Relation* rel = db.Find(atom.relation);
    LSENS_CHECK(rel != nullptr);  // the engine just read it
    if (current) {
      LSENS_CHECK(node->version == rel->version());
    } else {
      node->version = rel->version();
    }
    state.sources.push_back(std::move(node));
    source_attrs.push_back(std::move(keep));
    return TableRef{static_cast<int>(state.sources.size() - 1), -1};
  }

  // out = γ_group(driver ⋈ inputs...); inputs are (child, driver columns
  // carrying its key) in the engine's order.
  TableRef AddGroupNode(
      TableRef driver, const AttributeSet& group,
      const std::vector<std::pair<TableRef, std::vector<int>>>& inputs,
      const CountedRelation& snapshot) {
    std::vector<int> group_cols = ColsOf(attrs_of(driver), group);
    std::vector<CanonicalChild> canon_inputs;
    canon_inputs.reserve(inputs.size());
    for (const auto& [ref, driver_cols] : inputs) {
      canon_inputs.push_back(CanonicalChild{ptr_of(ref)->sig, driver_cols});
    }
    std::string sig = CanonicalGroupSignature(ptr_of(driver)->sig, group_cols,
                                              std::move(canon_inputs));
    bool current = false;
    std::shared_ptr<SharedNode> node = Acquire(
        sig, SharedNode::Kind::kGroup, snapshot,
        [&] {
          auto n = std::make_shared<SharedNode>(SharedNode::Kind::kGroup,
                                                group.size(), sig);
          n->driver = ptr_of(driver);
          n->group_cols = group_cols;
          n->driver_group_index = n->driver->table.AddIndex(group_cols);
          for (const auto& [ref, driver_cols] : inputs) {
            SharedNode::Input in;
            in.node = ptr_of(ref);
            in.driver_cols = driver_cols;
            in.driver_index = n->driver->table.AddIndex(driver_cols);
            n->inputs.push_back(std::move(in));
          }
          n->driver->parents.push_back(n.get());
          for (const SharedNode::Input& in : n->inputs) {
            in.node->parents.push_back(n.get());
          }
          return n;
        },
        &current);
    state.nodes.push_back(std::move(node));
    node_attrs.push_back(group);
    return TableRef{-1, static_cast<int>(state.nodes.size() - 1)};
  }

  // out = r⋈(piece_refs...) over scope = ∪ piece attrs, loaded from the
  // engine's fold snapshot. Expansion plans: a changed key of piece i
  // enumerates the newly joinable scope tuples by extending through the
  // other pieces in piece order, each probed on the columns it shares with
  // the scope attributes bound so far.
  TableRef AddJoinNode(const std::vector<TableRef>& piece_refs,
                       const CountedRelation& snapshot) {
    AttributeSet scope;
    for (TableRef ref : piece_refs) scope = Union(scope, attrs_of(ref));
    std::vector<CanonicalChild> canon_pieces;
    canon_pieces.reserve(piece_refs.size());
    for (TableRef ref : piece_refs) {
      canon_pieces.push_back(
          CanonicalChild{ptr_of(ref)->sig, ColsOf(scope, attrs_of(ref))});
    }
    std::string sig = CanonicalJoinSignature(std::move(canon_pieces));
    bool current = false;
    std::shared_ptr<SharedNode> node = Acquire(
        sig, SharedNode::Kind::kJoin, snapshot,
        [&] {
          auto n = std::make_shared<SharedNode>(SharedNode::Kind::kJoin,
                                                scope.size(), sig);
          for (TableRef ref : piece_refs) {
            SharedNode::Piece piece;
            piece.ref = ptr_of(ref);
            piece.scope_cols = ColsOf(scope, attrs_of(ref));
            piece.out_index = n->table.AddIndex(piece.scope_cols);
            n->pieces.push_back(std::move(piece));
          }
          for (size_t i = 0; i < n->pieces.size(); ++i) {
            AttributeSet bound = attrs_of(piece_refs[i]);
            for (size_t j = 0; j < n->pieces.size(); ++j) {
              if (j == i) continue;
              const AttributeSet& pj = attrs_of(piece_refs[j]);
              SharedNode::Expand e;
              e.piece = j;
              // An empty shared set degrades to the full-table chain (the
              // within-component cross-product case) — still correct, the
              // later probes filter.
              AttributeSet shared = Intersect(pj, bound);
              e.index =
                  n->pieces[j].ref->table.AddIndex(ColsOf(pj, shared));
              e.probe_scope_cols = ColsOf(scope, shared);
              n->pieces[i].expands.push_back(std::move(e));
              bound = Union(bound, pj);
            }
          }
          for (const SharedNode::Piece& piece : n->pieces) {
            piece.ref->parents.push_back(n.get());
          }
          return n;
        },
        &current);
    state.nodes.push_back(std::move(node));
    node_attrs.push_back(std::move(scope));
    return TableRef{-1, static_cast<int>(state.nodes.size() - 1)};
  }

  // One dataflow fold: a kGroup node driven by inputs[0] (the other inputs
  // are keyed on its columns) when the fold is driven — no node at all when
  // it would copy its lone input — else a kJoin node over the inputs,
  // grouped by a kGroup node when the fold has a group. `tables` maps the
  // dataflow's table ids to this entry's refs.
  TableRef AddFold(const TSensFold& fold, const std::vector<TableRef>& tables,
                   const TSensCapture::Fold& cap) {
    std::vector<TableRef> in;
    in.reserve(fold.inputs.size());
    for (int id : fold.inputs) in.push_back(tables[static_cast<size_t>(id)]);
    if (fold.driven) {
      if (in.size() == 1 && !fold.group.has_value() && !fold.total) {
        return in[0];
      }
      std::vector<std::pair<TableRef, std::vector<int>>> keyed;
      keyed.reserve(in.size() - 1);
      for (size_t i = 1; i < in.size(); ++i) {
        keyed.emplace_back(in[i], ColsOf(attrs_of(in[0]), attrs_of(in[i])));
      }
      const std::optional<CountedRelation>& snapshot =
          fold.group.has_value() ? cap.grouped : cap.join;
      LSENS_CHECK(snapshot.has_value());
      return AddGroupNode(in[0], fold.group.value_or(fold.scope), keyed,
                          *snapshot);
    }
    LSENS_CHECK(cap.join.has_value());
    const TableRef join = AddJoinNode(in, *cap.join);
    if (!fold.group.has_value()) return join;
    LSENS_CHECK(cap.grouped.has_value());
    return AddGroupNode(join, *fold.group, {}, *cap.grouped);
  }

  Tracker MakeTracker(int atom_index, TableRef ref) {
    Tracker t;
    t.target = ptr_of(ref).get();
    t.attrs = attrs_of(ref);
    for (const Predicate& p : q.atom(atom_index).predicates) {
      auto it = std::lower_bound(t.attrs.begin(), t.attrs.end(), p.var);
      if (it != t.attrs.end() && *it == p.var) {
        t.checks.emplace_back(static_cast<int>(it - t.attrs.begin()), p);
      }
    }
    return t;
  }
};

// Builds the repairable state for a supported plan from the engine capture
// (the exact tables the from-scratch answer was computed from), acquiring
// every table through the shared store: one node form per dataflow fold.
std::unique_ptr<RepairState> BuildState(
    const ConjunctiveQuery& q, const Plan& plan, TSensCapture capture,
    const std::vector<int>& skip_atoms, const Database& db, NodeStore& ns,
    SensitivityCacheStats& stats, uint64_t tick, uint64_t* rows_touched) {
  auto state = std::make_unique<RepairState>();

  // The engine just planned this dataflow from the same inputs.
  StatusOr<TSensDataflow> flow =
      PlanTSensDataflow(q, plan.engine.ghd, skip_atoms);
  LSENS_CHECK(flow.ok());
  LSENS_CHECK(capture.folds.size() == flow->folds.size());
  StateBuilder b{q, db, ns, stats, tick, *state, {}, {}, 0};

  const int num_atoms = q.num_atoms();
  std::vector<TableRef> tables;  // by dataflow table id
  tables.reserve(static_cast<size_t>(num_atoms) + flow->folds.size());
  for (int a = 0; a < num_atoms; ++a) {
    AttributeSet keep = q.SharedVarsOf(a);
    LSENS_CHECK(capture.s[static_cast<size_t>(a)].attrs() == keep);
    tables.push_back(
        b.AcquireSource(a, std::move(keep), capture.s[static_cast<size_t>(a)]));
  }

  // §5.4: only a forest plans tree totals, and each one's running total is
  // kept for the other trees' scale factors.
  const size_t num_trees = flow->tree_folds.size();
  LSENS_CHECK(capture.tree_total.size() == (num_trees >= 2 ? num_trees : 0));
  if (!capture.tree_total.empty()) state->total_nodes.resize(num_trees);
  for (size_t f = 0; f < flow->folds.size(); ++f) {
    const TSensFold& fold = flow->folds[f];
    tables.push_back(b.AddFold(fold, tables, capture.folds[f]));
    if (fold.total) {
      // The engine's total reflects exactly the rows just loaded (or
      // verified current), so it is correct for every acquire outcome.
      const std::shared_ptr<SharedNode>& root = b.ptr_of(tables.back());
      root->track_total = true;
      root->total = capture.tree_total[static_cast<size_t>(fold.tree)];
      state->total_nodes[static_cast<size_t>(fold.tree)] = root;
    }
  }
  state->atom_tree = flow->atom_tree;

  // Per atom, one tracker per T_a component, in component order.
  state->trackers.resize(static_cast<size_t>(num_atoms));
  for (int a = 0; a < num_atoms; ++a) {
    for (int f : flow->atom_folds[static_cast<size_t>(a)]) {
      state->trackers[static_cast<size_t>(a)].push_back(
          b.MakeTracker(a, tables[static_cast<size_t>(num_atoms + f)]));
    }
  }

  // Register and fill the trackers last: the tracker vectors never resize
  // again, so the addresses handed to the nodes stay valid until the
  // RepairState destructor detaches them.
  for (auto& unit : state->trackers) {
    for (Tracker& t : unit) {
      t.target->trackers.push_back(&t);
      RescanTracker(t, &b.scan_rows);
    }
  }
  *rows_touched += b.scan_rows;
  // Acquire charged each node as it was loaded, but a parent acquired later
  // adds secondary indexes to its children (the driver, join pieces), so
  // re-charge every node this state touched at its final size.
  for (const auto& node : state->sources) RefreshNodeBytes(*node, stats);
  for (const auto& node : state->nodes) RefreshNodeBytes(*node, stats);
  return state;
}

// Rebuilds the SensitivityResult from the maintained trackers, replicating
// the engine's assembly and winner tie-breaking exactly.
SensitivityResult Assemble(RepairState& state, const ConjunctiveQuery& q,
                           const TSensComputeOptions& options,
                           uint64_t* rows_touched) {
  SensitivityResult result;
  result.atoms.resize(static_cast<size_t>(q.num_atoms()));
  for (int a = 0; a < q.num_atoms(); ++a) {
    AtomSensitivity& out = result.atoms[static_cast<size_t>(a)];
    out.atom_index = a;
    out.relation = q.atom(a).relation;
    out.table_attrs = q.SharedVarsOf(a);
    out.free_vars = q.ExclusiveVarsOf(a);
    out.max_sensitivity = Count::Zero();
    if (ContainsAtom(options.skip_atoms, a)) {
      out.skipped = true;
      continue;
    }
    // §5.4 scale factor: adding a tuple here combines with every full
    // result of the other decomposition trees.
    Count product = Count::One();
    if (!state.total_nodes.empty()) {
      const int tree = state.atom_tree[static_cast<size_t>(a)];
      for (size_t t2 = 0; t2 < state.total_nodes.size(); ++t2) {
        if (t2 != static_cast<size_t>(tree)) {
          product *= state.total_nodes[t2]->total;
        }
      }
    }
    for (Tracker& t : state.trackers[static_cast<size_t>(a)]) {
      if (t.dirty) RescanTracker(t, rows_touched);
      product *= t.max;
    }
    out.max_sensitivity = product;
    if (!product.IsZero()) {
      std::vector<Value> argmax(out.table_attrs.size(), 0);
      for (const Tracker& t : state.trackers[static_cast<size_t>(a)]) {
        LSENS_CHECK(t.argmax.size() == t.attrs.size());
        for (size_t j = 0; j < t.attrs.size(); ++j) {
          auto it = std::lower_bound(out.table_attrs.begin(),
                                     out.table_attrs.end(), t.attrs[j]);
          LSENS_CHECK(it != out.table_attrs.end() && *it == t.attrs[j]);
          argmax[static_cast<size_t>(it - out.table_attrs.begin())] =
              t.argmax[j];
        }
      }
      out.argmax = std::move(argmax);
    }
  }
  result.SelectMostSensitive();
  return result;
}

}  // namespace

// One global delta pass over the shared store: every live node is repaired
// exactly once, no matter how many entries depend on it — the point of
// canonical-subtree sharing. Stage 1 pulls each source node's pending
// change-log window and applies the row deltas; stage 2 walks the fold
// nodes in creation order (children precede parents by construction,
// across entries too) re-aggregating only keys reachable from a changed
// child key. Attached trackers and §5.4 running totals are maintained in
// the same sweep. Nodes that cannot be repaired — unanswerable log, a
// delta over the global gate, saturation — are marked stale (cascading to
// dependents) and skipped; the pass itself never aborts.
void SensitivityCache::SyncStore(Database& db, ExecContext& ctx) {
  NodeStore& ns = store_->ns;
  if (ns.by_sig.empty()) return;
  WallTimer timer;

  // Live nodes in creation order — a valid dependency order of the DAG.
  std::vector<SharedNode*> nodes;
  nodes.reserve(ns.by_sig.size());
  // lsens-lint: allow(unordered-iter) snapshot collection only — the very
  // next statement sorts by seq, so map order never survives past this line.
  for (const auto& [sig, node] : ns.by_sig) nodes.push_back(node.get());
  std::sort(nodes.begin(), nodes.end(),
            [](const SharedNode* a, const SharedNode* b) {
              return a->seq < b->seq;
            });
  for (SharedNode* node : nodes) node->ClearChanged();

  // Pre-pass: poison checks and the global delta gate. The gate compares
  // the total pending changes across all live sources against the total
  // pre-delta rows — with a single cached query this is exactly the old
  // per-entry gate; with many, it bounds the work of the whole pass.
  size_t total_changes = 0;
  size_t total_rows = 0;
  std::vector<SharedNode*> pending;
  for (SharedNode* node : nodes) {
    if (node->stale != SharedNode::StaleReason::kNone) continue;
    if (node->table.saturated()) {
      MarkStale(node, SharedNode::StaleReason::kSaturated);
      continue;
    }
    if (node->kind != SharedNode::Kind::kSource) continue;
    const Relation* rel = db.Find(node->relation);
    if (rel == nullptr) {
      MarkStale(node, SharedNode::StaleReason::kLog);
      continue;
    }
    const size_t n = rel->NumChangesSince(node->version);
    if (n == SIZE_MAX) {
      MarkStale(node, SharedNode::StaleReason::kLog);
      continue;
    }
    total_rows += rel->NumRows();
    total_changes += n;
    if (n > 0) pending.push_back(node);
  }
  if (pending.empty()) return;
  // The baseline is the pre-delta size (current rows net of the pending
  // deltas is unknowable cheaply, but rows+changes bounds it from above),
  // so delete-heavy streams that shrink — or empty — a relation still
  // compare the delta against the work the repair will actually do. The
  // floor of 1 keeps single-row updates repairable at any fraction.
  const size_t delta_baseline = total_rows + total_changes;
  const size_t allowed_changes = std::max<size_t>(
      1, static_cast<size_t>(config_.max_delta_fraction *
                             static_cast<double>(delta_baseline)));
  if (total_changes > allowed_changes) {
    for (SharedNode* node : pending) {
      MarkStale(node, SharedNode::StaleReason::kLargeDelta);
    }
    return;
  }

  uint64_t delta_rows = 0;
  uint64_t rows_touched = 0;
  uint64_t nodes_patched = 0;

  // Stage 1 — sources: apply the row-level deltas, collecting the touched
  // keys. The change log is filtered and projected onto each source's key
  // columns in one walk (Relation::CollectProjectedChangesSince) — only the
  // key columns of passing changes are copied, never whole rows.
  std::vector<ProjectedRowChange> changes;
  for (SharedNode* src : pending) {
    const Relation* rel = db.Find(src->relation);
    LSENS_CHECK(rel != nullptr);  // the pre-pass just found it
    auto filter = [&](const RowChange& ch) {
      for (const auto& [col, pred] : src->preds) {
        if (!pred.Eval(ch.row[col])) return false;
      }
      return true;
    };
    changes.clear();
    size_t num_changes = 0;
    LSENS_CHECK(rel->CollectProjectedChangesSince(
        src->version, src->keep_cols, filter, &changes, &num_changes));
    delta_rows += num_changes;
    bool ok = true;
    for (ProjectedRowChange& pc : changes) {
      const Count before = src->table.Get(pc.key);
      if (!src->table.Adjust(pc.key, Count::One(), pc.insert)) {
        ok = false;
        break;
      }
      src->changed.push_back(std::move(pc.key));
      src->changed_old.push_back(before);
    }
    if (!ok) {
      // Inexact adjustment (saturation / stale log): the table is poisoned
      // and everything downstream with it. The rest of the pass continues.
      MarkStale(src, SharedNode::StaleReason::kSaturated);
      src->ClearChanged();
      continue;
    }
    src->version = rel->version();
    // Changes apply in log order, so a key's first recorded count is its
    // count before the pass.
    SortUniqueKeepFirst(&src->changed, &src->changed_old);
    // Trackers sitting directly on this S table (single-piece multiplicity
    // components): fold in each changed key's final value.
    for (const std::vector<Value>& changed : src->changed) {
      const Count value = src->table.Get(changed);
      for (Tracker* t : src->trackers) UpdateTracker(*t, changed, value);
    }
    if (!src->changed.empty()) ++nodes_patched;
  }

  // Stage 2 — fold nodes, in dependency order: collect the affected output
  // keys, then recompute each from the current (already-repaired) upstream
  // tables.
  //
  // Group nodes collect the driver rows whose term cnt · Π inputs changed:
  // the changed driver keys, and via driver-index lookups the rows under
  // changed input keys. Each affected group then moves by exactly those
  // terms, new minus old (old terms read the upstream counts recorded
  // before the pass), so a group costs its changed rows, not all of its
  // rows. Counts are exact unless saturated; a group whose terms or sum
  // saturate, or whose old terms exceed its old count, re-aggregates all of
  // its driver rows instead, which gives the identical count. Join nodes
  // collect, per changed piece key, the existing output rows matching it
  // (the piece's out index) plus the newly joinable scope tuples (expansion
  // through the other pieces' indexes), and recompute each row's count as
  // the product of point lookups.
  //
  // Either way the recomputation reads only upstream state: every affected
  // key's count is computed first, then applied (with tracker and
  // tree-total maintenance) in sorted key order. The apply loop may stop
  // early on a saturated tree total; repair_rows still counts every key.
  std::vector<uint32_t> rows;
  std::vector<Value> key;
  for (SharedNode* node : nodes) {
    if (node->kind == SharedNode::Kind::kSource) continue;
    if (node->stale != SharedNode::StaleReason::kNone) continue;
    std::vector<std::vector<Value>> affected;
    // kGroup: (group key, driver key) per changed term, sorted; the terms
    // of affected[g] are terms[term_begin[g] .. term_begin[g + 1]).
    std::vector<std::pair<std::vector<Value>, std::vector<Value>>> terms;
    std::vector<size_t> term_begin;
    if (node->kind == SharedNode::Kind::kGroup) {
      const DynTable& driver = node->driver->table;
      for (const std::vector<Value>& changed : node->driver->changed) {
        Project(changed, node->group_cols, &key);
        terms.emplace_back(key, changed);
      }
      for (const SharedNode::Input& input : node->inputs) {
        for (const std::vector<Value>& changed : input.node->changed) {
          rows.clear();
          driver.LookupIndex(input.driver_index, changed, &rows);
          rows_touched += rows.size();
          for (uint32_t r : rows) {
            std::span<const Value> row = driver.RowValues(r);
            Project(row, node->group_cols, &key);
            terms.emplace_back(key,
                               std::vector<Value>(row.begin(), row.end()));
          }
        }
      }
      std::sort(terms.begin(), terms.end());
      terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
      for (size_t t = 0; t < terms.size(); ++t) {
        if (t == 0 || terms[t].first != terms[t - 1].first) {
          affected.push_back(terms[t].first);
          term_begin.push_back(t);
        }
      }
      term_begin.push_back(terms.size());
    } else {
      std::vector<std::vector<Value>> frontier;
      std::vector<std::vector<Value>> next;
      for (size_t pi = 0; pi < node->pieces.size(); ++pi) {
        const SharedNode::Piece& piece = node->pieces[pi];
        const DynTable& pt = piece.ref->table;
        for (const std::vector<Value>& changed : piece.ref->changed) {
          // Existing output rows built from this piece key (count change
          // or removal).
          rows.clear();
          node->table.LookupIndex(piece.out_index, changed, &rows);
          rows_touched += rows.size();
          for (uint32_t r : rows) {
            std::span<const Value> row = node->table.RowValues(r);
            affected.emplace_back(row.begin(), row.end());
          }
          // A key no longer present cannot create new join rows.
          if (pt.FindRow(changed) == DynTable::kNoRow) continue;
          std::vector<Value> seed(node->table.attrs().size(), 0);
          for (size_t c = 0; c < piece.scope_cols.size(); ++c) {
            seed[static_cast<size_t>(piece.scope_cols[c])] = changed[c];
          }
          frontier.clear();
          frontier.push_back(std::move(seed));
          for (const SharedNode::Expand& e : piece.expands) {
            const SharedNode::Piece& other = node->pieces[e.piece];
            const DynTable& ot = other.ref->table;
            next.clear();
            for (const std::vector<Value>& partial : frontier) {
              Project(partial, e.probe_scope_cols, &key);
              rows.clear();
              ot.LookupIndex(e.index, key, &rows);
              rows_touched += rows.size();
              for (uint32_t r : rows) {
                std::span<const Value> prow = ot.RowValues(r);
                std::vector<Value> extended = partial;
                for (size_t c = 0; c < other.scope_cols.size(); ++c) {
                  extended[static_cast<size_t>(other.scope_cols[c])] =
                      prow[c];
                }
                next.push_back(std::move(extended));
              }
            }
            frontier.swap(next);
            if (frontier.empty()) break;
          }
          for (std::vector<Value>& tuple : frontier) {
            affected.push_back(std::move(tuple));
          }
        }
      }
      SortUnique(&affected);
    }
    if (affected.empty()) continue;
    std::vector<Count> sums(affected.size());
    for (size_t g = 0; g < affected.size(); ++g) {
      if (node->kind == SharedNode::Kind::kGroup) {
        const DynTable& driver = node->driver->table;
        // Delta: old count + new terms - old terms, all exact.
        Count plus = Count::Zero();
        Count minus = Count::Zero();
        bool exact = true;
        rows_touched += term_begin[g + 1] - term_begin[g] + 1;
        for (size_t t = term_begin[g]; t < term_begin[g + 1] && exact; ++t) {
          const std::vector<Value>& row = terms[t].second;
          Count old_term = node->driver->OldCount(row);
          Count new_term = driver.Get(row);
          for (const SharedNode::Input& input : node->inputs) {
            Project(row, input.driver_cols, &key);
            old_term *= input.node->OldCount(key);
            new_term *= input.node->table.Get(key);
          }
          exact = !old_term.IsSaturated() && !new_term.IsSaturated();
          minus += old_term;
          plus += new_term;
        }
        const Count old_sum = node->table.Get(affected[g]);
        const Count grown = old_sum + plus;
        if (exact && !grown.IsSaturated() && !(grown < minus)) {
          sums[g] = grown.SaturatingSub(minus);
          continue;
        }
        rows.clear();
        driver.LookupIndex(node->driver_group_index, affected[g], &rows);
        rows_touched += rows.size();
        Count sum = Count::Zero();
        for (uint32_t r : rows) {
          std::span<const Value> row = driver.RowValues(r);
          Count term = driver.RowCount(r);
          for (const SharedNode::Input& input : node->inputs) {
            Project(row, input.driver_cols, &key);
            term *= input.node->table.Get(key);
            if (term.IsZero()) break;
          }
          sum += term;
        }
        sums[g] = sum;
      } else {
        rows_touched += 1;
        Count product = Count::One();
        for (const SharedNode::Piece& piece : node->pieces) {
          Project(affected[g], piece.scope_cols, &key);
          product *= piece.ref->table.Get(key);
          if (product.IsZero()) break;
        }
        sums[g] = product;
      }
    }
    bool ok = true;
    for (size_t g = 0; g < affected.size() && ok; ++g) {
      Count old = node->table.Set(affected[g], sums[g]);
      if (old == sums[g]) continue;
      node->changed.push_back(affected[g]);
      node->changed_old.push_back(old);
      for (Tracker* t : node->trackers) {
        UpdateTracker(*t, affected[g], sums[g]);
      }
      if (node->track_total) {
        // Exact subtract-old/add-new; any saturation en route makes the
        // running total untrustworthy — mark stale and let a dependent
        // recompute reload the node with a fresh total.
        if (node->total.IsSaturated() || old.IsSaturated() ||
            sums[g].IsSaturated() || node->total < old) {
          ok = false;
          break;
        }
        node->total = node->total.SaturatingSub(old) + sums[g];
        if (node->total.IsSaturated()) ok = false;
      }
    }
    if (ok && node->table.saturated()) ok = false;
    if (!ok) {
      MarkStale(node, SharedNode::StaleReason::kSaturated);
      node->ClearChanged();
      continue;
    }
    if (!node->changed.empty()) ++nodes_patched;
  }

  for (SharedNode* node : nodes) RefreshNodeBytes(*node, stats_);
  stats_.delta_rows += delta_rows;
  stats_.repair_rows += rows_touched;
  stats_.node_repairs += nodes_patched;
  ctx.Record("cache.node_repair", delta_rows, rows_touched, 0,
             timer.ElapsedSeconds());
}

bool SensitivityCache::Peek(const ConjunctiveQuery& q, const Database& db,
                            const TSensComputeOptions& options_in,
                            SensitivityResult* out) const {
  // Match Compute's keying: the capture hook never participates.
  TSensComputeOptions options = options_in;
  options.capture = nullptr;
  const std::string key = Fingerprint(q, options);
  for (const auto& e : entries_) {
    if (e->key != key) continue;
    for (size_t i = 0; i < e->relations.size(); ++i) {
      const Relation* rel = db.Find(e->relations[i]);
      if (rel == nullptr || rel->version() != e->versions[i]) return false;
    }
    if (out != nullptr) *out = e->result;
    return true;
  }
  return false;
}

StatusOr<SensitivityResult> SensitivityCache::Compute(
    const ConjunctiveQuery& q, Database& db,
    const TSensComputeOptions& options_in) {
  // The capture hook belongs to the cache here: a hit or repair never runs
  // an engine, so a caller-supplied capture could not be honored
  // consistently. Strip it up front instead of filling it sometimes.
  TSensComputeOptions options = options_in;
  options.capture = nullptr;
  ExecContext& ctx = ResolveExecContext(options.join.ctx);
  WallTimer timer;
  const std::string key = Fingerprint(q, options);

  Entry* entry = nullptr;
  for (const auto& e : entries_) {
    if (e->key == key) {
      entry = e.get();
      break;
    }
  }

  auto current_versions =
      [&](const std::vector<std::string>& relations)
      -> std::optional<std::vector<uint64_t>> {
    std::vector<uint64_t> versions;
    versions.reserve(relations.size());
    for (const std::string& name : relations) {
      const Relation* rel = db.Find(name);
      if (rel == nullptr) return std::nullopt;
      versions.push_back(rel->version());
    }
    return versions;
  };

  // The global delta pass runs at most once per Compute, and only on paths
  // that need current store state (never on a pure version hit).
  bool synced = false;
  auto sync = [&] {
    if (!synced) {
      SyncStore(db, ctx);
      synced = true;
    }
  };

  if (entry != nullptr) {
    entry->last_used = ++tick_;
    std::optional<std::vector<uint64_t>> versions =
        current_versions(entry->relations);
    // Touch the entry's shared nodes so the spill LRU tracks use by any
    // dependent entry, hits included.
    if (entry->state != nullptr) {
      for (const auto& node : entry->state->sources) {
        node->last_used = entry->last_used;
      }
      for (const auto& node : entry->state->nodes) {
        node->last_used = entry->last_used;
      }
    }
    if (versions.has_value() && *versions == entry->versions) {
      ++stats_.hits;
      ctx.Record("cache.hit", 0, 0, 0, timer.ElapsedSeconds());
      return entry->result;
    }
    if (versions.has_value() && entry->state != nullptr) {
      // This entry's own pending delta, measured before the pass: zero
      // means some earlier Compute's pass already repaired every node this
      // entry depends on, and only the per-entry assembly remains — the
      // cross-query sharing payoff.
      uint64_t entry_pending = 0;
      for (const auto& src : entry->state->sources) {
        if (src->stale != SharedNode::StaleReason::kNone) {
          entry_pending = 1;  // falls back below; exact count irrelevant
          continue;
        }
        const Relation* rel = db.Find(src->relation);
        if (rel == nullptr) continue;
        const size_t n = rel->NumChangesSince(src->version);
        if (n != SIZE_MAX) entry_pending += n;
      }
      sync();
      bool spilled = false;
      bool large = false;
      bool stale = false;
      auto scan = [&](const std::shared_ptr<SharedNode>& node) {
        switch (node->stale) {
          case SharedNode::StaleReason::kNone:
            break;
          case SharedNode::StaleReason::kSpilled:
            spilled = true;
            break;
          case SharedNode::StaleReason::kLargeDelta:
            large = true;
            break;
          default:
            stale = true;
        }
      };
      for (const auto& node : entry->state->sources) scan(node);
      for (const auto& node : entry->state->nodes) scan(node);
      if (!spilled && !large && !stale) {
        uint64_t rows_touched = 0;
        entry->result = Assemble(*entry->state, q, options, &rows_touched);
        stats_.repair_rows += rows_touched;
        entry->versions = *std::move(versions);
        if (entry_pending > 0) {
          ++stats_.repairs;
          ctx.Record("cache.repair", entry_pending, rows_touched, 0,
                     timer.ElapsedSeconds());
        } else {
          ++stats_.shared_assemblies;
          ctx.Record("cache.shared_assembly", 0, rows_touched, 0,
                     timer.ElapsedSeconds());
        }
        EnforceStateBudget(ctx);
        return entry->result;
      }
      // Something this entry depends on is stale: full recompute below,
      // classified by the most telling reason.
      if (spilled) {
        ++stats_.fallback_spilled;
      } else if (large) {
        ++stats_.fallback_large_delta;
      } else {
        ++stats_.fallback_stale;
      }
    } else if (versions.has_value()) {
      ++stats_.fallback_unsupported;
    }
  }

  // Full compute (first sight, or fallback), capturing repairable state
  // when the plan supports it. The store syncs *before* the engine runs,
  // so every non-stale shared node is current when BuildState attaches to
  // it against the fresh capture.
  Plan plan = MakePlan(q, options);
  std::unique_ptr<RepairState> state;
  uint64_t build_rows = 0;
  auto run_full = [&]() -> StatusOr<SensitivityResult> {
    if (!plan.supported) return ComputeLocalSensitivity(q, db, options);
    sync();
    TSensCapture capture;
    TSensComputeOptions run = options;
    run.capture = &capture;
    StatusOr<SensitivityResult> r = TSensOverGhd(q, plan.engine.ghd, db, run);
    if (r.ok()) {
      // Install change logs first so the acquired sources start from a
      // loggable version.
      for (const Atom& atom : q.atoms()) {
        Relation* rel = db.Find(atom.relation);
        LSENS_CHECK(rel != nullptr);
        if (!rel->change_log_enabled()) {
          rel->EnableChangeLog(config_.changelog_capacity);
        }
      }
      state = BuildState(q, plan, std::move(capture), options.skip_atoms, db,
                         store_->ns, stats_, ++tick_, &build_rows);
    }
    return r;
  };
  StatusOr<SensitivityResult> computed = run_full();
  if (!computed.ok()) return computed.status();

  std::vector<std::string> relations;
  relations.reserve(static_cast<size_t>(q.num_atoms()));
  for (const Atom& atom : q.atoms()) relations.push_back(atom.relation);
  std::optional<std::vector<uint64_t>> versions = current_versions(relations);
  LSENS_CHECK(versions.has_value());  // the engine just read them

  if (entry == nullptr) {
    ++stats_.misses;
    entries_.push_back(std::make_unique<Entry>());
    entry = entries_.back().get();
    entry->key = key;
    entry->last_used = ++tick_;
    if (entries_.size() > config_.max_entries) {
      size_t evict = 0;
      for (size_t i = 1; i + 1 < entries_.size(); ++i) {
        if (entries_[i]->last_used < entries_[evict]->last_used) evict = i;
      }
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(evict));
      entry = entries_.back().get();
    }
    ctx.Record("cache.miss", 0, 0, 0, timer.ElapsedSeconds());
  } else {
    ctx.Record("cache.fallback", 0, 0, 0, timer.ElapsedSeconds());
  }
  entry->relations = std::move(relations);
  entry->versions = *std::move(versions);
  entry->result = *std::move(computed);
  entry->state = std::move(state);  // old state's nodes released below
  entry->unsupported_reason = plan.supported ? "" : plan.reason;
  stats_.repair_rows += build_rows;
  SweepStore();

  // Cross-check at capture time: the assembled-from-trackers result must
  // equal the engine's, so every later repair starts from verified state.
  if (entry->state != nullptr) {
    uint64_t ignored = 0;
    SensitivityResult assembled =
        Assemble(*entry->state, q, options, &ignored);
    LSENS_CHECK(assembled.local_sensitivity ==
                entry->result.local_sensitivity);
    LSENS_CHECK(assembled.argmax_atom == entry->result.argmax_atom);
    for (size_t a = 0; a < assembled.atoms.size(); ++a) {
      LSENS_CHECK(assembled.atoms[a].max_sensitivity ==
                  entry->result.atoms[a].max_sensitivity);
      LSENS_CHECK(assembled.atoms[a].argmax == entry->result.atoms[a].argmax);
    }
  }
  EnforceStateBudget(ctx);
  return entry->result;
}

}  // namespace lsens
