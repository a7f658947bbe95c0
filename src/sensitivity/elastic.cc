#include "sensitivity/elastic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/counted_relation.h"
#include "query/atom_scan.h"

namespace lsens {

DataMaxFreqProvider::DataMaxFreqProvider(const ConjunctiveQuery& q,
                                         const Database& db)
    : q_(q), db_(db) {}

Count DataMaxFreqProvider::MaxFreq(int atom_index,
                                   const AttributeSet& vars) const {
  auto key = std::make_pair(atom_index, vars);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const Atom& atom = q_.atom(atom_index);
  const Relation* rel = db_.Find(atom.relation);
  LSENS_CHECK(rel != nullptr);
  // Static analysis: strip predicates before counting frequencies.
  Atom stripped = atom;
  stripped.predicates.clear();
  CountedRelation grouped = ScanAtom(*rel, stripped, vars);
  Count result = grouped.MaxCount();
  cache_.emplace(key, result);
  return result;
}

Count ClampedMaxFreqProvider::MaxFreq(int atom_index,
                                      const AttributeSet& vars) const {
  Count mf = inner_.MaxFreq(atom_index, vars);
  auto it = caps_.find(atom_index);
  if (it == caps_.end()) return mf;
  if (!IsSubset(it->second.key, vars)) return mf;
  return std::min(mf, it->second.cap);
}

namespace {

// One node of the left-deep elastic plan.
struct ElasticNode {
  int atom = -1;  // >= 0 for leaves
  const ElasticNode* left = nullptr;
  const ElasticNode* right = nullptr;
  AttributeSet attrs;
  AttributeSet key;  // join key = left.attrs ∩ right.attrs (may be empty)
  mutable std::map<AttributeSet, Count> memo;
};

// Max frequency of a value combination of `vars` in the plan node's output.
//   leaf: from metadata.
//   join: derivation "via left"  = mf_L(vars∩L) · mf_R(key ∪ vars∩R)
//         derivation "via right" = mf_R(vars∩R) · mf_L(key ∪ vars∩L)
// Both are sound (mf over ∅ = row-count bound, covering the paper's
// cross-product extension). kFlexFaithful picks the derivation through the
// side holding the attributes (the original Flex rule); kTightened takes
// the min of both.
Count NodeMaxFreq(const ElasticNode& node, const AttributeSet& vars,
                  const MaxFreqProvider& mf, ElasticMode mode) {
  if (node.atom >= 0) return mf.MaxFreq(node.atom, vars);
  auto it = node.memo.find(vars);
  if (it != node.memo.end()) return it->second;

  AttributeSet vl = Intersect(vars, node.left->attrs);
  AttributeSet vr = Intersect(vars, node.right->attrs);
  Count via_left = NodeMaxFreq(*node.left, vl, mf, mode) *
                   NodeMaxFreq(*node.right, Union(node.key, vr), mf, mode);
  Count result;
  if (mode == ElasticMode::kFlexFaithful && !vl.empty() && vr.empty()) {
    result = via_left;
  } else {
    Count via_right =
        NodeMaxFreq(*node.right, vr, mf, mode) *
        NodeMaxFreq(*node.left, Union(node.key, vl), mf, mode);
    if (mode == ElasticMode::kFlexFaithful && vl.empty() && !vr.empty()) {
      result = via_right;
    } else {
      result = std::min(via_left, via_right);
    }
  }
  node.memo.emplace(vars, result);
  return result;
}

// Elastic stability of the plan output w.r.t. one private atom: adding or
// removing one tuple of `private_atom` changes the output by at most this
// many rows (distance-0 elastic sensitivity, self-join-free).
Count NodeStability(const ElasticNode& node, int private_atom,
                    const MaxFreqProvider& mf, ElasticMode mode) {
  if (node.atom >= 0) {
    return node.atom == private_atom ? Count::One() : Count::Zero();
  }
  bool in_left = false;
  {
    // Membership test via attrs is wrong (attrs overlap); walk leaves.
    std::vector<const ElasticNode*> stack{node.left};
    while (!stack.empty()) {
      const ElasticNode* n = stack.back();
      stack.pop_back();
      if (n->atom == private_atom) {
        in_left = true;
        break;
      }
      if (n->atom < 0) {
        stack.push_back(n->left);
        stack.push_back(n->right);
      }
    }
  }
  if (in_left) {
    return NodeStability(*node.left, private_atom, mf, mode) *
           NodeMaxFreq(*node.right, node.key, mf, mode);
  }
  return NodeStability(*node.right, private_atom, mf, mode) *
         NodeMaxFreq(*node.left, node.key, mf, mode);
}

}  // namespace

StatusOr<ElasticResult> ElasticSensitivity(const ConjunctiveQuery& q,
                                           const std::vector<int>& join_order,
                                           const MaxFreqProvider& mf,
                                           ElasticMode mode) {
  const size_t m = static_cast<size_t>(q.num_atoms());
  if (join_order.size() != m || m == 0) {
    return Status::InvalidArgument("join order must list every atom once");
  }

  // Build the left-deep plan. Nodes are owned by this vector; 2m-1 total.
  std::vector<std::unique_ptr<ElasticNode>> nodes;
  auto make_leaf = [&](int atom) {
    auto leaf = std::make_unique<ElasticNode>();
    leaf->atom = atom;
    leaf->attrs = q.atom(atom).VarSet();
    nodes.push_back(std::move(leaf));
    return nodes.back().get();
  };
  const ElasticNode* plan = make_leaf(join_order[0]);
  for (size_t i = 1; i < m; ++i) {
    const ElasticNode* rhs = make_leaf(join_order[i]);
    auto join = std::make_unique<ElasticNode>();
    join->left = plan;
    join->right = rhs;
    join->attrs = Union(plan->attrs, rhs->attrs);
    join->key = Intersect(plan->attrs, rhs->attrs);
    nodes.push_back(std::move(join));
    plan = nodes.back().get();
  }

  ElasticResult result;
  result.per_atom_bound.resize(m, Count::Zero());
  result.local_sensitivity_bound = Count::Zero();
  for (size_t a = 0; a < m; ++a) {
    Count bound = NodeStability(*plan, static_cast<int>(a), mf, mode);
    result.per_atom_bound[a] = bound;
    result.local_sensitivity_bound =
        std::max(result.local_sensitivity_bound, bound);
  }
  return result;
}

StatusOr<ElasticResult> ElasticSensitivity(const ConjunctiveQuery& q,
                                           const Database& db, const Ghd* ghd,
                                           ElasticMode mode) {
  LSENS_RETURN_IF_ERROR(q.Validate(db));
  auto plan = ChooseTSensPlan(q, ghd, /*allow_path=*/false);
  if (!plan.ok()) return plan.status();
  DataMaxFreqProvider mf(q, db);
  return ElasticSensitivity(q, PlanOrderFromGhd(plan->ghd), mf, mode);
}

std::vector<int> PlanOrderFromForest(const JoinForest& forest) {
  std::vector<int> order;
  for (const auto& tree : forest.trees) {
    std::vector<int> post = tree.PostOrder();
    order.insert(order.end(), post.begin(), post.end());
  }
  return order;
}

std::vector<int> PlanOrderFromGhd(const Ghd& ghd) {
  std::vector<int> order;
  for (const auto& tree : ghd.forest.trees) {
    for (int bag : tree.PostOrder()) {
      const auto& atoms = ghd.bags[static_cast<size_t>(bag)].atom_indices;
      order.insert(order.end(), atoms.begin(), atoms.end());
    }
  }
  return order;
}

StatusOr<ElasticResult> ElasticSensitivityAtDistance(
    const ConjunctiveQuery& q, const std::vector<int>& join_order,
    const MaxFreqProvider& mf, uint64_t distance, ElasticMode mode) {
  DistanceShiftedMaxFreqProvider shifted(mf, distance);
  return ElasticSensitivity(q, join_order, shifted, mode);
}

StatusOr<SmoothElasticResult> SmoothElasticSensitivity(
    const ConjunctiveQuery& q, const std::vector<int>& join_order,
    const MaxFreqProvider& mf, double beta, int private_atom,
    ElasticMode mode, uint64_t max_distance) {
  if (beta <= 0.0) return Status::InvalidArgument("beta must be positive");
  if (private_atom < 0 || private_atom >= q.num_atoms()) {
    return Status::InvalidArgument("private atom out of range");
  }
  // S^(k) is a polynomial in k of degree < the number of atoms; once
  // k exceeds degree/beta the damped sequence is provably decreasing, so
  // scanning a little past that point finds the max.
  const uint64_t degree = static_cast<uint64_t>(q.num_atoms());
  const uint64_t enough = static_cast<uint64_t>(
      static_cast<double>(degree) / beta + 1.0);
  const uint64_t limit = std::min(max_distance, enough + 8);

  SmoothElasticResult result;
  for (uint64_t k = 0; k <= limit; ++k) {
    auto at_k = ElasticSensitivityAtDistance(q, join_order, mf, k, mode);
    if (!at_k.ok()) return at_k.status();
    double damped =
        std::exp(-beta * static_cast<double>(k)) *
        at_k->per_atom_bound[static_cast<size_t>(private_atom)].ToDouble();
    if (damped > result.smooth_bound) {
      result.smooth_bound = damped;
      result.argmax_distance = k;
    }
  }
  return result;
}

}  // namespace lsens
