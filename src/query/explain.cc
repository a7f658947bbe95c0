#include "query/explain.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "exec/exec_context.h"

namespace lsens {

namespace {

std::string AttrsToString(const AttributeSet& set,
                          const AttributeCatalog& attrs) {
  std::string out = "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ",";
    out += attrs.Name(set[i]);
  }
  out += "}";
  return out;
}

std::string BagLabel(const ConjunctiveQuery& q, const AttributeCatalog& attrs,
                     const GhdBag& bag) {
  std::string label;
  for (size_t i = 0; i < bag.atom_indices.size(); ++i) {
    if (i > 0) label += "+";
    label += q.atom(bag.atom_indices[i]).relation;
  }
  label += " " + AttrsToString(bag.vars, attrs);
  return label;
}

}  // namespace

std::string RenderGhdTree(const ConjunctiveQuery& q,
                          const AttributeCatalog& attrs, const Ghd& ghd) {
  std::string out;
  for (size_t t = 0; t < ghd.forest.trees.size(); ++t) {
    const JoinTree& tree = ghd.forest.trees[t];
    if (ghd.forest.trees.size() > 1) {
      out += "component " + std::to_string(t) + ":\n";
    }
    std::function<void(int, int)> render = [&](int bag, int depth) {
      for (int i = 0; i < depth; ++i) out += "  ";
      const GhdBag& spec = ghd.bags[static_cast<size_t>(bag)];
      out += BagLabel(q, attrs, spec);
      int parent = tree.Parent(bag);
      if (parent != -1) {
        AttributeSet link = Intersect(
            spec.vars, ghd.bags[static_cast<size_t>(parent)].vars);
        out += "  (link " + AttrsToString(link, attrs) + ")";
      }
      out += "\n";
      for (int child : tree.Children(bag)) render(child, depth + 1);
    };
    render(tree.root(), 0);
  }
  return out;
}

std::string ExplainQuery(const ConjunctiveQuery& q,
                         const AttributeCatalog& attrs, const Ghd* ghd) {
  std::string out = "query: " + q.ToString(attrs) + "\n";
  out += IsAcyclic(q) ? "structure: acyclic (GYO)\n" : "structure: cyclic\n";
  auto plan = ChooseTSensPlan(q, ghd, /*allow_path=*/true);
  if (!plan.ok()) {
    out += "no atom-partition GHD found: " + plan.status().ToString() + "\n";
    return out;
  }
  const std::string width = std::to_string(plan->ghd.Width());
  std::string algorithm = "TSensOverGhd (§5.4 GHD extension)";
  switch (plan->source) {
    case TSensPlan::Source::kPath:
    case TSensPlan::Source::kGyo: {
      const bool path = plan->source == TSensPlan::Source::kPath;
      JoinTreeAnalysis analysis = AnalyzeJoinTree(q, plan->ghd.forest);
      out += "join tree (max degree " + std::to_string(analysis.max_degree);
      if (path) out += ", path query";
      if (analysis.doubly_acyclic) out += ", doubly acyclic";
      out += "):\n";
      algorithm = path ? "TSensOverGhd (Algorithm 2 over the chain tree)"
                       : "TSensOverGhd (Algorithm 2 over the GYO tree)";
      break;
    }
    case TSensPlan::Source::kSupplied:
      out += "decomposition: user-supplied (width " + width + ")\n";
      break;
    case TSensPlan::Source::kSearched:
      out += "decomposition: searched (width " + width + ")\n";
      break;
  }
  out += RenderGhdTree(q, attrs, plan->ghd);
  out += "algorithm: " + algorithm + "\n";
  return out;
}

std::string RenderExecStats(const ExecContext& ctx) {
  if (ctx.stats().empty()) return "operator stats: (none collected)\n";
  // Stable presentation: heaviest operators first.
  std::vector<const OperatorStats*> rows;
  rows.reserve(ctx.stats().size());
  for (const OperatorStats& s : ctx.stats()) rows.push_back(&s);
  std::sort(rows.begin(), rows.end(),
            [](const OperatorStats* a, const OperatorStats* b) {
              if (a->wall_seconds != b->wall_seconds) {
                return a->wall_seconds > b->wall_seconds;
              }
              return a->name < b->name;
            });
  char line[160];
  std::snprintf(line, sizeof(line), "%-26s %10s %12s %12s %12s %12s\n",
                "operator", "calls", "rows_in", "rows_out", "build_rows",
                "wall_ms");
  std::string out = line;
  for (const OperatorStats* s : rows) {
    std::snprintf(line, sizeof(line),
                  "%-26s %10llu %12llu %12llu %12llu %12.3f\n",
                  s->name.c_str(), static_cast<unsigned long long>(s->calls),
                  static_cast<unsigned long long>(s->rows_in),
                  static_cast<unsigned long long>(s->rows_out),
                  static_cast<unsigned long long>(s->build_rows),
                  s->wall_seconds * 1e3);
    out += line;
  }
  return out;
}

}  // namespace lsens
