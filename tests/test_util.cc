#include "test_util.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "sensitivity/tsens_engine.h"

namespace lsens::testing {

::testing::AssertionResult SameRowsInOrder(const CountedRelation& expected,
                                           const CountedRelation& actual) {
  if (expected.attrs() != actual.attrs()) {
    return ::testing::AssertionFailure() << "attribute sets differ";
  }
  if (expected.default_count() != actual.default_count()) {
    return ::testing::AssertionFailure()
           << "default " << expected.default_count().ToString() << " vs "
           << actual.default_count().ToString();
  }
  if (expected.NumRows() != actual.NumRows()) {
    return ::testing::AssertionFailure() << expected.NumRows() << " rows vs "
                                         << actual.NumRows();
  }
  for (size_t i = 0; i < expected.NumRows(); ++i) {
    if (CompareRows(expected.Row(i), actual.Row(i)) != 0) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
    if (expected.CountAt(i) != actual.CountAt(i)) {
      return ::testing::AssertionFailure()
             << "row " << i << " count " << expected.CountAt(i).ToString()
             << " vs " << actual.CountAt(i).ToString();
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameRowsUpToOrder(const CountedRelation& expected,
                                             const CountedRelation& actual) {
  CountedRelation e = expected;
  CountedRelation a = actual;
  e.Normalize();
  a.Normalize();
  return SameRowsInOrder(e, a);
}

void ExpectTupleSensitivitiesMatchOracle(const SensitivityResult& result,
                                         PaperExample& ex, int atom,
                                         const NaiveOptions& nopts) {
  const std::string what =
      ex.query.ToString(ex.db.attrs()) + " atom " + std::to_string(atom);
  auto sens = TupleSensitivities(result, ex.query, ex.db, atom);
  ASSERT_TRUE(sens.ok()) << what << ": " << sens.status().ToString();
  const Relation* rel = ex.db.Find(ex.query.atom(atom).relation);
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < rel->NumRows(); ++r) rows.push_back(rel->Row(r));
  ASSERT_EQ(sens->size(), rows.size()) << what;
  for (size_t r = 0; r < rows.size(); ++r) {
    auto naive = NaiveTupleSensitivity(ex.query, ex.db, atom, rows[r], nopts);
    ASSERT_TRUE(naive.ok()) << what << ": " << naive.status().ToString();
    EXPECT_EQ((*sens)[r], *naive) << what << " row " << r;
  }
}

PaperExample MakeFigure1Example() {
  PaperExample ex;
  Dictionary& d = ex.db.dict();
  auto* r1 = ex.db.AddRelation("R1", {"A", "B", "C"});
  auto* r2 = ex.db.AddRelation("R2", {"A", "B", "D"});
  auto* r3 = ex.db.AddRelation("R3", {"A", "E"});
  auto* r4 = ex.db.AddRelation("R4", {"B", "F"});
  auto v = [&](const char* s) { return d.Intern(s); };
  r1->AppendRow({v("a1"), v("b1"), v("c1")});
  r1->AppendRow({v("a1"), v("b2"), v("c1")});
  r1->AppendRow({v("a2"), v("b1"), v("c1")});
  r2->AppendRow({v("a1"), v("b1"), v("d1")});
  r2->AppendRow({v("a2"), v("b2"), v("d2")});
  r3->AppendRow({v("a1"), v("e1")});
  r3->AppendRow({v("a2"), v("e1")});
  r3->AppendRow({v("a2"), v("e2")});
  r4->AppendRow({v("b1"), v("f1")});
  r4->AppendRow({v("b2"), v("f1")});
  r4->AppendRow({v("b2"), v("f2")});
  ex.query.AddAtom(ex.db, "R1", {"A", "B", "C"});
  ex.query.AddAtom(ex.db, "R2", {"A", "B", "D"});
  ex.query.AddAtom(ex.db, "R3", {"A", "E"});
  ex.query.AddAtom(ex.db, "R4", {"B", "F"});
  return ex;
}

PaperExample MakeFigure3Example() {
  PaperExample ex;
  Dictionary& d = ex.db.dict();
  auto* r1 = ex.db.AddRelation("R1", {"A", "B"});
  auto* r2 = ex.db.AddRelation("R2", {"B", "C"});
  auto* r3 = ex.db.AddRelation("R3", {"C", "D"});
  auto* r4 = ex.db.AddRelation("R4", {"D", "E"});
  auto v = [&](const char* s) { return d.Intern(s); };
  r1->AppendRow({v("a1"), v("b1")});
  r1->AppendRow({v("a2"), v("b1")});
  r2->AppendRow({v("b1"), v("c1")});
  r2->AppendRow({v("b2"), v("c2")});
  r3->AppendRow({v("c1"), v("d1")});
  r3->AppendRow({v("c1"), v("d2")});
  r4->AppendRow({v("d1"), v("e1")});
  r4->AppendRow({v("d2"), v("e1")});
  ex.query.AddAtom(ex.db, "R1", {"A", "B"});
  ex.query.AddAtom(ex.db, "R2", {"B", "C"});
  ex.query.AddAtom(ex.db, "R3", {"C", "D"});
  ex.query.AddAtom(ex.db, "R4", {"D", "E"});
  return ex;
}

PaperExample MakeRandomAcyclicInstance(Rng& rng,
                                       const RandomQuerySpec& spec) {
  PaperExample ex;
  const int num_atoms = static_cast<int>(
      rng.NextInRange(spec.min_atoms, spec.max_atoms));

  // Build the query as a random join tree: atom i > 0 shares a nonempty
  // subset of a random earlier atom's variables and may add fresh ones.
  int next_attr = 0;
  std::vector<std::vector<std::string>> atom_vars;
  for (int i = 0; i < num_atoms; ++i) {
    std::vector<std::string> vars;
    if (i == 0) {
      int count = static_cast<int>(
          rng.NextInRange(1, spec.max_attrs_per_atom));
      for (int c = 0; c < count; ++c) {
        vars.push_back("x" + std::to_string(next_attr++));
      }
    } else {
      int parent = static_cast<int>(rng.NextInRange(0, i - 1));
      const auto& pvars = atom_vars[static_cast<size_t>(parent)];
      // Nonempty random subset of the parent's variables.
      size_t take = 1 + rng.NextBounded(pvars.size());
      std::vector<size_t> idx(pvars.size());
      for (size_t j = 0; j < idx.size(); ++j) idx[j] = j;
      for (size_t j = 0; j < take; ++j) {
        size_t pick = j + rng.NextBounded(idx.size() - j);
        std::swap(idx[j], idx[pick]);
        vars.push_back(pvars[idx[j]]);
      }
      if (spec.allow_exclusive_attrs &&
          static_cast<int>(vars.size()) < spec.max_attrs_per_atom &&
          rng.NextDouble() < 0.5) {
        vars.push_back("x" + std::to_string(next_attr++));
      }
    }
    atom_vars.push_back(std::move(vars));
  }

  for (int i = 0; i < num_atoms; ++i) {
    const auto& vars = atom_vars[static_cast<size_t>(i)];
    std::string name = "R" + std::to_string(i);
    auto* rel = ex.db.AddRelation(name, vars);
    int rows = static_cast<int>(rng.NextInRange(0, spec.max_rows));
    std::vector<Value> row(vars.size());
    for (int r = 0; r < rows; ++r) {
      for (auto& cell : row) {
        cell = static_cast<Value>(rng.NextBounded(
            static_cast<uint64_t>(spec.domain_size)));
      }
      rel->AppendRow(row);
    }
    int atom = ex.query.AddAtom(ex.db, name, vars);
    for (const auto& var : vars) {
      if (rng.NextDouble() < spec.predicate_probability) {
        Predicate p;
        p.var = ex.db.attrs().Lookup(var);
        int op = static_cast<int>(rng.NextBounded(6));
        p.op = static_cast<Predicate::Op>(op);
        p.rhs = static_cast<Value>(
            rng.NextBounded(static_cast<uint64_t>(spec.domain_size)));
        ex.query.AddPredicate(atom, p);
      }
    }
  }
  return ex;
}

PaperExample MakeRandomPathInstance(Rng& rng, int m, int max_rows,
                                    int domain_size) {
  const uint64_t domain = static_cast<uint64_t>(domain_size);
  PaperExample ex;
  std::vector<std::vector<std::string>> vars(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    vars[static_cast<size_t>(i)] = {"x" + std::to_string(i),
                                    "x" + std::to_string(i + 1)};
    auto* rel = ex.db.AddRelation("R" + std::to_string(i),
                                  vars[static_cast<size_t>(i)]);
    const int rows = static_cast<int>(rng.NextInRange(0, max_rows));
    for (int r = 0; r < rows; ++r) {
      rel->AppendRow({static_cast<Value>(rng.NextBounded(domain)),
                      static_cast<Value>(rng.NextBounded(domain))});
    }
  }
  std::vector<int> atoms(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) atoms[static_cast<size_t>(i)] = i;
  for (size_t i = atoms.size(); i > 1; --i) {
    std::swap(atoms[i - 1], atoms[rng.NextBounded(i)]);
  }
  for (int i : atoms) {
    ex.query.AddAtom(ex.db, "R" + std::to_string(i),
                     vars[static_cast<size_t>(i)]);
  }
  return ex;
}

PaperExample MakeRandomTriangleInstance(Rng& rng, int max_rows,
                                        int domain_size) {
  PaperExample ex;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> vars;
    if (i == 0) vars = {"A", "B"};
    if (i == 1) vars = {"B", "C"};
    if (i == 2) vars = {"C", "A"};
    std::string name = "E" + std::to_string(i);
    auto* rel = ex.db.AddRelation(name, vars);
    int rows = static_cast<int>(rng.NextInRange(0, max_rows));
    for (int r = 0; r < rows; ++r) {
      Value x = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
      Value y = static_cast<Value>(
          rng.NextBounded(static_cast<uint64_t>(domain_size)));
      rel->AppendRow({x, y});
    }
    ex.query.AddAtom(ex.db, name, vars);
  }
  return ex;
}

PaperExample MakeRandomCycleInstance(Rng& rng, int length, int max_rows,
                                     int domain_size, CycleKeys keys) {
  LSENS_CHECK(length == 3 || length == 4);
  const uint64_t domain = static_cast<uint64_t>(domain_size);
  auto draw = [&] { return static_cast<Value>(rng.NextBounded(domain)); };
  PaperExample ex;
  for (int i = 0; i < length; ++i) {
    std::vector<std::string> vars{"X" + std::to_string(i),
                                  "X" + std::to_string((i + 1) % length)};
    std::string name = "E" + std::to_string(i);
    auto* rel = ex.db.AddRelation(name, vars);
    const int rows = static_cast<int>(rng.NextInRange(0, max_rows));
    if (i == 1 && keys == CycleKeys::kKeyed) {
      // Distinct first-column values, each drawn at most once.
      std::vector<Value> firsts(domain);
      for (uint64_t v = 0; v < domain; ++v) firsts[v] = static_cast<Value>(v);
      for (uint64_t v = domain; v > 1; --v) {
        std::swap(firsts[v - 1], firsts[rng.NextBounded(v)]);
      }
      const size_t n = std::min(static_cast<size_t>(rows), firsts.size());
      for (size_t r = 0; r < n; ++r) rel->AppendRow({firsts[r], draw()});
    } else {
      for (int r = 0; r < rows; ++r) rel->AppendRow({draw(), draw()});
    }
    if (keys == CycleKeys::kUnkeyed) {
      // Negative values pass E0's predicates (rhs >= 0), so filtering never
      // turns a column back into a key.
      rel->AppendRow({-1, -1});
      rel->AppendRow({-1, -2});
      rel->AppendRow({-2, -1});
    }
    ex.query.AddAtom(ex.db, name, vars);
  }
  if (rng.NextBounded(2) == 0) {
    Predicate p;
    p.var = ex.query.atom(0).vars[rng.NextBounded(2)];
    p.op = rng.NextBounded(2) == 0 ? Predicate::Op::kNe : Predicate::Op::kLe;
    p.rhs = draw();
    ex.query.AddPredicate(0, p);
  }
  return ex;
}

Ghd PairedCycleGhd(const ConjunctiveQuery& q) {
  std::vector<std::vector<int>> bags = {{0, 1}, {2}};
  if (q.num_atoms() == 4) bags[1].push_back(3);
  auto ghd = BuildGhd(q, std::move(bags));
  LSENS_CHECK(ghd.ok());
  return *std::move(ghd);
}

PaperExample MakeStreamInstance(Rng& rng, StreamShape shape) {
  switch (shape) {
    case StreamShape::kPath:
      return MakeFigure3Example();
    case StreamShape::kTree: {
      RandomQuerySpec spec;
      spec.min_atoms = 3;
      spec.max_atoms = 4;
      spec.predicate_probability = 0.0;
      return MakeRandomAcyclicInstance(rng, spec);
    }
    case StreamShape::kTriangle:
      return MakeRandomTriangleInstance(rng, /*max_rows=*/6,
                                        /*domain_size=*/3);
  }
  LSENS_CHECK_MSG(false, "unknown StreamShape");
  return {};
}

std::vector<std::string> QueryRelationNames(const ConjunctiveQuery& q) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(q.num_atoms()));
  for (int i = 0; i < q.num_atoms(); ++i) {
    names.push_back(q.atom(i).relation);
  }
  return names;
}

namespace {

std::vector<Value> RandomRow(Rng& rng, size_t arity, int domain) {
  std::vector<Value> row(arity);
  for (Value& v : row) {
    v = static_cast<Value>(rng.NextBounded(static_cast<uint64_t>(domain)));
  }
  return row;
}

}  // namespace

DatabaseDelta MakeRandomDelta(Rng& rng, const Database& db,
                              const std::vector<std::string>& relations,
                              int domain, size_t max_ops) {
  LSENS_CHECK(!relations.empty() && max_ops > 0);
  const Relation* rel =
      db.Find(relations[rng.NextBounded(relations.size())]);
  LSENS_CHECK(rel != nullptr);
  RelationDelta rd;
  rd.relation = rel->name();
  const size_t ops = 1 + rng.NextBounded(max_ops);
  const size_t n = rel->NumRows();
  for (size_t i = 0; i < ops; ++i) {
    if (n > rd.delete_rows.size() && rng.NextBounded(2) == 0) {
      // Distinct random indices: retry a few times, then skip.
      for (int attempt = 0; attempt < 4; ++attempt) {
        size_t idx = rng.NextBounded(n);
        if (std::find(rd.delete_rows.begin(), rd.delete_rows.end(), idx) ==
            rd.delete_rows.end()) {
          rd.delete_rows.push_back(idx);
          break;
        }
      }
    } else {
      rd.inserts.push_back(RandomRow(rng, rel->arity(), domain));
    }
  }
  DatabaseDelta delta;
  delta.push_back(std::move(rd));
  return delta;
}

void ApplyRandomMutation(Rng& rng, Database& db,
                         const std::vector<std::string>& relations,
                         int domain, size_t max_ops) {
  LSENS_CHECK(!relations.empty() && max_ops > 0);
  if (rng.NextBounded(2) == 0) {
    // Batched path: one atomic DatabaseDelta.
    DatabaseDelta delta = MakeRandomDelta(rng, db, relations, domain, max_ops);
    LSENS_CHECK(db.ApplyDelta(delta).ok());
    return;
  }
  Relation* rel = db.Find(relations[rng.NextBounded(relations.size())]);
  LSENS_CHECK(rel != nullptr);
  const size_t ops = 1 + rng.NextBounded(max_ops);
  for (size_t i = 0; i < ops; ++i) {
    if (rel->NumRows() > 0 && rng.NextBounded(2) == 0) {
      rel->SwapRemoveRow(rng.NextBounded(rel->NumRows()));
    } else {
      rel->AppendRow(RandomRow(rng, rel->arity(), domain));
    }
  }
}

}  // namespace lsens::testing
