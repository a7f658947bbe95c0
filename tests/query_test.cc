#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "query/conjunctive_query.h"
#include "query/ghd.h"
#include "query/join_tree.h"
#include "sensitivity/naive.h"
#include "sensitivity/tsens.h"
#include "test_util.h"

namespace lsens {
namespace {

using testing::MakeFigure1Example;
using testing::MakeFigure3Example;

ConjunctiveQuery TriangleQuery(Database& db) {
  db.AddRelation("E0", {"A", "B"});
  db.AddRelation("E1", {"B", "C"});
  db.AddRelation("E2", {"C", "A"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  return q;
}

TEST(PredicateTest, EvalAllOps) {
  auto make = [](Predicate::Op op, Value rhs) {
    Predicate p;
    p.var = 0;
    p.op = op;
    p.rhs = rhs;
    return p;
  };
  EXPECT_TRUE(make(Predicate::Op::kEq, 5).Eval(5));
  EXPECT_FALSE(make(Predicate::Op::kEq, 5).Eval(4));
  EXPECT_TRUE(make(Predicate::Op::kNe, 5).Eval(4));
  EXPECT_TRUE(make(Predicate::Op::kLt, 5).Eval(4));
  EXPECT_FALSE(make(Predicate::Op::kLt, 5).Eval(5));
  EXPECT_TRUE(make(Predicate::Op::kLe, 5).Eval(5));
  EXPECT_TRUE(make(Predicate::Op::kGt, 5).Eval(6));
  EXPECT_TRUE(make(Predicate::Op::kGe, 5).Eval(5));
}

TEST(PredicateTest, SatisfyingValueSatisfies) {
  for (auto op : {Predicate::Op::kEq, Predicate::Op::kNe, Predicate::Op::kLt,
                  Predicate::Op::kLe, Predicate::Op::kGt, Predicate::Op::kGe}) {
    for (Value rhs : {-3, 0, 7}) {
      Predicate p;
      p.var = 0;
      p.op = op;
      p.rhs = rhs;
      EXPECT_TRUE(p.Eval(p.SatisfyingValue()))
          << "op=" << static_cast<int>(op) << " rhs=" << rhs;
    }
  }
}

TEST(ConjunctiveQueryTest, VarSets) {
  auto ex = MakeFigure1Example();
  const auto& q = ex.query;
  AttrId a = ex.db.attrs().Lookup("A");
  AttrId b = ex.db.attrs().Lookup("B");
  AttrId c = ex.db.attrs().Lookup("C");
  AttrId d = ex.db.attrs().Lookup("D");
  EXPECT_EQ(q.AllVars().size(), 6u);
  EXPECT_EQ(q.SharedVars(), MakeAttributeSet({a, b}));
  EXPECT_EQ(q.SharedVarsOf(0), MakeAttributeSet({a, b}));
  EXPECT_EQ(q.ExclusiveVarsOf(0), (AttributeSet{c}));
  EXPECT_EQ(q.ExclusiveVarsOf(1), (AttributeSet{d}));
}

TEST(ConjunctiveQueryTest, ValidateCatchesProblems) {
  auto ex = MakeFigure1Example();
  EXPECT_TRUE(ex.query.Validate(ex.db).ok());

  ConjunctiveQuery missing;
  missing.AddAtom(ex.db, "NoSuch", {"A", "B"});
  EXPECT_EQ(missing.Validate(ex.db).code(), Status::Code::kNotFound);

  ConjunctiveQuery arity;
  arity.AddAtom(ex.db, "R3", {"A"});  // R3 has arity 2
  EXPECT_EQ(arity.Validate(ex.db).code(), Status::Code::kInvalidArgument);

  ConjunctiveQuery repeated;
  repeated.AddAtom(ex.db, "R3", {"A", "A"});
  EXPECT_EQ(repeated.Validate(ex.db).code(), Status::Code::kUnsupported);

  ConjunctiveQuery empty;
  EXPECT_FALSE(empty.Validate(ex.db).ok());
}

TEST(ConjunctiveQueryTest, ValidateForSensitivityRejectsSelfJoin) {
  auto ex = MakeFigure1Example();
  ConjunctiveQuery self_join;
  self_join.AddAtom(ex.db, "R3", {"A", "E"});
  self_join.AddAtom(ex.db, "R3", {"E", "F2"});
  EXPECT_TRUE(self_join.Validate(ex.db).ok());
  EXPECT_EQ(self_join.ValidateForSensitivity(ex.db).code(),
            Status::Code::kUnsupported);
}

TEST(ConjunctiveQueryTest, PredicateMustBindAtomVar) {
  auto ex = MakeFigure1Example();
  ConjunctiveQuery q;
  int atom = q.AddAtom(ex.db, "R3", {"A", "E"});
  Predicate p;
  p.var = ex.db.attrs().Lookup("B");  // not in R3's atom
  q.AddPredicate(atom, p);
  EXPECT_FALSE(q.Validate(ex.db).ok());
}

TEST(ConjunctiveQueryTest, ToStringRendersDatalog) {
  auto ex = MakeFigure3Example();
  EXPECT_EQ(ex.query.ToString(ex.db.attrs()),
            "Q :- R1(A,B), R2(B,C), R3(C,D), R4(D,E)");
}

TEST(GyoTest, Figure1IsAcyclicWithStarTree) {
  auto ex = MakeFigure1Example();
  EXPECT_TRUE(IsAcyclic(ex.query));
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  ASSERT_EQ(forest->trees.size(), 1u);
  const JoinTree& tree = forest->trees[0];
  // Join trees are not unique: Figure 2 roots a star at R1, while our
  // deterministic GYO produces the chain R4 -> R2 -> {R1, R3}. Any valid
  // join tree is acceptable; check the structural invariants instead of
  // one specific shape.
  EXPECT_EQ(tree.size(), 4u);
  EXPECT_TRUE(tree.ValidateAgainst(ex.query).ok());
  // Every ear's shared variables are covered by its parent.
  for (int atom : tree.members()) {
    int p = tree.Parent(atom);
    if (p == -1) continue;
    AttributeSet shared = ex.query.SharedVarsOf(atom);
    EXPECT_TRUE(IsSubset(Intersect(shared, ex.query.atom(p).VarSet()),
                         ex.query.atom(p).VarSet()));
    EXPECT_FALSE(
        Intersect(ex.query.atom(atom).VarSet(), ex.query.atom(p).VarSet())
            .empty());
  }
}

TEST(GyoTest, PathQueryYieldsChain) {
  auto ex = MakeFigure3Example();
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  ASSERT_EQ(forest->trees.size(), 1u);
  EXPECT_EQ(forest->trees[0].MaxDegree(), 2);
  auto analysis = AnalyzeJoinTree(ex.query, *forest);
  EXPECT_TRUE(analysis.path_query);
  EXPECT_TRUE(analysis.doubly_acyclic);
}

TEST(GyoTest, TriangleIsCyclic) {
  Database db;
  ConjunctiveQuery q = TriangleQuery(db);
  EXPECT_FALSE(IsAcyclic(q));
  EXPECT_EQ(BuildJoinForestGYO(q).status().code(), Status::Code::kUnsupported);
}

TEST(GyoTest, DisconnectedQueryYieldsForest) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"B"});
  db.AddRelation("T", {"X", "Y"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"B"});
  q.AddAtom(db, "T", {"X", "Y"});
  auto forest = BuildJoinForestGYO(q);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->trees.size(), 2u);
  EXPECT_NE(forest->TreeOf(0), forest->TreeOf(2));
  EXPECT_EQ(forest->TreeOf(0), forest->TreeOf(1));
}

TEST(JoinTreeTest, TraversalOrders) {
  auto ex = MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  ASSERT_TRUE(forest.ok());
  const JoinTree& tree = forest->trees[0];
  std::vector<int> post = tree.PostOrder();
  std::vector<int> pre = tree.PreOrder();
  EXPECT_EQ(post.size(), 4u);
  EXPECT_EQ(post.back(), tree.root());
  EXPECT_EQ(pre.front(), tree.root());
  // Every child appears before its parent in post order.
  for (int atom : tree.members()) {
    int p = tree.Parent(atom);
    if (p == -1) continue;
    auto pos = [&](int x) {
      return std::find(post.begin(), post.end(), x) - post.begin();
    };
    EXPECT_LT(pos(atom), pos(p));
  }
}

TEST(JoinTreeTest, NeighborsExcludeSelf) {
  auto ex = MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  const JoinTree& tree = forest->trees[0];
  EXPECT_TRUE(tree.Neighbors(tree.root()).empty());
  // For any node with siblings, Neighbors = parent's children minus self.
  for (int atom : tree.members()) {
    int p = tree.Parent(atom);
    if (p == -1) continue;
    std::vector<int> expected;
    for (int c : tree.Children(p)) {
      if (c != atom) expected.push_back(c);
    }
    EXPECT_EQ(tree.Neighbors(atom), expected);
  }
}

TEST(PathOrderTest, DetectsChain) {
  auto ex = MakeFigure3Example();
  std::vector<int> order = PathOrder(ex.query);
  ASSERT_EQ(order.size(), 4u);
  // The chain may be traversed from either end.
  EXPECT_TRUE((order == std::vector<int>{0, 1, 2, 3}) ||
              (order == std::vector<int>{3, 2, 1, 0}));
}

TEST(PathOrderTest, StarIsNotAPath) {
  auto ex = MakeFigure1Example();
  EXPECT_TRUE(PathOrder(ex.query).empty());
}

TEST(PathOrderTest, TwoAtomSingleLink) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"B", "C"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"B", "C"});
  EXPECT_EQ(PathOrder(q).size(), 2u);
}

TEST(PathOrderTest, MultiAttributeLinkRejected) {
  Database db;
  db.AddRelation("R", {"A", "B"});
  db.AddRelation("S", {"A", "B"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  q.AddAtom(db, "S", {"A", "B"});
  EXPECT_TRUE(PathOrder(q).empty());  // two-attribute link
}

TEST(GhdTest, ManualTriangleDecomposition) {
  Database db;
  ConjunctiveQuery q = TriangleQuery(db);
  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  EXPECT_EQ(ghd->Width(), 2);
  EXPECT_EQ(ghd->bags.size(), 2u);
  EXPECT_EQ(ghd->forest.trees.size(), 1u);
}

TEST(GhdTest, RejectsNonPartition) {
  Database db;
  ConjunctiveQuery q = TriangleQuery(db);
  EXPECT_FALSE(BuildGhd(q, {{0, 1}}).ok());          // atom 2 missing
  EXPECT_FALSE(BuildGhd(q, {{0, 1}, {1, 2}}).ok());  // atom 1 twice
  EXPECT_FALSE(BuildGhd(q, {{0}, {1}, {2}}).ok());   // bags still cyclic
}

TEST(GhdTest, SearchFindsTriangleWidth2) {
  Database db;
  ConjunctiveQuery q = TriangleQuery(db);
  auto ghd = SearchGhd(q, /*max_width=*/3);
  ASSERT_TRUE(ghd.ok());
  EXPECT_EQ(ghd->Width(), 2);
}

TEST(GhdTest, SearchPrefersWidth1ForAcyclic) {
  auto ex = MakeFigure1Example();
  auto ghd = SearchGhd(ex.query, /*max_width=*/4);
  ASSERT_TRUE(ghd.ok());
  EXPECT_EQ(ghd->Width(), 1);
}

TEST(GhdTest, FourCycleDecomposition) {
  Database db;
  db.AddRelation("E0", {"A", "B"});
  db.AddRelation("E1", {"B", "C"});
  db.AddRelation("E2", {"C", "D"});
  db.AddRelation("E3", {"D", "A"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "D"});
  q.AddAtom(db, "E3", {"D", "A"});
  EXPECT_FALSE(IsAcyclic(q));
  // The paper's Figure 5 decomposition: {R1,R2} and {R3,R4}.
  auto ghd = BuildGhd(q, {{0, 1}, {2, 3}});
  ASSERT_TRUE(ghd.ok());
  EXPECT_EQ(ghd->Width(), 2);
  auto searched = SearchGhd(q, 2);
  ASSERT_TRUE(searched.ok());
  EXPECT_EQ(searched->Width(), 2);
}

TEST(GhdTest, SearchKeepsQueryComponentsApart) {
  // A triangle G1(A,B), G2(B,C), G3(C,A) beside a path H1(X,Y), H2(Y,Z):
  // the triangle needs a width-2 bag, and a bag holding atoms of both
  // components (such as {G3,H1}) would fold their cross product and merge
  // the two §5.4 trees into one.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Database db;
    ConjunctiveQuery q;
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        atoms = {{"G1", {"A", "B"}}, {"G2", {"B", "C"}}, {"G3", {"C", "A"}},
                 {"H1", {"X", "Y"}}, {"H2", {"Y", "Z"}}};
    for (const auto& [name, vars] : atoms) {
      Relation* rel = db.AddRelation(name, vars);
      for (int i = 0; i < 8; ++i) {
        rel->AppendRow({static_cast<Value>(rng.NextBounded(4)),
                        static_cast<Value>(rng.NextBounded(4))});
      }
      q.AddAtom(db, name, vars);
    }
    const std::vector<int> component = {0, 0, 0, 1, 1};

    auto searched = SearchGhd(q, q.num_atoms());
    ASSERT_TRUE(searched.ok()) << searched.status().ToString();
    EXPECT_EQ(searched->Width(), 2);
    EXPECT_EQ(searched->forest.trees.size(), 2u);
    for (const GhdBag& bag : searched->bags) {
      for (int a : bag.atom_indices) {
        EXPECT_EQ(component[static_cast<size_t>(a)],
                  component[static_cast<size_t>(bag.atom_indices[0])]);
      }
    }
    auto plan = ChooseTSensPlan(q, nullptr, /*allow_path=*/true);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->source, TSensPlan::Source::kSearched);
    EXPECT_EQ(plan->ghd.forest.trees.size(), 2u);

    auto result = ComputeLocalSensitivity(q, db);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto explicit_ghd = BuildGhd(q, {{2}, {0, 1}, {3}, {4}});
    ASSERT_TRUE(explicit_ghd.ok());
    ASSERT_EQ(explicit_ghd->forest.trees.size(), 2u);
    TSensComputeOptions explicit_options;
    explicit_options.ghd = &*explicit_ghd;
    auto want = ComputeLocalSensitivity(q, db, explicit_options);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(result->local_sensitivity, want->local_sensitivity);
    EXPECT_EQ(result->argmax_atom, want->argmax_atom);
    for (int a = 0; a < q.num_atoms(); ++a) {
      const size_t i = static_cast<size_t>(a);
      EXPECT_EQ(result->atoms[i].max_sensitivity,
                want->atoms[i].max_sensitivity)
          << "atom " << a;
      EXPECT_EQ(result->atoms[i].argmax, want->atoms[i].argmax) << "atom " << a;
    }
    auto naive = NaiveLocalSensitivity(q, db);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(naive->local_sensitivity, result->local_sensitivity);
  }
}

TEST(GhdTest, TrivialGhdMirrorsForest) {
  auto ex = MakeFigure1Example();
  auto forest = BuildJoinForestGYO(ex.query);
  Ghd ghd = MakeTrivialGhd(ex.query, *forest);
  EXPECT_EQ(ghd.Width(), 1);
  EXPECT_EQ(ghd.bags.size(), 4u);
  EXPECT_EQ(BagOf(ghd, 2), 2);
}

TEST(AnalysisTest, StarRootJoinIsCyclicQuery) {
  // §5.2's hard example: Q :- R1(A,B,C), R2(A,B), R3(B,C), R4(C,A).
  // Acyclic, but the multiplicity-table join at R1 is a triangle, so the
  // query is not doubly acyclic.
  Database db;
  db.AddRelation("R1", {"A", "B", "C"});
  db.AddRelation("R2", {"A", "B"});
  db.AddRelation("R3", {"B", "C"});
  db.AddRelation("R4", {"C", "A"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R1", {"A", "B", "C"});
  q.AddAtom(db, "R2", {"A", "B"});
  q.AddAtom(db, "R3", {"B", "C"});
  q.AddAtom(db, "R4", {"C", "A"});
  auto forest = BuildJoinForestGYO(q);
  ASSERT_TRUE(forest.ok());
  auto analysis = AnalyzeJoinTree(q, *forest);
  EXPECT_FALSE(analysis.doubly_acyclic);
  EXPECT_FALSE(analysis.path_query);
  EXPECT_EQ(analysis.max_degree, 3);
}

}  // namespace
}  // namespace lsens
