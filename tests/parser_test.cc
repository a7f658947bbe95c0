#include <gtest/gtest.h>

#include "query/explain.h"
#include "query/parser.h"
#include "sensitivity/tsens.h"
#include "test_util.h"

namespace lsens {
namespace {

Database FigureOneDb() {
  auto ex = testing::MakeFigure1Example();
  return std::move(ex.db);
}

TEST(ParserTest, ParsesBodyOnlyRule) {
  Database db = FigureOneDb();
  auto q = ParseQuery("  :- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_atoms(), 4);
  EXPECT_EQ(q->atom(0).relation, "R1");
  EXPECT_EQ(q->atom(3).vars.size(), 2u);
  EXPECT_TRUE(q->Validate(db).ok());
}

TEST(ParserTest, ParsesHeadAndChecksFullCq) {
  Database db = FigureOneDb();
  auto ok = ParseQuery("Q(A,B,C,D,E,F) :- R1(A,B,C), R2(A,B,D), R3(A,E), "
                       "R4(B,F)",
                       db);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  // Projection in the head is rejected (full CQs only).
  auto projected =
      ParseQuery("Q(A,B) :- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", db);
  EXPECT_EQ(projected.status().code(), Status::Code::kUnsupported);
  // Head variable not in the body.
  auto unknown = ParseQuery("Q(Z) :- R3(A,E)", db);
  EXPECT_FALSE(unknown.ok());
}

TEST(ParserTest, ParsesPredicates) {
  Database db = FigureOneDb();
  auto q = ParseQuery(":- R3(A,E), R4(B,F), A = 3, F != -2, E <= 10", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->atom(0).predicates.size(), 2u);  // A=3, E<=10 bind to R3
  ASSERT_EQ(q->atom(1).predicates.size(), 1u);  // F!=-2 binds to R4
  EXPECT_EQ(q->atom(0).predicates[0].op, Predicate::Op::kEq);
  EXPECT_EQ(q->atom(0).predicates[0].rhs, 3);
  EXPECT_EQ(q->atom(1).predicates[0].op, Predicate::Op::kNe);
  EXPECT_EQ(q->atom(1).predicates[0].rhs, -2);
  EXPECT_EQ(q->atom(0).predicates[1].op, Predicate::Op::kLe);
}

TEST(ParserTest, AllComparisonOperators) {
  Database db = FigureOneDb();
  auto q = ParseQuery(
      ":- R1(A,B,C), A = 1, A != 2, A < 9, A <= 9, A > 0, A >= 0", db);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->atom(0).predicates.size(), 6u);
}

TEST(ParserTest, RejectsMalformedInput) {
  Database db = FigureOneDb();
  EXPECT_FALSE(ParseQuery("R1(A,B,C)", db).ok());          // no ':-'
  EXPECT_FALSE(ParseQuery(":- ", db).ok());                // no atoms
  EXPECT_FALSE(ParseQuery(":- A = 3", db).ok());           // no atoms
  EXPECT_FALSE(ParseQuery(":- R1(A,B", db).ok());          // unclosed paren
  EXPECT_FALSE(ParseQuery(":- R1(A,,B)", db).ok());        // empty var
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C) R2(A,B,D)", db).ok());  // no comma
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), A == 3", db).ok());    // bad op:
  // '==' parses '=' then fails on '= 3' -> error either way.
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), Z = 3", db).ok());  // unbound var
  EXPECT_FALSE(ParseQuery(":- R1(A,B,C), A = x", db).ok());  // non-integer
  EXPECT_FALSE(ParseQuery(":- Nope(A)", db).ok());           // no relation
  EXPECT_FALSE(ParseQuery(":- R3(A)", db).ok());             // wrong arity
  EXPECT_FALSE(ParseQuery(":- R3(A,A)", db).ok());           // repeated var
  // Literals outside int64 are errors at the literal, not aborts.
  for (const char* literal :
       {"99999999999999999999", "9223372036854775808",
        "-9223372036854775809", "+99999999999999999999"}) {
    auto q = ParseQuery(std::string(":- R3(A,E), A = ") + literal, db);
    ASSERT_FALSE(q.ok()) << literal;
    EXPECT_EQ(q.status().code(), Status::Code::kInvalidArgument) << literal;
    EXPECT_NE(q.status().message().find("at position 16"), std::string::npos)
        << q.status().ToString();
  }
  auto extremes = ParseQuery(
      ":- R3(A,E), A >= -9223372036854775808, E <= +9223372036854775807", db);
  ASSERT_TRUE(extremes.ok()) << extremes.status().ToString();
  EXPECT_EQ(extremes->atom(0).predicates[0].rhs, INT64_MIN);
  EXPECT_EQ(extremes->atom(0).predicates[1].rhs, INT64_MAX);
}

TEST(ParserTest, ParsedQueryComputesSensitivity) {
  auto ex = testing::MakeFigure1Example();
  auto q = ParseQuery(":- R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)", ex.db);
  ASSERT_TRUE(q.ok());
  auto result = ComputeLocalSensitivity(*q, ex.db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->local_sensitivity, Count(4));
}

TEST(ExplainTest, AcyclicReportMentionsTreeAndAlgorithm) {
  auto ex = testing::MakeFigure1Example();
  std::string report = ExplainQuery(ex.query, ex.db.attrs());
  EXPECT_NE(report.find("acyclic (GYO)"), std::string::npos);
  EXPECT_NE(report.find("TSensOverGhd"), std::string::npos);
  EXPECT_NE(report.find("R1"), std::string::npos);
  EXPECT_NE(report.find("link"), std::string::npos);
}

TEST(ExplainTest, PathQueryPicksAlgorithm1) {
  auto ex = testing::MakeFigure3Example();
  std::string report = ExplainQuery(ex.query, ex.db.attrs());
  EXPECT_NE(report.find("path query"), std::string::npos) << report;
  EXPECT_NE(report.find("algorithm: TSensOverGhd (Algorithm 2 over the chain"
                        " tree)"),
            std::string::npos)
      << report;
}

TEST(ExplainTest, CyclicReportShowsDecomposition) {
  Database db;
  db.AddRelation("E0", {"A", "B"});
  db.AddRelation("E1", {"B", "C"});
  db.AddRelation("E2", {"C", "A"});
  ConjunctiveQuery q;
  q.AddAtom(db, "E0", {"A", "B"});
  q.AddAtom(db, "E1", {"B", "C"});
  q.AddAtom(db, "E2", {"C", "A"});
  std::string searched = ExplainQuery(q, db.attrs());
  EXPECT_NE(searched.find("cyclic"), std::string::npos);
  EXPECT_NE(searched.find("searched (width 2)"), std::string::npos);

  auto ghd = BuildGhd(q, {{0, 1}, {2}});
  ASSERT_TRUE(ghd.ok());
  std::string supplied = ExplainQuery(q, db.attrs(), &*ghd);
  EXPECT_NE(supplied.find("user-supplied (width 2)"), std::string::npos);
  EXPECT_NE(supplied.find("E0+E1"), std::string::npos);
}

TEST(ExplainTest, SingleAtomQueryRunsTheGhdEngine) {
  // PathOrder returns {0} for one atom, but the facade needs a chain of at
  // least two atoms for a chain tree; EXPLAIN must name the tree it runs.
  Database db;
  db.AddRelation("R", {"A", "B"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A", "B"});
  std::string report = ExplainQuery(q, db.attrs());
  EXPECT_EQ(report.find("TSensPath"), std::string::npos) << report;
  EXPECT_NE(report.find("algorithm: TSensOverGhd"), std::string::npos)
      << report;
}

TEST(ExplainTest, SuppliedGhdIsRenderedForAcyclicQueries) {
  // The facade runs a supplied GHD even when GYO succeeds, so EXPLAIN must
  // render it instead of the GYO tree.
  auto ex = testing::MakeFigure3Example();
  ASSERT_TRUE(IsAcyclic(ex.query));
  std::vector<int> all(static_cast<size_t>(ex.query.num_atoms()));
  for (int i = 0; i < ex.query.num_atoms(); ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  auto ghd = BuildGhd(ex.query, {all});
  ASSERT_TRUE(ghd.ok());
  std::string report = ExplainQuery(ex.query, ex.db.attrs(), &*ghd);
  EXPECT_NE(report.find("acyclic (GYO)"), std::string::npos) << report;
  EXPECT_NE(report.find("user-supplied (width " +
                        std::to_string(ex.query.num_atoms()) + ")"),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find("TSensPath"), std::string::npos) << report;
  EXPECT_NE(report.find("algorithm: TSensOverGhd"), std::string::npos)
      << report;
}

TEST(ExplainTest, DisconnectedQueryRendersComponents) {
  Database db;
  db.AddRelation("R", {"A"});
  db.AddRelation("T", {"X"});
  ConjunctiveQuery q;
  q.AddAtom(db, "R", {"A"});
  q.AddAtom(db, "T", {"X"});
  std::string report = ExplainQuery(q, db.attrs());
  EXPECT_NE(report.find("component 0"), std::string::npos);
  EXPECT_NE(report.find("component 1"), std::string::npos);
}

}  // namespace
}  // namespace lsens
