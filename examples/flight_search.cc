// Flight search: the paper's introduction scenario. An airline wants to
// know, for a three-leg trip NYC -> ? -> ? -> SYD, how many connecting
// itineraries exist — and which *new flight* would create the most new
// itineraries (the most sensitive tuple of the path join).
//
//   Itineraries(src, h1, h2, dst) :-
//       Leg1(src, h1), Leg2(h1, h2), Leg3(h2, dst)
//
// with Leg1 = flights departing NYC, Leg3 = flights arriving SYD (selection
// predicates on a shared flight table are modeled by materialized leg
// tables, the natural-join form the paper uses).

#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "query/eval.h"
#include "sensitivity/tsens.h"

int main() {
  using namespace lsens;
  Database db;
  Dictionary& d = db.dict();
  auto city = [&](const char* s) { return d.Intern(s); };

  const std::vector<const char*> hubs1 = {"LHR", "CDG", "FRA", "DXB"};
  const std::vector<const char*> hubs2 = {"DXB", "SIN", "HKG", "DEL"};

  // Leg 1: NYC -> first hop. Multiple daily flights = duplicate rows (bag
  // semantics: each flight is its own tuple).
  Relation* leg1 = db.AddRelation("Leg1", {"src", "h1"});
  Rng rng(7);
  for (const char* h : hubs1) {
    uint64_t daily = 1 + rng.NextBounded(4);
    for (uint64_t i = 0; i < daily; ++i) {
      leg1->AppendRow({city("NYC"), city(h)});
    }
  }
  // Leg 2: first hop -> second hop.
  Relation* leg2 = db.AddRelation("Leg2", {"h1", "h2"});
  for (const char* a : hubs1) {
    for (const char* b : hubs2) {
      if (rng.NextDouble() < 0.4) leg2->AppendRow({city(a), city(b)});
    }
  }
  // Leg 3: second hop -> SYD.
  Relation* leg3 = db.AddRelation("Leg3", {"h2", "dst"});
  for (const char* h : hubs2) {
    uint64_t daily = rng.NextBounded(3);
    for (uint64_t i = 0; i < daily; ++i) {
      leg3->AppendRow({city(h), city("SYD")});
    }
  }

  ConjunctiveQuery q;
  q.AddAtom(db, "Leg1", {"src", "h1"});
  q.AddAtom(db, "Leg2", {"h1", "h2"});
  q.AddAtom(db, "Leg3", {"h2", "dst"});
  std::printf("query: %s\n", q.ToString(db.attrs()).c_str());
  std::printf("flights: %zu + %zu + %zu\n", leg1->NumRows(), leg2->NumRows(),
              leg3->NumRows());

  auto count = CountQuery(q, db);
  std::printf("connecting itineraries today: %s\n",
              count->ToString().c_str());

  // Which single flight addition/cancellation moves that number the most?
  // This is a path join query, so TSens runs over its chain join tree
  // (Algorithm 1: O(n log n), independent of the number of itineraries).
  auto result = ComputeLocalSensitivity(q, db);
  if (!result.ok()) {
    std::printf("TSens failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("most impactful flight: %s\n",
              result->DescribeMostSensitive(db.attrs(), &db.dict()).c_str());
  std::printf("(adding or canceling it changes the itinerary count by %s)\n",
              result->local_sensitivity.ToString().c_str());

  for (const AtomSensitivity& atom : result->atoms) {
    std::printf("  best possible %-5s flight changes the count by %s\n",
                atom.relation.c_str(),
                atom.max_sensitivity.ToString().c_str());
  }
  return 0;
}
