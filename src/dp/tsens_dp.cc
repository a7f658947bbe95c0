#include "dp/tsens_dp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "dp/laplace.h"
#include "dp/svt.h"
#include "query/ghd.h"
#include "sensitivity/tsens_engine.h"

namespace lsens {

StatusOr<DpRunResult> RunTSensDp(const ConjunctiveQuery& q, const Database& db,
                                 int private_atom,
                                 const TSensDpOptions& options) {
  if (options.epsilon <= 0.0 || options.threshold_fraction <= 0.0 ||
      options.threshold_fraction >= 1.0) {
    return Status::InvalidArgument("need 0 < threshold_fraction < 1, eps > 0");
  }
  if (options.ell == 0) return Status::InvalidArgument("ell must be >= 1");
  WallTimer timer;
  Rng rng(options.seed);

  auto plan = ChooseTSensPlan(q, options.ghd, /*allow_path=*/true);
  if (!plan.ok()) return plan.status();

  // Tuple sensitivities of the private relation; no other table is read.
  TSensOptions topts;
  topts.join = options.join;
  topts.keep_tables = true;
  for (int a = 0; a < q.num_atoms(); ++a) {
    if (a != private_atom) topts.skip_atoms.push_back(a);
  }
  auto tsens = TSensOverGhd(q, plan->ghd, db, topts);
  if (!tsens.ok()) return tsens.status();
  auto sens = TupleSensitivities(*tsens, q, db, private_atom, topts);
  if (!sens.ok()) return sens.status();

  // Every output tuple holds exactly one private tuple (no self-joins), so
  // |Q(D)| = Σ_t δ(t); a row failing a predicate has δ = 0.
  Count count = Count::Zero();
  for (Count c : *sens) count += c;
  const double q_full = count.ToDouble();

  // Self-join-freeness makes PR deletions additive:
  //   Q(T(D, i)) = Q(D) - Σ_{t in PR : δ(t) > i} δ(t).
  // Precompute suffix sums over the descending-sorted sensitivities.
  std::vector<double> deltas;
  deltas.reserve(sens->size());
  for (Count c : *sens) {
    if (!c.IsZero()) deltas.push_back(c.ToDouble());
  }
  std::sort(deltas.begin(), deltas.end(), std::greater<double>());
  std::vector<double> prefix(deltas.size() + 1, 0.0);
  for (size_t i = 0; i < deltas.size(); ++i) {
    prefix[i + 1] = prefix[i] + deltas[i];
  }
  auto q_truncated = [&](uint64_t threshold) {
    // Rows with δ > threshold form a prefix of the sorted deltas.
    double t = static_cast<double>(threshold);
    size_t idx = static_cast<size_t>(
        std::upper_bound(deltas.begin(), deltas.end(), t,
                         [](double a, double b) { return a > b; }) -
        deltas.begin());
    return q_full - prefix[idx];
  };

  // Budget: ε_tsens = threshold_fraction · ε, split between the Q̂ release
  // and the SVT scan; the rest answers the query. The scan asks hundreds of
  // queries whose false-fire probabilities accumulate, while Q̂'s noise
  // barely moves the SVT crossing point (Q(T(D,i)) rises steeply there), so
  // SVT gets 3/4 of ε_tsens and the Q̂ release 1/4.
  const double eps_tsens = options.epsilon * options.threshold_fraction;
  const double eps_release = eps_tsens / 4.0;
  const double eps_svt = eps_tsens - eps_release;
  const double eps_answer = options.epsilon - eps_tsens;

  // Counts are nonnegative, so clamping the noisy release at zero is free
  // postprocessing; it avoids pathological negative Q̂ when ℓ is large
  // relative to |Q| (§7.3 studies exactly this regime).
  const double q_hat = std::max(
      0.0, LaplaceMechanism(rng, q_truncated(options.ell),
                            static_cast<double>(options.ell), eps_release));

  // SVT over q_i = (Q(T(D,i)) - Q̂) / i, sensitivity 1 each, threshold 0.
  // Two scan details matter in practice:
  //  * the scan continues past ℓ — each q_i keeps sensitivity 1 whatever i
  //    is (ℓ only fixes Q̂'s noise scale), and the paper's learned
  //    thresholds exceed ℓ on three of its seven queries;
  //  * thresholds advance geometrically (5% steps). A unit-step scan asks
  //    dozens of queries inside the truncation ramp whose false-fire
  //    probabilities accumulate, biasing τ low; the geometric grid costs at
  //    most 5% slack in τ and fires where the signal really crosses zero.
  // max(8ℓ, 256) caps the scan as a runaway guard (fallback τ = the cap);
  // the floor matters for tiny ℓ — the paper's ℓ=1 run on q⋆ still learns
  // τ = 11.
  const uint64_t scan_limit = std::max<uint64_t>(options.ell * 8, 256);
  uint64_t tau = scan_limit;
  SparseVector svt(rng, eps_svt, /*threshold=*/0.0, /*query_sensitivity=*/1.0);
  for (uint64_t i = 1; i < scan_limit;
       i = std::max(i + 1, i + i / 20)) {
    double qi = (q_truncated(i) - q_hat) / static_cast<double>(i);
    if (svt.Check(qi)) {
      tau = i;
      break;
    }
  }

  DpRunResult out;
  out.true_answer = q_full;
  out.truncated_answer = q_truncated(tau);
  out.learned_threshold = tau;
  out.global_sensitivity = static_cast<double>(tau);
  out.noisy_answer =
      std::max(0.0, LaplaceMechanism(rng, out.truncated_answer,
                                     out.global_sensitivity, eps_answer));
  out.seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace lsens
