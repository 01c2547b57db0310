// shape-search: autotune_tile_shape on SOR 50x100 and ADI 50x128 with the
// event-DES scorer and pruning on, each search over a fresh PlanCache and
// ScoreMemo.  One op is both searches.  The seed is the DES interleaving
// seed, which must not change any score; the winners are checked against
// the paper's facts (SOR's surface winner beats every rectangular
// baseline, ADI rediscovers the oblique chain (1,-1,-1)) and replayed
// outside the op through event_des_makespan, simulate_cluster and
// comm_lower_bound, whose results must match the search's.
#include <algorithm>
#include <limits>
#include <optional>
#include <thread>

#include "apps/kernels.hpp"
#include "cluster/shape_search.hpp"
#include "cluster/simulator.hpp"
#include "common.hpp"
#include "support/rng.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using namespace ctile;

namespace {

constexpr int kSetups = 31;  ///< building the inputs takes well under 1 ms

struct Case {
  std::string name;
  AppInstance app;
  ShapeSearchRequest req;
  VecI expect_chain;  ///< empty: no expectation
  /// The first op's result: every later winner must match it, and its
  /// winner is replayed after the ops.
  std::optional<ShapeSearchResult> first;
};

std::vector<Case> make_cases(u64 seed, int threads) {
  std::vector<Case> cases(2);
  {
    Case& c = cases[0];
    const i64 m = 50, n = 100;
    c.name = "sor";
    c.app = make_sor(m, n);
    c.req.force_m = 2;
    c.req.arity = 1;
    c.req.chain_factors = {4, 8, 16};
    c.req.orig_lo = {1, 1, 1};
    c.req.orig_hi = {m, n, n};
    c.req.skew = sor_skew_matrix();
    const i64 x = fit_scale(1, m, 4), y = fit_scale(2, m + n, 4);
    for (i64 z : c.req.chain_factors) c.req.extra.push_back(sor_rect_h(x, y, z));
  }
  {
    Case& c = cases[1];
    const i64 t = 50, n = 128;
    c.name = "adi";
    c.app = make_adi(t, n);
    c.req.force_m = 0;
    c.req.arity = 2;
    c.req.chain_factors = {2, 4, 8};
    c.req.orig_lo = {1, 1, 1};
    c.req.orig_hi = {t, n, n};
    c.req.skew = MatI::identity(3);
    const i64 y = fit_scale(1, n, 4);
    for (i64 x : c.req.chain_factors) c.req.extra.push_back(adi_rect_h(x, y, y));
    c.expect_chain = {1, -1, -1};
  }
  for (Case& c : cases) {
    c.req.mesh_extent = 4;
    c.req.threads = threads;
    c.req.prune = true;
    c.req.scorer = ShapeScorer::kEventDes;
    c.req.seed = seed;
  }
  return cases;
}

/// Replay the winner outside the search and compare; returns false (with
/// a failure recorded) on any mismatch.
bool replay_winner(const Case& c, const ShapeSearchResult& res,
                   const MachineModel& machine, Report& report,
                   double* verify_s, i64* verify_errors, double* des_s,
                   double* sim_s, i64* bytes, i64* bytes_lb) {
  const ShapeScore& best = res.best();
  bool ok = true;
  LoweringKnobs knobs;
  knobs.force_m = c.req.force_m;
  knobs.census_from_box = true;
  knobs.orig_lo = c.req.orig_lo;
  knobs.orig_hi = c.req.orig_hi;
  knobs.skew = c.req.skew;
  std::shared_ptr<const CompiledPlan> plan;
  {
    Span span("runtime.compile_parallel");
    plan = CompiledPlan::compile_parallel(c.app.nest, best.h, knobs);
    span.stop();
    add_phase_spans(span, plan->phase_times());
  }
  {
    Span span("verify.verify_plan");
    const verify::VerifyReport vr =
        verify::verify_plan(verify::snapshot_compiled(*plan));
    *verify_s += span.stop();
    *verify_errors += vr.count(verify::Severity::kError);
    if (!vr.ok()) {
      ok = false;
      report.failure(c.name + " winner: verify_plan reported errors:\n" +
                     vr.to_string());
    }
  }
  double des = 0.0;
  {
    Span span("cluster.des");
    des = event_des_makespan(*plan, machine, c.req.arity, c.req.schedule,
                             c.req.seed);
    *des_s += span.stop();
  }
  SimResult sim;
  {
    Span span("cluster.sim");
    sim = simulate_cluster(plan->tiled(), plan->mapping(), plan->lds(),
                           plan->comm_plan(), plan->census(), machine,
                           c.req.arity, c.req.schedule);
    *sim_s += span.stop();
  }
  CommBoundResult bound;
  {
    Span span("cluster.bound");
    bound = comm_lower_bound(plan->tiled(), c.req.force_m, c.req.arity, machine,
                             c.req.orig_lo, c.req.orig_hi);
  }
  if (des != best.des_makespan_s) {
    ok = false;
    report.failure(c.name + " winner: replayed DES makespan " +
                   std::to_string(des) + " != search score " +
                   std::to_string(best.des_makespan_s));
  }
  if (sim.bytes != best.analytic.bytes || bound.bytes_lb != best.bound.bytes_lb) {
    ok = false;
    report.failure(c.name + " winner: replayed volume or bound differs");
  }
  if (bound.bytes_lb > sim.bytes) {
    ok = false;
    report.failure(c.name + " winner: lower bound exceeds measured bytes");
  }
  *bytes = sim.bytes;
  *bytes_lb = bound.bytes_lb;
  return ok;
}

}  // namespace

void shape_search(const Options& opts, Report& report) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = static_cast<int>(std::clamp(hw, 1U, 4U));
  std::vector<Case> cases;
  run_setups(report, kSetups, [&] {
    cases.clear();
    rotate_cpu();
    const Clock::time_point t0 = Clock::now();
    cases = make_cases(opts.seed, threads);
    return seconds_since(t0);
  });
  unpin_cpu();  // the searches' worker threads must not inherit one CPU
  const MachineModel machine = MachineModel::fast_ethernet_cluster();

  Rng order_rng(opts.seed);
  std::vector<double> search_s, gen_s, bound_s, eval_s;
  std::vector<PlanPhaseTimes> lower_phases;
  i64 candidates = 0, evaluated = 0, pruned = 0, hits = 0, misses = 0;
  std::map<std::string, double> useful;
  double des_s = 0.0, sim_s = 0.0;
  bool op0_ok = true;

  run_ops(opts, report, [&](i64 op, bool* ok) {
    const bool sor_first = order_rng.chance(0.5);
    double op_s = 0.0, gen = 0.0, bnd = 0.0, ev = 0.0;
    PlanPhaseTimes phases;
    i64 cand = 0, eval = 0, prn = 0;
    for (int k = 0; k < 2; ++k) {
      Case& c = cases[static_cast<std::size_t>(sor_first ? k : 1 - k)];
      PlanCache cache;
      ScoreMemo memo;
      c.req.cache = &cache;
      c.req.memo = &memo;
      ShapeSearchResult res;
      {
        Span span("cluster.search");
        res = autotune_tile_shape(c.app.nest, c.req, machine);
        op_s += span.stop();
      }
      c.req.cache = nullptr;
      c.req.memo = nullptr;
      gen += res.gen_s;
      bnd += res.bound_s;
      ev += res.eval_s;
      cand += res.candidates;
      eval += res.evaluated;
      prn += res.pruned;
      hits += res.cache_hits;
      misses += res.cache_misses;
      phases.accumulate(cache.stats().phase_total);
      useful[c.name] = static_cast<double>(res.evaluated) /
                       static_cast<double>(res.candidates);

      Span check("bench.check");
      const ShapeScore& best = res.best();
      double best_rect = std::numeric_limits<double>::infinity();
      for (const ShapeScore& sc : res.scores) {
        if (sc.status != ShapeStatus::kEvaluated) continue;
        if (sc.origin == "extra") best_rect = std::min(best_rect, sc.score_s);
        if (sc.bound.bytes_lb > sc.analytic.bytes ||
            sc.bound.time_lb_s > sc.score_s * (1.0 + 1e-6)) {
          *ok = false;
          report.failure(c.name + ": bound exceeds measurement for plan " +
                         sc.plan_id);
        }
      }
      if (c.name == "sor" && !(best.score_s < best_rect)) {
        *ok = false;
        report.failure("sor: surface winner does not beat the best rectangle");
      }
      if (!c.expect_chain.empty() && best.chain_dir != c.expect_chain) {
        *ok = false;
        report.failure(c.name + ": winner chain is not (1,-1,-1)");
      }
      if (!c.first) {
        c.first = res;
      } else if (best.plan_id != c.first->best().plan_id ||
                 best.score_s != c.first->best().score_s) {
        *ok = false;
        report.failure(c.name + " op " + std::to_string(op) +
                       ": winner differs from the first op's");
      }
    }
    search_s.push_back(op_s);
    gen_s.push_back(gen);
    bound_s.push_back(bnd);
    eval_s.push_back(ev);
    lower_phases.push_back(phases);
    candidates = cand;
    evaluated = eval;
    pruned = prn;
    if (op == 0) op0_ok = *ok;
    return op_s;
  });

  // Replay the first op's winners outside the ops; a mismatch fails op 0.
  bool replay_ok = true;
  double verify_s = 0.0;
  i64 verify_errors = 0;
  // Measured bytes over the lower bound: per app, and over the winners
  // whose bound is not vacuous; 0 when no deep-interior tile gives one.
  std::map<std::string, double> over_bound;
  i64 bounded_bytes = 0, bound_bytes = 0;
  for (const Case& c : cases) {
    if (!c.first) continue;
    i64 bytes = 0, lb = 0;
    replay_ok = replay_winner(c, *c.first, machine, report, &verify_s,
                              &verify_errors, &des_s, &sim_s, &bytes, &lb) &&
                replay_ok;
    over_bound[c.name] = lb > 0 ? static_cast<double>(bytes) /
                                      static_cast<double>(lb)
                                : 0.0;
    if (lb > 0) {
      bounded_bytes += bytes;
      bound_bytes += lb;
    }
  }
  if (!replay_ok && op0_ok) ++report.failed;

  report.set("cluster.search_ms", median(search_s) * 1e3, "ms");
  report.set("cluster.gen_ms", median(gen_s) * 1e3, "ms");
  report.set("cluster.bound_ms", median(bound_s) * 1e3, "ms");
  report.set("cluster.eval_ms", median(eval_s) * 1e3, "ms");
  report.set("cluster.candidates", static_cast<double>(candidates), "count");
  report.set("cluster.evaluated", static_cast<double>(evaluated), "count");
  report.set("cluster.pruned", static_cast<double>(pruned), "count");
  report.set("cluster.useful_frac",
             candidates > 0 ? static_cast<double>(evaluated) /
                                  static_cast<double>(candidates)
                            : 0.0,
             "frac");
  report.set("cluster.useful_frac.sor", useful["sor"], "frac");
  report.set("cluster.useful_frac.adi", useful["adi"], "frac");
  const double rate = hits + misses > 0 ? static_cast<double>(hits) /
                                              static_cast<double>(hits + misses)
                                        : 0.0;
  report.set("cluster.cache_hit_rate", rate, "frac");
  report.set("runtime.plan_cache.hit_rate", rate, "frac");
  report.set("verify.ms", verify_s * 1e3, "ms");
  report.set("verify.errors", static_cast<double>(verify_errors), "count");
  report.set("cluster.des_ms", des_s * 1e3, "ms");
  report.set("cluster.sim_ms", sim_s * 1e3, "ms");
  report.set("cluster.bytes_over_bound",
             bound_bytes > 0 ? static_cast<double>(bounded_bytes) /
                                   static_cast<double>(bound_bytes)
                             : 0.0,
             "ratio");
  report.set("cluster.bytes_over_bound.sor", over_bound["sor"], "ratio");
  report.set("cluster.bytes_over_bound.adi", over_bound["adi"], "ratio");
  // Lowering inside the searches, summed over the worker threads, per op.
  set_lowering_metrics(report, median_by_total(lower_phases), 1.0);
  if (over_bound["adi"] == 0.0) {
    report.notes.push_back(
        "cluster.bytes_over_bound.adi = 0: the winner's bound is vacuous "
        "(no deep-interior tile)");
  }
  report.notes.push_back("search threads: " + std::to_string(threads));
}

}  // namespace perfbench
