// plan-stream: a seeded stream of lowering requests served through the
// PlanCache, as ctile_pland serves them: a miss lowers the plan and
// proves it (V1-V8) before it is cached.  No plan is executed, so a
// runtime-only change must not move this workload.
//
// The request space is {sor, jacobi, adi, heat} x flavours x four
// spaces per app (Fig. 5/7/9 for the paper's apps) x three tile
// factors.  The stream is a sequence of epochs over a cold cache; each
// epoch asks once for every (app, space) cell, stepping through the
// cell's flavours and factors from epoch to epoch, in a seeded order,
// and repeats half as many earlier keys, drawn by the seed, at seeded
// places (a third of all requests).  Whole epochs keep the miss/hit mix,
// and so the medians, the same for every seed: a run stops only at an
// epoch boundary.
#include <map>
#include <memory>

#include "apps/kernels.hpp"
#include "common.hpp"
#include "runtime/plan_cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using namespace ctile;

namespace {

constexpr int kEpochs = 24;  ///< epochs generated up front (reused cyclically)
constexpr int kSetups = 5;

struct Cell {
  std::string app;
  AppInstance inst;
  i64 points = 0;
  int force_m = 0;
  std::vector<std::string> flavours;
  std::vector<i64> factors;
  std::function<MatQ(const std::string& flavour, i64 factor)> h;
};

struct Request {
  const Cell* cell = nullptr;
  MatQ h;
  std::string label;
  bool repeat = false;  ///< asks for a key asked earlier in the epoch
  bool epoch_start = false;
};

i64 even(i64 v) { return v % 2 == 0 ? v : v + 1; }

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (auto [m, n] : std::vector<std::pair<i64, i64>>{
           {50, 100}, {80, 160}, {100, 200}, {150, 300}}) {
    Cell c;
    c.app = "sor " + std::to_string(m) + "x" + std::to_string(n);
    c.inst = make_sor(m, n);
    c.points = m * n * n;
    c.force_m = 2;
    c.flavours = {"rect", "nonrect"};
    c.factors = {8, 16, 32};
    const i64 x = fit_scale(1, m, 4), y = fit_scale(2, m + n, 4);
    c.h = [x, y](const std::string& f, i64 z) {
      return f == "rect" ? sor_rect_h(x, y, z) : sor_nonrect_h(x, y, z);
    };
    cells.push_back(std::move(c));
  }
  for (auto [t, ij] : std::vector<std::pair<i64, i64>>{
           {50, 50}, {50, 100}, {100, 100}, {100, 200}}) {
    Cell c;
    c.app = "jacobi " + std::to_string(t) + "x" + std::to_string(ij);
    c.inst = make_jacobi(t, ij, ij);
    c.points = t * ij * ij;
    c.force_m = 0;
    c.flavours = {"rect", "nonrect"};
    c.factors = {2, 4, 8};
    const i64 y = even(fit_scale(2, t + ij, 4)), z = fit_scale(2, t + ij, 4);
    c.h = [y, z](const std::string& f, i64 x) {
      return f == "rect" ? jacobi_rect_h(x, y, z) : jacobi_nonrect_h(x, y, z);
    };
    cells.push_back(std::move(c));
  }
  for (auto [t, n] : std::vector<std::pair<i64, i64>>{
           {50, 128}, {100, 128}, {100, 256}, {200, 256}}) {
    Cell c;
    c.app = "adi " + std::to_string(t) + "x" + std::to_string(n);
    c.inst = make_adi(t, n);
    c.points = t * n * n;
    c.force_m = 0;
    c.flavours = {"rect", "nr1", "nr2", "nr3"};
    c.factors = {4, 7, 12};
    const i64 y = fit_scale(1, n, 4);
    c.h = [y](const std::string& f, i64 x) {
      if (f == "rect") return adi_rect_h(x, y, y);
      if (f == "nr1") return adi_nr1_h(x, y, y);
      if (f == "nr2") return adi_nr2_h(x, y, y);
      return adi_nr3_h(x, y, y);
    };
    cells.push_back(std::move(c));
  }
  // Heat has no figure in the paper; its spaces span the same range of
  // point counts on a 16-processor line.
  for (auto [t, n] : std::vector<std::pair<i64, i64>>{
           {100, 1000}, {200, 2000}, {400, 4000}, {500, 8000}}) {
    Cell c;
    c.app = "heat " + std::to_string(t) + "x" + std::to_string(n);
    c.inst = make_heat(t, n);
    c.points = t * n;
    c.force_m = 0;
    c.flavours = {"rect", "nonrect"};
    c.factors = {4, 8, 16};
    const i64 y = fit_scale(2, t + n, 16), z = fit_scale(1 - n, t - 1, 16);
    c.h = [y, z](const std::string& f, i64 x) {
      return f == "rect" ? heat_rect_h(x, y) : heat_nonrect_h(x, z);
    };
    cells.push_back(std::move(c));
  }
  return cells;
}

std::vector<Request> make_stream(const std::vector<Cell>& cells, u64 seed) {
  Rng rng(seed);
  std::vector<Request> stream;
  for (int e = 0; e < kEpochs; ++e) {
    // Epoch e asks cell k for its (k + e)-th flavour and factor: the
    // keys of an epoch do not depend on the seed, so neither does the
    // mix of lowering costs a run's medians are taken over.
    std::vector<Request> epoch;
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const Cell& c = cells[k];
      const std::size_t step = k + static_cast<std::size_t>(e);
      const std::string& f = c.flavours[step % c.flavours.size()];
      const i64 x = c.factors[step % c.factors.size()];
      epoch.push_back(Request{&c, c.h(f, x),
                              c.app + " " + f + " " + std::to_string(x)});
    }
    for (std::size_t i = epoch.size(); i > 1; --i) {
      std::swap(epoch[i - 1], epoch[static_cast<std::size_t>(
                                  rng.uniform(0, static_cast<i64>(i) - 1))]);
    }
    const std::size_t misses = epoch.size();
    for (std::size_t r = 0; r < misses / 2; ++r) {
      // Insert after position >= 1 a copy of a request placed before it.
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform(1, static_cast<i64>(epoch.size())));
      Request again = epoch[static_cast<std::size_t>(
          rng.uniform(0, static_cast<i64>(at) - 1))];
      again.repeat = true;
      epoch.insert(epoch.begin() + static_cast<std::ptrdiff_t>(at),
                   std::move(again));
    }
    // A repeat of a repeat is still a repeat; the first request of an
    // epoch is never one (at >= 1).
    epoch.front().epoch_start = true;
    for (Request& r : epoch) stream.push_back(std::move(r));
  }
  return stream;
}

}  // namespace

void plan_stream(const Options& opts, Report& report) {
  std::vector<Cell> cells;
  std::vector<Request> stream;
  run_setups(report, kSetups, [&] {
    cells.clear();
    stream.clear();
    rotate_cpu();
    const Clock::time_point t0 = Clock::now();
    cells = make_cells();
    stream = make_stream(cells, opts.seed);
    return seconds_since(t0);
  });

  PlanCache cache;
  std::map<std::string, const CompiledPlan*> served;  ///< key -> plan, this epoch
  std::size_t next = 0;
  PlanPhaseTimes phases;
  i64 misses = 0, hits = 0, verify_errors = 0;
  u64 lower_allocs = 0;
  i64 lowered_points = 0;
  double verify_s = 0.0;
  std::vector<double> hit_s;

  run_ops(
      opts, report,
      [&](i64 op, bool* ok) {
        if (next == stream.size()) next = 0;
        const Request& r = stream[next++];
        rotate_cpu();
        if (r.epoch_start) {
          cache.clear();
          served.clear();
        }
        const Cell& c = *r.cell;
        LoweringKnobs knobs;
        knobs.force_m = c.force_m;
        bool was_hit = false;
        std::shared_ptr<const CompiledPlan> plan;
        double secs = 0.0;
        PlanKey key;
        {
          Span span("runtime.plan_cache");
          // PlanCache::parallel_plan's own two steps, with a span on the
          // lowering and the verify-on-miss of ctile_pland.
          key = make_plan_key(c.inst.nest, r.h, CompiledPlan::Kind::kParallel,
                              knobs);
          plan = cache.get_or_lower(
              key,
              [&] {
                std::shared_ptr<const CompiledPlan> p;
                {
                  Span lower("runtime.compile_parallel");
                  const u64 a0 = allocations();
                  p = CompiledPlan::compile_parallel(c.inst.nest, r.h, knobs);
                  lower_allocs += allocations() - a0;
                  lower.stop();
                  add_phase_spans(lower, p->phase_times());
                }
                lowered_points += p->census().total();
                phases.accumulate(p->phase_times());
                Span check("verify.verify_plan");
                const verify::VerifyReport vr =
                    verify::verify_plan(verify::snapshot_compiled(*p));
                verify_s += check.stop();
                verify_errors += vr.count(verify::Severity::kError);
                if (!vr.ok()) {
                  throw LegalityError("plan verification failed:\n" +
                                      vr.to_string());
                }
                return p;
              },
              &was_hit);
          secs = span.stop();
        }
        Span check("bench.check");
        (was_hit ? hits : misses) += 1;
        if (was_hit) hit_s.push_back(secs);
        if (was_hit != r.repeat) {
          *ok = false;
          report.failure("op " + std::to_string(op) + " (" + r.label +
                         "): cache " + (was_hit ? "hit" : "miss") +
                         ", expected the opposite");
        }
        if (plan->census().total() != c.points) {
          *ok = false;
          report.failure(r.label + ": census counts " +
                         std::to_string(plan->census().total()) + " points");
        }
        const auto [it, fresh] = served.emplace(key.bytes, plan.get());
        if (!fresh && it->second != plan.get()) {
          *ok = false;
          report.failure(r.label + ": a hit served a different plan");
        }
        return secs;
      },
      [&] { return next == stream.size() || stream[next].epoch_start; });

  const double per_miss = static_cast<double>(std::max<i64>(misses, 1));
  set_lowering_metrics(report, phases, per_miss);
  report.set("runtime.lower_allocs_per_pt",
             lowered_points > 0 ? static_cast<double>(lower_allocs) /
                                      static_cast<double>(lowered_points)
                                : 0.0,
             "allocs/pt");
  report.set("verify.ms", verify_s * 1e3 / per_miss, "ms");
  report.set("verify.errors", static_cast<double>(verify_errors), "count");
  report.set("runtime.plan_cache.hit_us", median(hit_s) * 1e6, "us");
  report.set("runtime.plan_cache.hit_rate",
             static_cast<double>(hits) / static_cast<double>(hits + misses),
             "frac");
  report.notes.push_back(std::to_string(misses) + " misses, " +
                         std::to_string(hits) + " hits over " +
                         std::to_string(cells.size()) + " cells per epoch");
}

}  // namespace perfbench
