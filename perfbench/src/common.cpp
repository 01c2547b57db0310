#include "common.hpp"

#include <algorithm>

#include "tiling/census.hpp"
#include "tiling/interior.hpp"

namespace perfbench {

using namespace ctile;

i64 fit_scale(i64 lo, i64 hi, i64 parts) {
  for (i64 s = 1;; ++s) {
    if (floor_div(hi, s) - floor_div(lo, s) + 1 <= parts) return s;
  }
}

namespace {
std::vector<std::pair<const char*, double>> phase_parts(
    const PlanPhaseTimes& p) {
  return {{"tiling.tile_space", p.tile_space_s}, {"tiling.census", p.census_s},
          {"runtime.mapping", p.mapping_s},      {"runtime.lds", p.lds_s},
          {"runtime.comm_plan", p.comm_plan_s},  {"tiling.classifier", p.classifier_s},
          {"tiling.band", p.band_s},             {"runtime.locals", p.locals_s}};
}
}  // namespace

void add_phase_spans(const Span& parent, const PlanPhaseTimes& phases) {
  Tracer* t = tracer();
  if (t == nullptr || parent.index() < 0) return;
  double at = parent.start_s();
  for (const auto& [name, secs] : phase_parts(phases)) {
    t->add(name, at, at + secs, parent.index(), current_op());
    at += secs;
  }
}

PlanPhaseTimes median_by_total(std::vector<PlanPhaseTimes> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end(),
            [](const PlanPhaseTimes& a, const PlanPhaseTimes& b) {
              return a.total_s < b.total_s;
            });
  return xs[xs.size() / 2];
}

void set_lowering_metrics(Report& report, const PlanPhaseTimes& p, double per) {
  const double k = per > 0.0 ? 1e3 / per : 0.0;
  report.set("runtime.lower_ms", p.total_s * k, "ms");
  for (const auto& [name, secs] : phase_parts(p)) {
    report.set(std::string(name) + "_ms", secs * k, "ms");
  }
}

double fast_path_fraction(const CompiledPlan& plan, i64* tiles) {
  const TileCensus& census = plan.census();
  const TileClassifier& classifier = plan.classifier();
  const TileCensus::Bounds& b = census.nonempty_bounds();
  const std::size_t n = b.lo.size();
  VecI js = b.lo;
  i64 fast = 0;
  *tiles = 0;
  for (;;) {
    const i64 count = census.count(js);
    if (count > 0) {
      ++*tiles;
      if (classifier.interior(js)) fast += count;
    }
    std::size_t k = n;
    while (k > 0) {
      --k;
      if (++js[k] <= b.hi[k]) break;
      js[k] = b.lo[k];
      if (k == 0) {
        return census.total() > 0 ? static_cast<double>(fast) /
                                        static_cast<double>(census.total())
                                  : 0.0;
      }
    }
  }
}

}  // namespace perfbench
