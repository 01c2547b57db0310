// ctile-specific helpers shared by the workloads.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "runtime/compiled_plan.hpp"

namespace perfbench {

/// Smallest tile scale s whose tile count floor(hi/s) - floor(lo/s) + 1
/// over [lo, hi] is at most `parts` (the paper benches' mesh fitting).
i64 fit_scale(i64 lo, i64 hi, i64 parts);

/// Record the lowering phases of `phases` as child spans of the
/// (stopped) compile span `parent`, laid back to back from its start in
/// lowering order.  The durations are the program's own PlanPhaseTimes.
void add_phase_spans(const Span& parent, const ctile::PlanPhaseTimes& phases);

/// The sample whose total_s is the median (upper median; zeros when
/// empty).
ctile::PlanPhaseTimes median_by_total(std::vector<ctile::PlanPhaseTimes> xs);

/// Set the lowering per-layer metrics (runtime.lower_ms, tiling.*_ms,
/// runtime.*_ms) from `phases`, each divided by `per`.
void set_lowering_metrics(Report& report, const ctile::PlanPhaseTimes& phases,
                          double per);

/// Fraction of an op's plan points that run on the strength-reduced
/// fast path: points of tiles the classifier marks interior over all
/// census points.  `tiles` receives the nonempty tile count.
double fast_path_fraction(const ctile::CompiledPlan& plan, i64* tiles);

}  // namespace perfbench
