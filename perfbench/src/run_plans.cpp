// The two run workloads: the paper's configurations executed end to end
// by ParallelExecutor on one mpisim backend each.
//
//   paper16-event    4x4 mesh (16 ranks) on the event backend: SOR 50x100,
//                    Jacobi T=50 I=J=100 and ADI 50x128, each under the
//                    rectangular tiling and the paper's winner.  All ranks
//                    are fibers on one OS thread, so wall time is the
//                    summed work of the 16 ranks on one core.
//   caption4-thread  the Fig. 6/8/10 caption spaces on a 2x2 mesh (4 ranks
//                    = 4 OS threads) on the thread backend: SOR 100x200
//                    nonrect, Jacobi 50x100 nonrect, ADI 100x256 nr3.
//
// One op is one run() of every plan, in a seeded order.  Every output is
// compared bitwise with run_sequential, computed once per app before the
// timed ops.  The seed also draws SOR's relaxation factor, so the data
// differ from seed to seed while the work stays the same.
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>

#include "apps/kernels.hpp"
#include "common.hpp"
#include "runtime/data_space.hpp"
#include "runtime/parallel_executor.hpp"
#include "support/rng.hpp"
#include "verify/plan_model.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

using namespace ctile;

namespace {

// The event backend's interleaving seed stays fixed: it must not change
// the numerics, and a fixed schedule keeps the event workload's counts
// exact from run to run.
constexpr u64 kInterleaveSeed = 1;
constexpr int kSetups = 5;

struct App {
  std::string name;
  AppInstance inst;
  VecI lo, hi;  ///< pre-skew box
  MatI skew;
  i64 points = 0;
  std::optional<DataSpace> ref;
  double seq_s = 0.0;
};

struct Plan {
  std::string name;
  std::size_t app = 0;
  MatQ h;
  int force_m = 0;
  std::shared_ptr<const CompiledPlan> compiled;
  std::unique_ptr<ParallelExecutor> exec;
  std::vector<double> run_s;  ///< one per op
  // First-op counts every later op must repeat.
  bool seen = false;
  i64 messages = 0, doubles = 0;
  u64 allocs = 0;
};

App box_app(std::string name, AppInstance inst, VecI hi, MatI skew) {
  App a;
  a.name = std::move(name);
  a.inst = std::move(inst);
  a.lo = VecI(hi.size(), 1);
  a.hi = std::move(hi);
  a.skew = std::move(skew);
  a.points = 1;
  for (std::size_t k = 0; k < a.hi.size(); ++k) a.points *= a.hi[k] - a.lo[k] + 1;
  return a;
}

double sor_omega(u64 seed) {
  Rng rng(seed ^ 0x5eed50f0ULL);
  return 0.6 + 0.8 * rng.uniform01();
}

/// One core streaming Kernel::compute_row over the app's rows in a flat
/// array (bounding box of the space plus a halo): the in-process
/// ceiling the executors' rows are compared against.  Reads that leave
/// the space hit the halo, so the values are meaningless; the work per
/// point is the kernel's.  Returns seconds for one pass.
double ceiling_pass(const App& a) {
  const Kernel& kernel = *a.inst.kernel;
  const MatI& deps = a.inst.nest.deps;
  const int n = static_cast<int>(a.lo.size());
  const int q = deps.cols();
  const int arity = kernel.arity();
  VecI bmin(n), ext(n), halo(n, 0);
  for (int r = 0; r < n; ++r) {
    i64 lo = 0, hi = 0;
    for (int c = 0; c < n; ++c) {
      const i64 k = a.skew(r, c);
      lo += k * (k >= 0 ? a.lo[c] : a.hi[c]);
      hi += k * (k >= 0 ? a.hi[c] : a.lo[c]);
    }
    for (int l = 0; l < q; ++l) halo[r] = std::max(halo[r], std::abs(deps(r, l)));
    bmin[r] = lo - halo[r];
    ext[r] = hi - lo + 1 + 2 * halo[r];
  }
  VecI stride(n);
  i64 size = arity;
  for (int r = n - 1; r >= 0; --r) {
    stride[r] = size;
    size *= ext[r];
  }
  std::vector<double> data(static_cast<std::size_t>(size), 0.5);
  auto offset = [&](const VecI& j) {
    i64 off = 0;
    for (int r = 0; r < n; ++r) off += (j[r] - bmin[r]) * stride[r];
    return off;
  };
  VecI jstep(n);
  for (int r = 0; r < n; ++r) jstep[r] = a.skew(r, n - 1);
  const i64 step = offset(jstep) - offset(VecI(n, 0));
  std::vector<i64> dep_off(q);
  for (int l = 0; l < q; ++l) {
    dep_off[l] = offset(deps.col(l)) - offset(VecI(n, 0));
  }
  const i64 count = a.hi[n - 1] - a.lo[n - 1] + 1;
  std::vector<const double*> dep_base(q);
  VecI x = a.lo;  // odometer over the outer n-1 original dims
  VecI j0(n);
  Span span("apps.compute_row");
  for (;;) {
    for (int r = 0; r < n; ++r) {
      i64 v = 0;
      for (int c = 0; c < n; ++c) v += a.skew(r, c) * x[c];
      j0[r] = v;
    }
    double* out = data.data() + offset(j0);
    for (int l = 0; l < q; ++l) dep_base[l] = out - dep_off[l];
    kernel.compute_row(j0, jstep, count, dep_base.data(), q, step, out, step);
    int k = n - 2;
    while (k >= 0 && ++x[k] > a.hi[k]) {
      x[k] = a.lo[k];
      --k;
    }
    if (k < 0) break;
  }
  return span.stop();
}

void run_plans(const Options& opts, Report& report, mpisim::Backend backend,
               int expect_procs, std::vector<App>& apps,
               std::vector<Plan>& plans) {
  const bool is_event = backend == mpisim::Backend::kEvent;
  bool plans_ok = true;

  // References: run_sequential once per app, outside every timing.
  for (App& a : apps) {
    rotate_cpu();
    Span span("runtime.run_sequential");
    a.ref.emplace(run_sequential(a.inst.nest.space, a.inst.nest.deps,
                                 *a.inst.kernel));
    a.seq_s = span.stop();
  }

  // Set-up: cold lowering of every plan plus executor construction.
  std::vector<PlanPhaseTimes> setup_phases;
  std::vector<u64> setup_allocs;
  run_setups(report, kSetups, [&] {
    for (Plan& p : plans) {
      p.exec.reset();
      p.compiled.reset();
    }
    PlanPhaseTimes phases;
    u64 allocs = 0;
    const Clock::time_point t0 = Clock::now();
    for (Plan& p : plans) {
      rotate_cpu();
      const App& a = apps[p.app];
      LoweringKnobs knobs;
      knobs.force_m = p.force_m;
      {
        Span span("runtime.compile_parallel");
        const u64 a0 = allocations();
        p.compiled = CompiledPlan::compile_parallel(a.inst.nest, p.h, knobs);
        allocs += allocations() - a0;
        span.stop();
        add_phase_spans(span, p.compiled->phase_times());
      }
      phases.accumulate(p.compiled->phase_times());
      Span span("runtime.executor");
      p.exec = std::make_unique<ParallelExecutor>(p.compiled, *a.inst.kernel);
      p.exec->set_comm_backend(backend, kInterleaveSeed);
      p.exec->set_exec_policy(exec::Policy::kSimd);
    }
    const double secs = seconds_since(t0);
    setup_phases.push_back(phases);
    setup_allocs.push_back(allocs);
    return secs;
  });
  // The thread backend's ranks must not inherit a single-CPU mask.
  if (!is_event) unpin_cpu();
  // The first set-up also pays the process's lazy one-time
  // initializations; the later ones must agree exactly.
  for (std::size_t r = 2; r < setup_allocs.size(); ++r) {
    if (setup_allocs[r] != setup_allocs[1]) {
      plans_ok = false;
      report.failure("lowering allocations differ between set-ups: " +
                     std::to_string(setup_allocs[1]) + " vs " +
                     std::to_string(setup_allocs[r]));
    }
  }

  // Static checks of every plan: V1-V8, mesh size, census = |J^n|.
  double verify_s = 0.0;
  i64 verify_errors = 0;
  i64 total_points = 0;
  double seq_per_op = 0.0;
  for (Plan& p : plans) {
    const App& a = apps[p.app];
    total_points += a.points;
    seq_per_op += a.seq_s;
    Span span("verify.verify_plan");
    const verify::PlanModel model = verify::snapshot_compiled(*p.compiled);
    const verify::VerifyReport vr = verify::verify_plan(model);
    verify_s += span.stop();
    verify_errors += vr.count(verify::Severity::kError);
    if (!vr.ok()) {
      plans_ok = false;
      report.failure(p.name + ": verify_plan reported errors:\n" +
                     vr.to_string());
    }
    if (p.compiled->mapping().num_procs() != expect_procs) {
      plans_ok = false;
      report.failure(p.name + ": mesh has " +
                     std::to_string(p.compiled->mapping().num_procs()) +
                     " processors, expected " + std::to_string(expect_procs));
    }
    if (p.compiled->census().total() != a.points) {
      plans_ok = false;
      report.failure(p.name + ": census counts " +
                     std::to_string(p.compiled->census().total()) +
                     " points, the space has " + std::to_string(a.points));
    }
  }

  // The ops.
  Rng order_rng(opts.seed);
  std::vector<std::size_t> order(plans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> compute_s, pack_s, unpack_s, recv_wait_s, send_wait_s,
      phase_over_wall, allocs_per_pt;
  i64 op_messages = 0, op_bytes = 0;
  run_ops(opts, report, [&](i64 op, bool* ok) {
    *ok = plans_ok;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  order_rng.uniform(0, static_cast<i64>(i) - 1))]);
    }
    double op_s = 0.0;
    PhaseTimes phase;
    double phase_sum = 0.0, rank_wall = 0.0;
    u64 allocs = 0;
    i64 messages = 0, bytes = 0;
    for (std::size_t idx : order) {
      Plan& p = plans[idx];
      const App& a = apps[p.app];
      ParallelRunStats stats;
      std::optional<DataSpace> out;
      double secs = 0.0;
      u64 run_allocs = 0;
      if (is_event) rotate_cpu();  // the thread backend spawns its ranks
      {
        Span span("runtime.run");
        const u64 a0 = allocations();
        out.emplace(p.exec->run(&stats));
        run_allocs = allocations() - a0;
        secs = span.stop();
      }
      op_s += secs;
      p.run_s.push_back(secs);
      allocs += run_allocs;
      messages += stats.messages;
      bytes += stats.doubles * static_cast<i64>(sizeof(double));
      const PhaseTimes& t = stats.phase_total;
      phase.compute_s += t.compute_s;
      phase.pack_s += t.pack_s;
      phase.unpack_s += t.unpack_s;
      phase.recv_wait_s += t.recv_wait_s;
      phase.send_wait_s += t.send_wait_s;
      phase_sum += t.compute_s + t.pack_s + t.unpack_s + t.recv_wait_s +
                   t.send_wait_s;
      rank_wall += secs * p.compiled->mapping().num_procs();

      Span check("bench.check");
      const DataSpace& ref = *a.ref;
      const std::size_t len = static_cast<std::size_t>(ref.points()) *
                              static_cast<std::size_t>(ref.arity());
      if (out->points() != ref.points() || out->arity() != ref.arity() ||
          std::memcmp(out->at_offset(0), ref.at_offset(0),
                      len * sizeof(double)) != 0) {
        *ok = false;
        report.failure(p.name + " op " + std::to_string(op) +
                       ": output differs from run_sequential");
      }
      if (stats.points_computed != a.points) {
        *ok = false;
        report.failure(p.name + ": computed " +
                       std::to_string(stats.points_computed) + " points");
      }
      // The thread backend's buffer-pool reuse depends on timing, so its
      // allocation count may move by a few per message.
      const u64 slack = is_event ? 0 : static_cast<u64>(4 * stats.messages + 64);
      if (!p.seen) {
        p.seen = true;
        p.messages = stats.messages;
        p.doubles = stats.doubles;
        p.allocs = run_allocs;
      } else if (stats.messages != p.messages || stats.doubles != p.doubles ||
                 run_allocs + slack < p.allocs || run_allocs > p.allocs + slack) {
        *ok = false;
        report.failure(p.name + " op " + std::to_string(op) +
                       ": counts do not repeat (messages " +
                       std::to_string(stats.messages) + "/" +
                       std::to_string(p.messages) + ", allocations " +
                       std::to_string(run_allocs) + "/" +
                       std::to_string(p.allocs) + ")");
      }
    }
    compute_s.push_back(phase.compute_s);
    pack_s.push_back(phase.pack_s);
    unpack_s.push_back(phase.unpack_s);
    recv_wait_s.push_back(phase.recv_wait_s);
    send_wait_s.push_back(phase.send_wait_s);
    phase_over_wall.push_back(rank_wall > 0.0 ? phase_sum / rank_wall : 0.0);
    allocs_per_pt.push_back(static_cast<double>(allocs) /
                            static_cast<double>(total_points));
    op_messages = messages;
    op_bytes = bytes;
    return op_s;
  });

  // ---- Per-layer metrics.
  set_lowering_metrics(report, median_by_total(setup_phases), 1.0);
  report.set("runtime.lower_allocs_per_pt",
             static_cast<double>(setup_allocs.back()) /
                 static_cast<double>(total_points),
             "allocs/pt");
  report.set("verify.ms", verify_s * 1e3, "ms");
  report.set("verify.errors", static_cast<double>(verify_errors), "count");

  std::vector<double> all_ops = report.op_s;
  all_ops.insert(all_ops.end(), report.traced_op_s.begin(),
                 report.traced_op_s.end());
  const double op_med = median(all_ops);
  double fast_points = 0.0;
  for (Plan& p : plans) {
    report.set("runtime.run_ms." + p.name, median(p.run_s) * 1e3, "ms");
    if (opts.trace) {
      i64 tiles = 0;
      const double frac = fast_path_fraction(*p.compiled, &tiles);
      fast_points += frac * static_cast<double>(apps[p.app].points);
      report.set("runtime.fast_path_frac." + p.name, frac, "frac");
      report.notes.push_back(
          p.name + ": " + std::to_string(p.compiled->mapping().num_procs()) +
          " ranks, " + std::to_string(tiles) + " tiles, " +
          std::to_string(p.messages) + " messages, fast path " +
          std::to_string(frac));
    }
  }
  report.set("runtime.fast_path_frac",
             fast_points / static_cast<double>(total_points), "frac");
  report.set("runtime.mpts",
             op_med > 0.0 ? static_cast<double>(total_points) / op_med / 1e6
                          : 0.0,
             "Mpts/s");
  report.set("runtime.allocs_per_pt", median(allocs_per_pt), "allocs/pt");
  report.set("runtime.compute_s", median(compute_s), "s");
  report.set("runtime.pack_s", median(pack_s), "s");
  report.set("runtime.unpack_s", median(unpack_s), "s");
  report.set("runtime.work_over_seq", median(compute_s) / seq_per_op, "ratio");
  report.set("mpisim.messages", static_cast<double>(op_messages), "count");
  report.set("mpisim.bytes", static_cast<double>(op_bytes), "bytes");
  report.set("mpisim.recv_wait_s", median(recv_wait_s), "s");
  report.set("mpisim.send_wait_s", median(send_wait_s), "s");
  report.set("mpisim.phase_sum_over_wall", median(phase_over_wall), "ratio");

  i64 app_points = 0;
  double app_seq_s = 0.0;
  for (const App& a : apps) {
    app_points += a.points;
    app_seq_s += a.seq_s;
  }
  report.set("apps.seq_mpts",
             static_cast<double>(app_points) / app_seq_s / 1e6, "Mpts/s");
  report.set("runtime.speedup_vs_seq", op_med > 0.0 ? seq_per_op / op_med : 0.0,
             "ratio");
  if (opts.trace) {
    // One-core ceiling, median of three passes per app; the references
    // are dropped first so the flat arrays do not stack on them.
    for (App& a : apps) a.ref.reset();
    double ceiling_s = 0.0;
    for (const App& a : apps) {
      std::vector<double> passes;
      for (int r = 0; r < 3; ++r) passes.push_back(ceiling_pass(a));
      ceiling_s += median(passes);
    }
    const double ceiling =
        static_cast<double>(app_points) / ceiling_s / 1e6;
    report.set("apps.ceiling_mpts", ceiling, "Mpts/s");
    report.set("runtime.ceiling_frac",
               report.layer["runtime.mpts"].value / ceiling, "frac");
  }
}

Plan make_plan(std::string name, std::size_t app, MatQ h, int force_m) {
  Plan p;
  p.name = std::move(name);
  p.app = app;
  p.h = std::move(h);
  p.force_m = force_m;
  return p;
}

i64 even(i64 v) { return v % 2 == 0 ? v : v + 1; }

}  // namespace

void paper16_event(const Options& opts, Report& report) {
  std::vector<App> apps;
  apps.push_back(box_app("sor", make_sor(50, 100, sor_omega(opts.seed)),
                         {50, 100, 100}, sor_skew_matrix()));
  apps.push_back(box_app("jacobi", make_jacobi(50, 100, 100), {50, 100, 100},
                         jacobi_skew_matrix()));
  apps.push_back(box_app("adi", make_adi(50, 128), {50, 128, 128},
                         MatI::identity(3)));
  // 4x4 meshes fitted as in the Fig. 5/7/9 benches; the chain factors give
  // the tile counts of ROADMAP's baseline table (SOR 189/168, Jacobi
  // 91/110, ADI 112/236 tiles).
  const i64 sx = fit_scale(1, 50, 4), sy = fit_scale(2, 150, 4), sz = 10;
  const i64 jy = even(fit_scale(2, 150, 4)), jz = fit_scale(2, 150, 4), jx = 8;
  const i64 ay = fit_scale(1, 128, 4), ax = 8;
  std::vector<Plan> plans;
  plans.push_back(make_plan("sor_rect", 0, sor_rect_h(sx, sy, sz), 2));
  plans.push_back(make_plan("sor_nonrect", 0, sor_nonrect_h(sx, sy, sz), 2));
  plans.push_back(make_plan("jacobi_rect", 1, jacobi_rect_h(jx, jy, jz), 0));
  plans.push_back(make_plan("jacobi_nonrect", 1, jacobi_nonrect_h(jx, jy, jz), 0));
  plans.push_back(make_plan("adi_rect", 2, adi_rect_h(ax, ay, ay), 0));
  plans.push_back(make_plan("adi_nr3", 2, adi_nr3_h(ax, ay, ay), 0));
  run_plans(opts, report, mpisim::Backend::kEvent, 16, apps, plans);
}

void caption4_thread(const Options& opts, Report& report) {
  std::vector<App> apps;
  apps.push_back(box_app("sor", make_sor(100, 200, sor_omega(opts.seed)),
                         {100, 200, 200}, sor_skew_matrix()));
  apps.push_back(box_app("jacobi", make_jacobi(50, 100, 100), {50, 100, 100},
                         jacobi_skew_matrix()));
  apps.push_back(box_app("adi", make_adi(100, 256), {100, 256, 256},
                         MatI::identity(3)));
  const i64 sx = fit_scale(1, 100, 2), sy = fit_scale(2, 300, 2), sz = 16;
  const i64 jy = even(fit_scale(2, 150, 2)), jz = fit_scale(2, 150, 2), jx = 4;
  const i64 ay = fit_scale(1, 256, 2), ax = 7;
  std::vector<Plan> plans;
  plans.push_back(make_plan("sor_nonrect", 0, sor_nonrect_h(sx, sy, sz), 2));
  plans.push_back(make_plan("jacobi_nonrect", 1, jacobi_nonrect_h(jx, jy, jz), 0));
  plans.push_back(make_plan("adi_nr3", 2, adi_nr3_h(ax, ay, ay), 0));
  run_plans(opts, report, mpisim::Backend::kThread, 4, apps, plans);
}

}  // namespace perfbench
