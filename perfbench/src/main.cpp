// ctile end-to-end benchmark.
//
//   ctile_e2e --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload through ctile's public API for S seconds, checks
// every op's output, prints a human-readable summary and, as the LAST
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, from a run whose odd ops record spans (the even
// ops stay untraced and give the tracing overhead).  A full report and,
// when tracing, a Chrome trace-event file go to DIR (default
// .bench_out).  Exits 1 when any check failed.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef CTILE_BENCH_BUILD_TYPE
#define CTILE_BENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

const char* const kWorkloads[] = {"paper16-event", "caption4-thread",
                                  "plan-stream", "shape-search"};

int usage(const char* why) {
  std::fprintf(stderr,
               "ctile_e2e: %s\nusage: ctile_e2e --workload "
               "paper16-event|caption4-thread|plan-stream|shape-search "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

double peak_rss_mb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string host_line() {
  auto kib = [](int name) {
    const long v = sysconf(name);
    return v > 0 ? std::to_string(v / 1024) + "K" : std::string("?");
  };
  return "nproc " + std::to_string(std::thread::hardware_concurrency()) +
         ", L1d " + kib(_SC_LEVEL1_DCACHE_SIZE) + ", L2 " +
         kib(_SC_LEVEL2_CACHE_SIZE) + ", L3 " + kib(_SC_LEVEL3_CACHE_SIZE) +
         ", build " CTILE_BENCH_BUILD_TYPE ", compiler " __VERSION__;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string samples_json(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + num(xs[i]);
  return out + "]";
}

std::string metrics_json(const std::map<std::string, Metric>& ms) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : ms) {
    out += (first ? "" : ", ") + quote(name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quote(m.unit) + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opts.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      opts.trace = val == "1";
    } else if (arg == "--out") {
      opts.out_dir = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  void (*workload)(const Options&, Report&) = nullptr;
  if (opts.workload == kWorkloads[0]) workload = paper16_event;
  if (opts.workload == kWorkloads[1]) workload = caption4_thread;
  if (opts.workload == kWorkloads[2]) workload = plan_stream;
  if (opts.workload == kWorkloads[3]) workload = shape_search;
  if (workload == nullptr) {
    return usage(("unknown workload " + opts.workload).c_str());
  }

  std::printf("ctile e2e benchmark: workload %s, seed %llu, %g s, trace %d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("host: %s\n", host_line().c_str());
  std::fflush(stdout);

  Tracer* const tr = opts.trace ? &start_tracing() : nullptr;
  Report report;
  bool run_ok = true;
  try {
    workload(opts, report);
  } catch (const std::exception& e) {
    run_ok = false;
    report.failure(std::string("workload threw: ") + e.what());
  }
  set_recording(false);
  if (!run_ok || report.attempted == 0) {
    // A run that could not complete counts as one failed op.
    run_ok = false;
    report.attempted = std::max<i64>(report.attempted, 1);
    report.failed = std::max<i64>(report.failed, 1);
  }
  const bool correct = run_ok && report.failed == 0 && report.failures.empty();

  // ---- End-to-end metrics (untraced ops only).
  std::map<std::string, Metric> e2e;
  const Tail t = tail(report.op_s);
  e2e["setup_s"] = {median(report.setup_s), "s"};
  e2e["op_ms_p50"] = {median(report.op_s) * 1e3, "ms"};
  e2e["op_ms_tail"] = {t.value * 1e3, "ms"};
  e2e["ok_frac"] = {report.attempted > 0
                        ? 1.0 - static_cast<double>(report.failed) /
                                    static_cast<double>(report.attempted)
                        : 0.0,
                    "frac"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  // ---- Per-layer metrics: the workload's own plus the trace's.
  std::map<std::string, Metric> layer;
  for (const auto& [name, unit] : layer_metric_names()) layer[name] = {0.0, unit};
  for (const auto& [name, m] : report.layer) layer[name] = m;
  if (tr != nullptr) {
    const double untraced = median(report.op_s);
    const double traced = median(report.traced_op_s);
    layer["trace.overhead_frac"] = {
        untraced > 0.0 && traced > 0.0 ? traced / untraced - 1.0 : 0.0, "frac"};
    layer["trace.spans"] = {static_cast<double>(tr->spans().size()), "count"};
    const double traced_ops =
        static_cast<double>(std::max<std::size_t>(report.traced_op_s.size(), 1));
    for (const auto& [l, secs] :
         tr->self_seconds_by_layer([](i64 op) { return op >= 0; })) {
      const std::string name = "trace.self_ms." + l;
      if (layer.count(name) != 0) layer[name] = {secs * 1e3 / traced_ops, "ms"};
    }
  }

  // ---- Human-readable summary.
  std::printf("\nset-up: median %.6g s over %zu set-ups (spread %.3f)\n",
              median(report.setup_s), report.setup_s.size(),
              rel_spread(report.setup_s));
  std::printf("ops: %lld attempted, %lld failed (failed_frac %.4g); "
              "%zu untraced, %zu traced\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              report.op_s.size(), report.traced_op_s.size());
  std::printf("op_ms_p50 %.6g ms (spread %.3f over %zu ops); op_ms_tail %.6g ms "
              "= p%.1f with %lld samples beyond, n=%zu%s\n",
              median(report.op_s) * 1e3, rel_spread(report.op_s),
              report.op_s.size(), t.value * 1e3, t.percentile,
              static_cast<long long>(t.beyond), report.op_s.size(),
              t.beyond == 0 ? " (fewer than 11 ops: the maximum)" : "");
  for (const std::string& n : report.notes) std::printf("note: %s\n", n.c_str());
  std::printf("%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  for (const auto& [name, m] : opts.trace ? layer : e2e) {
    std::printf("  %-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : report.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  // ---- Files: full report, and the Chrome trace of a traced run.
  mkdir(opts.out_dir.c_str(), 0755);
  const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(
        f,
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d,\n"
        " \"host\": %s,\n \"correct\": %s, \"attempted\": %lld, \"failed\": "
        "%lld,\n \"setup_s\": %s,\n \"op_s\": %s,\n \"traced_op_s\": %s,\n"
        " \"op_tail_percentile\": %s, \"op_spread\": %s,\n"
        " \"end_to_end\": %s,\n \"per_layer\": %s}\n",
        quote(opts.workload).c_str(), static_cast<unsigned long long>(opts.seed),
        num(opts.seconds).c_str(), opts.trace ? 1 : 0, quote(host_line()).c_str(),
        correct ? "true" : "false", static_cast<long long>(report.attempted),
        static_cast<long long>(report.failed), samples_json(report.setup_s).c_str(),
        samples_json(report.op_s).c_str(),
        samples_json(report.traced_op_s).c_str(), num(t.percentile).c_str(),
        num(rel_spread(report.op_s)).c_str(), metrics_json(e2e).c_str(),
        metrics_json(layer).c_str());
    std::fclose(f);
  }
  if (tr != nullptr && !tr->write_chrome(stem + ".trace.json")) {
    std::fprintf(stderr, "could not write %s.trace.json\n", stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              metrics_json(opts.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
