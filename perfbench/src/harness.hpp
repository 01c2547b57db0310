// Shared machinery of the ctile end-to-end benchmark: options, the op
// loop, allocation counting, spans, sample statistics and the report
// every workload fills.
//
// Spans are taken from OUTSIDE the library, around each call the
// benchmark makes into a layer (src/ module).  Every span always times
// its interval; when tracing is on it is also recorded (name, start,
// end, parent, op id) in memory and exported as Chrome trace-event JSON
// when the run ends.  A span's layer is its name up to the first '.'.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/checked_int.hpp"

namespace perfbench {

using ctile::i64;
using ctile::u64;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

// ---- Allocation counting.  The benchmark binary replaces the global
// operator new; every thread bumps its own cache line, so counting does
// not serialize the ranks of the thread backend.

/// Allocations made by all threads of the process so far.
u64 allocations();

// ---- Spans.

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer started
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 for roots
  i64 op = -1;           ///< op id, -1 outside the timed ops
};

class Tracer {
 public:
  Tracer();
  double now() const;
  int begin(const std::string& name, i64 op);
  void end(int index);
  /// Record a span measured by the program itself (lowering phases),
  /// nested in `parent`.
  void add(const std::string& name, double start_s, double end_s,
           int parent, i64 op);
  /// Index of the innermost open span, -1 when none.
  int open() const { return stack_.empty() ? -1 : stack_.back(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Self time (span minus the part its children cover) summed per
  /// layer over the spans whose op id satisfies `keep`.
  std::map<std::string, double> self_seconds_by_layer(
      const std::function<bool(i64)>& keep) const;
  bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// The process tracer while recording is on, else nullptr.
Tracer* tracer();
/// Start recording spans (the tracer lives until exit).
Tracer& start_tracing();
/// Pause / resume recording (untraced ops of a traced run).
void set_recording(bool on);

/// The op id stamped on spans opened now (-1 outside ops).
i64 current_op();

/// Times [construction, stop()] and, when recording, records the span.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Close the span (idempotent); returns its duration in seconds.
  double stop();
  /// Tracer index of this span, -1 when not recorded.
  int index() const { return index_; }
  /// Start of the span on the tracer's clock (0 when not recorded).
  double start_s() const { return start_s_; }

 private:
  Clock::time_point t0_;
  int index_ = -1;
  double start_s_ = 0.0;
  double duration_ = -1.0;
};

/// Pin the calling thread to the next CPU of the process's affinity set,
/// round robin.  On a shared host each core's speed drifts for seconds
/// at a time (the other hardware thread of the core is busy or not), so
/// single-threaded workloads move between steps and each run samples
/// every core instead of one.  Threads spawned while pinned inherit the
/// single-CPU mask, so call unpin_cpu() first.
void rotate_cpu();
/// Give the calling thread back every CPU the process started with.
void unpin_cpu();

// ---- Statistics over samples.

double median(std::vector<double> xs);
/// Quartiles as Python's statistics.quantiles(xs, n=4) (exclusive).
void quartiles(std::vector<double> xs, double* q1, double* q3);
/// (q3 - q1) / median; 0 for fewer than two samples.
double rel_spread(const std::vector<double>& xs);

/// The highest percentile with at least ten samples beyond it.  With
/// fewer than eleven samples no percentile qualifies and the maximum is
/// reported (percentile 100, zero samples beyond).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  i64 beyond = 0;
};
Tail tail(std::vector<double> xs);

// ---- Report.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> failures;   ///< one line per failed check
  std::vector<double> setup_s;         ///< one sample per set-up
  std::vector<double> op_s;            ///< untraced ops
  std::vector<double> traced_op_s;     ///< traced ops (trace run only)
  std::map<std::string, Metric> layer; ///< per-layer metrics
  std::vector<std::string> notes;      ///< printed in the summary

  void set(const std::string& name, double value, const std::string& unit) {
    layer[name] = Metric{value, unit};
  }
  void failure(const std::string& what);
};

/// One op: returns the seconds the op took (the program's calls only,
/// not the benchmark's checks); `ok` is cleared by a failed check.
using OpFn = std::function<double(i64 op, bool* ok)>;

/// Run ops back to back for about opts.seconds (at least one op).
/// `may_stop` (optional) groups ops into units that end only on a
/// boundary of the workload's own; by default every op is a unit.  In a
/// traced run every other unit is recorded, so traced and untraced units
/// interleave and their medians give the tracing overhead.
void run_ops(const Options& opts, Report& report, const OpFn& op,
             const std::function<bool()>& may_stop = {});

/// Time `setup` `reps` times into report.setup_s.
void run_setups(Report& report, int reps, const std::function<double()>& setup);

// ---- Workloads.

void paper16_event(const Options& opts, Report& report);
void caption4_thread(const Options& opts, Report& report);
void plan_stream(const Options& opts, Report& report);
void shape_search(const Options& opts, Report& report);

/// The per-layer metric names every traced run reports (0 where a
/// workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

}  // namespace perfbench
