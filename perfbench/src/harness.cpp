#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Allocation counting.
//
// Each thread owns one cache-line slot (assigned on its first
// allocation, never reused), so the counter is a plain load + store: no
// locked instruction and no line shared between the ranks.  Threads are
// joined before a count is read, which makes the sum exact as long as
// the process starts fewer than kSlots threads.

namespace {

constexpr unsigned kSlots = 4096;
struct alignas(64) Slot {
  std::atomic<u64> n{0};
};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};

inline void count_allocation() {
  thread_local const unsigned slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  std::atomic<u64>& n = g_slots[slot].n;
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_allocation();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count_allocation();
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}

}  // namespace

u64 allocations() {
  u64 total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

// The replacements below allocate with malloc / posix_memalign, so free
// is the matching release; GCC cannot see that across the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace perfbench {

// ---- Tracer.

namespace {
Tracer* g_tracer = nullptr;
bool g_recording = false;
i64 g_current_op = -1;

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

Tracer::Tracer() : t0_(Clock::now()) {}

double Tracer::now() const { return seconds_since(t0_); }

int Tracer::begin(const std::string& name, i64 op) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(SpanRecord{name, now(), 0.0, open(), op});
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_s = now();
  // Spans close in LIFO order; tolerate a span closed out of order by
  // dropping it and everything opened after it from the stack.
  const auto it = std::find(stack_.begin(), stack_.end(), index);
  if (it != stack_.end()) stack_.erase(it, stack_.end());
}

void Tracer::add(const std::string& name, double start_s, double end_s,
                 int parent, i64 op) {
  spans_.push_back(SpanRecord{name, start_s, end_s, parent, op});
}

std::map<std::string, double> Tracer::self_seconds_by_layer(
    const std::function<bool(i64)>& keep) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (!keep(s.op)) continue;
    self[layer_of(s.name)] += std::max(0.0, s.end_s - s.start_s - child[i]);
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"op\": %lld, \"parent\": %d, \"id\": %zu}}",
                 i == 0 ? "" : ",\n", json_escape(s.name).c_str(),
                 json_escape(layer_of(s.name)).c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, static_cast<long long>(s.op),
                 s.parent, i);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tracer* tracer() { return g_recording ? g_tracer : nullptr; }

Tracer& start_tracing() {
  if (g_tracer == nullptr) g_tracer = new Tracer();
  g_recording = true;
  return *g_tracer;
}

void set_recording(bool on) { g_recording = on && g_tracer != nullptr; }

i64 current_op() { return g_current_op; }

Span::Span(const char* name) : t0_(Clock::now()) {
  if (Tracer* t = tracer()) {
    index_ = t->begin(name, g_current_op);
    start_s_ = t->spans()[static_cast<std::size_t>(index_)].start_s;
  }
}

Span::~Span() { stop(); }

double Span::stop() {
  if (duration_ < 0.0) {
    duration_ = seconds_since(t0_);
    if (index_ >= 0 && g_tracer != nullptr) g_tracer->end(index_);
  }
  return duration_;
}

namespace {
/// The affinity mask the process started with.
const cpu_set_t& start_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) CPU_SET(0, &s);
    return s;
  }();
  return set;
}
}  // namespace

void rotate_cpu() {
  static int next = 0;
  const cpu_set_t& all = start_cpus();
  if (CPU_COUNT(&all) < 2) return;
  while (!CPU_ISSET(next % CPU_SETSIZE, &all)) ++next;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(next % CPU_SETSIZE, &one);
  ++next;
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

void unpin_cpu() {
  pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &start_cpus());
}

// ---- Statistics.

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void quartiles(std::vector<double> xs, double* q1, double* q3) {
  std::sort(xs.begin(), xs.end());
  const long ld = static_cast<long>(xs.size());
  if (ld < 2) {
    *q1 = *q3 = ld == 1 ? xs[0] : 0.0;
    return;
  }
  const long m = ld + 1;
  double q[2];
  for (long i = 1, k = 0; i <= 3; i += 2, ++k) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[k] = (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  }
  *q1 = q[0];
  *q3 = q[1];
}

double rel_spread(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double q1 = 0.0, q3 = 0.0;
  quartiles(xs, &q1, &q3);
  const double med = median(xs);
  return med != 0.0 ? (q3 - q1) / std::fabs(med) : 0.0;
}

Tail tail(std::vector<double> xs) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n < 11) {
    t.value = xs.back();
    return t;
  }
  t.value = xs[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

// ---- Report and loops.

void Report::failure(const std::string& what) {
  if (failures.size() < 32) failures.push_back(what);
}

void run_ops(const Options& opts, Report& report, const OpFn& op,
             const std::function<bool()>& may_stop) {
  const Clock::time_point t0 = Clock::now();
  double unit_start = 0.0;
  i64 unit = 0;
  for (i64 i = 0;; ++i) {
    if (i > 0 && (!may_stop || may_stop())) {
      // At a boundary: stop when the next unit (op or workload-defined
      // group of ops) would end more than half past the deadline, judged
      // by the unit just finished, so a run measures opts.seconds on
      // average.
      const double now = seconds_since(t0);
      if (now + 0.5 * (now - unit_start) >= opts.seconds) break;
      unit_start = now;
      ++unit;
    }
    const bool traced = opts.trace && unit % 2 == 1;
    set_recording(traced);
    g_current_op = i;
    bool ok = true;
    bool threw = false;
    double secs = 0.0;
    {
      Span root("bench.op");
      try {
        secs = op(i, &ok);
      } catch (const std::exception& e) {
        ok = false;
        threw = true;
        report.failure("op " + std::to_string(i) + " threw: " + e.what());
      }
    }
    g_current_op = -1;
    set_recording(opts.trace);
    ++report.attempted;
    if (!ok) ++report.failed;
    if (!threw) (traced ? report.traced_op_s : report.op_s).push_back(secs);
  }
}

void run_setups(Report& report, int reps,
                const std::function<double()>& setup) {
  for (int r = 0; r < reps; ++r) report.setup_s.push_back(setup());
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"runtime.lower_ms", "ms"},
      {"tiling.tile_space_ms", "ms"},
      {"tiling.census_ms", "ms"},
      {"runtime.mapping_ms", "ms"},
      {"runtime.lds_ms", "ms"},
      {"runtime.comm_plan_ms", "ms"},
      {"tiling.classifier_ms", "ms"},
      {"tiling.band_ms", "ms"},
      {"runtime.locals_ms", "ms"},
      {"runtime.lower_allocs_per_pt", "allocs/pt"},
      {"verify.ms", "ms"},
      {"verify.errors", "count"},
      {"runtime.plan_cache.hit_us", "us"},
      {"runtime.plan_cache.hit_rate", "frac"},
      {"runtime.run_ms.sor_rect", "ms"},
      {"runtime.run_ms.sor_nonrect", "ms"},
      {"runtime.run_ms.jacobi_rect", "ms"},
      {"runtime.run_ms.jacobi_nonrect", "ms"},
      {"runtime.run_ms.adi_rect", "ms"},
      {"runtime.run_ms.adi_nr3", "ms"},
      {"runtime.mpts", "Mpts/s"},
      {"runtime.fast_path_frac", "frac"},
      {"runtime.fast_path_frac.sor_rect", "frac"},
      {"runtime.fast_path_frac.sor_nonrect", "frac"},
      {"runtime.fast_path_frac.jacobi_rect", "frac"},
      {"runtime.fast_path_frac.jacobi_nonrect", "frac"},
      {"runtime.fast_path_frac.adi_rect", "frac"},
      {"runtime.fast_path_frac.adi_nr3", "frac"},
      {"runtime.allocs_per_pt", "allocs/pt"},
      {"runtime.compute_s", "s"},
      {"runtime.pack_s", "s"},
      {"runtime.unpack_s", "s"},
      {"runtime.work_over_seq", "ratio"},
      {"mpisim.messages", "count"},
      {"mpisim.bytes", "bytes"},
      {"mpisim.recv_wait_s", "s"},
      {"mpisim.send_wait_s", "s"},
      {"mpisim.phase_sum_over_wall", "ratio"},
      {"apps.seq_mpts", "Mpts/s"},
      {"apps.ceiling_mpts", "Mpts/s"},
      {"runtime.speedup_vs_seq", "ratio"},
      {"runtime.ceiling_frac", "frac"},
      {"cluster.search_ms", "ms"},
      {"cluster.gen_ms", "ms"},
      {"cluster.bound_ms", "ms"},
      {"cluster.eval_ms", "ms"},
      {"cluster.candidates", "count"},
      {"cluster.evaluated", "count"},
      {"cluster.pruned", "count"},
      {"cluster.useful_frac", "frac"},
      {"cluster.useful_frac.sor", "frac"},
      {"cluster.useful_frac.adi", "frac"},
      {"cluster.cache_hit_rate", "frac"},
      {"cluster.des_ms", "ms"},
      {"cluster.sim_ms", "ms"},
      {"cluster.bytes_over_bound", "ratio"},
      {"cluster.bytes_over_bound.sor", "ratio"},
      {"cluster.bytes_over_bound.adi", "ratio"},
      {"trace.overhead_frac", "frac"},
      {"trace.spans", "count"},
      {"trace.self_ms.bench", "ms"},
      {"trace.self_ms.runtime", "ms"},
      {"trace.self_ms.tiling", "ms"},
      {"trace.self_ms.verify", "ms"},
      {"trace.self_ms.cluster", "ms"},
  };
  return names;
}

}  // namespace perfbench
