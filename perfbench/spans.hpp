// Benchmark-side spans: name, start, end, parent and thread of every
// public call the driver makes into the gfc libraries. Spans live in
// memory and are written once, at the end of a traced run, as Chrome
// trace_event JSON (chrome://tracing, Perfetto). They time calls from
// outside the program; spans inside it are separate, later work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;  // "<layer>.<call>", a string literal
  int id;
  int parent;  // -1 for a root span
  int tid;     // small per-thread index, 0 = main thread
  int round;   // measurement round the span belongs to (-1: none)
  double start_s;
  double end_s;
};

class SpanLog {
 public:
  static SpanLog& get() {
    static SpanLog log;
    return log;
  }

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  int next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(const SpanRecord& r) {
    const std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(r);
  }
  std::vector<SpanRecord> records() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  /// The round every span started from now on is tagged with (set by the
  /// main thread between rounds; worker threads only read it).
  void set_round(int r) { round_.store(r, std::memory_order_relaxed); }
  int round() const { return round_.load(std::memory_order_relaxed); }

  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int tid = next.fetch_add(1);
    return tid;
  }

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    const std::vector<SpanRecord> recs = records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d}}",
                   i == 0 ? "" : ",", r.name, layer_len(r.name), r.name,
                   r.tid, r.start_s * 1e6, (r.end_s - r.start_s) * 1e6, r.id,
                   r.parent, r.round);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  /// Length of the layer prefix ("topo" in "topo.cbd_prone").
  static int layer_len(const char* name) {
    int n = 0;
    while (name[n] != '\0' && name[n] != '.') ++n;
    return n;
  }

 private:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::chrono::steady_clock::time_point origin_;
  std::atomic<int> next_id_{0};
  std::atomic<int> round_{-1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;  // guarded by mu_
};

namespace detail {
inline thread_local int t_open_span = -1;
}  // namespace detail

/// RAII span: opens on construction, closes on stop() or destruction.
/// The parent defaults to the innermost span open on this thread; worker
/// threads pass their parent explicitly.
class Span {
 public:
  static constexpr int kInherit = -2;

  explicit Span(const char* name, int parent = kInherit)
      : name_(name),
        id_(SpanLog::get().next_id()),
        parent_(parent == kInherit ? detail::t_open_span : parent),
        prev_open_(detail::t_open_span),
        round_(SpanLog::get().round()),
        start_(SpanLog::get().now()) {
    detail::t_open_span = id_;
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent); returns its duration in seconds.
  double stop() {
    if (!open_) return seconds_;
    open_ = false;
    const double end = SpanLog::get().now();
    seconds_ = end - start_;
    detail::t_open_span = prev_open_;
    SpanLog::get().add(SpanRecord{name_, id_, parent_,
                                  SpanLog::thread_index(), round_, start_,
                                  end});
    return seconds_;
  }
  int id() const { return id_; }

 private:
  const char* name_;
  int id_;
  int parent_;
  int prev_open_;
  int round_;
  double start_;
  bool open_ = true;
  double seconds_ = 0;
};

/// Run `fn` inside a span named `name`; returns what `fn` returns.
template <typename Fn>
auto timed(const char* name, Fn&& fn) {
  Span span(name);
  return fn();
}

}  // namespace perfbench
