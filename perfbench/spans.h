// The benchmark's own span recorder and the small statistics it reports.
//
// Spans are recorded in memory only (name, start, end, parent id, request
// id) and written once, at exit, as Chrome trace JSON (chrome://tracing or
// https://ui.perfetto.dev load it). A span's self time is its duration minus
// the part of it covered by its direct children, so the self times of every
// span in a tree sum exactly to the root's duration.
//
// Header-only so perfbench_test.cc checks the same arithmetic e2e.cc uses.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call in this process.
inline double NowUs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

/// Length of the union of `intervals` clipped to [begin, end].
inline double CoveredUs(double begin, double end,
                        std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = begin;  // Everything before `reach` is already counted.
  for (const auto& iv : intervals) {
    const double lo = std::max(iv.first, reach);
    const double hi = std::min(iv.second, end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = -1.0;  ///< < start_us while the span is open.
  int id = 0;
  int parent = -1;  ///< -1 for a root.
  int request = -1;
  double DurationUs() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  /// Opens a span as a child of the innermost open span (a root when none is
  /// open) and returns its id.
  int Begin(const std::string& name, int request) {
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.request = request;
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  /// Closes the innermost open span, which must be `id`.
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_us = NowUs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds an already-timed span (used by the unit checks).
  int Add(const std::string& name, double start_us, double end_us,
          int parent, int request) {
    Span s;
    s.name = name;
    s.start_us = start_us;
    s.end_us = end_us;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent;
    s.request = request;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

  std::vector<int> Children(int id) const {
    std::vector<int> out;
    for (const Span& s : spans_)
      if (s.parent == id) out.push_back(s.id);
    return out;
  }

  /// Duration minus the time the direct children cover.
  double SelfUs(int id) const {
    const Span& s = span(id);
    std::vector<std::pair<double, double>> kids;
    for (int c : Children(id))
      kids.emplace_back(span(c).start_us, span(c).end_us);
    return s.DurationUs() - CoveredUs(s.start_us, s.end_us, std::move(kids));
  }

  /// Sum of self times over `root` and all its descendants.
  double TreeSelfUs(int root) const {
    double total = SelfUs(root);
    for (int c : Children(root)) total += TreeSelfUs(c);
    return total;
  }

  /// Chrome trace "complete" events; args carry the parent and request ids.
  void WriteChromeTrace(std::FILE* f) const {
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %d, \"parent\": %d, \"request\": %d}}%s\n",
                   s.name.c_str(), s.start_us, s.DurationUs(), s.id,
                   s.parent, s.request, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int request)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A tail latency and the evidence behind it.
struct Tail {
  bool ok = false;          ///< False when no percentile has enough support.
  double percentile = 0.0;  ///< e.g. 95 for p95.
  double value = 0.0;
  size_t beyond = 0;  ///< Samples ranked above the percentile's sample.
};

/// The benchmark's tail ladder. It stops at p90: on a shared 4-core host the
/// p95 of a few hundred sf1-release releases spread by 18% (quartile
/// distance over median) across five runs of the same code.
inline const std::vector<double>& DefaultTailLadder() {
  static const std::vector<double> ladder = {75, 90};
  return ladder;
}

/// Nearest-rank percentile selection: the highest percentile of `ladder`
/// whose sample has at least `min_beyond` samples ranked above it. With n
/// samples, percentile p picks rank ceil(p/100 * n) (1-based), leaving
/// n - rank samples beyond it.
inline Tail SelectTail(std::vector<double> samples,
                       const std::vector<double>& ladder = DefaultTailLadder(),
                       size_t min_beyond = 10) {
  Tail best;
  const size_t n = samples.size();
  if (n == 0) return best;
  std::sort(samples.begin(), samples.end());
  for (double p : ladder) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) -
                                         1e-9)));
    if (rank > n || n - rank < min_beyond) continue;
    if (!best.ok || p > best.percentile) {
      best.ok = true;
      best.percentile = p;
      best.value = samples[rank - 1];
      best.beyond = n - rank;
    }
  }
  return best;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
