// Unit checks of the benchmark's own arithmetic: span self time (duration
// minus the covered child interval) and tail-percentile selection. run.py
// runs this before every benchmark run; a failure fails the run.
//
//   .bench_build/perfbench/perfbench_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void SelfTime() {
  using perfbench::SpanRecorder;
  SpanRecorder rec;
  const int root = rec.Add("root", 0, 100, -1, 0);
  rec.Add("a", 10, 30, root, 0);
  const int b = rec.Add("b", 25, 50, root, 0);  // Overlaps a by 5.
  rec.Add("c", 90, 120, root, 0);               // Runs past the root.
  rec.Add("b.leaf", 30, 40, b, 0);
  // Children cover [10, 50] and [90, 100]: 50 of the root's 100.
  Expect(Near(rec.SelfUs(root), 50), "root self = 100 - covered 50");
  Expect(Near(rec.SelfUs(b), 15), "b self = 25 - leaf 10");
  Expect(Near(perfbench::CoveredUs(0, 10, {}), 0), "no children covers 0");
  Expect(Near(perfbench::CoveredUs(0, 10, {{2, 4}, {3, 5}, {-3, 1}}), 4),
         "union clipped to the parent");

  // Disjoint, nested children: tree self times sum back to the root.
  SpanRecorder tree;
  const int r = tree.Add("request", 0, 1000, -1, 1);
  const int m = tree.Add("measure", 5, 400, r, 1);
  tree.Add("charge", 10, 60, m, 1);
  tree.Add("noise", 60, 300, m, 1);
  tree.Add("answer", 410, 990, r, 1);
  Expect(Near(tree.TreeSelfUs(r), 1000), "tree self times sum to the root");
}

void TailSelection() {
  using perfbench::SelectTail;
  auto ramp = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;  // Descending, so SelectTail must sort.
  };
  const std::vector<double> wide = {75, 90, 95, 99, 99.9};
  perfbench::Tail t = SelectTail(ramp(100), wide);
  Expect(t.ok && t.percentile == 90 && t.value == 90 && t.beyond == 10,
         "n=100 selects p90 with 10 beyond");
  t = SelectTail(ramp(199), wide);
  Expect(t.ok && t.percentile == 90 && t.beyond == 19,
         "n=199 cannot support p95 (9 beyond)");
  t = SelectTail(ramp(200), wide);
  Expect(t.ok && t.percentile == 95 && t.value == 190 && t.beyond == 10,
         "n=200 selects p95");
  t = SelectTail(ramp(1000), wide);
  Expect(t.ok && t.percentile == 99 && t.beyond == 10, "n=1000 selects p99");
  t = SelectTail(ramp(39), wide);
  Expect(!t.ok, "n=39 supports no percentile of the ladder");
  t = SelectTail(ramp(40), wide);
  Expect(t.ok && t.percentile == 75 && t.beyond == 10, "n=40 selects p75");
  t = SelectTail(ramp(1000));
  Expect(t.ok && t.percentile == 90 && t.beyond == 100,
         "the default ladder tops out at p90");
  Expect(perfbench::Median({3, 1, 2}) == 2, "odd median");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "even median");
}

}  // namespace

int main() {
  SelfTime();
  TailSelection();
  if (g_failures > 0) return 1;
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
