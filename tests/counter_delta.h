// Test helper: how far one metrics-registry counter has moved since the
// helper was constructed. The caches count into process-wide counters, so a
// test attributes traffic to its own operations by taking the delta.
#ifndef HDMM_TESTS_COUNTER_DELTA_H_
#define HDMM_TESTS_COUNTER_DELTA_H_

#include <cstdint>

#include "common/metrics.h"

namespace hdmm {

class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(Metrics::GetCounter(name)), start_(counter_->Value()) {}

  uint64_t operator()() const { return counter_->Value() - start_; }

 private:
  Counter* counter_;
  uint64_t start_;
};

}  // namespace hdmm

#endif  // HDMM_TESTS_COUNTER_DELTA_H_
