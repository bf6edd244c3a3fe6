// Wall-clock stopwatch used by the experiment harnesses.
#ifndef PINUM_COMMON_STOPWATCH_H_
#define PINUM_COMMON_STOPWATCH_H_

#include <chrono>

namespace pinum {

/// Monotonic wall-clock timer. Started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction/Reset in milliseconds.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pinum

#endif  // PINUM_COMMON_STOPWATCH_H_
