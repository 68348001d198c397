// The time seam of the robustness layer.
//
// Anything that sleeps or schedules on the retry/backoff path goes
// through the `Clock` interface for the same reason snapshot I/O goes
// through `Fs`: failure handling must be *testable*. Production code
// uses SystemClock() (steady_clock + real sleeps); tests pass a
// FakeClock that advances instantly and records every requested sleep,
// so a backoff schedule can be asserted value-by-value without wall
// time ever passing (tests/backoff_test.cc).
//
// A wait for another live thread (a pipeline lane, a reader pinning a
// snapshot slot) is the exception: it reads the steady clock through
// WaitStep, never a Clock a test can fake, because a fake clock cannot
// tell a thread the scheduler has not run yet from a dead one.

#ifndef LTC_COMMON_CLOCK_H_
#define LTC_COMMON_CLOCK_H_

#include <cstdint>
#include <vector>

namespace ltc {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic timestamp in microseconds (epoch unspecified).
  virtual uint64_t NowMicros() = 0;

  /// Blocks the calling thread for `usec` microseconds.
  virtual void SleepMicros(uint64_t usec) = 0;
};

/// The process-wide monotonic clock (std::chrono::steady_clock).
Clock& SystemClock();

/// One step of a bounded wait (docs/INGEST.md "Bounded waits"): false,
/// without waiting, once `timeout_usec` has passed since `since`, a
/// SystemClock() reading; otherwise a yield during the first 50 ms
/// after `since`, a 1 ms sleep past them. The caller restarts the bound
/// on progress by moving `since` forward.
bool WaitStep(uint64_t since, uint64_t timeout_usec);

/// Deterministic clock for tests: SleepMicros returns immediately,
/// advances the fake time, and records the requested duration so a
/// retry loop's exact backoff schedule can be asserted. Single-threaded,
/// like the retry paths it stands in for.
class FakeClock final : public Clock {
 public:
  uint64_t NowMicros() override { return now_usec_; }

  void SleepMicros(uint64_t usec) override {
    now_usec_ += usec;
    sleeps_usec_.push_back(usec);
  }

  /// Moves time forward without recording a sleep.
  void Advance(uint64_t usec) { now_usec_ += usec; }

  /// Every SleepMicros request, in call order.
  const std::vector<uint64_t>& sleeps_usec() const { return sleeps_usec_; }

 private:
  uint64_t now_usec_ = 0;
  std::vector<uint64_t> sleeps_usec_;
};

}  // namespace ltc

#endif  // LTC_COMMON_CLOCK_H_
