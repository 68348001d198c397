#include "common/clock.h"

#include <chrono>
#include <thread>

namespace ltc {

namespace {

/// Silence after which a bounded wait stops yielding and sleeps. A live
/// thread can sit descheduled for a few scheduler slices (healthy
/// perfbench ingest_zipf rounds on a 4-vCPU VM showed silences of up to
/// 24 ms), so no healthy wait reaches it; past it, sleeping leaves the
/// core to the thread the wait is for instead of burning it for the
/// rest of the bound.
constexpr uint64_t kYieldPhaseUsec = 50'000;

class SystemClockImpl final : public Clock {
 public:
  uint64_t NowMicros() override {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now).count());
  }

  void SleepMicros(uint64_t usec) override {
    if (usec == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(usec));
  }
};

}  // namespace

Clock& SystemClock() {
  static SystemClockImpl clock;
  return clock;
}

bool WaitStep(uint64_t since, uint64_t timeout_usec) {
  const uint64_t waited = SystemClock().NowMicros() - since;
  if (waited >= timeout_usec) return false;
  if (waited < kYieldPhaseUsec) {
    std::this_thread::yield();
  } else {
    SystemClock().SleepMicros(1'000);
  }
  return true;
}

}  // namespace ltc
