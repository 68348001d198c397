#include "core/read_snapshot.h"

#include "common/clock.h"
#include "telemetry/trace.h"

namespace ltc {

void ReadSnapshotHub::Ref::Release() {
  if (hub_ != nullptr && snapshot_ != nullptr) {
    hub_->slots_[slot_].readers.fetch_sub(1, std::memory_order_release);
  }
  hub_ = nullptr;
  snapshot_ = nullptr;
}

// Ordering note: the reader's {pin readers, recheck active} and the
// publisher's {flip active, check readers} form a Dekker pattern — each
// side must observe the other's first write, or a reader could pin a
// slot the publisher already judged reader-free and is mutating. All
// four operations are therefore seq_cst; everything else rides the
// usual acquire/release pairs. The cost lands on queries and barriers,
// never on the per-record ingest path.

bool ReadSnapshotHub::Publish(
    std::unique_ptr<const SignificanceEstimator> table, uint64_t records) {
  telemetry::Span span("hub.publish");
  span.AddAttr("records", records);
  // The inactive slot is the one readers abandoned a generation ago;
  // wait (bounded) for the last of them to unpin it.
  const int32_t active = active_.load(std::memory_order_relaxed);
  const uint32_t idx = active == 0 ? 1u : 0u;
  Slot& slot = slots_[idx];
  if (slot.readers.load(std::memory_order_seq_cst) != 0) {
    const uint64_t since = SystemClock().NowMicros();
    do {
      if (!WaitStep(since, wait_usec_)) {
        // Bound the producer's wait: keep serving the previous snapshot.
        skipped_.fetch_add(1, std::memory_order_relaxed);
        span.AddAttr("skipped", 1);
        return false;
      }
    } while (slot.readers.load(std::memory_order_seq_cst) != 0);
  }
  // The seq_cst load above synchronizes with the last reader's release
  // decrement, so these plain writes cannot race a stale read.
  slot.snapshot.seq = seq_.load(std::memory_order_relaxed) + 1;
  slot.snapshot.records = records;
  slot.snapshot.table = std::move(table);
  seq_.store(slot.snapshot.seq, std::memory_order_relaxed);
  // Publish: a reader that observes the new index also observes the
  // completed image (store is seq_cst, which includes release).
  active_.store(static_cast<int32_t>(idx), std::memory_order_seq_cst);
  return true;
}

ReadSnapshotHub::Ref ReadSnapshotHub::Acquire() const {
  for (;;) {
    const int32_t active = active_.load(std::memory_order_acquire);
    if (active < 0) return {};
    const Slot& slot = slots_[active];
    slot.readers.fetch_add(1, std::memory_order_seq_cst);
    // Recheck: if the active index moved between the load and the pin,
    // the pinned slot may be the publisher's next victim — back off and
    // retry. A stable index proves the image is complete (the publisher
    // flips the index only after finishing the copy) and that the
    // publisher's reader-free check cannot have missed our pin (seq_cst
    // on both sides: either we see the flip here, or the publisher sees
    // our pin there).
    if (active_.load(std::memory_order_seq_cst) == active) {
      return Ref(this, static_cast<uint32_t>(active), &slot.snapshot);
    }
    slot.readers.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace ltc
