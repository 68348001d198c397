// SnapshotStore — a rotation of the last N good checkpoints with a
// walk-back recovery path (docs/DURABILITY.md).
//
// A store is anchored at a base path: Save(payload) frames the payload
// (frame.h), writes it atomically (fs.h) to
//
//     <base>.<seq>.snap        seq = 000000001, 000000002, ...
//
// and prunes everything older than the newest `retain` files. Because
// each snapshot is a *new* name reached only by rename, a crash at any
// instant leaves every previously completed snapshot byte-identical —
// there is no moment at which the last good checkpoint is open for
// writing.
//
// LoadLatest() walks the snapshots newest-first and returns the first
// one whose frame validates (magic, version, both CRCs, length),
// reporting every rejected candidate with its typed SnapshotError
// instead of crashing or returning garbage. A corrupted newest
// snapshot therefore costs one checkpoint interval of progress, never
// the whole state.

#ifndef LTC_SNAPSHOT_SNAPSHOT_STORE_H_
#define LTC_SNAPSHOT_SNAPSHOT_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "snapshot/frame.h"
#include "snapshot/fs.h"
#include "telemetry/metrics.h"

namespace ltc {

struct SnapshotStoreConfig {
  /// How many newest snapshot files survive pruning (>= 1). More
  /// retained snapshots = more corruption the recovery walk can skip.
  size_t retain = 3;

  /// Retry policy for the atomic write inside Save(): a transient I/O
  /// error (full disk draining, NFS hiccup, injected fault burst) is
  /// re-attempted with exponential backoff + jitter instead of failing
  /// the checkpoint outright. The default (max_attempts = 1) keeps the
  /// historical fail-fast behaviour; sleeps go through the injectable
  /// clock so schedules are deterministically testable.
  BackoffPolicy retry;
};

class SnapshotStore {
 public:
  /// Snapshots live at `<base_path>.<seq>.snap`, in base_path's
  /// directory (which must exist). `fs` defaults to SystemFs(); tests
  /// pass a FailpointFs. `clock` (for retry backoff sleeps) defaults to
  /// SystemClock(); tests pass a FakeClock.
  explicit SnapshotStore(std::string base_path,
                         SnapshotStoreConfig config = {}, Fs* fs = nullptr,
                         Clock* clock = nullptr);

  /// Frames `payload` and persists it as the next snapshot, atomically
  /// and durably, re-attempting the write per config.retry. Returns the
  /// sequence number, or nullopt with `error` set when every attempt
  /// failed — in which case every previously saved snapshot is still
  /// intact and loadable.
  std::optional<uint64_t> Save(std::string_view payload,
                               std::string* error = nullptr);

  /// Write re-attempts Save() has made across its lifetime (0 while
  /// every save succeeds first try).
  uint64_t SaveRetries() const { return save_retries_total_; }

  struct Candidate {
    std::string path;
    uint64_t seq = 0;
    SnapshotError error = SnapshotError::kNone;
  };

  struct Recovered {
    std::string payload;      // the validated frame payload
    uint64_t seq = 0;         // which snapshot it came from
    std::vector<Candidate> skipped;  // newer candidates that failed, with why
  };

  /// Accepts a frame-valid payload, or rejects it so the recovery walk
  /// continues (recorded as kPayloadRejected). Typically binds a
  /// sketch's Deserialize, via DecodeSketchSnapshot (sketch_snapshot.h).
  using PayloadValidator = std::function<bool(std::string_view payload)>;

  /// Newest valid snapshot, walking back over corrupt ones (and over
  /// frame-valid ones the validator rejects, when given). nullopt
  /// (with `error` describing the newest failure, or "no snapshots")
  /// only when NO retained snapshot validates.
  std::optional<Recovered> LoadLatest(
      std::string* error = nullptr,
      const PayloadValidator& validate = nullptr) const;

  /// Existing snapshot files, newest first (not validated).
  std::vector<Candidate> ListSnapshots() const;

  const std::string& base_path() const { return base_path_; }

  /// Publishes the ltc_snapshot_* families (docs/TELEMETRY.md) from
  /// the store's own counters: save outcomes, retries, frame sizes and
  /// save latency, recovery walk-back depth, and LoadLatest()'s skips
  /// by error type (so failpoint-injected faults are visible). Call it
  /// from the thread that drives the store; it is not thread-safe, like
  /// the store itself.
  void Collect(telemetry::MetricsRegistry& registry) const;

 private:
  std::string PathOf(uint64_t seq) const;
  void Prune();

  std::string base_path_;
  SnapshotStoreConfig config_;
  Fs* fs_;
  Clock* clock_;
  uint64_t next_seq_ = 0;  // 0 = not yet derived from the directory
  uint64_t saves_ok_ = 0;
  uint64_t saves_failed_ = 0;
  uint64_t save_retries_total_ = 0;
  telemetry::Histogram save_bytes_;
  telemetry::Histogram save_duration_usec_;

  // Recovery-walk outcomes; LoadLatest() is const, the walk still counts.
  mutable telemetry::Histogram recovery_walkback_depth_;
  mutable uint64_t load_errors_[static_cast<size_t>(SnapshotError::kNotFound) +
                                1] = {};  // index = SnapshotError
};

}  // namespace ltc

#endif  // LTC_SNAPSHOT_SNAPSHOT_STORE_H_
