#include "snapshot/snapshot_store.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <iterator>

#include "telemetry/trace.h"

namespace ltc {
namespace {

constexpr char kSuffix[] = ".snap";

/// "ckpt.000000042.snap" -> 42, for names matching `<stem>.<digits>.snap`.
std::optional<uint64_t> SeqOfName(const std::string& name,
                                  const std::string& stem) {
  const std::string prefix = stem + ".";
  if (name.size() <= prefix.size() + sizeof(kSuffix) - 1) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                   kSuffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(
      prefix.size(), name.size() - prefix.size() - (sizeof(kSuffix) - 1));
  if (digits.empty()) return std::nullopt;
  uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(c - '0');
  }
  return seq;
}

std::string BasenameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

SnapshotStore::SnapshotStore(std::string base_path,
                             SnapshotStoreConfig config, Fs* fs, Clock* clock)
    : base_path_(std::move(base_path)),
      config_(config),
      fs_(fs != nullptr ? fs : &SystemFs()),
      clock_(clock != nullptr ? clock : &SystemClock()) {
  if (config_.retain < 1) config_.retain = 1;
}

std::string SnapshotStore::PathOf(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".%09" PRIu64 "%s", seq, kSuffix);
  return base_path_ + buf;
}

std::vector<SnapshotStore::Candidate> SnapshotStore::ListSnapshots() const {
  std::vector<Candidate> found;
  const auto names = fs_->ListDir(DirnameOf(base_path_));
  if (!names) return found;
  const std::string stem = BasenameOf(base_path_);
  const std::string dir = DirnameOf(base_path_);
  for (const std::string& name : *names) {
    if (auto seq = SeqOfName(name, stem)) {
      found.push_back({dir + "/" + name, *seq, SnapshotError::kNone});
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.seq > b.seq;  // newest first
            });
  return found;
}

std::optional<uint64_t> SnapshotStore::Save(std::string_view payload,
                                            std::string* error) {
  telemetry::Span span("snapshot.save");
  span.AddAttr("bytes", payload.size());
  const auto start = std::chrono::steady_clock::now();
  if (next_seq_ == 0) {
    const auto existing = ListSnapshots();
    next_seq_ = existing.empty() ? 1 : existing.front().seq + 1;
  }
  const uint64_t seq = next_seq_;
  const std::string frame = EncodeFrame(payload);
  uint64_t retries = 0;
  const bool wrote = RetryWithBackoff(
      config_.retry, *clock_,
      [&] { return AtomicWriteFile(*fs_, PathOf(seq), frame, error); },
      &retries);
  save_retries_total_ += retries;
  if (!wrote) {
    ++saves_failed_;
    return std::nullopt;
  }
  next_seq_ = seq + 1;
  Prune();
  ++saves_ok_;
  save_bytes_.Record(frame.size());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto usec =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  save_duration_usec_.Record(usec > 0 ? static_cast<uint64_t>(usec) : 0);
  return seq;
}

void SnapshotStore::Collect(telemetry::MetricsRegistry& registry) const {
  const char* saves_help = "Snapshot save attempts by result";
  registry.CounterOf("ltc_snapshot_saves_total", saves_help, {{"result", "ok"}})
      .SetFromSample(saves_ok_);
  registry
      .CounterOf("ltc_snapshot_saves_total", saves_help,
                 {{"result", "error"}})
      .SetFromSample(saves_failed_);
  registry
      .CounterOf("ltc_snapshot_save_retries_total",
                 "Write re-attempts Save() made under its backoff policy")
      .SetFromSample(save_retries_total_);
  registry
      .HistogramOf("ltc_snapshot_bytes",
                   "Size of persisted snapshot frames in bytes")
      .SetFromSample(save_bytes_);
  registry
      .HistogramOf("ltc_snapshot_save_duration_usec",
                   "Latency of successful snapshot saves (encode + atomic "
                   "write + prune) in microseconds")
      .SetFromSample(save_duration_usec_);
  registry
      .HistogramOf("ltc_snapshot_recovery_walkback_depth",
                   "Snapshots skipped before LoadLatest found a valid one")
      .SetFromSample(recovery_walkback_depth_);
  // One series per error type the walk has met: the label values are
  // the frame taxonomy's names, so only the observed ones appear.
  for (size_t e = 0; e < std::size(load_errors_); ++e) {
    if (load_errors_[e] == 0) continue;
    const char* name = SnapshotErrorName(static_cast<SnapshotError>(e));
    registry
        .CounterOf("ltc_snapshot_load_errors_total",
                   "Snapshot candidates the recovery walk skipped, by "
                   "rejection reason",
                   {{"error", name}})
        .SetFromSample(load_errors_[e]);
  }
}

void SnapshotStore::Prune() {
  const auto snapshots = ListSnapshots();
  for (size_t i = config_.retain; i < snapshots.size(); ++i) {
    fs_->Remove(snapshots[i].path);
  }
}

std::optional<SnapshotStore::Recovered> SnapshotStore::LoadLatest(
    std::string* error, const PayloadValidator& validate) const {
  telemetry::Span span("snapshot.load");
  const auto count_skip = [this](SnapshotError skip_error) {
    ++load_errors_[static_cast<size_t>(skip_error)];
  };
  const auto snapshots = ListSnapshots();
  if (snapshots.empty()) {
    if (error != nullptr) {
      *error = "no snapshots at '" + base_path_ + ".*" + kSuffix + "'";
    }
    return std::nullopt;
  }
  Recovered result;
  for (const Candidate& candidate : snapshots) {
    const auto bytes = fs_->ReadAll(candidate.path);
    if (!bytes) {
      result.skipped.push_back(
          {candidate.path, candidate.seq, SnapshotError::kIoError});
      count_skip(SnapshotError::kIoError);
      continue;
    }
    const FrameDecodeResult decoded = DecodeFrame(*bytes);
    if (!decoded.ok()) {
      result.skipped.push_back({candidate.path, candidate.seq, decoded.error});
      count_skip(decoded.error);
      continue;
    }
    if (validate && !validate(decoded.payload)) {
      result.skipped.push_back(
          {candidate.path, candidate.seq, SnapshotError::kPayloadRejected});
      count_skip(SnapshotError::kPayloadRejected);
      continue;
    }
    result.payload.assign(decoded.payload.data(), decoded.payload.size());
    result.seq = candidate.seq;
    recovery_walkback_depth_.Record(result.skipped.size());
    span.AddAttr("walkback_depth", result.skipped.size());
    return result;
  }
  if (error != nullptr) {
    *error = "all " + std::to_string(result.skipped.size()) +
             " snapshots rejected; newest: '" + result.skipped.front().path +
             "' (" + SnapshotErrorName(result.skipped.front().error) + ")";
  }
  return std::nullopt;
}

}  // namespace ltc
