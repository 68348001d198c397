// A counting Fs decorator: the benchmark's device layer.
//
// Wraps another Fs (SystemFs() in the benchmark) and counts what the
// durability layers ask of the device: fsyncs (Sync + SyncDir) and the
// time they take, bytes written (WriteAll + AppendAll), and files
// written (WriteAll creates or truncates one file per call). Both
// SnapshotStore and SketchStore take an Fs, so one instance sees every
// byte either of them makes durable, without touching src/.
//
// Not synchronized: each instance is driven from one thread (the
// pipeline's producer thread, or the single store thread).

#ifndef LTC_PERFBENCH_COUNTING_FS_H_
#define LTC_PERFBENCH_COUNTING_FS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/fs.h"
#include "telemetry/trace.h"

namespace ltc {
namespace perfbench {

class CountingFs final : public Fs {
 public:
  struct Counts {
    uint64_t syncs = 0;          // Sync + SyncDir calls
    uint64_t sync_ns = 0;        // wall time inside them
    uint64_t bytes_written = 0;  // WriteAll + AppendAll payload bytes
    uint64_t files_written = 0;  // WriteAll calls
  };

  explicit CountingFs(Fs& base) : base_(base) {}

  bool WriteAll(const std::string& path, std::string_view data) override {
    telemetry::Span span("fs.WriteAll");
    counts_.files_written++;
    counts_.bytes_written += data.size();
    return base_.WriteAll(path, data);
  }

  bool AppendAll(const std::string& path, std::string_view data) override {
    telemetry::Span span("fs.AppendAll");
    counts_.bytes_written += data.size();
    return base_.AppendAll(path, data);
  }

  std::optional<std::string> ReadAll(const std::string& path) override {
    return base_.ReadAll(path);
  }

  bool Sync(const std::string& path) override {
    telemetry::Span span("fs.Sync");
    return Timed([&] { return base_.Sync(path); });
  }

  bool SyncDir(const std::string& path) override {
    telemetry::Span span("fs.SyncDir");
    return Timed([&] { return base_.SyncDir(path); });
  }

  bool Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  bool Remove(const std::string& path) override { return base_.Remove(path); }
  bool Exists(const std::string& path) override { return base_.Exists(path); }
  std::optional<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_.ListDir(dir);
  }

  const Counts& counts() const { return counts_; }

 private:
  template <typename Op>
  bool Timed(Op op) {
    const auto start = std::chrono::steady_clock::now();
    const bool ok = op();
    counts_.syncs++;
    counts_.sync_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return ok;
  }

  Fs& base_;
  Counts counts_;
};

}  // namespace perfbench
}  // namespace ltc

#endif  // LTC_PERFBENCH_COUNTING_FS_H_
