// Shared infrastructure for the figure-reproduction binaries: dataset
// construction with an LTC_SCALE env knob, reporter-suite factories
// implementing the paper's §V-C memory protocol, and table printing.

#ifndef LTC_BENCH_BENCH_COMMON_H_
#define LTC_BENCH_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/format.h"
#include "metrics/evaluate.h"
#include "metrics/ground_truth.h"
#include "stream/generators.h"
#include "topk/reporters.h"

namespace ltc {
namespace bench {

struct Dataset {
  std::string name;
  Stream stream;
  GroundTruth truth;
};

/// Stream length scaling. Defaults reproduce the figure *shapes* in
/// seconds; set LTC_SCALE=full for the paper's 10M/10M/1.5M sizes, or
/// LTC_SCALE=<float> to multiply the defaults.
uint64_t ScaledRecords(uint64_t base_default, uint64_t base_full);

/// The three dataset stand-ins, ground truth included.
Dataset LoadCaida();
Dataset LoadNetwork();
Dataset LoadSocial();
std::vector<Dataset> LoadAllDatasets();

/// LTC with the paper's defaults (d=8, both optimizations on), paced to
/// the stream's period structure.
std::unique_ptr<LtcReporter> MakeLtcReporter(size_t memory_bytes,
                                             const Stream& stream,
                                             double alpha, double beta);

/// §V-F suite: LTC, SS, LC, MG, CM, CU, Count — equal memory.
std::vector<std::unique_ptr<SignificantReporter>> FrequentSuite(
    size_t memory_bytes, size_t k, const Stream& stream);

/// §V-G suite: LTC, BF+CM, BF+CU, BF+Count at `memory_bytes`, plus PIE at
/// `memory_bytes` PER PERIOD (the paper's T× memory concession).
std::vector<std::unique_ptr<SignificantReporter>> PersistentSuite(
    size_t memory_bytes, size_t k, const Stream& stream, bool include_pie);

/// §V-H suite: LTC plus the three two-sketch combos, equal total memory.
std::vector<std::unique_ptr<SignificantReporter>> SignificantSuite(
    size_t memory_bytes, size_t k, const Stream& stream, double alpha,
    double beta);

/// Prints a figure header plus the table, then a CSV copy.
void PrintFigure(const std::string& title, const TextTable& table);

/// Builds the algorithm suite for one configuration (memory budget, k).
using SuiteFactory =
    std::function<std::vector<std::unique_ptr<SignificantReporter>>(
        size_t memory_bytes, size_t k)>;

/// Which column of the evaluation a figure plots.
enum class Metric { kPrecision, kAre };

/// One figure panel "metric vs memory": rows are memory points, columns
/// are the suite's algorithms.
TextTable SweepMemory(const Dataset& data,
                      const std::vector<size_t>& memory_kb,
                      const SuiteFactory& factory, size_t k, double alpha,
                      double beta, Metric metric);

/// One figure panel "metric vs k" at a fixed memory budget.
TextTable SweepK(const Dataset& data, size_t memory_bytes,
                 const std::vector<size_t>& ks, const SuiteFactory& factory,
                 double alpha, double beta, Metric metric);

}  // namespace bench
}  // namespace ltc

#endif  // LTC_BENCH_BENCH_COMMON_H_
