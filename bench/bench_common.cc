#include "bench_common.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace ltc {
namespace bench {

uint64_t ScaledRecords(uint64_t base_default, uint64_t base_full) {
  const char* env = std::getenv("LTC_SCALE");
  if (env == nullptr || *env == '\0') return base_default;
  std::string value(env);
  if (value == "full") return base_full;
  double factor = std::atof(env);
  if (factor <= 0.0) return base_default;
  return static_cast<uint64_t>(static_cast<double>(base_default) * factor);
}

Dataset LoadCaida() {
  Stream stream = MakeCaidaLike(ScaledRecords(1'000'000, 10'000'000), 1);
  GroundTruth truth = GroundTruth::Compute(stream);
  return {"CAIDA", std::move(stream), std::move(truth)};
}

Dataset LoadNetwork() {
  Stream stream = MakeNetworkLike(ScaledRecords(1'000'000, 10'000'000), 2);
  GroundTruth truth = GroundTruth::Compute(stream);
  return {"Network", std::move(stream), std::move(truth)};
}

Dataset LoadSocial() {
  Stream stream = MakeSocialLike(ScaledRecords(750'000, 1'500'000), 3);
  GroundTruth truth = GroundTruth::Compute(stream);
  return {"Social", std::move(stream), std::move(truth)};
}

std::vector<Dataset> LoadAllDatasets() {
  std::vector<Dataset> out;
  out.push_back(LoadCaida());
  out.push_back(LoadNetwork());
  out.push_back(LoadSocial());
  return out;
}

std::unique_ptr<LtcReporter> MakeLtcReporter(size_t memory_bytes,
                                             const Stream& stream,
                                             double alpha, double beta) {
  LtcConfig config;
  config.memory_bytes = memory_bytes;
  config.alpha = alpha;
  config.beta = beta;
  return std::make_unique<LtcReporter>(config, stream.num_periods(),
                                       stream.duration());
}

std::vector<std::unique_ptr<SignificantReporter>> FrequentSuite(
    size_t memory_bytes, size_t k, const Stream& stream) {
  std::vector<std::unique_ptr<SignificantReporter>> suite;
  suite.push_back(MakeLtcReporter(memory_bytes, stream, 1.0, 0.0));
  suite.push_back(std::make_unique<SpaceSavingReporter>(memory_bytes));
  suite.push_back(std::make_unique<LossyCountingReporter>(memory_bytes));
  suite.push_back(std::make_unique<MisraGriesReporter>(memory_bytes));
  suite.push_back(std::make_unique<SketchHeapFrequentReporter>(
      SketchKind::kCountMin, memory_bytes, k));
  suite.push_back(std::make_unique<SketchHeapFrequentReporter>(
      SketchKind::kCu, memory_bytes, k));
  suite.push_back(std::make_unique<SketchHeapFrequentReporter>(
      SketchKind::kCount, memory_bytes, k));
  return suite;
}

std::vector<std::unique_ptr<SignificantReporter>> PersistentSuite(
    size_t memory_bytes, size_t k, const Stream& stream, bool include_pie) {
  std::vector<std::unique_ptr<SignificantReporter>> suite;
  suite.push_back(MakeLtcReporter(memory_bytes, stream, 0.0, 1.0));
  suite.push_back(std::make_unique<BfSketchPersistentReporter>(
      SketchKind::kCountMin, memory_bytes, k));
  suite.push_back(std::make_unique<BfSketchPersistentReporter>(
      SketchKind::kCu, memory_bytes, k));
  suite.push_back(std::make_unique<BfSketchPersistentReporter>(
      SketchKind::kCount, memory_bytes, k));
  suite.push_back(
      std::make_unique<BfSpaceSavingPersistentReporter>(memory_bytes));
  if (include_pie) {
    suite.push_back(std::make_unique<PieReporter>(memory_bytes,
                                                  stream.num_periods()));
  }
  return suite;
}

std::vector<std::unique_ptr<SignificantReporter>> SignificantSuite(
    size_t memory_bytes, size_t k, const Stream& stream, double alpha,
    double beta) {
  std::vector<std::unique_ptr<SignificantReporter>> suite;
  suite.push_back(MakeLtcReporter(memory_bytes, stream, alpha, beta));
  suite.push_back(std::make_unique<CombinedSignificantReporter>(
      SketchKind::kCountMin, memory_bytes, k, alpha, beta));
  suite.push_back(std::make_unique<CombinedSignificantReporter>(
      SketchKind::kCu, memory_bytes, k, alpha, beta));
  suite.push_back(std::make_unique<CombinedSignificantReporter>(
      SketchKind::kCount, memory_bytes, k, alpha, beta));
  return suite;
}

namespace {

double MetricOf(const EvalResult& eval, Metric metric) {
  return metric == Metric::kPrecision ? eval.precision : eval.are;
}

std::vector<std::string> SuiteHeader(const std::string& x_label,
                                     const SuiteFactory& factory) {
  std::vector<std::string> header = {x_label};
  for (const auto& reporter : factory(64 * 1024, 10)) {
    header.push_back(reporter->name());
  }
  return header;
}

}  // namespace

TextTable SweepMemory(const Dataset& data,
                      const std::vector<size_t>& memory_kb,
                      const SuiteFactory& factory, size_t k, double alpha,
                      double beta, Metric metric) {
  TextTable table(SuiteHeader("memoryKB", factory));
  for (size_t kb : memory_kb) {
    std::vector<std::string> row = {std::to_string(kb)};
    for (auto& reporter : factory(kb * 1024, k)) {
      RunResult result =
          RunReporter(*reporter, data.stream, data.truth, k, alpha, beta);
      row.push_back(FormatMetric(MetricOf(result.eval, metric)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

TextTable SweepK(const Dataset& data, size_t memory_bytes,
                 const std::vector<size_t>& ks, const SuiteFactory& factory,
                 double alpha, double beta, Metric metric) {
  TextTable table(SuiteHeader("k", factory));
  for (size_t k : ks) {
    std::vector<std::string> row = {std::to_string(k)};
    for (auto& reporter : factory(memory_bytes, k)) {
      RunResult result =
          RunReporter(*reporter, data.stream, data.truth, k, alpha, beta);
      row.push_back(FormatMetric(MetricOf(result.eval, metric)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

namespace {

// Figure titles become file names: keep alphanumerics, squash the rest.
std::string SlugOf(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
    if (slug.size() >= 80) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace

void PrintFigure(const std::string& title, const TextTable& table) {
  std::cout << "\n== " << title << " ==\n";
  table.Print(std::cout);
  std::cout << "-- csv --\n";
  table.PrintCsv(std::cout);
  std::cout.flush();

  // Optional machine-readable copies for plotting pipelines.
  if (const char* dir = std::getenv("LTC_CSV_DIR"); dir && *dir) {
    std::string path = std::string(dir) + "/" + SlugOf(title) + ".csv";
    std::ofstream file(path);
    if (file) table.PrintCsv(file);
  }
}

}  // namespace bench
}  // namespace ltc
