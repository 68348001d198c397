// The unified query/insert surface of the LTC family.
//
// Ltc, ShardedLtc and WindowedLtc answer the same questions — "how
// significant / frequent / persistent is this item, and which items lead?"
// — but grew slightly different surfaces. SignificanceEstimator is the
// shared contract, so tools, examples and services can be written once and
// pointed at a single table, a sharded table, or a jumping window without
// caring which (tools/ltc_cli and examples/ddos_detection do exactly
// that).
//
// The batched entry point InsertBatch is the PRIMARY ingestion virtual:
// implementations write their bucket-update loop once, with per-insert
// configuration loads hoisted and CLOCK bookkeeping amortized (see
// Ltc::InsertBatch), and the non-virtual-looking Insert below is a thin
// default adapter that wraps a single arrival as a one-record batch — so
// the hot probe has exactly one call site per implementation. Batching
// NEVER changes estimates — a batch of records must leave the estimator
// in exactly the state the equivalent sequence of Insert calls would
// (pinned by tests/ingest_pipeline_test).

#ifndef LTC_CORE_SIGNIFICANCE_ESTIMATOR_H_
#define LTC_CORE_SIGNIFICANCE_ESTIMATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "stream/stream.h"

namespace ltc {

/// One reported item, shared by every estimator (Ltc::Report is an alias).
struct SignificanceReport {
  ItemId item;
  uint64_t frequency;
  uint64_t persistency;
  double significance;
};

/// Orders `reports` by significance, descending, ties broken by item ID
/// ascending, and keeps the first k. Over distinct items that order is
/// strict and total, so selecting the top k with std::partial_sort (when
/// k is below the size) yields exactly the prefix a full sort would.
inline void RankReports(std::vector<SignificanceReport>* reports, size_t k) {
  const auto before = [](const SignificanceReport& a,
                         const SignificanceReport& b) {
    if (a.significance != b.significance) {
      return a.significance > b.significance;
    }
    return a.item < b.item;
  };
  if (k < reports->size()) {
    std::partial_sort(reports->begin(),
                      reports->begin() + static_cast<std::ptrdiff_t>(k),
                      reports->end(), before);
    reports->resize(k);
  } else {
    std::sort(reports->begin(), reports->end(), before);
  }
}

class SignificanceEstimator {
 public:
  virtual ~SignificanceEstimator() = default;

  /// Processes one arrival: a default adapter that feeds the record
  /// through InsertBatch as a batch of one. Implementations in
  /// count-based mode ignore `time`; time-based implementations clamp
  /// regressing timestamps. Override only to bypass batch setup that is
  /// pure overhead for a single record (ShardedLtc routes directly).
  virtual void Insert(ItemId item, double time = 0.0) {
    const Record record{item, time};
    InsertBatch(std::span<const Record>(&record, 1));
  }

  /// Processes a run of arrivals, in order — the primary ingestion path.
  /// Semantically identical to one Insert per record; implementations put
  /// their real per-record work here (config-load hoisting, CLOCK
  /// amortization, shard routing, bucket prefetch).
  virtual void InsertBatch(std::span<const Record> records) = 0;

  /// Credits all still-pending period flags. Call once after the stream
  /// ends and before querying.
  virtual void Finalize() = 0;

  /// Estimated significance α·f̂ + β·p̂; 0 when the item is untracked.
  virtual double QuerySignificance(ItemId item) const = 0;

  /// Estimated frequency / persistency; 0 when untracked.
  virtual uint64_t EstimateFrequency(ItemId item) const = 0;
  virtual uint64_t EstimatePersistency(ItemId item) const = 0;

  /// The k tracked items of largest significance, descending (ties broken
  /// by item ID for determinism).
  virtual std::vector<SignificanceReport> TopK(size_t k) const = 0;

  /// Model memory actually allocated.
  virtual size_t MemoryBytes() const = 0;
};

}  // namespace ltc

#endif  // LTC_CORE_SIGNIFICANCE_ESTIMATOR_H_
