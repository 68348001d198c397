// ChaosInjector — seeded, deterministic fault scheduling against a live
// IngestPipeline (and optionally its snapshot I/O path), the driver of
// the `chaos`-labelled tests (docs/INGEST.md "Failure handling &
// degradation").
//
// The injector does not create new fault mechanisms; it composes the
// seams the components already expose:
//
//   worker hang    IngestPipeline::HangWorkerForTest  (no progress)
//   I/O faults     FailpointFs::Arm                   (recoverable bursts)
//
// The test calls Step() between feeding chunks; each step rolls the
// seeded dice and may hang a worker (auto-released after
// `hang_release_steps` further steps), or arm a burst of recoverable
// write/sync/rename errors on the FailpointFs under the SnapshotStore.
// Worker death is not on the menu: nothing replaces a dead worker, so
// it is a stall until Stop(), which the chaos run could not heal from.
// Because every choice flows from one Rng, a chaos run is a pure
// function of (workload, seed): a failure reproduces from its seed, the
// same property the crash-consistency sweeps rely on.
//
// Single-threaded by design: Step()/ReleaseAll() belong to the test
// (producer) thread. The injected faults themselves are thread-safe
// seams, so the chaos lands on a fully concurrent pipeline.

#ifndef LTC_TESTING_CHAOS_INJECTOR_H_
#define LTC_TESTING_CHAOS_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ingest/ingest_pipeline.h"
#include "snapshot/failpoint_fs.h"
#include "testing/faulty_transport.h"

namespace ltc {

struct ChaosConfig {
  /// Per-Step probability of hanging one uniformly chosen worker (a
  /// shard already hung is left alone).
  double hang_probability = 0.05;

  /// Steps after which an injected hang is released; the lane then
  /// drains its backlog.
  uint64_t hang_release_steps = 4;

  /// Per-Step probability of arming one recoverable I/O fault burst
  /// (write/sync/rename error) on the FailpointFs, when one was given.
  double io_fault_probability = 0.1;

  /// Burst length is uniform in [1, max_io_burst] matching ops.
  uint64_t max_io_burst = 2;

  /// Per-Step probability of arming one network fault burst (uniformly
  /// chosen kind) on one uniformly chosen attached FaultyTransport.
  double transport_fault_probability = 0.0;

  /// Network burst length is uniform in [1, max_transport_burst].
  uint64_t max_transport_burst = 2;

  /// Root of all chaos: same seed, same disaster schedule.
  uint64_t seed = 1;
};

class ChaosInjector {
 public:
  /// `fs` may be nullptr (no I/O chaos). Both referees must outlive the
  /// injector.
  ChaosInjector(IngestPipeline& pipeline, const ChaosConfig& config,
                FailpointFs* fs = nullptr);

  /// Pipeline-less form for network-only chaos (the aggregation tier
  /// has no local ingest workers to hang): only I/O faults and attached
  /// transports get the dice.
  explicit ChaosInjector(const ChaosConfig& config, FailpointFs* fs = nullptr);

  /// Adds a FaultyTransport to the network-fault lottery (see
  /// transport_fault_probability). Must outlive the injector. Arm() on
  /// the transport is thread-safe, so Step keeps belonging to the test
  /// thread while pushers drive the transports.
  void AttachTransport(FaultyTransport* transport);

  /// One round of dice: maybe hang, maybe arm an I/O fault
  /// burst or a network fault burst; releases hangs whose step budget
  /// expired.
  void Step();

  /// Releases every still-pending hang (call before Stop() so no lane
  /// stays pinned; Stop() itself also releases hung threads).
  void ReleaseAll();

  uint64_t hangs_injected() const { return hangs_; }
  uint64_t io_faults_armed() const { return io_faults_; }
  uint64_t transport_faults_armed() const { return transport_faults_; }

 private:
  IngestPipeline* pipeline_;  // null = network-only chaos
  ChaosConfig config_;
  FailpointFs* fs_;
  Rng rng_;
  std::vector<FaultyTransport*> transports_;
  // steps left before the shard's injected hang is released; 0 = none.
  std::vector<uint64_t> hang_budget_;
  uint64_t hangs_ = 0;
  uint64_t io_faults_ = 0;
  uint64_t transport_faults_ = 0;
};

}  // namespace ltc

#endif  // LTC_TESTING_CHAOS_INJECTOR_H_
