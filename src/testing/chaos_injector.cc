#include "testing/chaos_injector.h"

namespace ltc {

ChaosInjector::ChaosInjector(IngestPipeline& pipeline,
                             const ChaosConfig& config, FailpointFs* fs)
    : pipeline_(&pipeline),
      config_(config),
      fs_(fs),
      rng_(config.seed),
      hang_budget_(pipeline.num_shards(), 0) {}

ChaosInjector::ChaosInjector(const ChaosConfig& config, FailpointFs* fs)
    : pipeline_(nullptr), config_(config), fs_(fs), rng_(config.seed) {}

void ChaosInjector::AttachTransport(FaultyTransport* transport) {
  transports_.push_back(transport);
}

void ChaosInjector::Step() {
  if (pipeline_ != nullptr) {
    for (uint32_t s = 0; s < hang_budget_.size(); ++s) {
      if (hang_budget_[s] > 0 && --hang_budget_[s] == 0) {
        pipeline_->HangWorkerForTest(s, false);
      }
    }
    if (rng_.Bernoulli(config_.hang_probability)) {
      const auto shard =
          static_cast<uint32_t>(rng_.Uniform(pipeline_->num_shards()));
      if (hang_budget_[shard] == 0) {
        pipeline_->HangWorkerForTest(shard, true);
        hang_budget_[shard] = config_.hang_release_steps < 1
                                  ? 1
                                  : config_.hang_release_steps;
        ++hangs_;
      }
    }
  }
  if (fs_ != nullptr && rng_.Bernoulli(config_.io_fault_probability)) {
    // Recoverable failures only: a retry can outlast them. kCrash and
    // the silent-corruption modes belong to the crash-consistency
    // sweeps, not the self-healing harness.
    static constexpr FailpointFs::Failure kRecoverable[] = {
        FailpointFs::Failure::kWriteError,
        FailpointFs::Failure::kSyncError,
        FailpointFs::Failure::kRenameError,
    };
    const auto failure = kRecoverable[rng_.Uniform(3)];
    const uint64_t burst =
        rng_.UniformRange(1, config_.max_io_burst < 1 ? 1
                                                      : config_.max_io_burst);
    // Trigger at the next matching mutating op, whenever that comes.
    fs_->Arm(failure, fs_->mutating_ops(), rng_.Next(), burst);
    ++io_faults_;
  }
  if (!transports_.empty() &&
      rng_.Bernoulli(config_.transport_fault_probability)) {
    // Every transport fault is one a push retry can outlast, so the
    // whole menu is fair game (the analogue of "recoverable only").
    FaultyTransport* victim = transports_[rng_.Uniform(transports_.size())];
    const auto kind =
        static_cast<TransportFault>(rng_.Uniform(kNumTransportFaults));
    const uint64_t burst = rng_.UniformRange(
        1, config_.max_transport_burst < 1 ? 1 : config_.max_transport_burst);
    victim->Arm(kind, burst);
    ++transport_faults_;
  }
}

void ChaosInjector::ReleaseAll() {
  if (pipeline_ == nullptr) return;
  for (uint32_t s = 0; s < hang_budget_.size(); ++s) {
    if (hang_budget_[s] > 0) {
      hang_budget_[s] = 0;
      pipeline_->HangWorkerForTest(s, false);
    }
  }
}

}  // namespace ltc
