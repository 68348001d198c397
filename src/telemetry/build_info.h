// The ltc_build_info info-gauge: a constant-1 gauge whose labels
// identify the running build (git sha, probe backend, version), so
// every scrape says exactly what produced it. The sha is burned in at
// configure time and can be overridden at runtime with the LTC_GIT_SHA
// environment variable (useful when the build tree is exported without
// .git). bench_speed reports the same sha in its JSON context.

#ifndef LTC_TELEMETRY_BUILD_INFO_H_
#define LTC_TELEMETRY_BUILD_INFO_H_

#include <string>

#include "telemetry/metrics.h"

namespace ltc {
namespace telemetry {

/// The git sha this binary was configured from (LTC_GIT_SHA env var
/// wins; "unknown" when neither is available).
std::string BuildGitSha();

/// The compiled-in version string.
std::string BuildVersion();

/// Registers ltc_build_info{git_sha=...,probe_backend=...,version=...}
/// with value 1. `probe_backend` is the active probe dispatch name
/// (core/table_layout.h's ProbeBackendName) — passed in so telemetry
/// stays independent of the core library.
void RegisterBuildInfo(MetricsRegistry& registry,
                       const std::string& probe_backend);

}  // namespace telemetry
}  // namespace ltc

#endif  // LTC_TELEMETRY_BUILD_INFO_H_
