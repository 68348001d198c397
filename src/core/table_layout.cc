// Bucket-probe backends and their runtime dispatch (see table_layout.h
// for the semantics contract; docs/PERF.md for the dispatch policy).
//
// Every backend computes the same two bitmasks over the bucket's ID
// lane — "equals the key" and "equals zero" — and converts each to its
// lowest set bit. The masks are order-independent, so vector width
// never changes which cell wins: all backends agree bit-for-bit with
// the scalar reference (pinned by tests/table_layout_test.cc). The
// CLOCK sweep kernel rides the same dispatch: the AVX2 backend sweeps
// with AVX2, every other backend with the portable loop.

#include "core/table_layout.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LTC_PROBE_X86 1
#include <immintrin.h>
#else
#define LTC_PROBE_X86 0
#endif

namespace ltc {
namespace {

// Vectorized paths accumulate per-cell bitmasks in a uint64, so buckets
// wider than 64 cells take the scalar loop (d defaults to 8; the paper
// evaluates d <= 32).
constexpr uint32_t kMaxMaskCells = 64;

BucketProbe FromMasks(uint64_t match_mask, uint64_t empty_mask) {
  BucketProbe probe;
  if (match_mask != 0) {
    probe.match = static_cast<int32_t>(__builtin_ctzll(match_mask));
  }
  if (empty_mask != 0) {
    probe.empty = static_cast<int32_t>(__builtin_ctzll(empty_mask));
  }
  return probe;
}

BucketProbe ProbeScalar(const uint64_t* ids, uint32_t d, uint64_t key) {
  BucketProbe probe;
  for (uint32_t i = 0; i < d; ++i) {
    const uint64_t v = ids[i];
    if (probe.match < 0 && v == key) {
      probe.match = static_cast<int32_t>(i);
      if (probe.empty >= 0) break;
    }
    if (probe.empty < 0 && v == 0) {
      probe.empty = static_cast<int32_t>(i);
      if (probe.match >= 0) break;
    }
  }
  return probe;
}

// The portable sweep, which GCC vectorizes for the baseline ISA. The ID
// test runs in 32-bit words: SSE2 has no 64-bit compare, and a 64-bit
// test would keep the loop from vectorizing.
template <bool kCountOccupied>
uint64_t SweepPortable(const uint64_t* __restrict ids,
                       uint32_t* __restrict counters,
                       uint8_t* __restrict flags, size_t begin, size_t end,
                       uint8_t mask) {
  uint64_t occupied = 0;
  for (size_t i = begin; i < end; ++i) {
    const uint32_t hit = flags[i] & mask;
    counters[i] += (hit & 1) + (hit >> 1);
    flags[i] = static_cast<uint8_t>(flags[i] & ~mask);
    if constexpr (kCountOccupied) {
      occupied += (static_cast<uint32_t>(ids[i]) |
                   static_cast<uint32_t>(ids[i] >> 32)) != 0;
    }
  }
  return occupied;
}

#if LTC_PROBE_X86

// SSE2 has no 64-bit integer compare; compare the 32-bit halves and AND
// the result with its within-lane swap so a 64-bit lane is all-ones iff
// both halves matched, then movemask_pd extracts one bit per lane.
inline uint32_t MoveMask64Sse2(__m128i eq32) {
  const __m128i swapped = _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1));
  const __m128i both = _mm_and_si128(eq32, swapped);
  return static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(both)));
}

BucketProbe ProbeSse2(const uint64_t* ids, uint32_t d, uint64_t key) {
  if (d > kMaxMaskCells) return ProbeScalar(ids, d, key);
  const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key));
  const __m128i vzero = _mm_setzero_si128();
  uint64_t match_mask = 0;
  uint64_t empty_mask = 0;
  uint32_t i = 0;
  for (; i + 2 <= d; i += 2) {
    const __m128i lane =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    match_mask |= static_cast<uint64_t>(
                      MoveMask64Sse2(_mm_cmpeq_epi32(lane, vkey)))
                  << i;
    empty_mask |= static_cast<uint64_t>(
                      MoveMask64Sse2(_mm_cmpeq_epi32(lane, vzero)))
                  << i;
  }
  for (; i < d; ++i) {
    match_mask |= static_cast<uint64_t>(ids[i] == key) << i;
    empty_mask |= static_cast<uint64_t>(ids[i] == 0) << i;
  }
  return FromMasks(match_mask, empty_mask);
}

__attribute__((target("avx2"))) BucketProbe ProbeAvx2(const uint64_t* ids,
                                                      uint32_t d,
                                                      uint64_t key) {
  if (d > kMaxMaskCells) return ProbeScalar(ids, d, key);
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256i vzero = _mm256_setzero_si256();
  uint64_t match_mask = 0;
  uint64_t empty_mask = 0;
  uint32_t i = 0;
  for (; i + 4 <= d; i += 4) {
    const __m256i lane =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    match_mask |= static_cast<uint64_t>(_mm256_movemask_pd(
                      _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, vkey))))
                  << i;
    empty_mask |= static_cast<uint64_t>(_mm256_movemask_pd(
                      _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, vzero))))
                  << i;
  }
  for (; i < d; ++i) {
    match_mask |= static_cast<uint64_t>(ids[i] == key) << i;
    empty_mask |= static_cast<uint64_t>(ids[i] == 0) << i;
  }
  return FromMasks(match_mask, empty_mask);
}

// The AVX2 sweep, 8 cells a step: the step's 8 flag bytes widen to
// 8 counter increments, and its 8 IDs are two 64-bit compares against
// zero. Each id-0 cell adds -1 to a lane of `zeros`, so the occupied
// count is the cells swept plus the lanes' sum. The tail takes the
// portable loop.
template <bool kCountOccupied>
__attribute__((target("avx2"))) uint64_t SweepAvx2(
    const uint64_t* __restrict ids, uint32_t* __restrict counters,
    uint8_t* __restrict flags, size_t begin, size_t end, uint8_t mask) {
  const __m128i vmask = _mm_set1_epi8(static_cast<char>(mask));
  const __m128i vone = _mm_set1_epi8(1);
  const __m256i vzero = _mm256_setzero_si256();
  __m256i zeros = vzero;
  size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    auto* flag_step = reinterpret_cast<__m128i*>(flags + i);
    auto* counter_step = reinterpret_cast<__m256i*>(counters + i);
    const __m128i f = _mm_loadl_epi64(flag_step);
    const __m128i hit = _mm_and_si128(f, vmask);
    // A hit is at most 2 bits: its popcount is bit 0 plus bit 1.
    const __m128i credit =
        _mm_add_epi8(_mm_and_si128(hit, vone),
                     _mm_and_si128(_mm_srli_epi16(hit, 1), vone));
    _mm256_storeu_si256(counter_step,
                        _mm256_add_epi32(_mm256_loadu_si256(counter_step),
                                         _mm256_cvtepu8_epi32(credit)));
    _mm_storel_epi64(flag_step, _mm_andnot_si128(vmask, f));
    if constexpr (kCountOccupied) {
      const auto* id_step = reinterpret_cast<const __m256i*>(ids + i);
      zeros = _mm256_add_epi64(
          zeros, _mm256_cmpeq_epi64(_mm256_loadu_si256(id_step), vzero));
      zeros = _mm256_add_epi64(
          zeros, _mm256_cmpeq_epi64(_mm256_loadu_si256(id_step + 1), vzero));
    }
  }
  uint64_t occupied = 0;
  if constexpr (kCountOccupied) {
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), zeros);
    occupied = (i - begin) + lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  return occupied +
         SweepPortable<kCountOccupied>(ids, counters, flags, i, end, mask);
}

#endif  // LTC_PROBE_X86

using ProbeFn = BucketProbe (*)(const uint64_t*, uint32_t, uint64_t);

ProbeFn FnFor(ProbeBackend backend) {
#if LTC_PROBE_X86
  switch (backend) {
    case ProbeBackend::kAvx2:
      return &ProbeAvx2;
    case ProbeBackend::kSse2:
      return &ProbeSse2;
    case ProbeBackend::kScalar:
      break;
  }
#else
  (void)backend;
#endif
  return &ProbeScalar;
}

bool IsSupported(ProbeBackend backend) {
  switch (backend) {
    case ProbeBackend::kScalar:
      return true;
    case ProbeBackend::kSse2:
#if LTC_PROBE_X86
      return __builtin_cpu_supports("sse2") != 0;
#else
      return false;
#endif
    case ProbeBackend::kAvx2:
#if LTC_PROBE_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

ProbeBackend ResolveInitialBackend() {
  ProbeBackend backend = BestSupportedProbeBackend();
  if (const char* env = std::getenv("LTC_PROBE")) {
    ProbeBackend requested = backend;
    if (std::strcmp(env, "scalar") == 0) {
      requested = ProbeBackend::kScalar;
    } else if (std::strcmp(env, "sse2") == 0) {
      requested = ProbeBackend::kSse2;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = ProbeBackend::kAvx2;
    }
    if (IsSupported(requested)) backend = requested;
  }
  return backend;
}

// The dispatch slot. Probes load it relaxed: backend switches are only
// legal while tables are quiescent (see SetProbeBackend), so there is
// never a probe racing a switch whose result matters.
struct Dispatch {
  std::atomic<ProbeFn> fn;
  std::atomic<ProbeBackend> backend;
  Dispatch() {
    const ProbeBackend resolved = ResolveInitialBackend();
    backend.store(resolved, std::memory_order_relaxed);
    fn.store(FnFor(resolved), std::memory_order_relaxed);
  }
};

Dispatch& dispatch() {
  static Dispatch d;
  return d;
}

}  // namespace

const char* ProbeBackendName(ProbeBackend backend) {
  switch (backend) {
    case ProbeBackend::kScalar:
      return "scalar";
    case ProbeBackend::kSse2:
      return "sse2";
    case ProbeBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ProbeBackend BestSupportedProbeBackend() {
#if LTC_PROBE_X86
  if (__builtin_cpu_supports("avx2")) return ProbeBackend::kAvx2;
  if (__builtin_cpu_supports("sse2")) return ProbeBackend::kSse2;
#endif
  return ProbeBackend::kScalar;
}

ProbeBackend ActiveProbeBackend() {
  return dispatch().backend.load(std::memory_order_relaxed);
}

ProbeBackend SetProbeBackend(ProbeBackend backend) {
  Dispatch& d = dispatch();
  if (IsSupported(backend)) {
    d.backend.store(backend, std::memory_order_relaxed);
    d.fn.store(FnFor(backend), std::memory_order_relaxed);
  }
  return d.backend.load(std::memory_order_relaxed);
}

namespace internal {
BucketProbe ProbeIds(const uint64_t* ids, uint32_t d, uint64_t key,
                     ProbeBackend backend) {
  if (!IsSupported(backend)) return ProbeScalar(ids, d, key);
  return FnFor(backend)(ids, d, key);
}
}  // namespace internal

bool TableLayout::SameBucket(const TableLayout& other, uint32_t b) const {
  assert(other.num_buckets_ == num_buckets_ &&
         other.cells_per_bucket_ == cells_per_bucket_);
  const size_t base = BaseOf(b);
  const size_t d = cells_per_bucket_;
  return std::memcmp(ids_.data() + base, other.ids_.data() + base,
                     d * sizeof(uint64_t)) == 0 &&
         std::memcmp(freqs_.data() + base, other.freqs_.data() + base,
                     d * sizeof(uint32_t)) == 0 &&
         std::memcmp(counters_.data() + base, other.counters_.data() + base,
                     d * sizeof(uint32_t)) == 0 &&
         std::memcmp(flags_.data() + base, other.flags_.data() + base, d) ==
             0;
}

template <bool kCountOccupied>
uint64_t TableLayout::SweepFlags(size_t begin, size_t end, uint8_t mask) {
  assert(begin <= end && end <= ids_.size());
  assert((mask & ~0x3u) == 0);
#if LTC_PROBE_X86
  // Under one AVX2 step the portable loop is all the AVX2 kernel runs.
  if (end - begin >= 8 && ActiveProbeBackend() == ProbeBackend::kAvx2) {
    return SweepAvx2<kCountOccupied>(ids_.data(), counters_.data(),
                                     flags_.data(), begin, end, mask);
  }
#endif
  return SweepPortable<kCountOccupied>(ids_.data(), counters_.data(),
                                       flags_.data(), begin, end, mask);
}

template uint64_t TableLayout::SweepFlags<true>(size_t, size_t, uint8_t);
template uint64_t TableLayout::SweepFlags<false>(size_t, size_t, uint8_t);

BucketProbe ConstBucketView::Probe(ItemId key) const {
  return dispatch().fn.load(std::memory_order_relaxed)(ids_, d_, key);
}

}  // namespace ltc
