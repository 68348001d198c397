#include "common/bob_hash.h"

#include <cstring>

namespace ltc {
namespace {

using bob_hash_internal::Final;
using bob_hash_internal::Rot;

// lookup3 mixing step.
inline void Mix(uint32_t& a, uint32_t& b, uint32_t& c) {
  a -= c; a ^= Rot(c, 4);  c += b;
  b -= a; b ^= Rot(a, 6);  a += c;
  c -= b; c ^= Rot(b, 8);  b += a;
  a -= c; a ^= Rot(c, 16); c += b;
  b -= a; b ^= Rot(a, 19); a += c;
  c -= b; c ^= Rot(b, 4);  b += a;
}

// Core of Jenkins' hashlittle2: produces two 32-bit results from coupled
// seeds *pc and *pb. Reads the buffer bytewise so it is alignment- and
// endianness-safe (slightly slower than the aligned fast path in the
// original, irrelevant for 8-byte keys).
void HashLittle2(const void* key, size_t length, uint32_t* pc, uint32_t* pb) {
  uint32_t a, b, c;
  a = b = c = 0xdeadbeef + static_cast<uint32_t>(length) + *pc;
  c += *pb;

  const uint8_t* k = static_cast<const uint8_t*>(key);

  while (length > 12) {
    uint32_t ka, kb, kc;
    std::memcpy(&ka, k, 4);
    std::memcpy(&kb, k + 4, 4);
    std::memcpy(&kc, k + 8, 4);
    a += ka;
    b += kb;
    c += kc;
    Mix(a, b, c);
    length -= 12;
    k += 12;
  }

  // Last block: read the 0..12 remaining bytes.
  switch (length) {
    case 12: c += static_cast<uint32_t>(k[11]) << 24; [[fallthrough]];
    case 11: c += static_cast<uint32_t>(k[10]) << 16; [[fallthrough]];
    case 10: c += static_cast<uint32_t>(k[9]) << 8; [[fallthrough]];
    case 9:  c += k[8]; [[fallthrough]];
    case 8:  b += static_cast<uint32_t>(k[7]) << 24; [[fallthrough]];
    case 7:  b += static_cast<uint32_t>(k[6]) << 16; [[fallthrough]];
    case 6:  b += static_cast<uint32_t>(k[5]) << 8; [[fallthrough]];
    case 5:  b += k[4]; [[fallthrough]];
    case 4:  a += static_cast<uint32_t>(k[3]) << 24; [[fallthrough]];
    case 3:  a += static_cast<uint32_t>(k[2]) << 16; [[fallthrough]];
    case 2:  a += static_cast<uint32_t>(k[1]) << 8; [[fallthrough]];
    case 1:  a += k[0]; break;
    case 0:
      *pc = c;
      *pb = b;
      return;  // zero-length strings require no mixing
  }

  Final(a, b, c);
  *pc = c;
  *pb = b;
}

}  // namespace

uint32_t BobHashBytes32(const void* data, size_t len, uint32_t seed) {
  uint32_t pc = seed;
  uint32_t pb = 0;
  HashLittle2(data, len, &pc, &pb);
  return pc;
}

uint64_t BobHashBytes64(const void* data, size_t len, uint64_t seed) {
  uint32_t pc = static_cast<uint32_t>(seed);
  uint32_t pb = static_cast<uint32_t>(seed >> 32);
  HashLittle2(data, len, &pc, &pb);
  return (static_cast<uint64_t>(pb) << 32) | pc;
}

}  // namespace ltc
