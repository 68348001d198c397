// BobHash: Bob Jenkins' lookup3 hash family.
//
// The paper ("Finding Significant Items in Data Streams", ICDE 2019, §V-B)
// uses Bob Hash as the hash function for all compared data structures; this
// is a from-scratch implementation of Jenkins' 2006 lookup3 `hashlittle` /
// `hashword` routines, exposed as a seedable family so that sketches with
// multiple rows can draw independent functions.

#ifndef LTC_COMMON_BOB_HASH_H_
#define LTC_COMMON_BOB_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ltc {

namespace bob_hash_internal {

inline uint32_t Rot(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// lookup3 final scrambling step.
inline void Final(uint32_t& a, uint32_t& b, uint32_t& c) {
  c ^= b; c -= Rot(b, 14);
  a ^= c; a -= Rot(c, 11);
  b ^= a; b -= Rot(a, 25);
  c ^= b; c -= Rot(b, 16);
  a ^= c; a -= Rot(c, 4);
  b ^= a; b -= Rot(a, 14);
  c ^= b; c -= Rot(b, 24);
}

}  // namespace bob_hash_internal

/// Hashes an arbitrary byte buffer with Bob Jenkins' lookup3 algorithm.
/// Deliberately NOT named BobHash32: a (const char*, int) argument pair
/// would otherwise silently outrank the string_view overload and hash
/// `len` garbage bytes.
///
/// \param data   pointer to the bytes to hash (may be null iff len == 0)
/// \param len    number of bytes
/// \param seed   initial value; distinct seeds give (empirically)
///               independent hash functions
/// \return a 32-bit hash value
uint32_t BobHashBytes32(const void* data, size_t len, uint32_t seed = 0);

/// Hashes a buffer to 64 bits by running lookup3 with two coupled seeds
/// (Jenkins' `hashlittle2`) and concatenating the results.
uint64_t BobHashBytes64(const void* data, size_t len, uint64_t seed = 0);

/// Convenience overload for string keys.
inline uint32_t BobHash32(std::string_view s, uint32_t seed = 0) {
  return BobHashBytes32(s.data(), s.size(), seed);
}

/// Convenience overload for 64-bit integer keys (the common item-ID type
/// throughout this library): the byte hash of the key's in-memory bytes.
/// On little-endian hosts those bytes are the key's low then high word,
/// so lookup3's 8-byte case is two adds and Final, inline; this is every
/// table's bucket hash. Other hosts take the byte path.
inline uint32_t BobHash32(uint64_t key, uint32_t seed = 0) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t a = 0xdeadbeef + uint32_t{sizeof(key)} + seed;
    uint32_t b = a;
    uint32_t c = a;
    a += static_cast<uint32_t>(key);
    b += static_cast<uint32_t>(key >> 32);
    bob_hash_internal::Final(a, b, c);
    return c;
  } else {
    return BobHashBytes32(&key, sizeof(key), seed);
  }
}

inline uint64_t BobHash64(std::string_view s, uint64_t seed = 0) {
  return BobHashBytes64(s.data(), s.size(), seed);
}

inline uint64_t BobHash64(uint64_t key, uint64_t seed = 0) {
  return BobHashBytes64(&key, sizeof(key), seed);
}

/// A seeded Bob-hash functor: one logical hash function from the family.
/// Cheap to copy; suitable as the per-row hash of a sketch.
class BobHashFunction {
 public:
  explicit BobHashFunction(uint32_t seed = 0) : seed_(seed) {}

  uint32_t operator()(uint64_t key) const { return BobHash32(key, seed_); }
  uint32_t operator()(std::string_view s) const { return BobHash32(s, seed_); }

  uint32_t seed() const { return seed_; }

 private:
  uint32_t seed_;
};

}  // namespace ltc

#endif  // LTC_COMMON_BOB_HASH_H_
