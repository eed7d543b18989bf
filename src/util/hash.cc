#include "util/hash.h"

namespace webevo {

uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnv64Prime;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64Seeded(data, kFnv64OffsetBasis);
}

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // 64-bit variant of boost::hash_combine with a splitmix-style mixer.
  uint64_t z = value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return seed ^ (z ^ (z >> 31));
}

Checksum128 ChecksumOf(std::string_view data) {
  ChecksumBuilder builder;
  builder.Append(data);
  return builder.Finish();
}

}  // namespace webevo
