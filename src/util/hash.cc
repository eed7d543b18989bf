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
  HashCombineInto(seed, value);
  return seed;
}

Checksum128 ChecksumOf(std::string_view data) {
  ChecksumBuilder builder;
  builder.Append(data);
  return builder.Finish();
}

}  // namespace webevo
