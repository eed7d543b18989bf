#ifndef WEBEVO_UTIL_HASH_H_
#define WEBEVO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace webevo {

/// FNV-1a 64-bit parameters.
inline constexpr uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv64Prime = 0x100000001b3ULL;

/// 64-bit FNV-1a hash of a byte string.
uint64_t Fnv1a64(std::string_view data);

/// 64-bit FNV-1a with a custom offset basis, used to derive independent
/// hash functions from one implementation.
uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed);

/// Mixes a new 64-bit value into an accumulated hash (Boost-style).
uint64_t HashCombine(uint64_t seed, uint64_t value);

/// HashCombine's arithmetic on any unsigned 64-bit lane type: a scalar,
/// or a GCC vector of them, each lane of which then computes exactly
/// HashCombine(seed, value) into `seed`. Operands pass by reference,
/// so no vector crosses a call by value (that ABI varies with the ISA
/// a caller is compiled for), and the function always inlines into the
/// caller's ISA.
template <typename Lanes>
[[gnu::always_inline]] inline void HashCombineInto(Lanes& seed,
                                                   const Lanes& value) {
  // 64-bit variant of boost::hash_combine with a splitmix-style mixer.
  Lanes z = value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  seed ^= z ^ (z >> 31);
}

/// 128-bit content checksum, the crawler's stand-in for the page digest
/// the paper's UpdateModule records "from the last crawl" to detect
/// changes. Two independently seeded FNV-1a streams make accidental
/// collisions on realistic collection sizes negligible: `lo` is plain
/// FNV-1a 64 (equal to Fnv1a64), `hi` the same with the offset basis's
/// 32-bit halves swapped. ChecksumBuilder digests a body streamed in
/// pieces; ChecksumOf digests one that is already in memory.
struct Checksum128 {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const Checksum128&) const = default;
};

/// Streaming checksum: appending a byte string in any split, empty
/// pieces included, finishes to ChecksumOf of the whole string. Append
/// advances both FNV-1a streams in one loop, so their multiply chains
/// overlap instead of running one after the other.
class ChecksumBuilder {
 public:
  ChecksumBuilder() = default;
  /// Resumes a digest from an earlier Finish(): appending here goes on
  /// as if every byte had been appended to one builder.
  explicit ChecksumBuilder(Checksum128 state)
      : lo_(state.lo), hi_(state.hi) {}

  void Append(std::string_view data) {
    uint64_t lo = lo_;
    uint64_t hi = hi_;
    for (unsigned char c : data) {
      lo = (lo ^ c) * kFnv64Prime;
      hi = (hi ^ c) * kFnv64Prime;
    }
    lo_ = lo;
    hi_ = hi;
  }

  /// Appends the first `n` (1 to 8) bytes of `word`'s object
  /// representation, exactly as Append of those bytes would. A whole
  /// word folds in one unrolled step, with no per-byte loop.
  void AppendWord(uint64_t word, std::size_t n) {
    unsigned char bytes[sizeof(word)];
    std::memcpy(bytes, &word, sizeof(word));
    if (n != sizeof(word)) {
      Append(std::string_view(reinterpret_cast<const char*>(bytes), n));
      return;
    }
    uint64_t lo = lo_;
    uint64_t hi = hi_;
#pragma GCC unroll 8
    for (unsigned char c : bytes) {
      lo = (lo ^ c) * kFnv64Prime;
      hi = (hi ^ c) * kFnv64Prime;
    }
    lo_ = lo;
    hi_ = hi;
  }

  Checksum128 Finish() const { return {lo_, hi_}; }

 private:
  uint64_t lo_ = kFnv64OffsetBasis;
  uint64_t hi_ = 0x84222325cbf29ce4ULL;
};

/// Computes the checksum of a page body held in memory.
Checksum128 ChecksumOf(std::string_view data);

/// Hash functor for checksum-keyed containers (the crawler's content-
/// fingerprint registry). The two halves are already independent hash
/// streams; one extra mix spreads them over the bucket space.
struct Checksum128Hash {
  std::size_t operator()(const Checksum128& c) const {
    return static_cast<std::size_t>(HashCombine(c.hi, c.lo));
  }
};

}  // namespace webevo

#endif  // WEBEVO_UTIL_HASH_H_
