#include "simweb/filler_lanes.h"

#include <bit>

#include "util/hash.h"

namespace webevo::simweb {
namespace {

// The lanes are compiled only where GCC's x86 target attributes and
// ISA-level CPU checks exist. `target_clones` would pick the ISA by an
// ifunc resolver, which crashes under -fsanitize=thread with GCC 12;
// plain `target` functions selected once at run time do not.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)

// Eight 64-bit lanes: one AVX-512 register, or two AVX2 ones.
typedef uint64_t Lanes8 __attribute__((vector_size(64)));
// The same lanes, loaded from or stored to a FillerLanes column.
typedef Lanes8 Lanes8Column __attribute__((aligned(8), may_alias));

constexpr std::size_t kVectors = FillerLanes::kLanes / 8;
static_assert(FillerLanes::kLanes % 8 == 0, "lanes come in whole vectors");

// A word's bytes fold in memory order (ChecksumBuilder::AppendWord
// copies the word's object representation), which is least
// significant first only on a little-endian target.
static_assert(std::endian::native == std::endian::little);

// One FNV-1a step in every lane: h = (h ^ c) * kFnv64Prime. AVX-512
// multiplies 64-bit lanes in one instruction (vpmullq). AVX2 has no such
// multiply, and GCC builds the product from shifts and adds, fewer for
// the prime's two terms than for the whole: 8 operations against 10,
// and 13 against 20 us per 16 KiB body (docs/BENCHMARKS.md). With
// AVX-512 the two-term form is the slower one.
template <bool kVectorMul64>
[[gnu::always_inline]] inline void FnvStep(Lanes8& h, const Lanes8& c) {
  const Lanes8 x = h ^ c;
  if constexpr (kVectorMul64) {
    h = x * kFnv64Prime;
  } else {
    static_assert(kFnv64Prime == (uint64_t{1} << 40) + 0x1b3);
    h = (x << 40) + x * 0x1b3;
  }
}

// The one kernel source; each target wrapper below inlines it, so GCC
// compiles it once per ISA.
template <bool kVectorMul64>
[[gnu::always_inline]] inline void AdvanceFiller(FillerLanes& lanes,
                                                 std::size_t words) {
  Lanes8 lo[kVectors], hi[kVectors], word[kVectors], offset[kVectors];
#pragma GCC unroll 4
  for (std::size_t v = 0; v < kVectors; ++v) {
    lo[v] = *reinterpret_cast<const Lanes8Column*>(lanes.lo + 8 * v);
    hi[v] = *reinterpret_cast<const Lanes8Column*>(lanes.hi + 8 * v);
    word[v] = *reinterpret_cast<const Lanes8Column*>(lanes.word + 8 * v);
    offset[v] = *reinterpret_cast<const Lanes8Column*>(lanes.offset + 8 * v);
  }
  for (std::size_t w = 0; w < words; ++w) {
    // One vector's whole word before the next's: the core overlaps the
    // vectors' independent multiply chains by itself, and only one
    // vector's bytes are live at a time, so no state spills.
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVectors; ++v) {
      HashCombineInto(word[v], offset[v]);
      offset[v] += 8;
#pragma GCC unroll 8
      for (int b = 0; b < 8; ++b) {
        const Lanes8 c = (word[v] >> (8 * b)) & 0xff;
        FnvStep<kVectorMul64>(lo[v], c);
        FnvStep<kVectorMul64>(hi[v], c);
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t v = 0; v < kVectors; ++v) {
    *reinterpret_cast<Lanes8Column*>(lanes.lo + 8 * v) = lo[v];
    *reinterpret_cast<Lanes8Column*>(lanes.hi + 8 * v) = hi[v];
    *reinterpret_cast<Lanes8Column*>(lanes.word + 8 * v) = word[v];
    *reinterpret_cast<Lanes8Column*>(lanes.offset + 8 * v) = offset[v];
  }
}

__attribute__((target("arch=x86-64-v4"))) void AdvanceFillerV4(
    FillerLanes& lanes, std::size_t words) {
  AdvanceFiller</*kVectorMul64=*/true>(lanes, words);
}

__attribute__((target("arch=x86-64-v3"))) void AdvanceFillerV3(
    FillerLanes& lanes, std::size_t words) {
  AdvanceFiller</*kVectorMul64=*/false>(lanes, words);
}

}  // namespace

std::vector<FillerLaneKernel> SupportedFillerLaneKernels() {
  std::vector<FillerLaneKernel> kernels;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) kernels.push_back(AdvanceFillerV4);
  if (__builtin_cpu_supports("x86-64-v3")) kernels.push_back(AdvanceFillerV3);
  return kernels;
}

#else

}  // namespace

std::vector<FillerLaneKernel> SupportedFillerLaneKernels() { return {}; }

#endif

FillerLaneKernel SelectedFillerLaneKernel() {
  static const FillerLaneKernel kernel = [] {
    const std::vector<FillerLaneKernel> kernels = SupportedFillerLaneKernels();
    return kernels.empty() ? nullptr : kernels.front();
  }();
  return kernel;
}

}  // namespace webevo::simweb
