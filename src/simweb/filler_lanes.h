#ifndef WEBEVO_SIMWEB_FILLER_LANES_H_
#define WEBEVO_SIMWEB_FILLER_LANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webevo::simweb {

/// The lane form of a page body's filler loop (SimulatedWeb::
/// EmitPageBody into a ChecksumBuilder): FillerLanes::kLanes bodies
/// advance together, one per SIMD lane, in the multi-buffer style of
/// Guilford et al. (Intel, 2010). Each lane does exactly the scalar
/// arithmetic, so every digest bit is the one-body path's.
struct FillerLanes {
  static constexpr std::size_t kLanes = 32;

  /// One column per lane: the body's two FNV-1a states so far (the
  /// ChecksumBuilder halves), the filler chain's last word, and the
  /// byte offset in the body of the next word.
  uint64_t lo[kLanes];
  uint64_t hi[kLanes];
  uint64_t word[kLanes];
  uint64_t offset[kLanes];
};

/// Advances every lane through `words` whole 8-byte filler words: per
/// word, word = HashCombine(word, offset), its 8 bytes fold into lo and
/// hi, and offset grows by 8.
using FillerLaneKernel = void (*)(FillerLanes& lanes, std::size_t words);

/// Every build of the lane kernel this CPU can run, best first: the
/// x86-64-v4 (AVX-512) one, then the x86-64-v3 (AVX2) one. Empty where
/// neither runs; bodies then take the one-body path (compiled for
/// baseline x86-64 the lanes are slower than it).
std::vector<FillerLaneKernel> SupportedFillerLaneKernels();

/// The best supported kernel, chosen once per process, or nullptr.
FillerLaneKernel SelectedFillerLaneKernel();

}  // namespace webevo::simweb

#endif  // WEBEVO_SIMWEB_FILLER_LANES_H_
