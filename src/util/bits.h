// Bit-size arithmetic for the wireless-channel cost model. The paper's
// analysis is entirely in bits: item identifiers cost ceil(log2(n)) bits,
// timestamps bT bits, queries bq bits, answers ba bits.

#ifndef MOBICACHE_UTIL_BITS_H_
#define MOBICACHE_UTIL_BITS_H_

#include <cstdint>
#include <string>

namespace mobicache {

/// Bits needed to name one of `n` distinct items: ceil(log2(n)), with the
/// convention that a single-item space still costs 1 bit. n must be >= 1.
uint64_t BitsForIds(uint64_t n);

/// ceil(log2(x)) for x >= 1.
uint64_t CeilLog2(uint64_t x);

/// Number of set bits in `x`, as a branch-free SWAR reduction. The baseline
/// x86-64 target has no POPCNT instruction, so __builtin_popcountll and
/// std::popcount compile to an out-of-line libgcc call there; this stays
/// inline on every target and returns the exact count.
inline uint32_t PopCount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

/// Pretty-prints a bit count ("512 b", "12.4 Kb", "1.2 Mb") for reports.
std::string FormatBits(double bits);

}  // namespace mobicache

#endif  // MOBICACHE_UTIL_BITS_H_
