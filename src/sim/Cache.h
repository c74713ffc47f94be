//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven set-associative cache and TLB models.
///
/// These reproduce the micro-architectural metrics of the paper's Figure 5
/// (I-cache, D-cache, LLC, I-TLB and D-TLB miss rates) by replaying the
/// simulated instruction-fetch and data address streams produced when
/// executing laid-out JIT code.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SIM_CACHE_H
#define JUMPSTART_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::sim {

/// Geometry of one cache level.
struct CacheConfig {
  uint32_t SizeBytes = 32 * 1024;
  uint32_t LineBytes = 64;
  uint32_t Ways = 8;
};

/// A set-associative cache with true-LRU replacement.
class Cache {
public:
  explicit Cache(CacheConfig Config);

  /// Accesses the line containing \p Addr.  \returns true on hit; on miss
  /// the line is installed.
  bool access(uint64_t Addr);

  /// Invalidates all lines and zeroes statistics.
  void reset();

  uint64_t accesses() const { return Accesses; }
  uint64_t misses() const { return Misses; }
  double missRate() const {
    return Accesses ? static_cast<double>(Misses) /
                          static_cast<double>(Accesses)
                    : 0.0;
  }
  const CacheConfig &config() const { return Config; }

private:
  CacheConfig Config;
  uint32_t NumSets;
  uint32_t LineShift;
  uint32_t SetShift; ///< log2(NumSets): a line's tag is Line >> SetShift.
  /// NumSets * Config.Ways entries each, row-major by set.  A way whose
  /// LastUse is 0 is invalid: every access stamps a Clock value >= 1.
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> LastUse;
  uint64_t Clock = 0;
  uint64_t Accesses = 0;
  uint64_t Misses = 0;
};

/// A TLB: structurally a cache of page translations.
class Tlb {
public:
  Tlb(uint32_t Entries, uint32_t Ways, uint32_t PageBytes = 4096);

  bool access(uint64_t Addr);
  void reset() { Impl.reset(); }

  uint64_t accesses() const { return Impl.accesses(); }
  uint64_t misses() const { return Impl.misses(); }
  double missRate() const { return Impl.missRate(); }

private:
  Cache Impl;
};

} // namespace jumpstart::sim

#endif // JUMPSTART_SIM_CACHE_H
