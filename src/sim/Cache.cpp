//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::sim;

static uint32_t log2Floor(uint32_t V) {
  uint32_t R = 0;
  while (V >>= 1)
    ++R;
  return R;
}

Cache::Cache(CacheConfig Config) : Config(Config) {
  alwaysAssert(Config.LineBytes > 0 && Config.Ways > 0 &&
                   Config.SizeBytes >= Config.LineBytes * Config.Ways,
               "invalid cache geometry");
  NumSets = Config.SizeBytes / (Config.LineBytes * Config.Ways);
  alwaysAssert((NumSets & (NumSets - 1)) == 0,
               "number of sets must be a power of two");
  alwaysAssert((Config.LineBytes & (Config.LineBytes - 1)) == 0,
               "line size must be a power of two");
  LineShift = log2Floor(Config.LineBytes);
  SetShift = log2Floor(NumSets);
  Tags.assign(static_cast<size_t>(NumSets) * Config.Ways, 0);
  LastUse.assign(Tags.size(), 0);
}

bool Cache::access(uint64_t Addr) {
  ++Accesses;
  ++Clock;
  uint64_t Line = Addr >> LineShift;
  size_t Base = static_cast<size_t>(Line & (NumSets - 1)) * Config.Ways;
  uint64_t Tag = Line >> SetShift;
  uint64_t *SetTags = &Tags[Base];
  uint64_t *SetUse = &LastUse[Base];

  // The victim is the way with the smallest stamp: an invalid way (stamp
  // 0) if the set has one, else the least recently used.  Which invalid
  // way fills first cannot change any later hit or miss.
  uint32_t Victim = 0;
  for (uint32_t W = 0; W < Config.Ways; ++W) {
    if (SetTags[W] == Tag && SetUse[W] != 0) {
      SetUse[W] = Clock;
      return true;
    }
    if (SetUse[W] < SetUse[Victim])
      Victim = W;
  }

  ++Misses;
  SetTags[Victim] = Tag;
  SetUse[Victim] = Clock;
  return false;
}

void Cache::reset() {
  std::fill(Tags.begin(), Tags.end(), 0);
  std::fill(LastUse.begin(), LastUse.end(), 0);
  Clock = 0;
  Accesses = 0;
  Misses = 0;
}

Tlb::Tlb(uint32_t Entries, uint32_t WaysCount, uint32_t PageBytes)
    : Impl(CacheConfig{Entries * PageBytes, PageBytes, WaysCount}) {}

bool Tlb::access(uint64_t Addr) { return Impl.access(Addr); }
