//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the micro-architecture simulator.
///
//===----------------------------------------------------------------------===//

#include "sim/Branch.h"
#include "sim/Cache.h"
#include "sim/Machine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::sim;

TEST(Cache, HitAfterMiss) {
  Cache C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1038)) << "same 64-byte line";
  EXPECT_EQ(C.misses(), 1u);
  EXPECT_EQ(C.accesses(), 3u);
}

TEST(Cache, DistinctLinesMiss) {
  Cache C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_FALSE(C.access(0x1040));
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, line 64, size 128 bytes -> exactly 1 set of 2 ways.
  Cache C(CacheConfig{128, 64, 2});
  C.access(0x0000);  // A miss
  C.access(0x1000);  // B miss
  C.access(0x0000);  // A hit (B becomes LRU)
  C.access(0x2000);  // C miss, evicts B
  EXPECT_TRUE(C.access(0x0000)) << "A must survive (was MRU)";
  EXPECT_FALSE(C.access(0x1000)) << "B must have been evicted (was LRU)";
}

TEST(Cache, CapacityBehaviour) {
  // Working set fits: second pass all hits.
  Cache C(CacheConfig{32 * 1024, 64, 8});
  for (uint64_t A = 0; A < 16 * 1024; A += 64)
    C.access(A);
  uint64_t MissesAfterFirstPass = C.misses();
  for (uint64_t A = 0; A < 16 * 1024; A += 64)
    C.access(A);
  EXPECT_EQ(C.misses(), MissesAfterFirstPass)
      << "a fitting working set must not miss on re-walk";

  // Working set 2x capacity with LRU streaming: every access misses.
  Cache D(CacheConfig{4 * 1024, 64, 4});
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t A = 0; A < 8 * 1024; A += 64)
      D.access(A);
  EXPECT_EQ(D.misses(), D.accesses())
      << "streaming over 2x capacity with LRU must always miss";
}

TEST(Cache, ResetClears) {
  Cache C(CacheConfig{1024, 64, 2});
  C.access(0x1000);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_FALSE(C.access(0x1000));
}

TEST(Tlb, PageGranularity) {
  Tlb T(16, 4, 4096);
  EXPECT_FALSE(T.access(0x10000));
  EXPECT_TRUE(T.access(0x10FFF)) << "same 4 KB page";
  EXPECT_FALSE(T.access(0x11000)) << "next page";
}

TEST(BranchPredictor, LearnsStrongBias) {
  BranchPredictor P(256);
  // Always-taken branch: after warmup, all predictions correct.
  for (int I = 0; I < 10; ++I)
    P.predict(0x400, true);
  uint64_t Before = P.mispredicts();
  for (int I = 0; I < 100; ++I)
    P.predict(0x400, true);
  EXPECT_EQ(P.mispredicts(), Before);
}

TEST(BranchPredictor, AlternatingIsHard) {
  BranchPredictor P(256);
  bool Taken = false;
  for (int I = 0; I < 200; ++I) {
    P.predict(0x800, Taken);
    Taken = !Taken;
  }
  // A bimodal predictor cannot learn a perfect alternation.
  EXPECT_GT(P.missRate(), 0.3);
}

TEST(TargetPredictor, MonomorphicTargetPredicts) {
  TargetPredictor P(64);
  P.predict(0x100, 0xAAAA); // cold miss
  for (int I = 0; I < 50; ++I)
    EXPECT_TRUE(P.predict(0x100, 0xAAAA));
}

TEST(TargetPredictor, PolymorphicTargetMisses) {
  TargetPredictor P(64);
  for (int I = 0; I < 100; ++I)
    P.predict(0x100, I % 2 ? 0xAAAA : 0xBBBB);
  EXPECT_GT(P.missRate(), 0.9);
}

TEST(Machine, FetchSpanningLinesTouchesBoth) {
  MachineSim M;
  M.fetch(60, 8); // crosses the 64-byte boundary
  EXPECT_EQ(M.counters().L1IAccesses, 2u);
  EXPECT_EQ(M.counters().Instructions, 1u);
}

TEST(Machine, MissesFlowToLlc) {
  MachineSim M;
  M.fetch(0x100000, 4);
  EXPECT_EQ(M.counters().L1IMisses, 1u);
  EXPECT_EQ(M.counters().LlcAccesses, 1u);
  EXPECT_EQ(M.counters().LlcMisses, 1u);
  // Second fetch of the same line: L1 hit, no LLC traffic.
  M.fetch(0x100000, 4);
  EXPECT_EQ(M.counters().LlcAccesses, 1u);
}

TEST(Machine, CyclesGrowWithMisses) {
  MachineSim Tight;
  for (int I = 0; I < 1000; ++I)
    Tight.fetch(0x1000 + (I % 4) * 64, 4); // tiny loop, all hits
  MachineSim Scattered;
  for (int I = 0; I < 1000; ++I)
    Scattered.fetch(0x1000 + I * 4096, 4); // a page per instruction
  EXPECT_LT(Tight.cycles(), Scattered.cycles());
  EXPECT_GT(Tight.ipc(), Scattered.ipc());
}

TEST(Machine, DataAndInstructionStreamsAreSeparate) {
  MachineSim M;
  M.dataAccess(0x5000, false);
  EXPECT_EQ(M.counters().L1DAccesses, 1u);
  EXPECT_EQ(M.counters().L1IAccesses, 0u);
  EXPECT_EQ(M.counters().DTlbAccesses, 1u);
  EXPECT_EQ(M.counters().ITlbAccesses, 0u);
}

TEST(Machine, SummaryMentionsKeyRates) {
  MachineSim M;
  M.fetch(0, 4);
  std::string S = M.summary();
  EXPECT_NE(S.find("instr="), std::string::npos);
  EXPECT_NE(S.find("itlbMR="), std::string::npos);
}

namespace {

/// The per-instruction fetch path with no line or page memo: every line
/// an instruction spans and its start page are looked up.  The oracle for
/// fetchRun's exactness.
struct ReferenceMachine {
  explicit ReferenceMachine(const MachineConfig &C)
      : C(C), L1I(C.L1I), L1D(C.L1D), Llc(C.Llc),
        ITlb(C.ITlbEntries, C.ITlbWays, C.PageBytes),
        DTlb(C.DTlbEntries, C.DTlbWays, C.PageBytes) {}

  void fetch(uint64_t Addr, uint32_t SizeBytes) {
    ++Counters.Instructions;
    uint64_t First = Addr / C.L1I.LineBytes;
    uint64_t Last = (Addr + (SizeBytes ? SizeBytes - 1 : 0)) /
                    C.L1I.LineBytes;
    for (uint64_t Line = First; Line <= Last; ++Line) {
      ++Counters.L1IAccesses;
      if (!L1I.access(Line * C.L1I.LineBytes)) {
        ++Counters.L1IMisses;
        ++Counters.LlcAccesses;
        if (!Llc.access(Line * C.L1I.LineBytes))
          ++Counters.LlcMisses;
      }
    }
    ++Counters.ITlbAccesses;
    if (!ITlb.access(Addr))
      ++Counters.ITlbMisses;
  }

  void dataAccess(uint64_t Addr) {
    ++Counters.L1DAccesses;
    if (!L1D.access(Addr)) {
      ++Counters.L1DMisses;
      ++Counters.LlcAccesses;
      if (!Llc.access(Addr))
        ++Counters.LlcMisses;
    }
    ++Counters.DTlbAccesses;
    if (!DTlb.access(Addr))
      ++Counters.DTlbMisses;
  }

  void reset() {
    L1I.reset();
    L1D.reset();
    Llc.reset();
    ITlb.reset();
    DTlb.reset();
    Counters = PerfCounters();
  }

  MachineConfig C;
  Cache L1I, L1D, Llc;
  Tlb ITlb, DTlb;
  PerfCounters Counters;
};

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        int Step) {
  EXPECT_EQ(A.Instructions, B.Instructions) << "step " << Step;
  EXPECT_EQ(A.Branches, B.Branches) << "step " << Step;
  EXPECT_EQ(A.BranchMisses, B.BranchMisses) << "step " << Step;
  EXPECT_EQ(A.L1IAccesses, B.L1IAccesses) << "step " << Step;
  EXPECT_EQ(A.L1IMisses, B.L1IMisses) << "step " << Step;
  EXPECT_EQ(A.L1DAccesses, B.L1DAccesses) << "step " << Step;
  EXPECT_EQ(A.L1DMisses, B.L1DMisses) << "step " << Step;
  EXPECT_EQ(A.LlcAccesses, B.LlcAccesses) << "step " << Step;
  EXPECT_EQ(A.LlcMisses, B.LlcMisses) << "step " << Step;
  EXPECT_EQ(A.ITlbAccesses, B.ITlbAccesses) << "step " << Step;
  EXPECT_EQ(A.ITlbMisses, B.ITlbMisses) << "step " << Step;
  EXPECT_EQ(A.DTlbAccesses, B.DTlbAccesses) << "step " << Step;
  EXPECT_EQ(A.DTlbMisses, B.DTlbMisses) << "step " << Step;
}

/// Small caches, TLBs and pages, so seeded runs straddle lines and pages
/// and keep evicting.
MachineConfig tinyMachine() {
  MachineConfig C;
  C.L1I = CacheConfig{1024, 64, 2};
  C.L1D = CacheConfig{1024, 64, 2};
  C.Llc = CacheConfig{4096, 64, 4};
  C.ITlbEntries = 4;
  C.ITlbWays = 2;
  C.DTlbEntries = 4;
  C.DTlbWays = 2;
  C.PageBytes = 256;
  return C;
}

/// Replays seeded straight-line runs (1-15 byte instructions, 1-40 per
/// run, starts in an 8 KB window) interleaved with data accesses and
/// occasional resets on three machines: fetchRun, per-instruction fetch,
/// and the memo-free reference.  Every counter must agree after every run.
void replayRuns(uint64_t Seed, uint32_t ResetEvery) {
  MachineConfig C = tinyMachine();
  MachineSim ByRun(C);
  MachineSim ByInstr(C);
  ReferenceMachine Ref(C);
  Rng R(Seed);
  uint64_t Addr = 0x10000;
  for (int Step = 0; Step < 3000; ++Step) {
    if (ResetEvery && R.nextBelow(ResetEvery) == 0) {
      ByRun.reset();
      ByInstr.reset();
      Ref.reset();
    }
    // Mostly continue where the last run ended or jump back nearby (the
    // memo's cases); sometimes jump anywhere in the window.
    if (R.nextBool(0.3))
      Addr = 0x10000 + R.nextBelow(8192);
    else if (R.nextBool(0.3))
      Addr -= std::min<uint64_t>(Addr - 0x10000, R.nextBelow(64));
    FetchRun Run;
    uint32_t N = 1 + static_cast<uint32_t>(R.nextBelow(40));
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t Size = 1 + static_cast<uint32_t>(R.nextBelow(15));
      ByRun.appendFetch(Run, Addr, Size);
      ByInstr.fetch(Addr, Size);
      Ref.fetch(Addr, Size);
      Addr += Size;
    }
    ByRun.fetchRun(Run);
    if (R.nextBool(0.5)) {
      uint64_t Data = 0x90000 + R.nextBelow(16384);
      ByRun.dataAccess(Data, false);
      ByInstr.dataAccess(Data, false);
      Ref.dataAccess(Data);
    }
    expectSameCounters(ByRun.counters(), Ref.Counters, Step);
    expectSameCounters(ByInstr.counters(), Ref.Counters, Step);
    if (::testing::Test::HasFailure())
      return;
  }
  EXPECT_GT(Ref.Counters.L1IMisses, 0u);
  EXPECT_GT(Ref.Counters.ITlbMisses, 0u);
}

} // namespace

TEST(Machine, FetchRunMatchesPerInstructionFetch) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    replayRuns(Seed, /*ResetEvery=*/0);
}

TEST(Machine, FetchMemoIsClearedByReset) {
  // A run that restarts on the line and page touched last before a reset
  // must miss again: the memo may not outlive the state it summarises.
  MachineSim M;
  M.fetch(0x4000, 4);
  M.reset();
  M.fetch(0x4004, 4);
  EXPECT_EQ(M.counters().L1IMisses, 1u);
  EXPECT_EQ(M.counters().ITlbMisses, 1u);
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    replayRuns(Seed, /*ResetEvery=*/50);
}
