//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-core machine model: caches + TLBs + branch predictors + a
/// cycle model, consuming the address trace of executing JITed code.
///
/// Geometry defaults approximate the paper's evaluation hardware (Intel
/// Xeon D-1581, Broadwell): 32 KB 8-way L1I and L1D, a per-core LLC slice,
/// 4 KB pages, bimodal direction prediction.  Absolute cycle counts are
/// not meant to match real silicon; the cycle model exists so relative
/// effects (the paper's speedup percentages) have a principled basis:
/// cycles = instructions * BaseCpi + sum(penalty * events).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SIM_MACHINE_H
#define JUMPSTART_SIM_MACHINE_H

#include "sim/Branch.h"
#include "sim/Cache.h"

#include <string>

namespace jumpstart::sim {

/// Machine geometry and penalty parameters.
struct MachineConfig {
  CacheConfig L1I{32 * 1024, 64, 8};
  CacheConfig L1D{32 * 1024, 64, 8};
  CacheConfig Llc{2 * 1024 * 1024, 64, 16};
  uint32_t ITlbEntries = 128;
  uint32_t ITlbWays = 4;
  uint32_t DTlbEntries = 64;
  uint32_t DTlbWays = 4;
  uint32_t PageBytes = 4096;
  uint32_t BranchTableSize = 4096;
  uint32_t BtbSize = 1024;

  // Cycle model.
  double BaseCpi = 0.4;
  double BranchMissPenalty = 14;
  double L1MissPenalty = 10;    ///< L1 miss that hits LLC.
  double LlcMissPenalty = 120;  ///< LLC miss to memory.
  double TlbMissPenalty = 25;   ///< Page walk.
};

/// Aggregated event counters read by the figure harnesses.
struct PerfCounters {
  uint64_t Instructions = 0;
  uint64_t Branches = 0;
  uint64_t BranchMisses = 0;
  uint64_t L1IAccesses = 0;
  uint64_t L1IMisses = 0;
  uint64_t L1DAccesses = 0;
  uint64_t L1DMisses = 0;
  uint64_t LlcAccesses = 0;
  uint64_t LlcMisses = 0;
  uint64_t ITlbAccesses = 0;
  uint64_t ITlbMisses = 0;
  uint64_t DTlbAccesses = 0;
  uint64_t DTlbMisses = 0;
};

/// A straight-line run of instructions, each starting where the previous
/// one ended, summarised for MachineSim::fetchRun.  Build it with
/// MachineSim::appendFetch so the line and page numbers follow the
/// machine's geometry.
struct FetchRun {
  uint32_t Instrs = 0;      ///< Instructions retired.
  uint32_t LineTouches = 0; ///< Sum over instructions of L1I lines spanned.
  uint64_t FirstLine = 0;   ///< L1I line numbers covered, inclusive.
  uint64_t LastLine = 0;
  uint64_t FirstPage = 0; ///< Pages holding an instruction start, inclusive.
  uint64_t LastPage = 0;
};

/// The machine simulator.  The VM's execution tracer calls fetchRun()
/// (or fetch()), dataAccess(), condBranch() and indirectBranch() as
/// laid-out code runs.
class MachineSim {
public:
  explicit MachineSim(MachineConfig Config = MachineConfig());

  /// Fetches \p SizeBytes of instructions starting at \p Addr (accesses
  /// every line the range touches) and retires one instruction: a
  /// one-instruction fetchRun().
  void fetch(uint64_t Addr, uint32_t SizeBytes);

  /// Extends \p Run by one instruction of \p SizeBytes at \p Addr, which
  /// must be where the run's previous instruction ended.
  void appendFetch(FetchRun &Run, uint64_t Addr, uint32_t SizeBytes) const;

  /// Retires a straight-line run exactly as one fetch() per instruction
  /// would, but touches each L1I line and I-TLB page once.  Per-instruction
  /// fetches only ever revisit the line or page they touched last, and a
  /// line or page equal to the previous fetch's is skipped altogether: only
  /// fetches reach L1I and the I-TLB, so that entry is still resident and
  /// most recently used, and touching it again changes no LRU order (the
  /// caches' LRU stamps are unique and monotonic, only their order counts).
  /// The access counters still count every instruction.
  void fetchRun(const FetchRun &Run);

  /// A data access at \p Addr.
  void dataAccess(uint64_t Addr, bool IsWrite);

  /// A conditional branch at \p Pc resolving to \p Taken, jumping to
  /// \p TargetAddr when taken.  Mispredictions come from two sources:
  /// the bimodal direction predictor, and BTB misses on taken branches
  /// (a taken branch whose target is not cached stalls the front end;
  /// this is how basic-block layout -- which converts taken branches
  /// into fallthroughs -- reduces branch misses, as in the paper's
  /// Figure 5).
  void condBranch(uint64_t Pc, bool Taken, uint64_t TargetAddr = 0);

  /// An indirect transfer at \p Pc to \p Target (virtual dispatch,
  /// returns).
  void indirectBranch(uint64_t Pc, uint64_t Target);

  /// Clears all state and counters.
  void reset();

  const PerfCounters &counters() const { return Counters; }

  /// Estimated cycles under the configured penalty model.
  double cycles() const;

  /// Estimated instructions per cycle.
  double ipc() const;

  /// Renders counters as a one-line summary for the bench harnesses.
  std::string summary() const;

  const MachineConfig &config() const { return Config; }

private:
  MachineConfig Config;
  Cache L1I;
  Cache L1D;
  Cache Llc;
  Tlb ITlb;
  Tlb DTlb;
  BranchPredictor Direction;
  TargetPredictor Indirect;
  TargetPredictor Btb;
  PerfCounters Counters;
  /// The L1I line and I-TLB page the last fetch touched last (kNone after
  /// reset).  No fetched address reaches the top of the address space, so
  /// kNone never equals a real line or page.
  static constexpr uint64_t kNone = ~0ull;
  uint64_t MruLine = kNone;
  uint64_t MruPage = kNone;
};

} // namespace jumpstart::sim

#endif // JUMPSTART_SIM_MACHINE_H
