//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Region.h"

#include "support/Assert.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::jit;

namespace {

// Inlining and devirtualization thresholds.
/// Callees larger than this many bytecodes are never inlined.
constexpr uint32_t kMaxInlineBytecodes = 48;
/// Maximum depth of nested inlining.
constexpr uint32_t kMaxInlineDepth = 1;
/// Total region budget (function + all inlined bodies).
constexpr uint32_t kMaxRegionBytecodes = 4000;
/// A call site must execute at least this fraction of the function entry
/// count to be worth inlining.
constexpr double kMinSiteFrequency = 0.35;
/// A virtual site devirtualizes when one target covers this fraction of
/// its call-target profile.
constexpr double kCallTargetMonoThreshold = 0.95;

/// Recursive inline planner.
class InlinePlanner {
public:
  InlinePlanner(const bc::Repo &R, bc::BlockCache &Blocks,
                const profile::ProfileStore &Store, const ProvenFacts *Facts,
                RegionDescriptor &Out)
      : R(R), Blocks(Blocks), Store(Store), Facts(Facts), Out(Out) {}

  void plan(bc::FuncId F, uint32_t Depth) {
    const profile::FuncProfile *Prof = Store.find(F.raw());
    const bc::Function &Func = R.func(F);
    const bc::BlockList &BL = Blocks.blocks(F);

    for (uint32_t Pc = 0; Pc < Func.Code.size(); ++Pc) {
      const bc::Instr &In = Func.Code[Pc];
      if (In.Opcode == bc::Op::FCall) {
        considerInline(F, Pc, In.funcImm(), Prof, BL, Depth);
        continue;
      }
      if (In.Opcode == bc::Op::FCallObj) {
        bc::FuncId Target = Prof ? dominantTarget(*Prof, Pc) : bc::FuncId();
        if (!Target.valid())
          Target = provenTarget(F, Pc);
        if (!Target.valid())
          continue;
        // Devirtualize; additionally inline when the target qualifies.
        if (!considerInline(F, Pc, Target, Prof, BL, Depth))
          Out.DevirtualizedCalls[RegionDescriptor::siteKey(F, Pc)] = Target;
      }
    }
  }

private:
  /// \returns the analysis-proven single target of the virtual site, or
  /// an invalid id.
  bc::FuncId provenTarget(bc::FuncId F, uint32_t Pc) const {
    if (!Facts)
      return bc::FuncId();
    auto It = Facts->ProvenCalls.find(ProvenFacts::siteKey(F.raw(), Pc));
    return It == Facts->ProvenCalls.end() ? bc::FuncId()
                                          : bc::FuncId(It->second.Target);
  }

  /// \returns the callee covering kCallTargetMonoThreshold of the site's
  /// profile, or an invalid id.
  bc::FuncId dominantTarget(const profile::FuncProfile &Prof,
                            uint32_t Pc) const {
    auto It = Prof.CallTargets.find(Pc);
    if (It == Prof.CallTargets.end())
      return bc::FuncId();
    uint64_t Total = 0;
    uint64_t BestCount = 0;
    uint32_t Best = 0;
    for (const auto &[Callee, Count] : It->second) {
      Total += Count;
      if (Count > BestCount) {
        BestCount = Count;
        Best = Callee;
      }
    }
    if (Total == 0)
      return bc::FuncId();
    if (static_cast<double>(BestCount) <
        kCallTargetMonoThreshold * static_cast<double>(Total))
      return bc::FuncId();
    return bc::FuncId(Best);
  }

  /// Applies the inlining heuristics to one call site.  \returns true if
  /// the site was inlined.
  bool considerInline(bc::FuncId Caller, uint32_t Pc, bc::FuncId Callee,
                      const profile::FuncProfile *CallerProf,
                      const bc::BlockList &BL, uint32_t Depth) {
    if (Depth >= kMaxInlineDepth)
      return false;
    if (Callee == Out.Func || Callee == Caller)
      return false; // no recursive inlining
    const bc::Function &CalleeFunc = R.func(Callee);
    if (CalleeFunc.Code.empty() ||
        CalleeFunc.Code.size() > kMaxInlineBytecodes)
      return false;
    if (Out.TotalBytecodes + CalleeFunc.Code.size() > kMaxRegionBytecodes)
      return false;
    // The callee must itself be profiled: the region compiler only forms
    // non-trivial regions where it has data (paper section V-B).
    if (!Store.find(Callee.raw()))
      return false;
    // Site hotness: the enclosing block must run often relative to entry.
    if (CallerProf && CallerProf->EntryCount > 0 &&
        BL.numBlocks() == CallerProf->BlockCounts.size()) {
      uint64_t SiteCount = CallerProf->BlockCounts[BL.blockOf(Pc)];
      if (static_cast<double>(SiteCount) <
          kMinSiteFrequency * static_cast<double>(CallerProf->EntryCount))
        return false;
    }
    // Each function is inlined at most once per region (the shadow
    // tracer's block map has one copy per function).
    if (std::find(Out.InlinedFuncs.begin(), Out.InlinedFuncs.end(),
                  Callee) != Out.InlinedFuncs.end())
      return false;

    Out.InlinedCalls[RegionDescriptor::siteKey(Caller, Pc)] = Callee;
    Out.InlinedFuncs.push_back(Callee);
    Out.TotalBytecodes += static_cast<uint32_t>(CalleeFunc.Code.size());
    plan(Callee, Depth + 1);
    return true;
  }

  const bc::Repo &R;
  bc::BlockCache &Blocks;
  const profile::ProfileStore &Store;
  const ProvenFacts *Facts;
  RegionDescriptor &Out;
};

} // namespace

RegionDescriptor jumpstart::jit::selectRegion(const bc::Repo &R,
                                              bc::BlockCache &Blocks,
                                              const profile::ProfileStore &S,
                                              bc::FuncId Func,
                                              const ProvenFacts *Facts) {
  RegionDescriptor Out;
  Out.Func = Func;
  Out.TotalBytecodes = static_cast<uint32_t>(R.func(Func).Code.size());
  InlinePlanner Planner(R, Blocks, S, Facts, Out);
  Planner.plan(Func, /*Depth=*/0);
  return Out;
}
