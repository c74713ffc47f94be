//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "jit/Region.h"
#include "layout/FunctionSort.h"
#include "obs/Observability.h"
#include "support/Assert.h"
#include "support/StringUtil.h"

#include <algorithm>

using namespace jumpstart;
using namespace jumpstart::jit;

const char *jumpstart::jit::jitPhaseName(JitPhase P) {
  switch (P) {
  case JitPhase::Profiling:
    return "profiling";
  case JitPhase::Optimizing:
    return "optimizing";
  case JitPhase::Relocating:
    return "relocating";
  case JitPhase::Mature:
    return "mature";
  }
  return "?";
}

Jit::Jit(const bc::Repo &R, JitConfig Config)
    : R(R), Config(Config), Blocks(R), Cache(Config.Cache) {}

void Jit::setObservability(obs::Observability *O, double SecondsPerUnit,
                           uint32_t Track) {
  Obs = O;
  ObsSecondsPerUnit = SecondsPerUnit;
  ObsTrack = Track;
}

const char *Jit::jobSpanName(enum Job::Kind K) {
  switch (K) {
  case Job::Kind::CompileProfile:
    return "compile-tier1";
  case Job::Kind::CompileLive:
    return "compile-live";
  case Job::Kind::CompileOptimized:
    return "compile-tier2";
  case Job::Kind::Relocate:
    return "relocate";
  }
  return "?";
}

void Jit::noteJobDone(const Job &J) {
  if (!Obs)
    return;
  double Dur = J.TotalCost * ObsSecondsPerUnit;
  double End = Obs->Clock.now();
  Obs->Trace.completeSpan(
      jobSpanName(J.Kind), "jit", ObsTrack, std::max(0.0, End - Dur), Dur,
      {J.Kind == Job::Kind::Relocate ? strFormat("trans=%u", J.Trans)
                                     : strFormat("func=%u", J.Func)});
  Obs->Metrics
      .counter("jumpstart.jit.jobs_completed",
               {{"kind", jobSpanName(J.Kind)}})
      .inc();
  // Proven-fact guard elisions accumulate in the translation database as
  // compiles install; exporting after each job keeps the gauge current
  // without a per-elision metric write.  Absent entirely when the
  // whole-program analysis is off (the count stays zero).
  if (uint64_t Elided = Db.guardsElided())
    Obs->Metrics.gauge("jumpstart.jit.guards_elided", {})
        .set(static_cast<double>(Elided));
}

void Jit::notePhase(JitPhase NewPhase) {
  if (!Obs)
    return;
  Obs->Trace.instant(strFormat("jit-phase:%s", jitPhaseName(NewPhase)),
                     "phase", ObsTrack);
  Obs->Metrics.counter("jumpstart.jit.phase_transitions",
                       {{"to", jitPhaseName(NewPhase)}})
      .inc();
}

double Jit::execCostPerBytecode(bc::FuncId F) const {
  const Translation *T = Db.best(F);
  if (T)
    return T->CostPerBytecode;
  return kInterpCostPerBytecode;
}

uint64_t Jit::totalCodeBytes() const {
  return Db.bytesOfKind(TransKind::Profile) +
         Db.bytesOfKind(TransKind::Live) +
         Db.bytesOfKind(TransKind::Optimized);
}

void Jit::onFuncEntered(bc::FuncId F) {
  if (R.func(F).Code.empty())
    return;
  if (Phase == JitPhase::Profiling) {
    if (Db.forFunc(F, TransKind::Profile) || Enqueued.count(F.raw()))
      return;
    Enqueued.insert(F.raw());
    Jobs.push_back(makeJob(Job::Kind::CompileProfile, F.raw(), 0,
                           static_cast<double>(R.func(F).Code.size()) *
                               Config.ProfileCompileCostPerBytecode));
    return;
  }
  // Past profiling: anything still uncompiled takes the tracelet (live)
  // path, until the live area fills (Figure 1 point D).
  if (LiveAreaExhausted || Db.best(F) || Enqueued.count(F.raw()))
    return;
  if (Db.forFunc(F, TransKind::Optimized))
    return; // optimized exists but is awaiting relocation
  Enqueued.insert(F.raw());
  Jobs.push_back(makeJob(Job::Kind::CompileLive, F.raw(), 0,
                         static_cast<double>(R.func(F).Code.size()) *
                             Config.LiveCompileCostPerBytecode));
}

void Jit::onRequestFinished() {
  if (Phase != JitPhase::Profiling)
    return;
  ++ProfiledRequests;
  if (ProfiledRequests >= Config.ProfileRequestTarget)
    beginRetranslateAll();
}

void Jit::beginRetranslateAll() {
  if (Phase != JitPhase::Profiling)
    return;
  Phase = JitPhase::Optimizing;
  if (Obs)
    Obs->Trace.instant("retranslate-all", "jit", ObsTrack);
  notePhase(JitPhase::Optimizing);
  // Drop pending profile compiles; profiling is over.
  std::deque<Job> Kept;
  for (const Job &J : Jobs)
    if (J.Kind != Job::Kind::CompileProfile)
      Kept.push_back(J);
    else
      Enqueued.erase(J.Func);
  Jobs = std::move(Kept);

  // Optimize every profiled function, hottest first (determinism: ties by
  // FuncId).
  std::vector<std::pair<uint64_t, uint32_t>> ByHotness;
  for (const auto &[FuncRaw, Prof] : Store.all())
    ByHotness.push_back({Prof.totalSamples(), FuncRaw});
  std::sort(ByHotness.begin(), ByHotness.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first > B.first;
              return A.second < B.second;
            });
  for (const auto &[Samples, FuncRaw] : ByHotness) {
    (void)Samples;
    if (R.func(bc::FuncId(FuncRaw)).Code.empty())
      continue;
    // In ShareJIT mode the machine code already exists; "compiling" is
    // relocation and pointer-table patching, a tiny fraction of a real
    // region compile.
    double CostPerBytecode = Config.ShareJitMode
                                 ? Config.OptCompileCostPerBytecode * 0.02
                                 : Config.OptCompileCostPerBytecode;
    Jobs.push_back(makeJob(
        Job::Kind::CompileOptimized, FuncRaw, 0,
        static_cast<double>(R.func(bc::FuncId(FuncRaw)).Code.size()) *
            CostPerBytecode));
  }
  if (Jobs.empty()) {
    // Nothing was profiled (e.g. a consumer with an empty package).
    Phase = JitPhase::Mature;
    notePhase(JitPhase::Mature);
  }
}

std::unique_ptr<VasmUnit> Jit::lowerOptimizedUnit(bc::FuncId F) {
  RegionDescriptor Region;
  if (Config.ShareJitMode) {
    // Sharing constraints forbid inlining user-defined functions and
    // devirtualized direct calls (they embed addresses).
    Region.Func = F;
  } else {
    // Proven facts extend devirtualization beyond profile dominance, but
    // never under sharing constraints (direct calls embed addresses).
    const ProvenFacts *Facts =
        Config.ProvenGuardElision ? Config.Facts.get() : nullptr;
    Region = selectRegion(R, Blocks, Store, F, Facts);
  }
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  Opts.SeederInstrumentation = Config.SeederInstrumentation;
  Opts.SharedCodeConstraints = Config.ShareJitMode;
  if (Config.ProvenGuardElision && !Config.ShareJitMode)
    Opts.Facts = Config.Facts.get();
  auto Unit = lowerFunction(R, Blocks, F, &Store, &Region, Opts);

  // Jump-Start consumers inject the accurate Vasm counters right before
  // layout (paper section V-A).
  if (Package && Config.UseVasmCounters) {
    auto It = Package->Opt.VasmBlockCounts.find(F.raw());
    if (It != Package->Opt.VasmBlockCounts.end())
      injectVasmCounts(*Unit, It->second);
  }
  return Unit;
}

std::unique_ptr<VasmUnit> Jit::lowerLiveUnit(bc::FuncId F) {
  LowerOptions Opts;
  Opts.Kind = TransKind::Live;
  return lowerFunction(R, Blocks, F, nullptr, nullptr, Opts);
}

void Jit::compileOptimized(bc::FuncId F) {
  if (Db.forFunc(F, TransKind::Optimized))
    return;
  std::unique_ptr<VasmUnit> Unit;
  auto Scratch = PrecompiledOpt.find(F.raw());
  if (Scratch != PrecompiledOpt.end()) {
    Unit = std::move(Scratch->second);
    PrecompiledOpt.erase(Scratch);
  } else {
    Unit = lowerOptimizedUnit(F);
  }
  Db.create(TransKind::Optimized, std::move(Unit));
}

bool Jit::place(Translation &T, CodeArea Area, const UnitLayout &L) {
  if (!placeTranslation(T, Cache, Area, L))
    return false;
  Db.notePlaced(T);
  return true;
}

LayoutOptions Jit::layoutOptions() const {
  LayoutOptions L;
  L.UseExtTsp = Config.UseExtTsp;
  L.SplitCold = Config.SplitHotCold;
  return L;
}

std::vector<uint32_t> Jit::computeFuncOrder() const {
  // Precomputed order from the package (category 4) wins.
  if (Package && Config.UsePackageFuncOrder &&
      !Package->Intermediate.FuncOrder.empty())
    return Package->Intermediate.FuncOrder;
  if (!Config.UseFunctionSort) {
    std::vector<uint32_t> Order;
    for (const auto &T : Db.all())
      if (T->Kind == TransKind::Optimized)
        Order.push_back(T->Unit->Func.raw());
    return Order;
  }
  // C3 over the best call graph available: the tier-2 entry-counter graph
  // when the package carries one (section V-B), else the tier-1 graph.
  layout::CallGraph G;
  if (Package && Config.UsePackageFuncOrder && !Package->Opt.CallArcs.empty())
    G = buildTier2CallGraph(R, Package->Opt, Store);
  else
    G = buildTier1CallGraph(R, const_cast<bc::BlockCache &>(Blocks), Store);
  return layout::c3Order(G);
}

void Jit::enqueueRelocations() {
  std::vector<uint32_t> Order = computeFuncOrder();
  std::unordered_set<uint32_t> Seen;
  auto Enqueue = [&](uint32_t FuncRaw) {
    if (!Seen.insert(FuncRaw).second)
      return;
    Translation *T = Db.forFunc(bc::FuncId(FuncRaw), TransKind::Optimized);
    if (!T || T->Placed)
      return;
    Jobs.push_back(makeJob(Job::Kind::Relocate, 0, T->Id,
                           static_cast<double>(T->Unit->sizeBytes()) *
                               Config.RelocateCostPerByte));
  };
  for (uint32_t FuncRaw : Order)
    Enqueue(FuncRaw);
  // Anything the order missed still gets placed (compile order).
  for (const auto &T : Db.all())
    if (T->Kind == TransKind::Optimized)
      Enqueue(T->Unit->Func.raw());
}

void Jit::finishJob(const Job &J) {
  switch (J.Kind) {
  case Job::Kind::CompileProfile: {
    bc::FuncId F(J.Func);
    Enqueued.erase(J.Func);
    if (Phase != JitPhase::Profiling)
      return; // profiling ended while this was queued
    LowerOptions Opts;
    Opts.Kind = TransKind::Profile;
    auto Unit = lowerFunction(R, Blocks, F, nullptr, nullptr, Opts);
    Translation &T = Db.create(TransKind::Profile, std::move(Unit));
    UnitLayout L;
    L.HotOrder.resize(T.Unit->Blocks.size());
    for (uint32_t I = 0; I < L.HotOrder.size(); ++I)
      L.HotOrder[I] = I;
    place(T, CodeArea::Profile, L);
    return;
  }
  case Job::Kind::CompileLive: {
    bc::FuncId F(J.Func);
    Enqueued.erase(J.Func);
    std::unique_ptr<VasmUnit> Unit;
    auto Scratch = PrecompiledLive.find(J.Func);
    if (Scratch != PrecompiledLive.end()) {
      Unit = std::move(Scratch->second);
      PrecompiledLive.erase(Scratch);
    } else {
      Unit = lowerLiveUnit(F);
    }
    Translation &T = Db.create(TransKind::Live, std::move(Unit));
    UnitLayout L;
    L.HotOrder.resize(T.Unit->Blocks.size());
    for (uint32_t I = 0; I < L.HotOrder.size(); ++I)
      L.HotOrder[I] = I;
    if (!place(T, CodeArea::Live, L))
      LiveAreaExhausted = true; // Figure 1 point D
    return;
  }
  case Job::Kind::CompileOptimized:
    compileOptimized(bc::FuncId(J.Func));
    return;
  case Job::Kind::Relocate: {
    Translation *T = Db.find(J.Trans);
    alwaysAssert(T != nullptr, "relocate job for unknown translation");
    UnitLayout L;
    auto Scratch = PrecomputedLayouts.find(T->Unit->Func.raw());
    if (Scratch != PrecomputedLayouts.end()) {
      L = std::move(Scratch->second);
      PrecomputedLayouts.erase(Scratch);
    } else {
      L = layoutUnit(*T->Unit, layoutOptions());
    }
    place(*T, CodeArea::Hot, L);
    return;
  }
  }
}

double Jit::runJitWork(double BudgetUnits) {
  double Consumed = 0;
  while (BudgetUnits > 0 && !Jobs.empty()) {
    Job &J = Jobs.front();
    double Spend = std::min(BudgetUnits, J.CostLeft);
    J.CostLeft -= Spend;
    BudgetUnits -= Spend;
    Consumed += Spend;
    if (J.CostLeft > 0)
      break;
    Job Done = J;
    Jobs.pop_front();
    finishJob(Done);
    noteJobDone(Done);
  }

  // Phase transitions when a stage's queue drains.
  if (Jobs.empty()) {
    if (Phase == JitPhase::Optimizing) {
      Phase = JitPhase::Relocating;
      notePhase(JitPhase::Relocating);
      enqueueRelocations();
      if (Jobs.empty()) {
        Phase = JitPhase::Mature;
        notePhase(JitPhase::Mature);
      }
    } else if (Phase == JitPhase::Relocating) {
      Phase = JitPhase::Mature;
      notePhase(JitPhase::Mature);
    }
  }
  return Consumed;
}

support::Status
Jit::installPackageProfiles(const profile::ProfilePackage &Pkg) {
  alwaysAssert(Phase == JitPhase::Profiling && Db.size() == 0,
               "consumer precompile must run on a fresh JIT");
  Package = Pkg;
  return Store.loadFromPackage(Pkg);
}

void Jit::enqueueConsumerJobs() {
  alwaysAssert(Package.has_value(),
               "enqueueConsumerJobs without an installed package");
  // Skip profiling entirely: go straight to retranslate-all.
  beginRetranslateAll();
  // Optionally also pre-compile the seeder's live-code tail (the
  // section IV-A alternative).
  if (Config.PrecompileLiveCode) {
    for (uint32_t FuncRaw : Package->Intermediate.LiveFuncs) {
      bc::FuncId F(FuncRaw);
      if (FuncRaw >= R.numFuncs() || R.func(F).Code.empty())
        continue;
      if (Store.find(FuncRaw) || Enqueued.count(FuncRaw))
        continue; // profiled functions get optimized translations anyway
      Enqueued.insert(FuncRaw);
      Jobs.push_back(makeJob(Job::Kind::CompileLive, FuncRaw, 0,
                             static_cast<double>(R.func(F).Code.size()) *
                                 Config.LiveCompileCostPerBytecode));
    }
    if (Phase == JitPhase::Mature && !Jobs.empty())
      Phase = JitPhase::Optimizing; // keep draining until live code done
  }
}

void Jit::startConsumerPrecompile(const profile::ProfilePackage &Pkg) {
  support::Status S = installPackageProfiles(Pkg);
  alwaysAssert(S.ok(), "startConsumerPrecompile: bad package (callers "
                       "validate with deserialize + lint first)");
  enqueueConsumerJobs();
}

profile::ProfilePackage Jit::buildPackage(uint32_t Region, uint32_t Bucket,
                                          uint64_t SeederId,
                                          uint64_t RepoFingerprint) const {
  profile::ProfilePackage Pkg;
  Pkg.RepoFingerprint = RepoFingerprint;
  Pkg.Region = Region;
  Pkg.Bucket = Bucket;
  Pkg.SeederId = SeederId;
  Store.exportToPackage(Pkg);
  Pkg.Opt = OptProf;
  Pkg.Opt.PropAccessCounts = PropCounts;
  Pkg.Opt.PropAffinity = PropAffinity;

  // Category 4: the precomputed function order, from the tier-2 call
  // graph when seeder instrumentation collected one.
  layout::CallGraph G;
  if (!OptProf.CallArcs.empty())
    G = buildTier2CallGraph(R, OptProf, Store);
  else
    G = buildTier1CallGraph(R, const_cast<bc::BlockCache &>(Blocks), Store);
  Pkg.Intermediate.FuncOrder = layout::c3Order(G);

  // The live-code tail this seeder accumulated (consumed only under
  // PrecompileLiveCode).
  for (const auto &T : Db.all())
    if (T->Kind == TransKind::Live)
      Pkg.Intermediate.LiveFuncs.push_back(T->Unit->Func.raw());
  std::sort(Pkg.Intermediate.LiveFuncs.begin(),
            Pkg.Intermediate.LiveFuncs.end());

  // Category 1: preload lists.  Units of profiled functions in hotness
  // order; classes and literal strings referenced by them.
  std::vector<std::pair<uint64_t, uint32_t>> ByHotness;
  for (const auto &[FuncRaw, Prof] : Store.all())
    ByHotness.push_back({Prof.totalSamples(), FuncRaw});
  std::sort(ByHotness.begin(), ByHotness.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first > B.first;
              return A.second < B.second;
            });
  std::unordered_set<uint32_t> SeenUnits;
  std::unordered_set<uint32_t> SeenStrings;
  std::unordered_set<uint32_t> SeenClasses;
  for (const auto &[Samples, FuncRaw] : ByHotness) {
    (void)Samples;
    const bc::Function &F = R.func(bc::FuncId(FuncRaw));
    if (SeenUnits.insert(F.Unit.raw()).second)
      Pkg.Preload.Units.push_back(F.Unit.raw());
    if (F.Cls.valid() && SeenClasses.insert(F.Cls.raw()).second)
      Pkg.Preload.Classes.push_back(F.Cls.raw());
    for (const bc::Instr &In : F.Code) {
      const bc::OpInfo &Info = bc::opInfo(In.Opcode);
      if (Info.ImmA == bc::ImmKind::Str &&
          SeenStrings.insert(In.strImm().raw()).second)
        Pkg.Preload.Strings.push_back(In.strImm().raw());
      if (Info.ImmA == bc::ImmKind::Cls &&
          SeenClasses.insert(In.clsImm().raw()).second)
        Pkg.Preload.Classes.push_back(In.clsImm().raw());
    }
  }
  return Pkg;
}
