//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the JIT: code cache, lowering, region selection,
/// translation layout/placement, and the tiering state machine.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "jit/Jit.h"
#include "jit/Lower.h"
#include "jit/Recorders.h"
#include "jit/Region.h"
#include "jit/TransLayout.h"
#include "vm/Server.h"

#include <gtest/gtest.h>

using namespace jumpstart;
using namespace jumpstart::jit;
using jumpstart::testing::TestVm;

//===----------------------------------------------------------------------===//
// Code cache.
//===----------------------------------------------------------------------===//

TEST(CodeCacheTest, BumpAllocationAndAlignment) {
  CodeCache C;
  uint64_t A = C.allocate(CodeArea::Hot, 100);
  uint64_t B = C.allocate(CodeArea::Hot, 10);
  EXPECT_EQ(A, C.base(CodeArea::Hot));
  EXPECT_EQ(B, A + 112) << "allocations are 16-byte aligned";
  EXPECT_EQ(C.used(CodeArea::Hot), 128u);
}

TEST(CodeCacheTest, AreasAreDisjoint) {
  CodeCache C;
  uint64_t Hot = C.allocate(CodeArea::Hot, 64);
  uint64_t Cold = C.allocate(CodeArea::Cold, 64);
  uint64_t Prof = C.allocate(CodeArea::Profile, 64);
  uint64_t Live = C.allocate(CodeArea::Live, 64);
  EXPECT_LT(Hot, Cold);
  EXPECT_LT(Cold, Prof);
  EXPECT_LT(Prof, Live);
}

TEST(CodeCacheTest, ExhaustionReturnsZero) {
  CodeCacheConfig Config;
  Config.LiveBytes = 256;
  CodeCache C(Config);
  EXPECT_NE(C.allocate(CodeArea::Live, 200), 0u);
  EXPECT_EQ(C.allocate(CodeArea::Live, 200), 0u)
      << "a full area must reject further allocation";
  EXPECT_TRUE(C.isFull(CodeArea::Live) ||
              C.used(CodeArea::Live) + 200 > C.capacity(CodeArea::Live));
}

TEST(CodeCacheTest, ResetHotColdForRelocation) {
  CodeCache C;
  C.allocate(CodeArea::Hot, 1000);
  C.allocate(CodeArea::Profile, 500);
  C.resetHotCold();
  EXPECT_EQ(C.used(CodeArea::Hot), 0u);
  EXPECT_GT(C.used(CodeArea::Profile), 0u) << "profile area untouched";
}

//===----------------------------------------------------------------------===//
// Lowering.
//===----------------------------------------------------------------------===//

namespace {

/// Compiles a snippet and lowers function \p Name.
std::unique_ptr<VasmUnit> lowerSnippet(TestVm &Vm, const std::string &Name,
                                       TransKind Kind,
                                       bool Instrument = false) {
  bc::BlockCache Blocks(Vm.Repo);
  LowerOptions Opts;
  Opts.Kind = Kind;
  Opts.SeederInstrumentation = Instrument;
  return lowerFunction(Vm.Repo, Blocks, Vm.Repo.findFunction(Name),
                       nullptr, nullptr, Opts);
}

} // namespace

TEST(Lowering, BlocksMirrorBytecodeBlocks) {
  TestVm Vm("function f($x) {"
            "  if ($x > 0) { return $x; }"
            "  return 0 - $x;"
            "}");
  auto Unit = lowerSnippet(Vm, "f", TransKind::Live);
  bc::BlockCache Blocks(Vm.Repo);
  const bc::BlockList &BL = Blocks.blocks(Vm.Repo.findFunction("f"));
  // Live lowering: one Vasm block per bytecode block (no exit stub).
  EXPECT_EQ(Unit->Blocks.size(), BL.numBlocks());
  for (uint32_t B = 0; B < BL.numBlocks(); ++B)
    EXPECT_NE(Unit->findBlock(Vm.Repo.findFunction("f"), B),
              VasmUnit::kNoBlock);
}

TEST(Lowering, ProfileKindAddsCounters) {
  TestVm Vm("function f($x) { return $x + 1; }");
  auto Live = lowerSnippet(Vm, "f", TransKind::Live);
  auto Prof = lowerSnippet(Vm, "f", TransKind::Profile);
  EXPECT_GT(Prof->sizeBytes(), Live->sizeBytes())
      << "instrumentation must cost bytes";
  bool SawCounter = false;
  for (const VBlock &B : Prof->Blocks)
    for (const VInstr &I : B.Instrs)
      if (I.Kind == VKind::Counter)
        SawCounter = true;
  EXPECT_TRUE(SawCounter);
}

TEST(Lowering, SeederInstrumentationOnOptimized) {
  TestVm Vm("function f($x) { return $x + 1; }");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  LowerOptions Plain;
  Plain.Kind = TransKind::Optimized;
  LowerOptions Seeder = Plain;
  Seeder.SeederInstrumentation = true;
  auto A = lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region,
                         Plain);
  auto B = lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region,
                         Seeder);
  EXPECT_GT(B->numInstrs(), A->numInstrs());
}

TEST(Lowering, TypeSpecializationShrinksCode) {
  TestVm Vm("function f($x) { return $x * 2 + 1; }");
  bc::FuncId F = Vm.Repo.findFunction("f");
  bc::BlockCache Blocks(Vm.Repo);

  profile::ProfileStore Mono;
  {
    profile::FuncProfile &P = Mono.getOrCreate(F.raw());
    const bc::Function &Func = Vm.Repo.func(F);
    for (uint32_t Pc = 0; Pc < Func.Code.size(); ++Pc)
      for (int I = 0; I < 100; ++I)
        P.LoadTypes[Pc].observe(runtime::Type::Int);
  }
  profile::ProfileStore Empty;

  RegionDescriptor Region;
  Region.Func = F;
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  auto Specialized =
      lowerFunction(Vm.Repo, Blocks, F, &Mono, &Region, Opts);
  auto Generic = lowerFunction(Vm.Repo, Blocks, F, &Empty, &Region, Opts);
  EXPECT_LT(Specialized->sizeBytes(), Generic->sizeBytes())
      << "monomorphic sites must lower to guard+op, not helper calls";
}

//===----------------------------------------------------------------------===//
// Region selection / inlining.
//===----------------------------------------------------------------------===//

namespace {

/// Seeds a store with block counts and entry counts so inlining fires.
void primeProfile(TestVm &Vm, profile::ProfileStore &Store,
                  const std::string &Name, uint64_t Entries) {
  bc::FuncId F = Vm.Repo.findFunction(Name);
  ASSERT_TRUE(F.valid());
  bc::BlockCache Blocks(Vm.Repo);
  profile::FuncProfile &P = Store.getOrCreate(F.raw());
  P.EntryCount = Entries;
  P.BlockCounts.assign(Blocks.blocks(F).numBlocks(), Entries);
}

} // namespace

TEST(Region, InlinesHotSmallCallee) {
  TestVm Vm("function callee($x) { return $x + 1; }"
            "function caller($x) { return callee($x) * 2; }");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "callee", 1000);
  primeProfile(Vm, Store, "caller", 1000);
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"));
  EXPECT_EQ(R.InlinedFuncs.size(), 1u);
  EXPECT_EQ(R.InlinedFuncs[0], Vm.Repo.findFunction("callee"));
}

TEST(Region, DoesNotInlineUnprofiledCallee) {
  TestVm Vm("function callee($x) { return $x + 1; }"
            "function caller($x) { return callee($x) * 2; }");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 1000); // callee unprofiled
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"));
  EXPECT_TRUE(R.InlinedFuncs.empty());
}

TEST(Region, RespectsSizeLimit) {
  // A callee with a big body (many statements) must not inline.
  std::string Big = "function callee($x) { $a = $x;";
  for (int I = 0; I < 60; ++I)
    Big += " $a = $a + " + std::to_string(I) + ";";
  Big += " return $a; }"
         "function caller($x) { return callee($x); }";
  TestVm Vm(Big);
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "callee", 1000);
  primeProfile(Vm, Store, "caller", 1000);
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store,
                                    Vm.Repo.findFunction("caller"));
  EXPECT_TRUE(R.InlinedFuncs.empty());
}

TEST(Region, DevirtualizesMonomorphicSite) {
  TestVm Vm("class C { prop $p; method m($x) { return $x + 1; } }"
            "function caller($o, $x) { return $o->m($x); }");
  bc::FuncId Caller = Vm.Repo.findFunction("caller");
  bc::FuncId Target = Vm.Repo.findFunction("C::m");
  ASSERT_TRUE(Target.valid());
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 100);
  // Find the FCallObj site.
  const bc::Function &F = Vm.Repo.func(Caller);
  uint32_t Site = ~0u;
  for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc)
    if (F.Code[Pc].Opcode == bc::Op::FCallObj)
      Site = Pc;
  ASSERT_NE(Site, ~0u);
  Store.getOrCreate(Caller.raw()).CallTargets[Site][Target.raw()] = 100;
  // Also profile the target so it is inline-eligible.
  primeProfile(Vm, Store, "C::m", 100);

  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R =
      selectRegion(Vm.Repo, Blocks, Store, Caller);
  // Monomorphic + small: devirtualize-and-inline.
  EXPECT_TRUE(R.inlinedCallee(Caller, Site).valid() ||
              R.devirtTarget(Caller, Site).valid());
}

TEST(Region, PolymorphicSiteStaysIndirect) {
  TestVm Vm("class A { prop $p; method m($x) { return $x; } }"
            "class B { prop $q; method m($x) { return $x * 2; } }"
            "function caller($o, $x) { return $o->m($x); }");
  bc::FuncId Caller = Vm.Repo.findFunction("caller");
  profile::ProfileStore Store;
  primeProfile(Vm, Store, "caller", 100);
  const bc::Function &F = Vm.Repo.func(Caller);
  uint32_t Site = ~0u;
  for (uint32_t Pc = 0; Pc < F.Code.size(); ++Pc)
    if (F.Code[Pc].Opcode == bc::Op::FCallObj)
      Site = Pc;
  ASSERT_NE(Site, ~0u);
  auto &Targets = Store.getOrCreate(Caller.raw()).CallTargets[Site];
  Targets[Vm.Repo.findFunction("A::m").raw()] = 50;
  Targets[Vm.Repo.findFunction("B::m").raw()] = 50;
  bc::BlockCache Blocks(Vm.Repo);
  RegionDescriptor R = selectRegion(Vm.Repo, Blocks, Store, Caller);
  EXPECT_FALSE(R.inlinedCallee(Caller, Site).valid());
  EXPECT_FALSE(R.devirtTarget(Caller, Site).valid());
}

//===----------------------------------------------------------------------===//
// Layout + placement.
//===----------------------------------------------------------------------===//

TEST(TransLayoutTest, PlacementAssignsDisjointAddresses) {
  TestVm Vm("function f($x) {"
            "  if ($x > 0) { $x = $x * 2; } else { $x = 0 - $x; }"
            "  return $x;"
            "}");
  bc::BlockCache Blocks(Vm.Repo);
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  TransDb Db;
  Translation &T = Db.create(
      TransKind::Optimized,
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts));
  CodeCache Cache;
  UnitLayout L = layoutUnit(*T.Unit, LayoutOptions());
  ASSERT_TRUE(placeTranslation(T, Cache, CodeArea::Hot, L));
  EXPECT_TRUE(T.Placed);
  // Every block has a unique address and blocks do not overlap
  // (accounting for trailing jumps elided when the target is adjacent).
  std::vector<std::pair<uint64_t, uint64_t>> Ranges;
  for (uint32_t B = 0; B < T.Unit->Blocks.size(); ++B) {
    uint64_t Start = T.BlockAddrs[B];
    ASSERT_NE(Start, 0u);
    uint64_t Size = T.Unit->Blocks[B].sizeBytes();
    if (T.JumpElided[B])
      Size -= T.Unit->Blocks[B].Instrs.back().SizeBytes;
    Ranges.push_back({Start, Start + Size});
  }
  std::sort(Ranges.begin(), Ranges.end());
  for (size_t I = 1; I < Ranges.size(); ++I)
    EXPECT_LE(Ranges[I - 1].second, Ranges[I].first)
        << "blocks must not overlap";
}

TEST(TransLayoutTest, InjectedCountsOverrideWeights) {
  TestVm Vm("function f($x) { if ($x > 0) { return 1; } return 2; }");
  bc::BlockCache Blocks(Vm.Repo);
  profile::ProfileStore Store;
  RegionDescriptor Region;
  Region.Func = Vm.Repo.findFunction("f");
  LowerOptions Opts;
  Opts.Kind = TransKind::Optimized;
  auto Unit =
      lowerFunction(Vm.Repo, Blocks, Region.Func, &Store, &Region, Opts);
  std::vector<uint64_t> Counts(Unit->Blocks.size());
  for (size_t I = 0; I < Counts.size(); ++I)
    Counts[I] = 1000 + I;
  injectVasmCounts(*Unit, Counts);
  for (size_t I = 0; I < Unit->Blocks.size(); ++I)
    EXPECT_EQ(Unit->Blocks[I].Weight, 1000 + I);
}

//===----------------------------------------------------------------------===//
// Tiering state machine (driven through real execution).
//===----------------------------------------------------------------------===//

namespace {

/// Drives a Jit through its lifecycle by executing a function repeatedly.
struct TieringFixture {
  TestVm Vm;
  JitConfig Config;
  std::unique_ptr<Jit> J;
  std::unique_ptr<JitProfilingHooks> Hooks;

  TieringFixture()
      : Vm("function helper($x) { return $x * 3 + 1; }"
           "function main($x) {"
           "  $s = 0; $i = 0;"
           "  while ($i < 8) { $s = $s + helper($x + $i); $i = $i + 1; }"
           "  return $s;"
           "}") {
    Config.ProfileRequestTarget = 5;
    J = std::make_unique<Jit>(Vm.Repo, Config);
    Hooks = std::make_unique<JitProfilingHooks>(*J);
    Vm.Interp->setCallbacks(Hooks.get());
  }

  void runRequest() {
    bc::FuncId Main = Vm.Repo.findFunction("main");
    J->onFuncEntered(Main);
    J->onFuncEntered(Vm.Repo.findFunction("helper"));
    Vm.Interp->call(Main, {runtime::Value::integer(3)});
    J->onRequestFinished();
  }

  void drainJit() {
    while (J->hasPendingWork())
      J->runJitWork(1e9);
  }

  /// Serves \p N requests, draining JIT work between them (as background
  /// workers would), so profile translations exist to collect data.
  void serve(int N) {
    for (int I = 0; I < N; ++I) {
      runRequest();
      drainJit();
    }
  }
};

} // namespace

TEST(Tiering, FullLifecycle) {
  TieringFixture Fix;
  EXPECT_EQ(Fix.J->phase(), JitPhase::Profiling);

  // Requests trigger profile compilation.
  Fix.runRequest();
  EXPECT_TRUE(Fix.J->hasPendingWork());
  Fix.drainJit();
  bc::FuncId Main = Fix.Vm.Repo.findFunction("main");
  const Translation *ProfTrans = Fix.J->transDb().best(Main);
  ASSERT_NE(ProfTrans, nullptr);
  EXPECT_EQ(ProfTrans->Kind, TransKind::Profile);

  // More requests: profiling window closes, retranslate-all fires.
  for (int I = 0; I < 6; ++I)
    Fix.runRequest();
  EXPECT_NE(Fix.J->phase(), JitPhase::Profiling);
  Fix.drainJit();
  EXPECT_EQ(Fix.J->phase(), JitPhase::Mature);

  const Translation *Opt = Fix.J->transDb().best(Main);
  ASSERT_NE(Opt, nullptr);
  EXPECT_EQ(Opt->Kind, TransKind::Optimized);
  EXPECT_TRUE(Opt->Placed);
  EXPECT_LT(Opt->CostPerBytecode, kInterpCostPerBytecode);
}

TEST(TransDb, BestIndexMatchesLookupRule) {
  // Drive a seeder through profiling, retranslate-all and the live tail;
  // after every JIT grant the indexed best() must equal the lookup rule
  // recomputed from forFunc: placed Optimized, else Live, else Profile.
  fleet::WorkloadParams P;
  P.NumHelpers = 80;
  P.NumClasses = 16;
  P.NumEndpoints = 8;
  P.NumUnits = 8;
  auto W = fleet::generateWorkload(P);
  vm::ServerConfig Config;
  Config.Jit.ProfileRequestTarget = 15;
  vm::Server Server(W->Repo, Config, /*Seed=*/7);
  Server.startup();
  const TransDb &Db = Server.theJit().transDb();

  uint32_t Checks = 0;
  auto Check = [&] {
    for (uint32_t Raw = 0; Raw < W->Repo.numFuncs(); ++Raw) {
      bc::FuncId F(Raw);
      const Translation *Expected = nullptr;
      for (TransKind K :
           {TransKind::Optimized, TransKind::Live, TransKind::Profile}) {
        const Translation *T = Db.forFunc(F, K);
        if (T && T->Placed) {
          Expected = T;
          break;
        }
      }
      ASSERT_EQ(Db.best(F), Expected) << "function " << Raw;
      ++Checks;
    }
  };
  Rng R(11);
  for (uint32_t I = 0; I < 120; ++I) {
    uint32_t E = R.nextBelow(static_cast<uint32_t>(W->Endpoints.size()));
    Server.executeRequest(W->Endpoints[E], fleet::TrafficModel::makeArgs(R));
    Server.grantJitTime(0.5);
    Check();
  }
  while (Server.theJit().hasPendingWork()) {
    Server.grantJitTime(1.0);
    Check();
  }
  ASSERT_EQ(Server.theJit().phase(), JitPhase::Mature);
  ASSERT_GT(Checks, 0u);
  uint32_t PlacedOfKind[3] = {};
  for (const auto &T : Db.all())
    if (T->Placed)
      ++PlacedOfKind[static_cast<size_t>(T->Kind)];
  EXPECT_GT(PlacedOfKind[static_cast<size_t>(TransKind::Profile)], 0u);
  EXPECT_GT(PlacedOfKind[static_cast<size_t>(TransKind::Optimized)], 0u);
}

TEST(Tiering, ProfilingCollectsData) {
  TieringFixture Fix;
  Fix.runRequest();
  Fix.drainJit();
  // Now main runs its profile translation: this request records counts.
  Fix.runRequest();
  bc::FuncId Main = Fix.Vm.Repo.findFunction("main");
  const profile::FuncProfile *P = Fix.J->profileStore().find(Main.raw());
  ASSERT_NE(P, nullptr);
  EXPECT_GT(P->EntryCount, 0u);
  EXPECT_FALSE(P->BlockCounts.empty());
  uint64_t Total = 0;
  for (uint64_t C : P->BlockCounts)
    Total += C;
  EXPECT_GT(Total, 0u);
}

TEST(Tiering, LiveTranslationsAfterMaturity) {
  TieringFixture Fix;
  for (int I = 0; I < 6; ++I)
    Fix.runRequest();
  Fix.drainJit();
  ASSERT_EQ(Fix.J->phase(), JitPhase::Mature);
  // A function never seen during profiling gets a live translation.
  TestVm &Vm = Fix.Vm;
  bc::FuncId Helper = Vm.Repo.findFunction("helper");
  (void)Helper;
  // Re-enter main (already optimized: no new work)...
  Fix.J->onFuncEntered(Vm.Repo.findFunction("main"));
  size_t JobsBefore = Fix.J->pendingJobs();
  EXPECT_EQ(JobsBefore, 0u);
}

TEST(Tiering, ConsumerPrecompileSkipsProfiling) {
  // Build a package from one VM's profiling, then feed it to a fresh Jit.
  TieringFixture Seeder;
  Seeder.serve(6);
  profile::ProfilePackage Pkg = Seeder.J->buildPackage(0, 0, 1, 0);
  EXPECT_GT(Pkg.numProfiledFuncs(), 0u);

  TieringFixture Consumer;
  // Fresh consumer Jit (unused requests).
  Jit Fresh(Consumer.Vm.Repo, Consumer.Config);
  Fresh.startConsumerPrecompile(Pkg);
  EXPECT_NE(Fresh.phase(), JitPhase::Profiling);
  while (Fresh.hasPendingWork())
    Fresh.runJitWork(1e9);
  EXPECT_EQ(Fresh.phase(), JitPhase::Mature);
  const Translation *T =
      Fresh.transDb().best(Consumer.Vm.Repo.findFunction("main"));
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Kind, TransKind::Optimized);
  EXPECT_TRUE(T->Placed);
}

TEST(Tiering, PackageCarriesPreloadListsAndOrder) {
  TieringFixture Fix;
  Fix.serve(6);
  profile::ProfilePackage Pkg = Fix.J->buildPackage(3, 4, 7, 0x99);
  EXPECT_EQ(Pkg.Region, 3u);
  EXPECT_EQ(Pkg.Bucket, 4u);
  EXPECT_EQ(Pkg.RepoFingerprint, 0x99u);
  EXPECT_FALSE(Pkg.Preload.Units.empty());
  EXPECT_FALSE(Pkg.Intermediate.FuncOrder.empty());
}

TEST(Tiering, JitWorkRespectsBudget) {
  TieringFixture Fix;
  Fix.runRequest();
  ASSERT_TRUE(Fix.J->hasPendingWork());
  double Consumed = Fix.J->runJitWork(10.0);
  EXPECT_LE(Consumed, 10.0 + 1e-9);
  EXPECT_TRUE(Fix.J->hasPendingWork())
      << "a tiny budget cannot finish a compile job";
}
