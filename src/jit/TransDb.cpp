//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/TransDb.h"

#include "support/Assert.h"
#include "support/StringUtil.h"

using namespace jumpstart;
using namespace jumpstart::jit;

TransDb::FuncMap &TransDb::mapFor(TransKind K) {
  switch (K) {
  case TransKind::Live:
    return LiveMap;
  case TransKind::Profile:
    return ProfileMap;
  case TransKind::Optimized:
    return OptMap;
  }
  unreachable("unhandled TransKind");
}

const TransDb::FuncMap &TransDb::mapFor(TransKind K) const {
  return const_cast<TransDb *>(this)->mapFor(K);
}

Translation &TransDb::create(TransKind Kind,
                             std::unique_ptr<VasmUnit> Unit) {
  auto T = std::make_unique<Translation>();
  T->Kind = Kind;
  T->Unit = std::move(Unit);
  // Execution cost: cost units per bytecode covered.  Calls model helper
  // overhead; everything else retires in about a unit.
  uint64_t Cost = 0;
  for (const VBlock &B : T->Unit->Blocks) {
    for (const VInstr &I : B.Instrs) {
      switch (I.Kind) {
      case VKind::Call:
      case VKind::IndCall:
        Cost += 4;
        break;
      case VKind::Counter:
        Cost += 2;
        break;
      default:
        Cost += 1;
        break;
      }
    }
  }
  T->CostPerBytecode =
      T->Unit->BytecodeCount
          ? static_cast<double>(Cost) /
                static_cast<double>(T->Unit->BytecodeCount)
          : 1.0;
  support::MutexLock Lock(M);
  T->Id = static_cast<uint32_t>(All.size());
  ElidedGuardCount += T->Unit->ElidedGuards.size();
  KindBytes[static_cast<size_t>(Kind)] += T->Unit->sizeBytes();
  bc::FuncId F = T->Unit->Func;
  // This may replace a placed translation of F with an unplaced one.
  mapFor(Kind).insertOrAssign(F.raw(), T->Id);
  All.push_back(std::move(T));
  refreshBest(F);
  return *All.back();
}

Translation *TransDb::forFuncLocked(bc::FuncId F, TransKind K) const {
  const uint32_t *Id = mapFor(K).find(F.raw());
  return Id ? All[*Id].get() : nullptr;
}

Translation *TransDb::forFunc(bc::FuncId F, TransKind K) {
  support::MutexLock Lock(M);
  return forFuncLocked(F, K);
}

const Translation *TransDb::forFunc(bc::FuncId F, TransKind K) const {
  support::MutexLock Lock(M);
  return forFuncLocked(F, K);
}

void TransDb::notePlaced(const Translation &T) {
  support::MutexLock Lock(M);
  refreshBest(T.func());
}

void TransDb::refreshBest(bc::FuncId F) {
  uint32_t Id = kNoTrans;
  for (TransKind K :
       {TransKind::Optimized, TransKind::Live, TransKind::Profile}) {
    const Translation *T = forFuncLocked(F, K);
    if (T && T->Placed) {
      Id = T->Id;
      break;
    }
  }
  if (F.raw() >= BestIds.size())
    BestIds.resize(F.raw() + 1, kNoTrans);
  BestIds[F.raw()] = Id;
}

std::string TransDb::placementDigest() const {
  support::MutexLock Lock(M);
  std::string Out;
  for (const auto &T : All)
    Out += strFormat("t%u %s f%u placed=%d entry=%llu blocks=%zu\n",
                     T->Id, transKindName(T->Kind), T->func().raw(),
                     T->Placed ? 1 : 0,
                     static_cast<unsigned long long>(T->entryAddr()),
                     T->BlockAddrs.size());
  return Out;
}
