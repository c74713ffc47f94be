//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "jit/VasmTracer.h"

using namespace jumpstart;
using namespace jumpstart::jit;

/// Simulated address range of the interpreter's dispatch loop.  The
/// interpreter itself is compact, hot native code; interpreted bytecode
/// execution fetches from this small region (poor per-bytecode efficiency
/// comes from executing many dispatch instructions, not from fetch
/// misses).
static constexpr uint64_t kInterpBase = 0x08000000ull;
static constexpr uint64_t kInterpSize = 16 * 1024;

VasmTracer::VasmTracer(Jit &J, sim::MachineSim &Machine)
    : J(J), Machine(Machine) {}

void VasmTracer::onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                             const runtime::Value *Args, uint32_t NumArgs) {
  (void)Caller;
  (void)Args;
  (void)NumArgs;
  Frame F;
  Frame *Parent = top();
  if (Parent && Parent->Unit && Parent->Unit->isInlined(Callee)) {
    // Inlined body: tracing continues within the caller's unit.
    F.Trans = Parent->Trans;
    F.Unit = Parent->Unit;
    F.Blocks = Parent->Blocks;
  } else if (const Translation *T = J.transDb().best(Callee)) {
    // best() only returns placed translations.
    F.Trans = T;
    F.Unit = T->Unit.get();
    F.Blocks = summaries(*T);
  }
  Frames.push_back(F);
}

void VasmTracer::onFuncExit(bc::FuncId F) {
  (void)F;
  if (!Frames.empty())
    Frames.pop_back();
}

const VasmTracer::BlockSummary *
VasmTracer::summaries(const Translation &T) {
  if (T.Id >= Summaries.size())
    Summaries.resize(T.Id + 1);
  std::vector<BlockSummary> &Out = Summaries[T.Id];
  if (Out.size() == T.Unit->Blocks.size())
    return Out.data(); // already summarised (or nothing to summarise)
  Out.resize(T.Unit->Blocks.size());
  for (uint32_t VB = 0; VB < Out.size(); ++VB) {
    const std::vector<VInstr> &Instrs = T.Unit->Blocks[VB].Instrs;
    BlockSummary &S = Out[VB];
    uint64_t Addr = T.BlockAddrs[VB];
    // A jump elided at placement does not exist in the code stream.
    size_t Count = Instrs.size();
    if (Count && T.JumpElided[VB])
      --Count;
    for (size_t I = 0; I < Count; ++I) {
      Machine.appendFetch(S.Run, Addr, Instrs[I].SizeBytes);
      Addr += Instrs[I].SizeBytes;
    }
    S.TermAddr = T.BlockAddrs[VB];
    for (size_t I = 0; I + 1 < Instrs.size(); ++I)
      S.TermAddr += Instrs[I].SizeBytes;
    if (!Instrs.empty() && Instrs.back().Kind == VKind::CondBranch)
      S.CondEndAddr = S.TermAddr + Instrs.back().SizeBytes;
  }
  return Out.data();
}

void VasmTracer::onBlockEnter(bc::FuncId FuncId, uint32_t Block) {
  Frame *F = top();
  if (!F || !F->Blocks)
    return;
  // Inlined bodies register their blocks under their own FuncId.
  uint32_t VB = F->Unit->findBlock(FuncId, Block);
  if (VB == VasmUnit::kNoBlock)
    return;

  // Resolve the previous block's conditional branch now that we know
  // where control actually went.  "Taken" is a *layout* property: the
  // branch falls through when the next executed block is placed
  // physically adjacent; any other placement makes this a taken branch.
  // This is exactly the lever Ext-TSP block layout pulls (paper section
  // V-A): laying the hot successor next to the block converts its taken
  // branches into fallthroughs.
  if (F->LastVasmBlock != VasmUnit::kNoBlock) {
    const BlockSummary &Last = F->Blocks[F->LastVasmBlock];
    if (Last.CondEndAddr) {
      uint64_t NextAddr = F->Trans->BlockAddrs[VB];
      Machine.condBranch(Last.TermAddr, NextAddr != Last.CondEndAddr,
                         NextAddr);
    }
  }

  Machine.fetchRun(F->Blocks[VB].Run);
  F->LastVasmBlock = VB;
}

bool VasmTracer::wantsInstrTrace(bc::FuncId F) {
  // Per-instruction events are only needed for interpreted functions, to
  // model the dispatch loop's footprint.
  return J.transDb().best(F) == nullptr;
}

void VasmTracer::onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) {
  (void)F;
  (void)InstrIndex;
  (void)Depth;
  // One interpreted bytecode: several dispatch-loop instructions.  Model
  // as three fetches walking a small hot region.
  for (int I = 0; I < 3; ++I) {
    Machine.fetch(kInterpBase + (InterpCursor % kInterpSize), 12);
    InterpCursor += 64;
  }
}

void VasmTracer::onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                               bc::FuncId Callee) {
  (void)Caller;
  (void)InstrIndex;
  Frame *F = top();
  if (!F || !F->Trans)
    return;
  // Devirtualized or inlined sites compile to guarded direct calls; only
  // genuinely indirect sites stress the target predictor.
  if (F->Unit->isInlined(Callee))
    return;
  uint64_t Target = 0;
  if (const Translation *T = J.transDb().best(Callee))
    Target = T->entryAddr();
  uint64_t Pc = F->LastVasmBlock != VasmUnit::kNoBlock
                    ? F->Blocks[F->LastVasmBlock].TermAddr
                    : 0;
  Machine.indirectBranch(Pc, Target);
}

void VasmTracer::onPropAccess(bc::ClassId Cls, bc::StringId Prop,
                              bool IsWrite, uint64_t Addr) {
  (void)Cls;
  (void)Prop;
  Machine.dataAccess(Addr, IsWrite);
}

void VasmTracer::onDataAccess(uint64_t Addr, bool IsWrite) {
  Machine.dataAccess(Addr, IsWrite);
}
