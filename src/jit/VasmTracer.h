//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Vasm shadow tracer: "executes" the laid-out machine code.
///
/// While the interpreter runs a request semantically, the tracer follows
/// the placed Vasm blocks of the translations each function executes in,
/// feeding the machine simulator: instruction fetches at the blocks'
/// placed addresses, conditional-branch outcomes (resolved by observing
/// which block executes next), indirect-call targets for virtual dispatch,
/// and the actual data addresses of property and container accesses.
///
/// This is how every layout decision -- Ext-TSP block order, hot/cold
/// placement, the function order in the code cache, property slot
/// assignment -- becomes visible to the caches, TLBs and branch predictors
/// of Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_VASMTRACER_H
#define JUMPSTART_JIT_VASMTRACER_H

#include "interp/ExecCallbacks.h"
#include "jit/Jit.h"
#include "sim/Machine.h"

#include <vector>

namespace jumpstart::jit {

/// Attach to the interpreter during steady-state measurement runs.
class VasmTracer : public interp::ExecCallbacks {
public:
  VasmTracer(Jit &J, sim::MachineSim &Machine);

  void onFuncEnter(bc::FuncId Callee, bc::FuncId Caller,
                   const runtime::Value *Args, uint32_t NumArgs) override;
  void onFuncExit(bc::FuncId F) override;
  void onBlockEnter(bc::FuncId F, uint32_t Block) override;
  bool wantsInstrTrace(bc::FuncId F) override;
  void onInstr(bc::FuncId F, uint32_t InstrIndex, uint32_t Depth) override;
  void onVirtualCall(bc::FuncId Caller, uint32_t InstrIndex,
                     bc::FuncId Callee) override;
  void onPropAccess(bc::ClassId Cls, bc::StringId Prop, bool IsWrite,
                    uint64_t Addr) override;
  void onDataAccess(uint64_t Addr, bool IsWrite) override;

private:
  /// What executing one placed Vasm block does, computed once per
  /// translation from its BlockAddrs, JumpElided and the machine's line
  /// and page size.  A placed translation's addresses never change
  /// (placeTranslation sets them once), so a summary stays valid for the
  /// tracer's lifetime.
  struct BlockSummary {
    /// The instructions fetched (an elided jump is not in the stream).
    sim::FetchRun Run;
    /// Address of the block's last instruction (the branch pc).
    uint64_t TermAddr = 0;
    /// Fallthrough address of a block ending in a conditional branch;
    /// 0 for any other block.
    uint64_t CondEndAddr = 0;
  };

  struct Frame {
    /// The translation whose blocks this frame traces (null: interpreted).
    const Translation *Trans = nullptr;
    const VasmUnit *Unit = nullptr;
    /// Trans's block summaries, indexed by Vasm block (null: interpreted).
    const BlockSummary *Blocks = nullptr;
    /// Previously traced Vasm block (to resolve branch outcomes).
    uint32_t LastVasmBlock = VasmUnit::kNoBlock;
  };

  Frame *top() { return Frames.empty() ? nullptr : &Frames.back(); }
  const BlockSummary *summaries(const Translation &T);

  Jit &J;
  sim::MachineSim &Machine;
  std::vector<Frame> Frames;
  /// Block summaries by translation id, filled on a translation's first
  /// traced entry.  Growing the outer vector moves the inner ones, so the
  /// Frame::Blocks pointers into them stay valid.
  std::vector<std::vector<BlockSummary>> Summaries;
  /// Round-robin cursor for interpreter-loop fetches.
  uint64_t InterpCursor = 0;
};

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_VASMTRACER_H
