//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowering: bytecode -> Vasm.
///
/// Three flavours, matching the paper's translation kinds:
///  - Live: generic lowering of one function, no profile data.
///  - Profile: generic lowering plus an instrumentation counter per block
///    (the tier-1 translations that collect the Jump-Start profile).
///  - Optimized: type-specialized lowering driven by tier-1 observations,
///    with the region's inline plan applied (callee bodies embedded) and
///    virtual sites devirtualized behind guards.
///
/// Block weights: optimized units get weights derived from the tier-1
/// bytecode-block counters.  That derivation is deliberately *lossy*
/// (counts quantize to powers of two, inlined copies are scaled by a
/// call-site estimate, guard exits are guessed) -- modelling the semantic
/// gap between where HHVM collects profiles (bytecode) and where layout
/// runs (Vasm), which section V-A identifies as the inaccuracy Jump-Start
/// fixes by re-profiling at the Vasm level on seeders.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_JIT_LOWER_H
#define JUMPSTART_JIT_LOWER_H

#include "jit/ProvenFacts.h"
#include "jit/Region.h"
#include "jit/Translation.h"

#include <memory>

namespace jumpstart::jit {

/// Lowering controls.
struct LowerOptions {
  TransKind Kind = TransKind::Live;
  /// Seeder-side instrumentation of optimized code: adds a counter to
  /// every Vasm block and to function entries (paper sections V-A, V-B).
  bool SeederInstrumentation = false;
  /// ShareJIT-style constraints (paper section III / ShareJit, OOPSLA
  /// 2018): produce machine code that can be shared byte-for-byte across
  /// processes.  Absolute addresses must not be embedded -- literal
  /// strings, direct call targets and class pointers go through
  /// indirection tables -- and user-defined functions are never inlined.
  bool SharedCodeConstraints = false;
  /// Whole-program proven facts (non-owning; the Jit's config keeps them
  /// alive).  When set, optimized lowering elides guards the analysis
  /// proved redundant and specializes sites whose types are proven even
  /// without profile monomorphy, recording every elision on the unit.
  const ProvenFacts *Facts = nullptr;
};

/// Lowers \p Func.  For optimized kind, \p Store supplies type and block
/// profiles and \p Region the inline plan; both may be null for
/// live/profile kinds.
std::unique_ptr<VasmUnit>
lowerFunction(const bc::Repo &R, bc::BlockCache &Blocks, bc::FuncId Func,
              const profile::ProfileStore *Store,
              const RegionDescriptor *Region, const LowerOptions &Opts);

/// Extra layout edges (call-site -> inlined-callee-entry) that are not
/// Vasm successor links but matter for block placement.
struct LayoutEdge {
  uint32_t Src;
  uint32_t Dst;
};

/// Lowering records these on the unit via this side table (keyed by unit
/// address is clumsy; they are returned through the unit itself).
/// See VasmUnit::CallEdges.

} // namespace jumpstart::jit

#endif // JUMPSTART_JIT_LOWER_H
