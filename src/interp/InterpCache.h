//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function execution metadata for the interpreter.
///
/// Computed once per function on first call and cached here.  The
/// bytecode verifier (bytecode/Verifier.h) is the gate: frames run only
/// verified functions, and a call to an unverified one faults (Null
/// result, one fault) on either engine.  For verified functions the fast
/// engine (interp/Interpreter.cpp) relies on three pieces of statically
/// derived information:
///
///  - Run lengths for bulk step accounting: a "run" is the straight-line
///    instruction sequence ending at (and including) the next
///    branch/terminal/call.  Charging a whole run against the step budget
///    at its first instruction is exactly equivalent to the legacy
///    per-instruction check: a run, once entered, executes completely, and
///    because calls end runs the global step counter agrees with the
///    legacy engine's at every callee entry and every abort point.
///
///  - The maximum operand-stack depth the verifier's stack-depth pass
///    reports.  It lets a frame's locals and stack be carved out of the
///    request FrameArena in one allocation with no per-push growth checks.
///
///  - Inline caches for property and method dispatch sites, keyed by the
///    receiver's ClassLayout.  They live here, outside the immutable
///    bytecode, in a side table indexed by Pc.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_INTERP_INTERPCACHE_H
#define JUMPSTART_INTERP_INTERPCACHE_H

#include "bytecode/Repo.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace jumpstart::interp {

/// One monomorphic inline cache.  For GetProp/SetProp sites Key is the
/// receiver's ClassLayout and Payload the physical slot; for FCallObj
/// sites Key is the layout and Payload the resolved raw FuncId.  A null
/// Key means the site has not yet cached a successful lookup; negative
/// lookups are never cached.
struct ICEntry {
  const void *Key = nullptr;
  uint64_t Payload = 0;
};

/// Static execution metadata for one function (see file comment).
struct FuncExecInfo {
  /// RunLen[I]: instructions from I through the end of I's run,
  /// inclusive.  Empty when !Verified.
  std::vector<uint32_t> RunLen;

  /// Inline caches indexed by Pc.  Empty when !Verified or the function
  /// has no cacheable site.
  std::vector<ICEntry> ICs;

  /// Maximum operand-stack depth over all paths, as the verifier reports.
  uint32_t MaxStack = 0;

  /// True when the verifier found no issue.  Calls to an unverified
  /// function fault without running a frame.
  bool Verified = false;
};

/// Verifies \p F against \p R (\p NumBuiltins bounds its NativeCall
/// immediates) and computes its FuncExecInfo (exposed for tests).
FuncExecInfo computeExecInfo(const bc::Repo &R, const bc::Function &F,
                             uint32_t NumBuiltins);

/// Caches FuncExecInfo per FuncId, plus deterministic inline-cache hit
/// statistics.  One instance per Interpreter; not thread-safe, matching
/// the single-threaded simulated servers.
class InterpCaches {
public:
  InterpCaches(const bc::Repo &R, uint32_t NumBuiltins)
      : R(R), NumBuiltins(NumBuiltins) {}

  /// The (lazily computed) execution metadata for \p F.
  FuncExecInfo &info(bc::FuncId F) {
    if (Cache.size() < R.numFuncs())
      Cache.resize(R.numFuncs());
    auto &Slot = Cache[F.raw()];
    if (!Slot)
      Slot = std::make_unique<FuncExecInfo>(
          computeExecInfo(R, R.func(F), NumBuiltins));
    return *Slot;
  }

  /// Deterministic counters (bumped only by the fast engine; the bench
  /// and CI perf smoke compare them byte-for-byte across runs).
  uint64_t ICHits = 0;
  uint64_t ICMisses = 0;

private:
  const bc::Repo &R;
  uint32_t NumBuiltins;
  std::vector<std::unique_ptr<FuncExecInfo>> Cache;
};

} // namespace jumpstart::interp

#endif // JUMPSTART_INTERP_INTERPCACHE_H
