//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "testing/Shrinker.h"

#include "support/Assert.h"

#include <cstddef>

using namespace jumpstart;
using namespace jumpstart::testing;

GenProgram
jumpstart::testing::shrinkProgram(GenProgram Prog,
                                  const ShrinkPredicate &StillFails,
                                  uint32_t MaxPredicateCalls,
                                  ShrinkStats *Stats) {
  ShrinkStats Local;
  ShrinkStats &S = Stats ? *Stats : Local;

  auto Try = [&](const GenProgram &Candidate) {
    if (S.PredicateCalls >= MaxPredicateCalls)
      return false;
    ++S.PredicateCalls;
    if (!StillFails(Candidate))
      return false;
    ++S.Removals;
    return true;
  };

  // Greedy fixpoint: each pass walks every removable unit once; repeat
  // while anything was removed.  Larger units first (whole functions,
  // whole classes) so statement passes run on an already-small program.
  bool Progress = true;
  while (Progress && S.PredicateCalls < MaxPredicateCalls) {
    Progress = false;

    for (size_t F = 0; F < Prog.Funcs.size();) {
      GenProgram Candidate = Prog;
      Candidate.Funcs.erase(Candidate.Funcs.begin() +
                            static_cast<ptrdiff_t>(F));
      if (Try(Candidate)) {
        Prog = std::move(Candidate);
        Progress = true;
      } else {
        ++F;
      }
    }

    for (size_t C = 0; C < Prog.Classes.size();) {
      GenProgram Candidate = Prog;
      Candidate.Classes.erase(Candidate.Classes.begin() +
                              static_cast<ptrdiff_t>(C));
      if (Try(Candidate)) {
        Prog = std::move(Candidate);
        Progress = true;
      } else {
        ++C;
      }
    }

    for (size_t F = 0; F < Prog.Funcs.size(); ++F) {
      for (size_t St = 0; St < Prog.Funcs[F].Stmts.size();) {
        GenProgram Candidate = Prog;
        Candidate.Funcs[F].Stmts.erase(
            Candidate.Funcs[F].Stmts.begin() + static_cast<ptrdiff_t>(St));
        if (Try(Candidate)) {
          Prog = std::move(Candidate);
          Progress = true;
        } else {
          ++St;
        }
      }
    }

    // Return-expression simplification: a constant return keeps the
    // function well-formed while discarding an irrelevant expression
    // tree.
    for (size_t F = 0; F < Prog.Funcs.size(); ++F) {
      if (Prog.Funcs[F].ReturnExpr == "0")
        continue;
      GenProgram Candidate = Prog;
      // assign(1, '0') rather than = "0": the same string, without gcc
      // 12's false-positive -Wrestrict on the literal assignment.
      Candidate.Funcs[F].ReturnExpr.assign(1, '0');
      if (Try(Candidate)) {
        Prog = std::move(Candidate);
        Progress = true;
      }
    }
  }
  return Prog;
}
