//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Grammar-directed fuzzing: generate random (syntactically valid)
/// mini-Hack programs with testing::generateProgram (the differential
/// oracle's generator) and check the pipeline invariants -- everything the
/// compiler accepts must verify, and everything that verifies must
/// execute without crashing the VM (dynamic faults are fine; crashes and
/// verifier escapes are not).  Also cross-checks that JIT observation
/// hooks never change results on the fuzzed programs.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/Jit.h"
#include "jit/Recorders.h"
#include "runtime/Builtins.h"
#include "runtime/ValueOps.h"
#include "testing/Corpus.h"
#include "testing/PackageMutator.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace jumpstart;
namespace jstest = jumpstart::testing;

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipeline, CompileVerifyExecute) {
  std::string Source =
      jstest::generateProgram({.Seed = GetParam()}).render();

  bc::Repo Repo;
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileUnit(Repo, Builtins, "fuzz.hack", Source);
  ASSERT_TRUE(Errors.empty())
      << "fuzzer emitted an invalid program (seed " << GetParam()
      << "): " << Errors[0] << "\n"
      << Source;

  // Invariant 1: accepted programs verify.
  std::vector<std::string> VErrors = bc::verifyRepo(Repo, Builtins.size());
  ASSERT_TRUE(VErrors.empty())
      << "verifier escape (seed " << GetParam() << "): " << VErrors[0]
      << "\n" << Source;

  // Invariant 2: verified programs execute without crashing, observed or
  // not, and observation never changes results.
  runtime::ClassTable Classes(Repo);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.StepBudget = 2'000'000;
  interp::Interpreter Interp(Repo, Classes, Heap, Builtins, Opts);
  std::string Output;
  Interp.setOutput(&Output);

  jit::Jit J(Repo, jit::JitConfig());
  jit::JitProfilingHooks Hooks(J);

  for (const bc::Function &F : Repo.funcs()) {
    if (F.isMethod())
      continue;
    std::vector<runtime::Value> Args;
    for (uint32_t P = 0; P < F.NumParams; ++P)
      Args.push_back(runtime::Value::integer(7));

    Interp.setCallbacks(nullptr);
    interp::InterpResult Plain = Interp.call(F.Id, Args);
    std::string PlainOut = Output;
    // Render the return value before the reset: it may point into the heap.
    std::string PlainRet = runtime::toString(Plain.Ret);
    Heap.reset();
    Output.clear();

    Interp.setCallbacks(&Hooks);
    interp::InterpResult Observed = Interp.call(F.Id, Args);
    std::string ObservedRet = runtime::toString(Observed.Ret);
    Heap.reset();

    EXPECT_EQ(Plain.Ok, Observed.Ok);
    EXPECT_EQ(Plain.Steps, Observed.Steps);
    EXPECT_EQ(Plain.Faults, Observed.Faults);
    EXPECT_EQ(PlainRet, ObservedRet)
        << "observation changed a result (seed " << GetParam() << ", "
        << F.Name << ")\n" << Source;
    EXPECT_EQ(Output, PlainOut);
    Output.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<uint64_t>(1, 25));

//===----------------------------------------------------------------------===//
// Package-mutation fuzzing.
//
// The checkers live in src/testing/PackageMutator.h (shared with the
// corpus replayer); these tests drive them across a seed range and, on
// failure, dump a replayable (kind, seed) corpus entry so the regression
// is pinned forever.  tests/CorpusReplayTest.cpp replays every checked-in
// entry on every run.
//===----------------------------------------------------------------------===//

namespace {

/// On failure, writes a corpus entry to $JUMPSTART_CORPUS_DUMP_DIR (or
/// the checked-in corpus dir) so the failing seed can be committed as a
/// permanent regression test.
void dumpCorpusOnFailure(const std::string &Kind, uint64_t Seed,
                         const std::string &Failure) {
  if (Failure.empty())
    return;
  const char *DumpDir = std::getenv("JUMPSTART_CORPUS_DUMP_DIR");
  jstest::CorpusEntry E;
  E.Kind = Kind;
  E.Seed = Seed;
  E.Note = Failure;
  std::string Path;
  if (jstest::writeCorpusEntry(DumpDir ? DumpDir : JUMPSTART_CORPUS_DIR,
                               E, &Path)
          .ok())
    ADD_FAILURE() << "corpus entry dumped to " << Path
                  << " -- commit it to pin this regression";
}

const jstest::MutationEnv &sharedEnv() {
  // Built once per process: the env runs a full seeder workflow.
  static const jstest::MutationEnv Env = jstest::buildMutationEnv();
  return Env;
}

} // namespace

class PackageFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PackageFuzz, ByteFlipsAndTruncationsFailCleanly) {
  std::string Failure = jstest::checkByteFlips(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_byteflip", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, StructMutationsAreCaughtOrHarmless) {
  std::string Failure =
      jstest::checkStructMutation(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_struct", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, DistributionCorruptionFallsBack) {
  std::string Failure =
      jstest::checkDistributionCorruption(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_distribution", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

TEST_P(PackageFuzz, RebasedPackageSurvivesDrift) {
  std::string Failure = jstest::checkDriftRebase(sharedEnv(), GetParam());
  dumpCorpusOnFailure("pkg_drift", GetParam(), Failure);
  EXPECT_EQ(Failure, "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackageFuzz,
                         ::testing::Range<uint64_t>(1, 13));
