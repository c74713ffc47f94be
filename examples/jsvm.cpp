//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jsvm: a command-line driver for the VM substrate.
///
///   jsvm run <file.hack> [function] [int-arg]   compile + execute
///   jsvm disasm <file.hack> [function]          compile + disassemble
///   jsvm check <file.hack>                      compile + verify only
///   jsvm jit <file.hack> [--threads N]          retranslate-all on a
///                                               host compile pool
///   jsvm opts [k=v ...]                         parse + validate
///                                               Jump-Start options
///   jsvm fuzz [--programs N] [--seed S] ...     differential conformance
///                                               sweep (src/testing)
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disasm.h"
#include "bytecode/Verifier.h"
#include "core/JumpStartOptions.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "jit/ParallelRetranslate.h"
#include "runtime/ValueOps.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"
#include "testing/DiffRunner.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace jumpstart;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jsvm run <file.hack> [function] [int-arg]\n"
               "       jsvm disasm <file.hack> [function]\n"
               "       jsvm check <file.hack>\n"
               "       jsvm jit <file.hack> [--threads N]\n"
               "       jsvm opts [key=value ...]\n"
               "       jsvm fuzz [--programs N] [--seed S] [--requests N]\n"
               "                 [--full] [--skew K] [--repro DIR]\n");
  return 2;
}

bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buffer[64 * 1024];
  size_t N;
  while ((N = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Out.append(Buffer, N);
  bool Ok = std::ferror(F) == 0;
  std::fclose(F);
  return Ok;
}

/// Compiles and verifies \p Path into \p Repo; prints diagnostics.
/// \returns true on success.
bool compileFile(const char *Path, bc::Repo &Repo) {
  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "jsvm: cannot read '%s'\n", Path);
    return false;
  }
  const runtime::BuiltinTable &Builtins = runtime::BuiltinTable::standard();
  std::vector<std::string> Errors =
      frontend::compileUnit(Repo, Builtins, Path, Source);
  for (const std::string &E : Errors)
    std::fprintf(stderr, "%s\n", E.c_str());
  if (!Errors.empty())
    return false;
  std::vector<std::string> VErrors = bc::verifyRepo(Repo, Builtins.size());
  for (const std::string &E : VErrors)
    std::fprintf(stderr, "verifier: %s\n", E.c_str());
  return VErrors.empty();
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  const char *Command = argv[1];

  // `opts` takes option assignments, not a source file: parse them into a
  // JumpStartOptions, run the validator, and echo the effective
  // configuration in round-trippable key=value form.
  if (std::strcmp(Command, "opts") == 0) {
    core::JumpStartOptions Opts;
    for (int I = 2; I < argc; ++I) {
      support::Status S = Opts.parseAssignments(argv[I]);
      if (!S.ok()) {
        std::fprintf(stderr, "jsvm: %s\n", S.str().c_str());
        return 1;
      }
    }
    std::vector<std::string> Diags = Opts.validate();
    for (const std::string &D : Diags)
      std::fprintf(stderr, "jsvm: invalid options: %s\n", D.c_str());
    for (const auto &[Key, Value] : Opts.toKeyValues())
      std::printf("%s=%s\n", Key.c_str(), Value.c_str());
    return Diags.empty() ? 0 : 1;
  }

  // `fuzz` runs the differential conformance sweep: generated programs
  // executed under the full config matrix (interpreter vs JIT tiers vs
  // Jump-Start consumer boot), mismatches shrunk to reproducers.
  if (std::strcmp(Command, "fuzz") == 0) {
    jumpstart::testing::DiffParams P;
    bool Full = false;
    int64_t Skew = 0;
    for (int I = 2; I < argc; ++I) {
      // A number must parse whole into its field's type: "abc", "7x",
      // "-1" for a count or an out-of-range value is a usage error.
      auto NumArg = [&](auto &Out) {
        return I + 1 < argc && parseInteger(argv[++I], Out);
      };
      const char *Flag = argv[I];
      bool Ok = true;
      if (std::strcmp(Flag, "--programs") == 0)
        Ok = NumArg(P.NumPrograms);
      else if (std::strcmp(Flag, "--seed") == 0)
        Ok = NumArg(P.Seed);
      else if (std::strcmp(Flag, "--requests") == 0)
        Ok = NumArg(P.RequestsPerProgram);
      else if (std::strcmp(Flag, "--skew") == 0)
        Ok = NumArg(Skew);
      else if (std::strcmp(Flag, "--full") == 0)
        Full = true;
      else if (std::strcmp(Flag, "--repro") == 0 && I + 1 < argc)
        P.ReproDir = argv[++I];
      else
        Ok = false;
      if (!Ok)
        return usage();
    }
    P.Matrix = Full ? jumpstart::testing::fullMatrix()
                    : jumpstart::testing::smokeMatrix();
    if (Skew != 0) {
      // Self-test mode: inject an interpreter divergence the oracle must
      // catch (nonzero exit proves detection works end to end).
      jumpstart::testing::ExecConfig C = jumpstart::testing::skewConfig();
      C.IntAddSkew = Skew;
      P.Matrix = {P.Matrix.front(), C};
    }
    jumpstart::testing::DiffRunner Runner(std::move(P));
    jumpstart::testing::DiffStats Stats = Runner.run();
    for (const jumpstart::testing::Mismatch &M : Stats.Mismatches) {
      std::fprintf(stderr,
                   "jsvm: MISMATCH seed=%llu %s vs %s: %s\n",
                   static_cast<unsigned long long>(M.ProgramSeed),
                   M.ConfigA.c_str(), M.ConfigB.c_str(), M.What.c_str());
      if (!M.ArtifactPath.empty())
        std::fprintf(stderr, "jsvm:   reproducer (%zu lines): %s\n",
                     M.ShrunkLines, M.ArtifactPath.c_str());
    }
    std::printf("fuzz: %u programs, %u runs, %u jumpstart boots, "
                "%u digest comparisons, %zu mismatches, "
                "sweep digest %016llx\n",
                Stats.Programs, Stats.Runs, Stats.JumpStartBoots,
                Stats.DigestComparisons, Stats.Mismatches.size(),
                static_cast<unsigned long long>(Stats.SweepDigest));
    return Stats.Mismatches.empty() ? 0 : 1;
  }

  if (argc < 3)
    return usage();
  const char *Path = argv[2];

  bc::Repo Repo;
  if (!compileFile(Path, Repo))
    return 1;

  if (std::strcmp(Command, "check") == 0) {
    std::printf("%s: ok (%zu functions, %zu classes, %zu bytecodes)\n",
                Path, Repo.numFuncs(), Repo.numClasses(),
                Repo.totalBytecode());
    return 0;
  }

  if (std::strcmp(Command, "disasm") == 0) {
    if (argc >= 4) {
      bc::FuncId F = Repo.findFunction(argv[3]);
      if (!F.valid()) {
        std::fprintf(stderr, "jsvm: no function '%s'\n", argv[3]);
        return 1;
      }
      std::printf("%s", bc::disasmFunction(Repo, Repo.func(F)).c_str());
      return 0;
    }
    for (const bc::Function &F : Repo.funcs())
      std::printf("%s\n", bc::disasmFunction(Repo, F).c_str());
    return 0;
  }

  if (std::strcmp(Command, "jit") == 0) {
    // Retranslate-all over the file's functions with a synthetic
    // every-block-hot profile, lowered on --threads host workers.  The
    // summary is identical for any worker count (the pool only moves
    // wall-clock time); this is the CLI face of the --threads knob the
    // bench binaries expose.
    uint32_t Threads = 1;
    for (int I = 3; I < argc; ++I) {
      if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
        char *End = nullptr;
        Threads = static_cast<uint32_t>(std::strtoul(argv[++I], &End, 10));
        if (End == nullptr || *End != '\0')
          return usage();
      } else {
        return usage();
      }
    }
    jit::Jit J(Repo, jit::JitConfig());
    for (uint32_t F = 0; F < Repo.numFuncs(); ++F) {
      if (Repo.func(bc::FuncId(F)).Code.empty())
        continue;
      profile::FuncProfile &P = J.profileStore().getOrCreate(F);
      P.EntryCount = 1000;
      P.BlockCounts.assign(
          J.blockCache().blocks(bc::FuncId(F)).numBlocks(), 1000);
    }
    std::unique_ptr<support::ThreadPool> Pool;
    if (Threads > 1)
      Pool = std::make_unique<support::ThreadPool>(Threads);
    jit::ParallelRetranslate Driver(J, Pool.get());
    jit::RetranslateStats Stats = Driver.run(1e12);
    std::printf("%s: %zu functions compiled, %zu translations placed, "
                "%llu code bytes (%u host workers)\n",
                Path, Stats.FunctionsCompiled, Stats.TranslationsPlaced,
                static_cast<unsigned long long>(J.totalCodeBytes()),
                Stats.HostWorkers);
    std::printf("virtual cost: %.1f compile + %.1f relocate units\n",
                Stats.CompileUnits, Stats.RelocateUnits);
    return 0;
  }

  if (std::strcmp(Command, "run") == 0) {
    const char *Entry = argc >= 4 ? argv[3] : "main";
    bc::FuncId F = Repo.findFunction(Entry);
    if (!F.valid()) {
      std::fprintf(stderr, "jsvm: no function '%s'\n", Entry);
      return 1;
    }
    std::vector<runtime::Value> Args;
    for (uint32_t I = 0; I < Repo.func(F).NumParams; ++I) {
      int64_t V = (argc >= 5 && I == 0) ? std::strtoll(argv[4], nullptr, 10)
                                        : 0;
      Args.push_back(runtime::Value::integer(V));
    }

    runtime::ClassTable Classes(Repo);
    runtime::Heap Heap;
    interp::Interpreter Interp(Repo, Classes, Heap,
                               runtime::BuiltinTable::standard());
    std::string Output;
    Interp.setOutput(&Output);
    interp::InterpResult R = Interp.call(F, Args);
    if (!Output.empty())
      std::printf("%s", Output.c_str());
    if (!Output.empty() && Output.back() != '\n')
      std::printf("\n");
    std::printf("-> %s   [%llu bytecodes, %llu faults%s]\n",
                runtime::toString(R.Ret).c_str(),
                static_cast<unsigned long long>(R.Steps),
                static_cast<unsigned long long>(R.Faults),
                R.Ok ? "" : ", ABORTED");
    return R.Ok ? 0 : 1;
  }

  return usage();
}
