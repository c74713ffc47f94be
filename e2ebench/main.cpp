//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// jsbench: one part of one end-to-end benchmark run of one workload.
///
///   jsbench --workload NAME --part serve|lifecycle --seed N --seconds S
///           --trace 0|1 [--spans PATH]
///
/// Sets up three times (setup_s is the median), then spends S host
/// seconds on rounds of the part's phases: the serve phase (followed by
/// one search of the serve capacity), or the warmup and steady phases
/// (one repetition of each per round).  Every part makes at least
/// kMinRounds rounds.  Prints one JSON object: the correctness verdict
/// and operation counts, every end-to-end metric of the part with its
/// unit and sample count, and -- with --trace 1 -- the per-layer metrics
/// and the busy and self time of every span.  --spans writes the raw
/// spans as JSON lines.  run.py runs both parts, one process each, and
/// merges their results.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StringUtil.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace jumpstart;
using namespace jumpstart::e2e;

namespace {

/// Span name -> per-layer metric stem; `Counted` spans also report _n.
struct LayerSpan {
  const char *Span;
  bool Counted;
};
constexpr LayerSpan kLayerSpans[] = {
    {"fleet.generate", false},   {"frontend.compile", false},
    {"bytecode.verify", false},  {"vm.execute", true},
    {"jit.grant", false},        {"profile.build", false},
    {"profile.encode", false},   {"core.publish", false},
    {"core.boot", false},        {"profile.decode", false},
    {"analysis.lint", false},    {"fleet.warmup_js", false},
    {"fleet.warmup_nojs", false}, {"vm.startup", false},
    {"fleet.steady_run", false}, {"vm.begin", false},
    {"vm.serve", true},          {"interp.ref", false},
    {"jit.background", true},
};

constexpr uint32_t kSetups = 3;
constexpr uint32_t kMinRounds = 3;
constexpr uint32_t kMaxRounds = 64;

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --part serve|lifecycle --seed N "
               "--seconds S --trace 0|1 [--spans PATH]\n",
               Argv0);
  std::exit(2);
}

bool parseUInt(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End != S && *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  const WorkloadSpec *Spec = nullptr;
  uint64_t Seed = 0, Trace = 2;
  double Seconds = 0;
  std::string SpansPath, PartName;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    if (I + 1 >= argc)
      usage(argv[0]);
    std::string Flag = argv[I];
    const char *V = argv[++I];
    if (Flag == "--workload")
      Spec = findWorkload(V);
    else if (Flag == "--seed")
      HaveSeed = parseUInt(V, Seed);
    else if (Flag == "--part")
      PartName = V;
    else if (Flag == "--seconds") {
      char *End = nullptr;
      Seconds = std::strtod(V, &End);
      if (End == V || *End != '\0')
        usage(argv[0]);
    } else if (Flag == "--trace") {
      if (!parseUInt(V, Trace))
        usage(argv[0]);
    } else if (Flag == "--spans")
      SpansPath = V;
    else
      usage(argv[0]);
  }
  if (!Spec || !HaveSeed || !(Seconds > 0) || Trace > 1 ||
      (PartName != "serve" && PartName != "lifecycle"))
    usage(argv[0]);
  const Part ThePart = PartName == "serve" ? Part::Serve : Part::Lifecycle;

  // Fine-grained sleeps for the open-loop generator (inherited by every
  // thread the run starts).
  prctl(PR_SET_TIMERSLACK, 1000UL);
  pinThread(3);
  Run Ctx(*Spec, ThePart, Seed, Trace == 1);
  // Per-layer busy time and calls: the median over the repetitions of
  // each group (set-ups, the front-end timing, rounds), summed over the
  // groups that call the span.  The phases' preparation and the capacity
  // search belong to no group.
  enum Group { Setup, FrontEnd, Rounds, NumGroups };
  std::map<std::string, std::vector<SpanTotals>> PerRep[NumGroups];
  std::map<std::string, SpanTotals> Prev;
  auto EndRepetition = [&](int G) {
    std::map<std::string, SpanTotals> Now = Ctx.Log.totals();
    for (const auto &[Name, T] : Now) {
      const SpanTotals &P = Prev[Name];
      if (G >= 0 && T.Calls > P.Calls)
        PerRep[G][Name].push_back(SpanTotals{T.Seconds - P.Seconds,
                                             T.SelfSeconds - P.SelfSeconds,
                                             T.Calls - P.Calls});
    }
    Prev = std::move(Now);
  };

  for (uint32_t I = 0; I < kSetups; ++I) {
    setup(Ctx);
    EndRepetition(Setup);
  }
  if (Ctx.Log.enabled()) {
    timeFrontEnd(Ctx);
    EndRepetition(FrontEnd);
  }
  // Rounds of the part's phases, one repetition of each per round, for
  // the run's seconds.  Phases that share rounds take turns, so slow
  // drifts of host speed spread over all of their samples.
  std::vector<PhaseRep> Phases;
  if (ThePart == Part::Serve)
    Phases.push_back(prepareServe(Ctx));
  else
    Phases = {prepareWarmup(Ctx), prepareSteady(Ctx)};
  EndRepetition(-1);
  const uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (uint32_t Round = 0; Round < kMaxRounds; ++Round) {
    if (Round >= kMinRounds && nowNs() >= End)
      break;
    for (PhaseRep &Rep : Phases)
      Rep();
    EndRepetition(Rounds);
  }
  if (ThePart == Part::Serve) {
    // serve_rps is not gated (see README.md), so one search per run.
    searchServeCapacity(Ctx);
    Ctx.R.layer("loadgen.lag_p99_us", "us", percentile(Ctx.LagUs, 0.99));
  }

  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  Ctx.R.sample("peak_rss_mb", "MB", Usage.ru_maxrss / 1024.0);

  // A span this part never calls is left to the other part.
  for (const LayerSpan &L : kLayerSpans) {
    double Seconds = 0, Calls = 0;
    bool Called = false;
    for (const auto &Reps : PerRep) {
      auto It = Reps.find(L.Span);
      if (It == Reps.end())
        continue;
      Called = true;
      std::vector<double> S, C;
      for (const SpanTotals &T : It->second) {
        S.push_back(T.Seconds);
        C.push_back(static_cast<double>(T.Calls));
      }
      Seconds += median(S);
      Calls += median(C);
    }
    if (!Called)
      continue;
    Ctx.R.layer(strFormat("%s_s", L.Span), "s", Seconds);
    if (L.Counted)
      Ctx.R.layer(strFormat("%s_n", L.Span), "count", Calls);
  }
  if (!SpansPath.empty() && Ctx.Log.enabled() && !Ctx.Log.write(SpansPath))
    Ctx.R.check(false, "cannot write " + SpansPath);

  std::string Out = Ctx.R.json(Ctx.Log.enabled());
  Out += ", \"spans\": {";
  bool First = true;
  for (const auto &[Name, T] : Ctx.Log.totals()) {
    if (!T.Calls)
      continue;
    Out += strFormat("%s\"%s\": {\"seconds\": %.9f, \"self_seconds\": %.9f, "
                     "\"calls\": %llu}",
                     First ? "" : ", ", Name.c_str(), T.Seconds,
                     T.SelfSeconds, static_cast<unsigned long long>(T.Calls));
    First = false;
  }
  std::printf("%s}}\n", Out.c_str());
  return 0;
}
