//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workloads, the result accumulator, and the set-up every process
/// starts with: generating its part's site and, for the serve part,
/// drawing the serve request stream from the seed and computing its
/// reference outputs on the legacy interpreter engine.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "FigureCommon.h"

#include "bytecode/Verifier.h"
#include "frontend/Compiler.h"
#include "interp/Interpreter.h"
#include "runtime/Builtins.h"
#include "runtime/ValueOps.h"
#include "support/Hashing.h"
#include "support/StringUtil.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>

using namespace jumpstart;
using namespace jumpstart::e2e;

namespace {

const WorkloadSpec kWorkloads[] = {
    // The figures' partition.
    {"region0-bucket0", 0, 0},
    // Another region's hot endpoints in another semantic partition.
    {"region2-bucket5", 2, 5},
};

/// server_load's site: a third of the figures' code.
fleet::WorkloadParams compactSite() {
  fleet::WorkloadParams P;
  P.NumHelpers = 240;
  P.NumClasses = 48;
  P.NumEndpoints = 24;
  P.NumUnits = 24;
  return P;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  return strFormat("%.17g", V);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

/// Generates the site \p Params.
std::unique_ptr<fleet::Workload> generate(Run &Ctx,
                                          const fleet::WorkloadParams &Params) {
  SpanLog::Scope Span(Ctx.Log, Ctx.Main, "fleet.generate");
  return fleet::generateWorkload(Params);
}

/// Draws the serve stream the way server_load offers its traffic: every
/// endpoint of the site in equal share.  Each block of one ticket per
/// endpoint visits the endpoints in an order drawn from the seed; the
/// arguments are drawn from the seed too.
std::vector<Ticket> makeStream(const Run &Ctx, const fleet::Workload &W,
                               uint32_t N) {
  Rng R(deriveSeed(Ctx.Seed, 2));
  std::vector<bc::FuncId> Order = W.Endpoints;
  std::vector<Ticket> Stream;
  Stream.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    if (I % Order.size() == 0)
      R.shuffle(Order);
    Stream.push_back(Ticket{Order[I % Order.size()],
                            fleet::TrafficModel::makeArgs(R)});
  }
  return Stream;
}

/// Runs \p Stream serially on a bare legacy-engine interpreter, the
/// independent reference every served observable is compared to.
std::vector<vm::RequestObservables>
referenceRun(Run &Ctx, const fleet::Workload &W,
             const std::vector<Ticket> &Stream, uint64_t &Steps) {
  SpanLog::Scope Span(Ctx.Log, Ctx.Main, "interp.ref");
  runtime::ClassTable Classes(W.Repo);
  runtime::Heap Heap;
  interp::InterpOptions Opts;
  Opts.Engine = interp::InterpEngine::Legacy;
  interp::Interpreter Interp(W.Repo, Classes, Heap,
                             runtime::BuiltinTable::standard(), Opts);
  std::string Output;
  Interp.setOutput(&Output);
  std::vector<vm::RequestObservables> Ref(Stream.size());
  Steps = 0;
  for (size_t I = 0; I < Stream.size(); ++I) {
    interp::InterpResult Res = Interp.call(Stream[I].Endpoint, Stream[I].Args);
    Ref[I].Ret = runtime::toString(Res.Ret);
    Ref[I].Output = Output;
    Ref[I].Faults = Res.Faults;
    Ref[I].Ok = Res.Ok;
    Steps += Res.Steps;
    Heap.reset();
    Output.clear();
  }
  return Ref;
}

} // namespace

const WorkloadSpec *jumpstart::e2e::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : kWorkloads)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

double jumpstart::e2e::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double jumpstart::e2e::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

void jumpstart::e2e::pinThread(uint32_t Index) {
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int Cpu = 0; Cpu < CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &Set))
          Out.push_back(Cpu);
    return Out;
  }();
  if (Cpus.size() < 4)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Index % Cpus.size()], &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

uint64_t jumpstart::e2e::deriveSeed(uint64_t Seed, uint64_t Salt) {
  return hashCombine(hashCombine(0x6a756d7073746172ULL, Seed), Salt);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Results::sample(const std::string &Name, const char *Unit, double V) {
  Metric &M = Metrics[Name];
  M.Unit = Unit;
  M.Samples.push_back(V);
}

void Results::exact(const std::string &Name, const char *Unit, double V) {
  Metric &M = Metrics[Name];
  M.Unit = Unit;
  check(M.Samples.empty() || M.Samples.front() == V,
        strFormat("%s differs across repetitions: %.17g vs %.17g",
                  Name.c_str(), M.Samples.empty() ? V : M.Samples.front(),
                  V));
  M.Samples.push_back(V);
}

void Results::layer(const std::string &Name, const char *Unit, double V) {
  Metric &M = Layers[Name];
  M.Unit = Unit;
  M.Samples.push_back(V);
}

void Results::addLayer(const std::string &Name, const char *Unit, double V) {
  Metric &M = Layers[Name];
  M.Unit = Unit;
  if (M.Samples.empty())
    M.Samples.push_back(0);
  M.Samples.front() += V;
}

void Results::check(bool Ok, const std::string &What) {
  ++Checks;
  if (!Ok && Failures.size() < 50)
    Failures.push_back(What);
}

void Results::ops(uint64_t A, uint64_t F) {
  Attempted += A;
  Failed += F;
}

std::string Results::json(bool Traced) const {
  std::string Out = strFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"checks\": %llu, \"failures\": [",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed),
      static_cast<unsigned long long>(Checks));
  for (size_t I = 0; I < Failures.size(); ++I)
    Out += (I ? ", " : "") + jsonString(Failures[I]);
  Out += "], \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Metrics) {
    auto [Min, Max] = std::minmax_element(M.Samples.begin(), M.Samples.end());
    Out += strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\", "
                     "\"samples\": %zu, \"min\": %s, \"max\": %s}",
                     First ? "" : ", ", Name.c_str(),
                     jsonNumber(median(M.Samples)).c_str(), M.Unit.c_str(),
                     M.Samples.size(), jsonNumber(*Min).c_str(),
                     jsonNumber(*Max).c_str());
    First = false;
  }
  Out += "}, \"layers\": {";
  First = true;
  if (Traced) {
    for (const auto &[Name, M] : Layers) {
      Out += strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       First ? "" : ", ", Name.c_str(),
                       jsonNumber(median(M.Samples)).c_str(), M.Unit.c_str());
      First = false;
    }
  }
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

Run::Run(const WorkloadSpec &Spec, Part ThePart, uint64_t Seed, bool Traced)
    : Spec(Spec), ThePart(ThePart), Seed(Seed), Log(Traced),
      Main(Log.newBuffer()) {}

void jumpstart::e2e::setup(Run &Ctx) {
  if (Ctx.ThePart == Part::Lifecycle) {
    uint64_t T0 = nowNs();
    Site Standard;
    Standard.W = generate(Ctx, bench::standardSite());
    Standard.Traffic = std::make_unique<fleet::TrafficModel>(
        *Standard.W, fleet::TrafficParams(), deriveSeed(Ctx.Seed, 1));
    Ctx.R.sample("setup_s", "s", (nowNs() - T0) * 1e-9);
    Ctx.Standard = std::move(Standard);
    return;
  }

  uint64_t T0 = nowNs();
  Site Compact;
  Compact.W = generate(Ctx, compactSite());
  std::vector<Ticket> Stream =
      makeStream(Ctx, *Compact.W, kServePrefix + kServeTickets);
  uint64_t Steps = 0;
  std::vector<vm::RequestObservables> Ref =
      referenceRun(Ctx, *Compact.W, Stream, Steps);
  Ctx.R.sample("setup_s", "s", (nowNs() - T0) * 1e-9);

  Ctx.R.check(!Ctx.ReferenceSteps || Steps == Ctx.ReferenceSteps,
              "interp.steps differs across set-up repetitions");
  uint64_t Failed = 0;
  for (const vm::RequestObservables &O : Ref)
    Failed += !O.Ok || O.Faults;
  Ctx.R.check(Failed == 0,
              strFormat("%llu reference requests faulted or aborted",
                        static_cast<unsigned long long>(Failed)));
  Ctx.R.layer("interp.steps", "count", static_cast<double>(Steps));
  Ctx.Compact = std::move(Compact);
  Ctx.Stream = std::move(Stream);
  Ctx.Reference = std::move(Ref);
  Ctx.ReferenceSteps = Steps;
}

void jumpstart::e2e::timeFrontEnd(Run &Ctx) {
  // fleet::generateWorkload runs the front end and the verifier
  // internally; the traced run repeats both on the generated sources to
  // time them on their own.
  const uint32_t NumBuiltins =
      static_cast<uint32_t>(runtime::BuiltinTable::standard().size());
  const Site &S = Ctx.ThePart == Part::Serve ? Ctx.Compact : Ctx.Standard;
  std::vector<frontend::SourceFile> Files;
  for (const auto &[Name, Source] : S.W->Sources)
    Files.push_back(frontend::SourceFile{Name, Source});
  bc::Repo Repo;
  std::vector<std::string> Diags;
  {
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "frontend.compile");
    Diags = frontend::compileProgram(Repo, runtime::BuiltinTable::standard(),
                                     Files);
  }
  Ctx.R.check(Diags.empty(), "generated sources fail to compile");
  {
    SpanLog::Scope Span(Ctx.Log, Ctx.Main, "bytecode.verify");
    Diags = bc::verifyRepo(Repo, NumBuiltins);
  }
  Ctx.R.check(Diags.empty(), "generated bytecode fails to verify");
}
