//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared state of the end-to-end benchmark: the workloads, the
/// metric/check accumulator, and the per-process context of the three
/// phases (warmup, steady, serve).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_E2EBENCH_BENCH_H
#define JUMPSTART_E2EBENCH_BENCH_H

#include "Trace.h"

#include "fleet/Traffic.h"
#include "fleet/WorkloadGen.h"
#include "vm/Server.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace jumpstart::e2e {

/// One workload: the traffic partition (region, bucket) the warmup and
/// steady phases draw their requests from.  The sites themselves are
/// fixed: the figures' site for warmup and steady, server_load's site for
/// serve, whose stream covers every endpoint whatever the workload.
struct WorkloadSpec {
  const char *Name;
  uint32_t Region;
  uint32_t Bucket;
};

/// \returns the workload named \p Name, or null.
const WorkloadSpec *findWorkload(const std::string &Name);

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// Nearest-rank percentile \p P in [0, 1] of \p V (0 when empty).
double percentile(std::vector<double> V, double P);

/// Metrics, per-layer values and correctness checks of one run.
class Results {
public:
  /// Adds one host-timing sample; the reported value is the median.
  void sample(const std::string &Name, const char *Unit, double V);
  /// Records an exact (virtual or counted) output.  Every repetition must
  /// report the same value; a difference fails the run.
  void exact(const std::string &Name, const char *Unit, double V);
  /// Adds one per-layer sample (reported by the traced run, as the
  /// median of its samples).
  void layer(const std::string &Name, const char *Unit, double V);
  /// Adds \p V to a per-layer total (a single sample).
  void addLayer(const std::string &Name, const char *Unit, double V);
  /// A correctness check; a false \p Ok fails the run.
  void check(bool Ok, const std::string &What);
  /// Counts operations for the result's attempted/failed fields.
  void ops(uint64_t Attempted, uint64_t Failed);

  bool correct() const { return Failures.empty(); }
  /// The run's result as one JSON object (see main.cpp).
  std::string json(bool Traced) const;

private:
  struct Metric {
    std::string Unit;
    std::vector<double> Samples;
  };
  std::map<std::string, Metric> Metrics;
  std::map<std::string, Metric> Layers;
  std::vector<std::string> Failures;
  uint64_t Checks = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One serve request: the ticket's endpoint and argument.
struct Ticket {
  bc::FuncId Endpoint;
  std::vector<runtime::Value> Args;
};

/// A generated site and the traffic model over it.
struct Site {
  std::unique_ptr<fleet::Workload> W;
  std::unique_ptr<fleet::TrafficModel> Traffic;
};

/// The half of a benchmark run one jsbench process makes.  run.py starts
/// one process per part, so no figure depends on what else ran earlier
/// in the same process.
enum class Part {
  /// The serve phase on server_load's site.
  Serve,
  /// The warmup and steady phases on the figures' site.
  Lifecycle,
};

/// Everything the phases of one process share.
struct Run {
  Run(const WorkloadSpec &Spec, Part ThePart, uint64_t Seed, bool Traced);

  const WorkloadSpec &Spec;
  const Part ThePart;
  const uint64_t Seed;
  SpanLog Log;
  SpanBuffer &Main;
  Results R;

  // Built by setup().
  /// Lifecycle part: bench::standardSite() and its traffic model.
  Site Standard;
  /// Serve part: server_load's site (no traffic model; see Stream).
  Site Compact;
  /// The serve request stream (serial prefix, then the window's tickets),
  /// shared by every serve window: server_load's traffic, every endpoint
  /// of the site in equal share.
  std::vector<Ticket> Stream;
  /// Legacy-engine reference observables of Stream, index = ticket.
  std::vector<vm::RequestObservables> Reference;
  /// Interpreter steps of the reference run.
  uint64_t ReferenceSteps = 0;
  /// Load-generator lateness of every serve ticket a worker waited for.
  std::vector<double> LagUs;
};

/// Pins the calling thread to the \p Index-th CPU the process was allowed
/// to use at its first call.  A no-op below four CPUs.  The main thread
/// and the serve compile thread share CPU 3; the three serve workers get
/// CPUs 0-2, so the scheduler's placement of fresh threads never puts two
/// busy threads on one CPU.
void pinThread(uint32_t Index);

/// A seed derived from the run seed, distinct per \p Salt.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

/// Serve-phase sizes, needed by setup() to draw the stream.
constexpr uint32_t kServePrefix = 300;
constexpr uint32_t kServeTickets = 3000;

/// Builds the part's inputs (one setup_s sample; a repeated set-up
/// replaces the previous one): for serve, server_load's site, the serve
/// stream and its reference outputs; for lifecycle, the figures' site and
/// its traffic model.
void setup(Run &Ctx);
/// Times the front end and the verifier on the part's site sources.
void timeFrontEnd(Run &Ctx);

/// One repetition of a phase's measured unit of work.
using PhaseRep = std::function<void()>;
/// Each prepares its phase (untimed) and returns its repetition:
///  - warmup: the paper's Figure 4 lifecycle (seeder, package, consumer
///    boots, a simulated warmup window with and without Jump-Start);
///  - steady: Figure 5's simulated steady state on a Jump-Start consumer
///    and on a self-warmed server;
///  - serve: three open-loop windows at a fixed offered rate.
PhaseRep prepareWarmup(Run &Ctx);
PhaseRep prepareSteady(Run &Ctx);
PhaseRep prepareServe(Run &Ctx);
/// Searches the offered-rate ladder once for serve_rps.
void searchServeCapacity(Run &Ctx);

} // namespace jumpstart::e2e

#endif // JUMPSTART_E2EBENCH_BENCH_H
