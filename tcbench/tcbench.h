// Shared declarations of the TC-Tree server benchmark (see README.md).
#ifndef TCBENCH_TCBENCH_H_
#define TCBENCH_TCBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tc_tree.h"
#include "core/tc_tree_update.h"
#include "net/database_network.h"
#include "serve/line_protocol.h"
#include "serve/query_backend.h"
#include "util/rng.h"

namespace tcbench {

using tcf::DatabaseNetwork;
using tcf::ItemDictionary;
using tcf::NetworkUpdate;
using tcf::ServeQuery;
using tcf::TcTreeOptions;
using tcf::WireTruss;

// ---------------------------------------------------------------- threads
//
// Fixed, so the figures do not follow the machine's core count: two
// server workers, two build/replay threads, one event loop and one
// client thread fit a 4-vCPU box without oversubscription.
inline constexpr size_t kServerWorkers = 2;
inline constexpr size_t kBuildThreads = 2;

// -------------------------------------------------------------- workloads

enum class WorkloadKind { kHotRead, kColdWalk, kUpdateMix };

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

/// The network a workload serves: fixed per workload, like a dataset
/// (the run's seed drives the traffic). `tiny` shrinks it for the
/// self-check smoke runs.
DatabaseNetwork MakeNetwork(WorkloadKind kind, bool tiny);

/// Build options of the served tree: a complete depth-3 tree on SYN, a
/// complete tree on BK-like, always at kBuildThreads.
TcTreeOptions BuildOptions(WorkloadKind kind);

/// Wire query lines, generated deterministically from a seed.
class QueryStream {
 public:
  virtual ~QueryStream() = default;
  virtual std::string Next() = 0;
  /// Lines a fresh server should see before timing starts.
  virtual std::vector<std::string> WarmUp() = 0;
};

std::unique_ptr<QueryStream> MakeQueryStream(WorkloadKind kind,
                                             const DatabaseNetwork& net,
                                             uint64_t seed);

/// One UPDATE batch of `ops` additions (70% transaction inserts of 1-3
/// items, 30% edge inserts) against `net`'s vertex and item space.
NetworkUpdate RandomChurnBatch(tcf::Rng& rng, const DatabaseNetwork& net,
                               size_t ops);

/// Applies `update` to `net` the way the server's updater does.
tcf::Status ApplyToMirror(DatabaseNetwork* net, const NetworkUpdate& update);

// ----------------------------------------------------------------- oracle

/// Prop. 5.2 on one answer: for patterns p ⊂ p' both present, the
/// edges of C*_{p'} are a subset of those of C*_p. Returns "" when it
/// holds, otherwise what broke.
std::string CheckAntiMonotone(const std::vector<WireTruss>& answer);

/// Recomputes C_q(α) = {C*_p(α) ≠ ∅ : p ⊆ q, |p| ≤ depth_cap} (cap 0 =
/// none) apart from the TC-Tree: InduceThemeNetwork per sub-pattern and
/// the literal Def. 3.3/3.4 fixpoint (BruteForceMaximalPatternTruss).
/// Returns "" when `answer` has the identical pattern set and, per
/// pattern, the identical edge and vertex sets; otherwise a mismatch
/// description.
std::string CheckAgainstOracle(const DatabaseNetwork& net,
                               const ServeQuery& query, size_t depth_cap,
                               const std::vector<WireTruss>& answer);

/// The oracle's own answer, in wire form (used by the self-check).
std::vector<WireTruss> OracleAnswer(const DatabaseNetwork& net,
                                    const ServeQuery& query,
                                    size_t depth_cap);

// ---------------------------------------------------------------- metrics

/// Named metrics with units, printed as the run's result object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": u}, ...}` with every digit kept.
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// The highest of p90/p99/p99.9 with at least ten samples beyond it
/// (0 when there are fewer than forty samples); writes the percentile
/// label to `*label`.
double TailPercentile(std::vector<double> v, std::string* label);

/// Seconds of CPU (user + sys) this process has used, all threads.
double ProcessCpuSeconds();

// ------------------------------------------------------------------ spans

/// In-memory span log: name, start, end, parent span and request id.
/// Written out as JSON lines when the run ends.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int64_t kNoParent = -1;

  /// Opens a span starting now; returns its id.
  int64_t Begin(const char* name, int64_t parent, uint64_t request);
  void End(int64_t id);
  /// Records an already-measured span (e.g. a stage the server's own
  /// QueryTrace timed inside a call) under `parent`.
  void Add(const char* name, int64_t parent, uint64_t request,
           Clock::time_point start, double micros);

  Clock::time_point StartOf(int64_t id) const {
    return spans_[static_cast<size_t>(id)].start;
  }
  double DurationUs(int64_t id) const;
  /// Duration minus the time covered by the span's direct children.
  double SelfUs(int64_t id) const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
    double child_us;  // time covered by direct children
  };
  std::vector<Span> spans_;
};

}  // namespace tcbench

#endif  // TCBENCH_TCBENCH_H_
