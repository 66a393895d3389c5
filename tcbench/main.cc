// The TC-Tree server benchmark: one workload, one seed, one run.
//
//   tc_bench --workload <hot_read|cold_walk|update_mix> --seed <n>
//            --seconds <s> --trace <0|1> [--workdir <dir>]
//   tc_bench --selfcheck [--workdir <dir>]
//
// A run generates the workload's network from the seed, builds the
// TC-Tree, saves it as TCFI, starts the real TcpServer in-process on a
// loopback ephemeral port and drives it from one client thread over one
// connection in a closed loop. Every answer is checked (Prop. 5.2, and a
// sample against an oracle that does not use the tree). The last stdout
// line is the result object: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (README.md maps each layer metric to
// the end-to-end metric it should move).
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/decomposition.h"
#include "core/tc_tree_query.h"
#include "core/tc_tree_snapshot.h"
#include "core/tcfi_format.h"
#include "net/theme_network.h"
#include "serve/client.h"
#include "serve/query_service.h"
#include "serve/shard_router.h"
#include "serve/tcp_server.h"
#include "tcbench.h"
#include "util/memory.h"
#include "util/string_util.h"

namespace tcbench {
namespace {

using tcf::Client;
using tcf::ItemId;
using tcf::QueryService;
using tcf::QueryServiceOptions;
using tcf::Status;
using tcf::StrFormat;
using tcf::TcTree;
using Clock = std::chrono::steady_clock;

// Pipelined BATCH depth: deep enough that framing is amortised and the
// figures repeat (depth 16 spread twice as wide on a 4-vCPU box).
constexpr size_t kBatchDepth = 128;
// One round of traffic: this many pipelined batches, then this many
// depth-1 queries (32 left the round medians of update_mix's mixed
// unique/hot singles wide enough to move query_p50_us by ~10%).
constexpr size_t kBatchesPerRound = 4;
constexpr size_t kSinglesPerRound = 128;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 5;
// cold_walk: one RELOAD of the index every this many query batches.
constexpr size_t kReloadEveryBatches = 8;
// Probe sets per run, and RELOADs per probe set where the workload's
// own traffic does not reload.
constexpr size_t kProbeSets = 8;
constexpr size_t kReloadsPerProbe = 12;
// Operations per UPDATE batch.
constexpr size_t kUpdateOps = 4;
// Sharded service of the ledger (ROADMAP item 5's question).
constexpr size_t kLedgerShards = 4;
// Node patterns sampled for the induce/peel layer timings.
constexpr size_t kBuildSample = 256;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One operation kind's tally.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Accumulates the timed query exchanges of one round.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t answered = 0;
  uint64_t bytes = 0;
};

class Bench {
 public:
  Bench(WorkloadKind kind, uint64_t seed, double seconds, bool trace,
        bool tiny, std::string workdir)
      : kind_(kind),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        tiny_(tiny),
        workdir_(std::move(workdir)),
        build_options_(BuildOptions(kind)),
        // The UPDATE log is fixed, like the network: the served network
        // grows the same way in every run, and the seed drives only the
        // queries, so answer sizes do not drift apart between seeds.
        update_rng_(0x6a09e667f3bcc909ull) {
    index_path_ = StrFormat("%s/index-%s-%llu-%d.tcfi", workdir_.c_str(),
                            WorkloadName(kind_),
                            static_cast<unsigned long long>(seed_),
                            static_cast<int>(::getpid()));
  }

  ~Bench() { std::remove(index_path_.c_str()); }

  /// Runs the workload; prints the result line. Returns the exit code.
  int Run();

 private:
  Status Setup();
  /// Sends the stream's warm-up lines, untimed.
  Status WarmUp();
  void TearDown();
  void MeasureBuildLayers();
  void Traffic(double seconds);
  /// Builds, then the verbs the workload's own traffic does not send.
  void ProbeSet();
  void Ledger(double seconds);

  // One wire exchange each, on the client thread.
  void BatchExchange(Round* round, bool span);
  void SingleExchange();
  void UpdateExchange();
  /// `sample`: the round trip counts toward reload_p50_ms.
  void ReloadExchange(bool sample);
  /// Checks one decoded answer: Prop. 5.2 always, the oracle on sampled
  /// answers. Records a mismatch; never throws.
  void CheckAnswer(const std::string& line,
                   const std::vector<WireTruss>& answer, bool sample);
  void Mismatch(const std::string& what);

  std::vector<std::string> NextLines(size_t n);
  QueryServiceOptions ServiceOptions() const;
  void PrintResult(const Metrics& metrics) const;

  const WorkloadKind kind_;
  const uint64_t seed_;
  const double seconds_;
  const bool trace_;
  const bool tiny_;
  const std::string workdir_;
  const TcTreeOptions build_options_;
  std::string index_path_;

  // The benchmark's mirror of the served network: oracle input, and the
  // baseline of the traced update replay.
  std::unique_ptr<DatabaseNetwork> mirror_;
  // The network as generated, for the interleaved build timings.
  std::unique_ptr<DatabaseNetwork> pristine_;
  std::optional<TcTree> tree_;         // as built (ledger, shards)
  std::optional<TcTree> mirror_tree_;  // traced run: replayed updates
  size_t tree_nodes_ = 0;  // of the index file RELOAD installs
  uint64_t updates_at_save_ = 0;
  double index_bytes_ = 0;
  std::unique_ptr<QueryStream> stream_;
  tcf::Rng update_rng_;

  // Destroyed in reverse order: client, server, updater, service.
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<tcf::IndexUpdater> updater_;
  std::unique_ptr<tcf::TcpServer> server_;
  std::unique_ptr<Client> client_;
  std::atomic<double> last_install_ms_{0};

  OpCount queries_, updates_, reloads_;
  bool transport_down_ = false;
  std::string first_mismatch_;
  uint64_t mismatches_ = 0;
  uint64_t oracle_checked_ = 0;
  uint64_t batch_exchanges_ = 0;
  uint64_t single_exchanges_ = 0;

  // Measurements.
  std::vector<double> setup_s_, build_s_;
  std::vector<double> round_qps_, round_cpu_us_, traced_round_qps_;
  std::vector<double> round_p50_us_;
  tcf::ResultCacheStats round_cache_;  // summed over timed rounds only
  uint64_t answered_ = 0, answer_bytes_ = 0;
  std::vector<double> single_rt_us_, update_rt_ms_, reload_rt_ms_;
  // Traced-run layer samples.
  std::vector<double> dirty_ms_, replay_ms_, install_ms_, update_wire_ms_;
  std::vector<double> upd_dirty_, upd_roots_, upd_copied_, upd_recomputed_;
  Metrics layers_;
  SpanLog spans_;
};

QueryServiceOptions Bench::ServiceOptions() const {
  // `tcf serve` defaults (64 MiB cache, composition, tracing on) with
  // the benchmark's fixed worker count.
  QueryServiceOptions options;
  options.num_threads = kServerWorkers;
  return options;
}

std::vector<std::string> Bench::NextLines(size_t n) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) lines.push_back(stream_->Next());
  return lines;
}

void Bench::Mismatch(const std::string& what) {
  if (mismatches_++ == 0) first_mismatch_ = what;
  std::fprintf(stderr, "tcbench: MISMATCH: %s\n", what.c_str());
}

void Bench::CheckAnswer(const std::string& line,
                        const std::vector<WireTruss>& answer, bool sample) {
  if (std::string e = CheckAntiMonotone(answer); !e.empty()) {
    Mismatch(line + ": " + e);
  }
  if (sample) {
    auto query = tcf::ParseServeQuery(mirror_->dictionary(), line);
    if (!query.ok()) {
      Mismatch(line + ": " + query.status().ToString());
    } else if (std::string e = CheckAgainstOracle(
                   *mirror_, *query, build_options_.max_depth, answer);
               !e.empty()) {
      Mismatch(line + ": oracle: " + e);
    }
    ++oracle_checked_;
  }
}

/// Oracle samples sit at exchange numbers 1, 2, 4, 8, ...: spread over
/// the whole run at a cost that grows only with its logarithm.
bool IsSample(uint64_t exchange) {
  return exchange != 0 && (exchange & (exchange - 1)) == 0;
}

void Bench::BatchExchange(Round* round, bool span) {
  const std::vector<std::string> lines = NextLines(kBatchDepth);
  const uint64_t request = batch_exchanges_++;
  const int64_t id =
      span ? spans_.Begin("wire.batch", SpanLog::kNoParent, request) : -1;
  const uint64_t bytes0 = client_->bytes_received();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto items = client_->Batch(lines);
  const double wall = SecondsSince(t0);
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (span) spans_.End(id);
  queries_.attempted += lines.size();
  if (!items.ok()) {
    std::fprintf(stderr, "tcbench: BATCH: %s\n",
                 items.status().ToString().c_str());
    queries_.failed += lines.size();
    transport_down_ = true;
    return;
  }
  uint64_t answered = 0;
  for (size_t i = 0; i < items->size(); ++i) {
    const Client::BatchItem& item = (*items)[i];
    if (!item.status.ok()) {
      std::fprintf(stderr, "tcbench: %s: %s\n", lines[i].c_str(),
                   item.status.ToString().c_str());
      ++queries_.failed;
      continue;
    }
    ++answered;
    CheckAnswer(lines[i], item.trusses, i == 0 && IsSample(request));
  }
  if (round != nullptr) {
    round->wall_s += wall;
    round->cpu_s += cpu;
    round->answered += answered;
    round->bytes += client_->bytes_received() - bytes0;
  }
}

void Bench::SingleExchange() {
  const std::string line = stream_->Next();
  const Clock::time_point t0 = Clock::now();
  auto answer = client_->Query(line);
  const double us = SecondsSince(t0) * 1e6;
  ++queries_.attempted;
  if (!answer.ok()) {
    std::fprintf(stderr, "tcbench: %s: %s\n", line.c_str(),
                 answer.status().ToString().c_str());
    ++queries_.failed;
    return;
  }
  single_rt_us_.push_back(us);
  CheckAnswer(line, *answer, IsSample(++single_exchanges_));
}

double PayloadValue(
    const std::vector<std::pair<std::string, std::string>>& payload,
    const std::string& key) {
  for (const auto& [k, v] : payload) {
    if (k == key) return std::strtod(v.c_str(), nullptr);
  }
  return -1;
}

void Bench::UpdateExchange() {
  NetworkUpdate batch = RandomChurnBatch(update_rng_, *mirror_, kUpdateOps);
  const std::vector<std::string> lines =
      tcf::EncodeUpdate(mirror_->dictionary(), batch);
  std::vector<ItemId> dirty;
  if (trace_) {
    const Clock::time_point t = Clock::now();
    dirty = tcf::ComputeDirtyItems(*mirror_, batch);
    dirty_ms_.push_back(SecondsSince(t) * 1e3);
  }
  const Clock::time_point t0 = Clock::now();
  auto outcome = client_->Update(lines);
  const double ms = SecondsSince(t0) * 1e3;
  ++updates_.attempted;
  if (!outcome.ok()) {
    std::fprintf(stderr, "tcbench: UPDATE: %s\n",
                 outcome.status().ToString().c_str());
    ++updates_.failed;
    transport_down_ = true;
    return;
  }
  update_rt_ms_.push_back(ms);
  if (Status s = ApplyToMirror(mirror_.get(), batch); !s.ok()) {
    Mismatch("mirror rejected an acknowledged UPDATE: " + s.ToString());
    return;
  }
  const double nodes = PayloadValue(*outcome, "nodes");
  if (trace_) {
    install_ms_.push_back(last_install_ms_.load());
    update_wire_ms_.push_back(ms - PayloadValue(*outcome, "update_ms"));
    upd_dirty_.push_back(PayloadValue(*outcome, "dirty_items"));
    upd_roots_.push_back(PayloadValue(*outcome, "changed_roots"));
    upd_copied_.push_back(PayloadValue(*outcome, "copied"));
    upd_recomputed_.push_back(PayloadValue(*outcome, "recomputed"));
    if (static_cast<double>(dirty.size()) != upd_dirty_.back()) {
      Mismatch("UPDATED dirty_items differs from ComputeDirtyItems");
    }
    const Clock::time_point t = Clock::now();
    tcf::TcTreeUpdateResult replay =
        tcf::UpdateTcTree(*mirror_tree_, *mirror_, dirty, build_options_);
    replay_ms_.push_back(SecondsSince(t) * 1e3);
    if (static_cast<double>(replay.tree.num_nodes()) != nodes) {
      Mismatch("UPDATED node count differs from the mirror replay");
    }
    mirror_tree_.emplace(std::move(replay.tree));
  }
}

void Bench::ReloadExchange(bool sample) {
  const Clock::time_point t0 = Clock::now();
  auto nodes = client_->Reload(index_path_);
  const double ms = SecondsSince(t0) * 1e3;
  ++reloads_.attempted;
  if (!nodes.ok()) {
    std::fprintf(stderr, "tcbench: RELOAD: %s\n",
                 nodes.status().ToString().c_str());
    ++reloads_.failed;
    return;
  }
  if (sample) reload_rt_ms_.push_back(ms);
  if (*nodes != tree_nodes_) {
    Mismatch(StrFormat("RELOADED %llu nodes, saved tree has %zu",
                       static_cast<unsigned long long>(*nodes), tree_nodes_));
  }
}

Status Bench::Setup() {
  const Clock::time_point t0 = Clock::now();
  // Two copies of one generated network: the updater owns one, the
  // benchmark keeps the other as its mirror.
  DatabaseNetwork served = MakeNetwork(kind_, tiny_);
  mirror_ = std::make_unique<DatabaseNetwork>(MakeNetwork(kind_, tiny_));
  const Clock::time_point tb = Clock::now();
  tree_.emplace(TcTree::Build(*mirror_, build_options_));
  build_s_.push_back(SecondsSince(tb));
  tree_nodes_ = tree_->num_nodes();
  if (Status s = tcf::SaveTcTreeBinary(*tree_, index_path_); !s.ok()) {
    return s;
  }

  service_ = std::make_unique<QueryService>(
      TcTree(*tree_), mirror_->dictionary(), ServiceOptions());
  updater_ = std::make_unique<tcf::IndexUpdater>(
      std::move(served), TcTree(*tree_),
      [this](TcTree t, const std::vector<ItemId>& roots,
             const std::vector<ItemId>& dirty) {
        const Clock::time_point ti = Clock::now();
        const size_t swapped =
            service_->ApplyUpdatedSnapshot(std::move(t), roots, dirty);
        last_install_ms_.store(SecondsSince(ti) * 1e3);
        return swapped;
      },
      build_options_);
  tcf::TcpServerOptions server_options;
  server_options.num_threads = kServerWorkers;
  server_options.updater = updater_.get();
  server_ = std::make_unique<tcf::TcpServer>(*service_, server_options);
  if (Status s = server_->Start(); !s.ok()) return s;
  auto client = Client::Connect("127.0.0.1", server_->port());
  if (!client.ok()) return client.status();
  client_ = std::move(*client);

  if (kind_ == WorkloadKind::kColdWalk) {
    // Serve the mapped snapshot, installed the way an operator would.
    ReloadExchange(/*sample=*/false);
  }
  stream_ = MakeQueryStream(kind_, *mirror_, seed_);
  if (Status s = WarmUp(); !s.ok()) return s;
  setup_s_.push_back(SecondsSince(t0));
  return Status::OK();
}

Status Bench::WarmUp() {
  const std::vector<std::string> warm = stream_->WarmUp();
  for (size_t b = 0; b < warm.size(); b += kBatchDepth) {
    const std::vector<std::string> chunk(
        warm.begin() + b, warm.begin() + std::min(warm.size(),
                                                  b + kBatchDepth));
    auto items = client_->Batch(chunk);
    queries_.attempted += chunk.size();
    if (!items.ok()) {
      queries_.failed += chunk.size();
      return items.status();
    }
    for (size_t i = 0; i < items->size(); ++i) {
      if (!(*items)[i].status.ok()) {
        ++queries_.failed;
        continue;
      }
      CheckAnswer(chunk[i], (*items)[i].trusses, false);
    }
  }
  return Status::OK();
}

void Bench::TearDown() {
  if (client_) (void)client_->Quit();
  client_.reset();
  if (server_) server_->Shutdown();
  server_.reset();
  updater_.reset();
  service_.reset();
}

void Bench::MeasureBuildLayers() {
  const tcf::TcTreeBuildStats& stats = tree_->build_stats();
  layers_.Set("core.build_candidates",
              static_cast<double>(stats.candidates_considered), "count");
  layers_.Set("core.build_pruned_by_intersection",
              static_cast<double>(stats.pruned_by_intersection), "count");
  layers_.Set("core.build_mptd_calls", static_cast<double>(stats.mptd_calls),
              "count");
  // A fixed, evenly strided sample of node patterns.
  std::vector<double> induce_us, peel_us;
  const size_t stride = std::max<size_t>(1, tree_nodes_ / kBuildSample);
  for (size_t id = 1; id <= tree_nodes_; id += stride) {
    const tcf::Itemset p = tree_->PatternOf(static_cast<TcTree::NodeId>(id));
    Clock::time_point t = Clock::now();
    const tcf::ThemeNetwork tn = tcf::InduceThemeNetwork(*mirror_, p);
    induce_us.push_back(SecondsSince(t) * 1e6);
    t = Clock::now();
    const tcf::TrussDecomposition d =
        tcf::TrussDecomposition::FromThemeNetwork(tn);
    peel_us.push_back(SecondsSince(t) * 1e6);
    if (d.empty()) Mismatch("a tree node's pattern peels to nothing");
  }
  layers_.Set("core.induce_us", Mean(induce_us), "us");
  layers_.Set("core.peel_us", Mean(peel_us), "us");
  std::vector<double> map_ms;
  for (int r = 0; r < 7; ++r) {
    const Clock::time_point t = Clock::now();
    auto mapped = tcf::MapTcTree(index_path_);
    map_ms.push_back(SecondsSince(t) * 1e3);
    if (!mapped.ok()) Mismatch("MapTcTree: " + mapped.status().ToString());
  }
  layers_.Set("core.tcfi_map_ms", Median(map_ms), "ms");
  layers_.Set("core.tree_bytes", static_cast<double>(tree_->MemoryBytes()),
              "B");
}

void Bench::Traffic(double seconds) {
  // Whole rounds until the time is up: each round runs a pipelined block
  // and a depth-1 block of the same traffic, so both see the same host
  // conditions. Probe sets (builds, and the verbs the workload's own
  // traffic does not send) are spread evenly through the run for the
  // same reason: this box's speed drifts over seconds.
  const Clock::time_point t0 = Clock::now();
  size_t probes = 0;
  for (size_t r = 0; SecondsSince(t0) < seconds && !transport_down_; ++r) {
    if (probes < kProbeSets &&
        SecondsSince(t0) >= seconds * (static_cast<double>(probes) + 0.5) /
                                static_cast<double>(kProbeSets)) {
      ProbeSet();
      ++probes;
    }
    // The traced run alternates plain rounds with rounds that record a
    // span per exchange; their q/s difference is the tracing overhead.
    const bool span = trace_ && r % 2 == 1;
    const tcf::ResultCacheStats cache0 = service_->cache_stats();
    Round round;
    for (size_t b = 0; b < kBatchesPerRound && !transport_down_; ++b) {
      if (kind_ == WorkloadKind::kUpdateMix) UpdateExchange();
      if (kind_ == WorkloadKind::kColdWalk && batch_exchanges_ > 0 &&
          batch_exchanges_ % kReloadEveryBatches == 0) {
        ReloadExchange(/*sample=*/true);
      }
      BatchExchange(&round, span);
    }
    if (kind_ == WorkloadKind::kUpdateMix) UpdateExchange();
    const size_t singles_before = single_rt_us_.size();
    for (size_t i = 0; i < kSinglesPerRound && !transport_down_; ++i) {
      SingleExchange();
    }
    const tcf::ResultCacheStats cache1 = service_->cache_stats();
    round_cache_.hits += cache1.hits - cache0.hits;
    round_cache_.misses += cache1.misses - cache0.misses;
    round_cache_.partial_hits += cache1.partial_hits - cache0.partial_hits;
    round_cache_.composed_queries +=
        cache1.composed_queries - cache0.composed_queries;
    round_cache_.evictions += cache1.evictions - cache0.evictions;
    if (round.answered == 0 || transport_down_) continue;
    (span ? traced_round_qps_ : round_qps_)
        .push_back(static_cast<double>(round.answered) / round.wall_s);
    round_cpu_us_.push_back(round.cpu_s * 1e6 /
                            static_cast<double>(round.answered));
    round_p50_us_.push_back(Median(std::vector<double>(
        single_rt_us_.begin() + static_cast<ptrdiff_t>(singles_before),
        single_rt_us_.end())));
    answered_ += round.answered;
    answer_bytes_ += round.bytes;
  }
  // Every run makes the same number of probe sets.
  while (probes < kProbeSets && !transport_down_) {
    ProbeSet();
    ++probes;
  }
}

void Bench::ProbeSet() {
  // Builds of the pristine network: build_s is their median, as the
  // first build of a fresh process is bimodal.
  double built = 0;
  for (size_t i = 0; i < 8 && (i == 0 || built < 0.15); ++i) {
    const Clock::time_point t = Clock::now();
    const TcTree tree = TcTree::Build(*pristine_, build_options_);
    build_s_.push_back(SecondsSince(t));
    built += build_s_.back();
  }
  if (kind_ != WorkloadKind::kUpdateMix) UpdateExchange();
  // RELOAD must install the index the updater holds, or the served tree
  // would fall behind the network: save it first when it has moved.
  if (updates_.attempted != updates_at_save_) {
    const TcTree& tree = updater_->tree();
    if (Status s = tcf::SaveTcTreeBinary(tree, index_path_); !s.ok()) {
      Mismatch("save index: " + s.ToString());
      return;
    }
    tree_nodes_ = tree.num_nodes();
    updates_at_save_ = updates_.attempted;
  }
  // cold_walk reloads in its own traffic; one RELOAD here only puts the
  // mapped snapshot back after the UPDATE installed an owned one.
  if (kind_ == WorkloadKind::kColdWalk) {
    ReloadExchange(/*sample=*/false);
    return;
  }
  for (size_t i = 0; i < kReloadsPerProbe; ++i) ReloadExchange(true);
  if (Status s = WarmUp(); !s.ok()) transport_down_ = true;
}

void Bench::Ledger(double seconds) {
  // The server's QueryService keeps serving the wire; the replay runs
  // each sampled request through the layers' public functions on a
  // service primed like the server's, one span per layer.
  const QueryServiceOptions options = ServiceOptions();
  std::unique_ptr<QueryService> replay;
  // The index the server holds now (probe sets have updated it).
  TcTree current(updater_->tree());
  if (kind_ == WorkloadKind::kColdWalk) {
    auto mapped = tcf::MapTcTree(index_path_);
    if (!mapped.ok()) {
      Mismatch("MapTcTree: " + mapped.status().ToString());
      return;
    }
    replay = std::make_unique<QueryService>(
        tcf::TcTreeSnapshot(std::move(*mapped)), mirror_->dictionary(),
        options);
  } else {
    replay = std::make_unique<QueryService>(TcTree(current),
                                            mirror_->dictionary(), options);
  }
  tcf::ShardedQueryService sharded(std::move(current), mirror_->dictionary(),
                                   kLedgerShards, options);
  const ItemDictionary& dict = mirror_->dictionary();
  std::vector<std::string> prime = stream_->WarmUp();
  if (kind_ != WorkloadKind::kHotRead) {
    for (std::string& line : NextLines(4 * kBatchDepth)) {
      prime.push_back(std::move(line));
    }
  }
  for (const std::string& line : prime) {
    auto q = tcf::ParseServeQuery(dict, line);
    if (!q.ok()) continue;
    (void)replay->Execute(*q);
    (void)sharded.Execute(*q);
  }
  sharded.stats().Reset();
  // shard_queries survives Reset(); scope it to the sample.
  const uint64_t shard_queries0 = sharded.Report().shard_queries;
  const auto snapshot = replay->snapshot();

  std::vector<double> parse, cache, encode, decode, transport,
      rt, ping, shard, walk, visited, retrieved, pruned;
  const Clock::time_point t0 = Clock::now();
  for (uint64_t req = 0; SecondsSince(t0) < seconds && req < 20000; ++req) {
    const std::string line = stream_->Next();
    // The wire round trip (untraced server code) and a PING beside it.
    Clock::time_point t = Clock::now();
    auto answer = client_->Query(line);
    const double rt_us = SecondsSince(t) * 1e6;
    ++queries_.attempted;
    if (!answer.ok()) {
      ++queries_.failed;
      continue;
    }
    CheckAnswer(line, *answer, false);
    t = Clock::now();
    if (!client_->Ping().ok()) {
      transport_down_ = true;
      return;
    }
    const double ping_us = SecondsSince(t) * 1e6;

    const int64_t root = spans_.Begin("request", SpanLog::kNoParent, req);
    const int64_t p = spans_.Begin("serve.tcf1_parse", root, req);
    auto request = tcf::ParseRequest(line);
    auto query = request.ok()
                     ? tcf::ParseServeQuery(dict, request->query_line)
                     : tcf::StatusOr<ServeQuery>(request.status());
    spans_.End(p);
    if (!query.ok()) {
      Mismatch(line + ": " + query.status().ToString());
      return;
    }
    const int64_t x = spans_.Begin("serve.execute", root, req);
    tcf::QueryTrace qtrace;
    const tcf::QueryBackend::Result result = replay->Execute(*query, &qtrace);
    spans_.End(x);
    const double walk_us = qtrace.stage_wall_us[static_cast<size_t>(
        tcf::QueryStage::kWalk)];
    spans_.Add("core.walk", x, req, spans_.StartOf(x), walk_us);
    const int64_t e = spans_.Begin("serve.tcf1_encode", root, req);
    std::string wire =
        tcf::EncodeOkHeader("TRUSSES", result->trusses.size()) + '\n';
    for (const tcf::PatternTruss& truss : result->trusses) {
      wire += tcf::EncodeTruss(dict, truss);
      wire += '\n';
    }
    spans_.End(e);
    // The client's side as Client::RoundTrip does it: frame the reply
    // into lines, then decode each payload line.
    const int64_t d = spans_.Begin("serve.client_decode", root, req);
    std::string buffer = wire;
    std::vector<std::string> reply_lines;
    for (size_t nl = buffer.find('\n'); nl != std::string::npos;
         nl = buffer.find('\n')) {
      reply_lines.push_back(buffer.substr(0, nl));
      buffer.erase(0, nl + 1);
    }
    const bool header_ok =
        !reply_lines.empty() &&
        tcf::ParseResponseHeader(reply_lines.front()).ok();
    size_t decoded = 0;
    for (size_t i = 1; i < reply_lines.size(); ++i) {
      if (tcf::DecodeTruss(reply_lines[i]).ok()) ++decoded;
    }
    spans_.End(d);
    spans_.End(root);
    if (!header_ok || decoded != result->trusses.size() ||
        decoded != answer->size()) {
      Mismatch(line + ": replayed answer differs from the wire answer");
    }

    const double layers_us = spans_.DurationUs(root);
    parse.push_back(spans_.DurationUs(p));
    cache.push_back(spans_.SelfUs(x));
    encode.push_back(spans_.DurationUs(e));
    decode.push_back(spans_.DurationUs(d));
    rt.push_back(rt_us);
    ping.push_back(ping_us);
    transport.push_back(rt_us - layers_us);

    t = Clock::now();
    (void)sharded.Execute(*query);
    shard.push_back(SecondsSince(t) * 1e6);
    t = Clock::now();
    const tcf::TcTreeQueryResult walked =
        snapshot->Query(query->items, query->alpha, options.query_options);
    walk.push_back(SecondsSince(t) * 1e6);
    visited.push_back(static_cast<double>(walked.visited_nodes));
    retrieved.push_back(static_cast<double>(walked.retrieved_nodes));
    pruned.push_back(static_cast<double>(walked.pruned_subtrees));
  }
  const tcf::ServeReport shard_report = sharded.Report();

  layers_.Set("core.walk_us", Mean(walk), "us");
  layers_.Set("core.walk_visited_nodes", Mean(visited), "count");
  layers_.Set("core.walk_retrieved_nodes", Mean(retrieved), "count");
  layers_.Set("core.walk_pruned_subtrees", Mean(pruned), "count");
  layers_.Set("serve.cache_us", Mean(cache), "us");
  layers_.Set("serve.shard_us", Mean(shard), "us");
  layers_.Set("serve.shard_fanout",
              shard_report.queries == 0
                  ? 0
                  : static_cast<double>(shard_report.shard_queries -
                                        shard_queries0) /
                        static_cast<double>(shard_report.queries),
              "count");
  layers_.Set("serve.tcf1_parse_us", Mean(parse), "us");
  layers_.Set("serve.tcf1_encode_us", Mean(encode), "us");
  layers_.Set("serve.client_decode_us", Mean(decode), "us");
  const double transport_us = Median(transport);
  const double floor_us = Median(ping);
  const double rt_us = Median(rt);
  layers_.Set("serve.transport_us", transport_us, "us");
  layers_.Set("ledger.transport_floor_us", floor_us, "us");
  layers_.Set("ledger.wire_rt_us", rt_us, "us");
  layers_.Set("ledger.residual_pct",
              rt_us > 0 ? 100.0 * (transport_us - floor_us) / rt_us : 0, "%");
  layers_.Set("ledger.samples", static_cast<double>(rt.size()), "count");
  const double cache_us = Mean(cache);
  layers_.Set("ledger.shard_over_cache",
              cache_us > 0 ? Mean(shard) / cache_us : 0, "ratio");
}

void Bench::PrintResult(const Metrics& metrics) const {
  const uint64_t attempted =
      queries_.attempted + updates_.attempted + reloads_.attempted;
  const uint64_t failed = queries_.failed + updates_.failed + reloads_.failed;
  std::printf(
      "{\"ops\": {\"query\": {\"attempted\": %llu, \"failed\": %llu}, "
      "\"update\": {\"attempted\": %llu, \"failed\": %llu}, \"reload\": "
      "{\"attempted\": %llu, \"failed\": %llu}}, \"oracle_checked\": %llu, "
      "\"mismatches\": %llu}\n",
      static_cast<unsigned long long>(queries_.attempted),
      static_cast<unsigned long long>(queries_.failed),
      static_cast<unsigned long long>(updates_.attempted),
      static_cast<unsigned long long>(updates_.failed),
      static_cast<unsigned long long>(reloads_.attempted),
      static_cast<unsigned long long>(reloads_.failed),
      static_cast<unsigned long long>(oracle_checked_),
      static_cast<unsigned long long>(mismatches_));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      mismatches_ == 0 && oracle_checked_ > 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) TearDown();
    if (Status s = Setup(); !s.ok()) {
      std::fprintf(stderr, "tcbench: setup: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  struct stat st {};
  index_bytes_ = ::stat(index_path_.c_str(), &st) == 0
                     ? static_cast<double>(st.st_size)
                     : 0;
  pristine_ = std::make_unique<DatabaseNetwork>(MakeNetwork(kind_, tiny_));
  if (trace_) {
    MeasureBuildLayers();
    mirror_tree_.emplace(TcTree(*tree_));
  }
  Traffic(seconds_);
  if (trace_ && !transport_down_) Ledger(std::max(1.0, 0.2 * seconds_));

  Metrics metrics;
  if (!trace_) {
    metrics.Set("query_qps", Median(round_qps_), "1/s");
    metrics.Set("query_p50_us", Median(round_p50_us_), "us");
    metrics.Set("cpu_us_per_query", Median(round_cpu_us_), "us");
    metrics.Set("response_bytes_per_query",
                answered_ == 0 ? 0
                               : static_cast<double>(answer_bytes_) /
                                     static_cast<double>(answered_),
                "B");
    metrics.Set("update_p50_ms", Median(update_rt_ms_), "ms");
    metrics.Set("reload_p50_ms", Median(reload_rt_ms_), "ms");
    metrics.Set("index_bytes", index_bytes_, "B");
    metrics.Set("build_s", Median(build_s_), "s");
    metrics.Set("setup_s", Median(setup_s_), "s");
    metrics.Set("peak_rss_mb",
                static_cast<double>(tcf::PeakRssBytes()) / (1 << 20), "MB");
    std::string tail_label;
    const double tail = TailPercentile(single_rt_us_, &tail_label);
    std::printf("{\"query_tail_us\": {\"percentile\": \"%s\", \"value\": "
                "%.3f, \"samples\": %zu}}\n",
                tail_label.c_str(), tail, single_rt_us_.size());
  } else {
    const tcf::ResultCacheStats& c = round_cache_;
    const double lookups = static_cast<double>(c.hits + c.misses);
    const double denom = lookups > 0 ? lookups : 1;
    layers_.Set("serve.cache_exact_hit_ratio",
                static_cast<double>(c.hits) / denom, "ratio");
    layers_.Set("serve.cache_partial_hit_ratio",
                static_cast<double>(c.partial_hits) / denom, "ratio");
    layers_.Set("serve.cache_composed_ratio",
                static_cast<double>(c.composed_queries) / denom, "ratio");
    layers_.Set("serve.cache_evictions", static_cast<double>(c.evictions),
                "count");
    layers_.Set("core.update_dirty_set_ms", Median(dirty_ms_), "ms");
    layers_.Set("core.update_replay_ms", Median(replay_ms_), "ms");
    layers_.Set("serve.update_install_ms", Median(install_ms_), "ms");
    layers_.Set("serve.update_wire_ms", Median(update_wire_ms_), "ms");
    layers_.Set("core.update_dirty_items", Median(upd_dirty_), "count");
    layers_.Set("core.update_changed_roots", Median(upd_roots_), "count");
    layers_.Set("core.update_copied", Median(upd_copied_), "count");
    layers_.Set("core.update_recomputed", Median(upd_recomputed_), "count");
    const double build_ms = Median(build_s_) * 1e3;
    layers_.Set("ledger.replay_over_build",
                build_ms > 0 ? Median(replay_ms_) / build_ms : 0, "ratio");
    const double untraced = Median(round_qps_);
    const double traced = Median(traced_round_qps_);
    layers_.Set("ledger.untraced_qps", untraced, "1/s");
    layers_.Set("ledger.traced_qps", traced, "1/s");
    layers_.Set("ledger.trace_overhead_pct",
                untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0,
                "%");
    const std::string span_path =
        StrFormat("%s/spans-%s-%llu.jsonl", workdir_.c_str(),
                  WorkloadName(kind_), static_cast<unsigned long long>(seed_));
    if (!spans_.WriteJsonLines(span_path)) {
      std::fprintf(stderr, "tcbench: cannot write %s\n", span_path.c_str());
    }
    metrics = layers_;
  }
  TearDown();
  PrintResult(metrics);
  if (mismatches_ > 0) {
    std::fprintf(stderr, "tcbench: %llu mismatches; first: %s\n",
                 static_cast<unsigned long long>(mismatches_),
                 first_mismatch_.c_str());
    return 1;
  }
  return transport_down_ ? 1 : 0;
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Binds the calling thread, and so every thread it starts later (the
/// server's loop and workers, the client, every build and replay pool),
/// to the highest CPU it may run on. On a shared VM a thread that blocks
/// lets its vCPU idle, and waking it again cost a varying 50-150 us
/// between runs; on one CPU each hand-off is a plain context switch, so
/// the figures are the program's work and its switches. Returns the CPU,
/// or -1 when the affinity cannot be read or set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// The machine stamp every run prints before its result.
void PrintStamp(const std::string& workload, uint64_t seed, double seconds,
                bool trace, int pinned_cpu) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"server_workers\": %zu, "
      "\"build_threads\": %zu, \"event_loops\": 1, \"client_threads\": 1, "
      "\"connections\": 1, \"batch_depth\": %zu, \"pinned_cpu\": %d}}\n",
      workload.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      CompilerVersion().c_str(), TCBENCH_BUILD_TYPE, kServerWorkers,
      kBuildThreads, kBatchDepth, pinned_cpu);
  std::fflush(stdout);
}

/// The oracle must flag three deliberately corrupted answers, then
/// every workload must run end to end at tiny size, plain and traced.
int SelfCheck(const std::string& workdir) {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("selfcheck: %-44s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  const WorkloadKind kind = WorkloadKind::kUpdateMix;
  const DatabaseNetwork net = MakeNetwork(kind, /*tiny=*/true);
  const TcTree tree = TcTree::Build(net, BuildOptions(kind));
  // A depth-2 node whose truss holds at least two edges at α = 0, so
  // the query's answer has {a}, {b} and {a, b} to corrupt.
  std::optional<ServeQuery> query;
  for (TcTree::NodeId id = 1; id <= tree.num_nodes() && !query; ++id) {
    const tcf::Itemset p = tree.PatternOf(id);
    if (p.size() == 2 && tree.node(id).decomposition.num_edges() >= 2) {
      query = ServeQuery{p, 0.0, {}};
    }
  }
  if (!query) {
    expect(false, "tiny network has a two-item theme");
    return 1;
  }
  const std::vector<WireTruss> good = OracleAnswer(net, *query, 0);
  expect(good.size() == 3 && CheckAgainstOracle(net, *query, 0, good).empty(),
         "oracle accepts its own answer");
  expect(CheckAntiMonotone(good).empty(), "Prop. 5.2 holds on it");

  std::vector<WireTruss> dropped_edge = good;
  for (WireTruss& w : dropped_edge) {
    if (w.edges.size() >= 2) {
      w.edges.pop_back();
      break;
    }
  }
  expect(!CheckAgainstOracle(net, *query, 0, dropped_edge).empty(),
         "flags an answer with one edge dropped");
  std::vector<WireTruss> dropped_truss(good.begin(), good.end() - 1);
  expect(!CheckAgainstOracle(net, *query, 0, dropped_truss).empty(),
         "flags an answer with one truss removed");
  std::vector<WireTruss> spurious = good;
  WireTruss extra = good.back();
  for (ItemId item : net.ActiveItems()) {
    if (!query->items.Contains(item)) {
      extra.pattern.push_back(net.dictionary().Name(item));
      break;
    }
  }
  spurious.push_back(extra);
  expect(!CheckAgainstOracle(net, *query, 0, spurious).empty(),
         "flags an answer with a spurious pattern");

  for (WorkloadKind k : {WorkloadKind::kHotRead, WorkloadKind::kColdWalk,
                         WorkloadKind::kUpdateMix}) {
    for (bool trace : {false, true}) {
      Bench bench(k, 7, 1.0, trace, /*tiny=*/true, workdir);
      expect(bench.Run() == 0,
             StrFormat("%s smoke run (trace %d)", WorkloadName(k),
                       trace ? 1 : 0)
                 .c_str());
    }
  }
  std::printf("selfcheck: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tc_bench --workload <hot_read|cold_walk|update_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n"
               "       tc_bench --selfcheck [--workdir <dir>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string workdir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--workdir") {
      workdir = value;
    } else {
      return Usage();
    }
  }
  const int pinned_cpu = PinToOneCpu();
  if (selfcheck) return SelfCheck(workdir);
  WorkloadKind kind;
  if (!ParseWorkload(workload, &kind) || !(seconds > 0)) return Usage();
  PrintStamp(workload, seed, seconds, trace, pinned_cpu);
  Bench bench(kind, seed, seconds, trace, /*tiny=*/false, workdir);
  return bench.Run();
}

}  // namespace
}  // namespace tcbench

int main(int argc, char** argv) { return tcbench::Main(argc, argv); }
