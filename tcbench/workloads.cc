// Inputs of the benchmark: networks, query streams and update batches,
// all generated from the run's seed.
#include <algorithm>
#include <unordered_set>

#include "gen/checkin_generator.h"
#include "gen/syn_generator.h"
#include "tcbench.h"

namespace tcbench {

using tcf::Itemset;
using tcf::ItemId;
using tcf::Rng;
using tcf::VertexId;

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kHotRead, WorkloadKind::kColdWalk,
                         WorkloadKind::kUpdateMix}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHotRead:
      return "hot_read";
    case WorkloadKind::kColdWalk:
      return "cold_walk";
    case WorkloadKind::kUpdateMix:
      return "update_mix";
  }
  return "?";
}

DatabaseNetwork MakeNetwork(WorkloadKind kind, bool tiny) {
  if (kind == WorkloadKind::kUpdateMix) {
    // BK-like (check-in network, the paper's Brightkite analogue) at
    // scale 1: 3,000 users, 500 locations.
    const double scale = tiny ? 0.1 : 1.0;
    tcf::CheckinParams p;
    p.num_users = static_cast<size_t>(3000 * scale);
    p.num_locations = static_cast<size_t>(500 * scale);
    p.friends_k = 4;
    p.rewire_beta = 0.1;
    p.periods_per_user = 22;
    p.locations_per_period = 2.0;
    p.favorites_per_user = 6;
    p.social_mimicry = 0.55;
    p.seed = 1001;
    return tcf::GenerateCheckinNetwork(p);
  }
  // SYN (the paper's §7 recipe) at scale 0.05: 150 vertices, 1,350
  // edges, 125 items, one seed vertex.
  const double scale = tiny ? 0.02 : 0.05;
  tcf::SynParams p;
  p.num_vertices = static_cast<size_t>(3000 * scale);
  p.num_edges = static_cast<size_t>(27000 * scale);
  p.num_items = static_cast<size_t>(2500 * scale);
  p.num_seeds = std::max<size_t>(1, static_cast<size_t>(30 * scale));
  p.mutation_rate = 0.1;
  p.seed = 4004;
  return tcf::GenerateSynNetwork(p);
}

TcTreeOptions BuildOptions(WorkloadKind kind) {
  TcTreeOptions options;
  options.num_threads = kBuildThreads;
  // SYN's lattice is too large to index completely; depth 3 keeps the
  // tree complete below the cap (no node budget, never truncated), so
  // UPDATE replays instead of falling back to a full rebuild.
  options.max_depth = kind == WorkloadKind::kUpdateMix ? 0 : 3;
  return options;
}

namespace {

constexpr double kZipfS = 1.07;
// The query pool (hot_read), the theme cores (cold_walk) and the hot set
// (update_mix) belong to the dataset, like the network: fixed, so every
// seed draws from the same distribution and a run's averages repeat.
// The run's seed drives the request sequence itself.
constexpr uint64_t kDatasetSeed = 0x51ed270b27c3a5ull;

/// hot_read: Zipf draws over a fixed pool of 256 distinct queries, each
/// a 2-4 item theme of Zipf-popular items at one of four alphas. The
/// whole pool is sent before timing, so every timed request is an exact
/// cache hit.
class HotStream : public QueryStream {
 public:
  HotStream(const DatabaseNetwork& net, uint64_t seed)
      : dict_(net.dictionary()), rng_(seed) {
    const std::vector<ItemId> items = net.ActiveItems();
    Rng item_rng(kDatasetSeed);
    std::unordered_set<std::string> seen;
    while (pool_.size() < kPool) {
      std::vector<ItemId> q;
      const size_t len = 2 + item_rng.NextUint64(3);
      for (size_t i = 0; i < len; ++i) {
        q.push_back(items[item_rng.NextZipf(items.size(), kZipfS)]);
      }
      ServeQuery query{Itemset(std::move(q)),
                       0.05 * static_cast<double>(item_rng.NextUint64(4)),
                       {}};
      std::string line = tcf::EncodeQueryLine(dict_, query);
      if (seen.insert(line).second) pool_.push_back(std::move(line));
    }
  }

  std::string Next() override {
    return pool_[rng_.NextZipf(pool_.size(), kZipfS)];
  }
  std::vector<std::string> WarmUp() override { return pool_; }

 private:
  static constexpr size_t kPool = 256;
  const ItemDictionary& dict_;
  Rng rng_;
  std::vector<std::string> pool_;
};

/// cold_walk: overlapping, never-repeated queries. 48 Zipf-hot 2-3 item
/// cores, each request widening one of them by 0-2 Zipf-skewed items
/// at one of four alphas; an exact repeat of an earlier request is
/// redrawn. Walks, cover composition and cache admission do the work.
class ColdStream : public QueryStream {
 public:
  ColdStream(const DatabaseNetwork& net, uint64_t seed)
      : dict_(net.dictionary()),
        items_(net.ActiveItems()),
        item_rng_(kDatasetSeed),
        core_rng_(kDatasetSeed ^ 0x2545f4914f6cdd1dull) {
    for (size_t i = 0; i < 48; ++i) {
      std::vector<ItemId> core;
      const size_t len = 2 + core_rng_.NextUint64(2);
      for (size_t j = 0; j < len; ++j) core.push_back(ZipfItem());
      cores_.push_back(Itemset(std::move(core)));
    }
    item_rng_ = Rng(seed);
    core_rng_ = Rng(seed ^ 0x2545f4914f6cdd1dull);
  }

  std::string Next() override {
    for (size_t attempt = 0;; ++attempt) {
      Itemset q = cores_[core_rng_.NextZipf(cores_.size(), kZipfS)];
      // Widen further once the common shapes are used up.
      const size_t widen = core_rng_.NextUint64(3) + attempt / 64;
      for (size_t j = 0; j < widen; ++j) q = q.Union(ZipfItem());
      ServeQuery query{std::move(q),
                       0.05 * static_cast<double>(core_rng_.NextUint64(4)),
                       {}};
      std::string line = tcf::EncodeQueryLine(dict_, query);
      if (seen_.insert(line).second) return line;
    }
  }

  std::vector<std::string> WarmUp() override {
    std::vector<std::string> lines;
    for (size_t i = 0; i < 512; ++i) lines.push_back(Next());
    return lines;
  }

 private:
  ItemId ZipfItem() {
    return items_[item_rng_.NextZipf(items_.size(), kZipfS)];
  }

  const ItemDictionary& dict_;
  std::vector<ItemId> items_;
  // Two generators so each keeps its own warm Zipf table (Rng caches
  // one table keyed on (n, s)).
  Rng item_rng_;
  Rng core_rng_;
  std::vector<Itemset> cores_;
  std::unordered_set<std::string> seen_;
};

/// update_mix reads: 20% draws from 32 hot queries, 80% random 1-4 item
/// subsets of the active items, alphas in [0, 0.3).
class MixStream : public QueryStream {
 public:
  MixStream(const DatabaseNetwork& net, uint64_t seed)
      : dict_(net.dictionary()), items_(net.ActiveItems()),
        rng_(kDatasetSeed) {
    for (size_t i = 0; i < 32; ++i) hot_.push_back(RandomLine());
    rng_ = Rng(seed);
  }

  std::string Next() override {
    if (rng_.NextBool(0.2)) return hot_[rng_.NextUint64(hot_.size())];
    return RandomLine();
  }
  std::vector<std::string> WarmUp() override { return hot_; }

 private:
  std::string RandomLine() {
    const size_t len = 1 + rng_.NextUint64(4);
    std::vector<ItemId> subset;
    for (size_t i = 0; i < len; ++i) {
      subset.push_back(items_[rng_.NextUint64(items_.size())]);
    }
    ServeQuery query{Itemset(std::move(subset)),
                     0.1 * static_cast<double>(rng_.NextUint64(4)) / 1.33,
                     {}};
    return tcf::EncodeQueryLine(dict_, query);
  }

  const ItemDictionary& dict_;
  std::vector<ItemId> items_;
  Rng rng_;
  std::vector<std::string> hot_;
};

}  // namespace

std::unique_ptr<QueryStream> MakeQueryStream(WorkloadKind kind,
                                             const DatabaseNetwork& net,
                                             uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kHotRead:
      return std::make_unique<HotStream>(net, seed);
    case WorkloadKind::kColdWalk:
      return std::make_unique<ColdStream>(net, seed);
    case WorkloadKind::kUpdateMix:
      return std::make_unique<MixStream>(net, seed);
  }
  return nullptr;
}

NetworkUpdate RandomChurnBatch(Rng& rng, const DatabaseNetwork& net,
                               size_t ops) {
  NetworkUpdate u;
  const size_t v = net.num_vertices();
  const size_t items = net.num_items();
  for (size_t i = 0; i < ops; ++i) {
    if (rng.NextBool(0.3) && v >= 2) {
      const VertexId a = static_cast<VertexId>(rng.NextUint64(v));
      VertexId b = static_cast<VertexId>(rng.NextUint64(v));
      if (a == b) b = static_cast<VertexId>((b + 1) % v);
      u.edges.push_back(tcf::MakeEdge(a, b));
    } else {
      NetworkUpdate::TxInsert tx;
      tx.vertex = static_cast<VertexId>(rng.NextUint64(v));
      const size_t len = 1 + rng.NextUint64(3);
      std::vector<ItemId> ids;
      for (size_t k = 0; k < len; ++k) {
        ids.push_back(static_cast<ItemId>(rng.NextUint64(items)));
      }
      tx.items = Itemset(std::move(ids));
      u.transactions.push_back(std::move(tx));
    }
  }
  return u;
}

tcf::Status ApplyToMirror(DatabaseNetwork* net, const NetworkUpdate& update) {
  for (const NetworkUpdate::TxInsert& tx : update.transactions) {
    if (tcf::Status s = net->AddTransaction(tx.vertex, tx.items); !s.ok()) {
      return s;
    }
  }
  for (const tcf::Edge& e : update.edges) {
    if (tcf::Status s = net->AddEdge(e.u, e.v); !s.ok()) return s;
  }
  return tcf::Status::OK();
}

}  // namespace tcbench
