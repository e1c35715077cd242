// Set-up and trace helper for the end-to-end benchmark (perfbench/run.py).
//
// Set-up commands write a workload's inputs from a seed; the timed work is
// then done by the `rolediet` CLI, never by this program:
//
//   perfbench_tool setup-org OUT --seed N [--scale K]
//       OUT/org: the paper-scale org (K = 0) or OrgProfile::small() with
//       every count multiplied by K.
//   perfbench_tool setup-mine OUT --seed N --scale K
//       OUT/org: OrgProfile::small() x K generated from one fixed seed,
//       with its edge rows in an order shuffled by N (see mining_org).
//   perfbench_tool setup-stream OUT --seed N --scale K --batches B
//                               --batch-size M
//       OUT/org plus OUT/journal.csv: B batches of M effective mutations.
//
// The traced run calls each layer's public functions one at a time and
// times them from outside, on the same kind of inputs:
//
//   perfbench_tool trace OUT --seed N --audit-scale K --mine-scale K
//                        --batches B --tail-batches T --batch-size M
//                        --checkpoint-every R
//
// The org of --audit-scale goes through the audit, stream and recovery
// layers, the org of --mine-scale through the mining layers. It prints the
// per-layer metrics as one JSON object on its last line and leaves
// OUT/report.json, OUT/recovered.json, OUT/journal.csv and
// OUT/mine_out for run.py's independent output checks.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/consolidation.hpp"
#include "core/engine.hpp"
#include "core/framework.hpp"
#include "gen/org_simulator.hpp"
#include "io/csv.hpp"
#include "io/journal.hpp"
#include "io/json_writer.hpp"
#include "mining/biclique.hpp"
#include "mining/miner.hpp"
#include "mining/upa.hpp"
#include "store/engine_store.hpp"
#include "store/snapshot.hpp"
#include "util/prng.hpp"
#include "util/timer.hpp"

namespace fs = std::filesystem;
using namespace rolediet;

namespace {

/// `--key value` options after the command and its OUT directory.
class Options {
 public:
  Options(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::invalid_argument("expected --key value, got '" + key + "'");
      values_[key.substr(2)] = argv[i + 1];
    }
  }

  [[nodiscard]] std::size_t size(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return static_cast<std::size_t>(std::stoull(it->second));
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Scale 0 is the paper-scale org; K >= 1 multiplies every count of the
/// 1:100 profile by K (role shapes stay as they are).
gen::OrgProfile make_profile(std::uint64_t seed, std::size_t scale) {
  if (scale == 0) {
    gen::OrgProfile profile = gen::OrgProfile::paper_scale();
    profile.seed = seed;
    return profile;
  }
  gen::OrgProfile p = gen::OrgProfile::small(seed);
  for (std::size_t* count :
       {&p.departments, &p.connected_users, &p.standalone_users, &p.connected_permissions,
        &p.standalone_permissions, &p.healthy_roles, &p.roles_without_users,
        &p.roles_without_permissions, &p.standalone_roles, &p.single_user_roles,
        &p.single_permission_roles, &p.same_user_pairs, &p.same_permission_pairs,
        &p.similar_user_pairs, &p.similar_permission_pairs}) {
    *count *= scale;
  }
  return p;
}

/// Mining cost follows the candidate count, which the generator's seed moves
/// a lot: at 2x, independently seeded orgs took 5.7-8.2 s to enumerate
/// (12.7k-14.6k candidates). Entity order matters too: the same org with
/// its entities shuffled took 9.5-10.4 s against 6.9-7.0 s in generator
/// order. So every mining input is the org of one fixed generator seed, in
/// generator entity order, and the run's seed shuffles the order of its
/// edge rows only.
constexpr std::uint64_t kMiningStructureSeed = 1;

core::RbacDataset mining_org(std::uint64_t seed, std::size_t scale) {
  const gen::OrgDataset org = gen::generate_org(make_profile(kMiningStructureSeed, scale));
  const core::RbacDataset& in = org.dataset;
  core::RbacDataset out;
  for (core::Id u = 0; u < in.num_users(); ++u) out.add_user(in.user_name(u));
  for (core::Id r = 0; r < in.num_roles(); ++r) out.add_role(in.role_name(r));
  for (core::Id p = 0; p < in.num_permissions(); ++p) out.add_permission(in.permission_name(p));
  util::Xoshiro256 rng(seed ^ 0x5AFF1EDULL);
  std::vector<std::pair<core::Id, core::Id>> edges(in.role_user_edges().begin(),
                                                   in.role_user_edges().end());
  rng.shuffle(std::span(edges));
  for (const auto& [r, u] : edges) out.assign_user(r, u);
  edges.assign(in.role_permission_edges().begin(), in.role_permission_edges().end());
  rng.shuffle(std::span(edges));
  for (const auto& [r, p] : edges) out.grant_permission(r, p);
  return out;
}

/// Live edge set of one matrix: O(1) membership plus uniform sampling.
class EdgePool {
 public:
  void add(core::Id role, core::Id other) {
    if (index_.emplace(key(role, other), list_.size()).second) list_.emplace_back(role, other);
  }
  [[nodiscard]] bool contains(core::Id role, core::Id other) const {
    return index_.count(key(role, other)) != 0;
  }
  /// Removes and returns a uniformly drawn edge.
  std::pair<core::Id, core::Id> take(util::Xoshiro256& rng) {
    const std::size_t i = rng.bounded(list_.size());
    const auto edge = list_[i];
    index_.erase(key(edge.first, edge.second));
    if (i + 1 != list_.size()) {
      list_[i] = list_.back();
      index_[key(list_[i].first, list_[i].second)] = i;
    }
    list_.pop_back();
    return edge;
  }

 private:
  static std::uint64_t key(core::Id role, core::Id other) {
    return (static_cast<std::uint64_t>(role) << 32) | other;
  }
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::pair<core::Id, core::Id>> list_;
};

/// Seeded batches of effective mutations in bench_reaudit's mix, cycling
/// revoke user / assign user / revoke permission / grant permission. Every
/// mutation changes the state it is applied to: revocations draw from the
/// live edges, additions redraw until the edge is absent.
std::vector<core::RbacDelta> make_batches(const core::RbacDataset& base, std::size_t batches,
                                          std::size_t batch_size, std::uint64_t seed) {
  EdgePool users, perms;
  for (const auto& [role, user] : base.role_user_edges()) users.add(role, user);
  for (const auto& [role, perm] : base.role_permission_edges()) perms.add(role, perm);
  util::Xoshiro256 rng(seed ^ 0xDE17A5EEDULL);
  const std::size_t roles = base.num_roles();
  std::vector<core::RbacDelta> out(batches);
  std::size_t made = 0;
  for (core::RbacDelta& batch : out) {
    while (batch.size() < batch_size) {
      switch (made++ % 4) {
        case 0: {
          const auto [r, u] = users.take(rng);
          batch.revoke_user(base.role_name(r), base.user_name(u));
          break;
        }
        case 1: {
          core::Id r = 0, u = 0;
          do {
            r = static_cast<core::Id>(rng.bounded(roles));
            u = static_cast<core::Id>(rng.bounded(base.num_users()));
          } while (users.contains(r, u));
          users.add(r, u);
          batch.assign_user(base.role_name(r), base.user_name(u));
          break;
        }
        case 2: {
          const auto [r, p] = perms.take(rng);
          batch.revoke_permission(base.role_name(r), base.permission_name(p));
          break;
        }
        default: {
          core::Id r = 0, p = 0;
          do {
            r = static_cast<core::Id>(rng.bounded(roles));
            p = static_cast<core::Id>(rng.bounded(base.num_permissions()));
          } while (perms.contains(r, p));
          perms.add(r, p);
          batch.grant_permission(base.role_name(r), base.permission_name(p));
          break;
        }
      }
    }
  }
  return out;
}

void write_journal(const fs::path& path, const std::vector<core::RbacDelta>& batches) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  for (const core::RbacDelta& batch : batches) io::write_journal(out, batch);
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << text;
}

/// The options every workload runs with: role-diet, t = 1, one thread.
core::AuditOptions audit_options() {
  core::AuditOptions options;
  options.method = core::Method::kRoleDiet;
  options.similarity_threshold = 1;
  options.threads = 1;
  return options;
}

std::uint64_t wal_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const fs::path& segment : store::list_wal_segments(dir)) total += fs::file_size(segment);
  return total;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

template <typename F>
double seconds_of(F&& f) {
  util::Stopwatch watch;
  f();
  return watch.seconds();
}

int cmd_setup_org(const fs::path& out, const Options& opt) {
  const gen::OrgDataset org = gen::generate_org(make_profile(opt.size("seed"), opt.size("scale")));
  io::save_dataset(org.dataset, out / "org");
  return 0;
}

int cmd_setup_mine(const fs::path& out, const Options& opt) {
  io::save_dataset(mining_org(opt.size("seed"), opt.size("scale")), out / "org");
  return 0;
}

int cmd_setup_stream(const fs::path& out, const Options& opt) {
  const std::uint64_t seed = opt.size("seed");
  const gen::OrgDataset org = gen::generate_org(make_profile(seed, opt.size("scale")));
  io::save_dataset(org.dataset, out / "org");
  write_journal(out / "journal.csv",
                make_batches(org.dataset, opt.size("batches"), opt.size("batch-size"), seed));
  return 0;
}

int cmd_trace(const fs::path& out, const Options& opt) {
  const std::uint64_t seed = opt.size("seed");
  const std::size_t stream_batches = opt.size("batches");
  const std::size_t checkpoint_every = opt.size("checkpoint-every");
  const core::AuditOptions options = audit_options();
  std::map<std::string, double> m;

  {
    const gen::OrgDataset org = gen::generate_org(make_profile(seed, opt.size("audit-scale")));
    io::save_dataset(org.dataset, out / "org");
  }

  // org-audit: what `rolediet audit DIR --json FILE` does, layer by layer.
  core::RbacDataset dataset;
  m["io.load_dataset_s"] = seconds_of([&] { dataset = io::load_dataset(out / "org"); });
  std::unique_ptr<core::AuditEngine> engine;
  m["core.engine_init_s"] =
      seconds_of([&] { engine = std::make_unique<core::AuditEngine>(dataset, options); });
  core::AuditReport report;
  m["core.first_reaudit_s"] = seconds_of([&] { report = engine->reaudit(); });
  m["core.engine_teardown_s"] = seconds_of([&] { engine.reset(); });
  m["io.report_json_s"] = seconds_of(
      [&] { write_text(out / "report.json", io::report_to_json(report, dataset)); });
  m["core.phase.structural_s"] = report.structural_time.seconds;
  m["core.phase.same_users_s"] = report.same_users_time.seconds;
  m["core.phase.same_perms_s"] = report.same_permissions_time.seconds;
  m["core.phase.similar_users_s"] = report.similar_users_time.seconds;
  m["core.phase.similar_perms_s"] = report.similar_permissions_time.seconds;
  m["core.unphased_s"] = m["core.first_reaudit_s"] - report.total_seconds();
  double rows = 0, pairs = 0, matched = 0;
  for (const core::FinderWorkStats* w : {&report.same_users_work, &report.same_permissions_work,
                                         &report.similar_users_work,
                                         &report.similar_permissions_work}) {
    rows += static_cast<double>(w->rows_processed);
    pairs += static_cast<double>(w->pairs_evaluated);
    matched += static_cast<double>(w->pairs_matched);
  }
  m["core.rows_processed"] = rows;
  m["core.pairs_evaluated"] = pairs;
  m["core.pairs_matched"] = matched;

  // delta-stream: what `rolediet replay --store` does per batch.
  const std::vector<core::RbacDelta> batches = make_batches(
      dataset, stream_batches + opt.size("tail-batches"), opt.size("batch-size"), seed);
  write_journal(out / "journal.csv", batches);
  const fs::path store_dir = out / "store";
  {
    store::EngineStore store = store::EngineStore::create(store_dir, dataset, options);
    (void)store.reaudit();
    std::vector<double> apply_ms, reaudit_ms, unphased_ms, checkpoint_ms;
    double delta_pairs = 0;
    std::uint64_t grown = 0, mutations = 0, last_checkpoint = 0;
    for (std::size_t b = 0; b < stream_batches; ++b) {
      const std::uint64_t before = wal_bytes(store_dir);
      apply_ms.push_back(1e3 * seconds_of([&] { store.apply(batches[b]); }));
      grown += wal_bytes(store_dir) - before;
      mutations += batches[b].size();
      core::AuditReport delta;
      reaudit_ms.push_back(1e3 * seconds_of([&] { delta = store.reaudit(); }));
      unphased_ms.push_back(reaudit_ms.back() - 1e3 * delta.total_seconds());
      for (const core::FinderWorkStats* w :
           {&delta.same_users_work, &delta.same_permissions_work, &delta.similar_users_work,
            &delta.similar_permissions_work}) {
        delta_pairs += static_cast<double>(w->pairs_evaluated);
      }
      if (store.records() - last_checkpoint >= checkpoint_every) {
        checkpoint_ms.push_back(1e3 * seconds_of([&] { (void)store.checkpoint(); }));
        last_checkpoint = store.records();
      }
    }
    m["store.apply_ms"] = median(apply_ms);
    m["store.reaudit_ms"] = median(reaudit_ms);
    m["core.delta_unphased_ms"] = median(unphased_ms);
    m["store.checkpoint_ms"] = median(checkpoint_ms);
    m["core.delta_pairs_evaluated"] = delta_pairs;
    m["store.wal_bytes_per_mutation"] =
        static_cast<double>(grown) / static_cast<double>(std::max<std::uint64_t>(mutations, 1));
    m["store.snapshot_bytes"] =
        static_cast<double>(fs::file_size(store::list_snapshots(store_dir).back()));
    // The tail: committed batches after the last checkpoint, then the
    // process "crashes" (the store is dropped without a checkpoint).
    for (std::size_t b = stream_batches; b < batches.size(); ++b) store.apply(batches[b]);
  }
  dataset = core::RbacDataset{};

  // Recovery: what `rolediet recover STORE --json FILE` does.
  m["store.snapshot_read_s"] = seconds_of(
      [&] { (void)store::SnapshotReader(store::list_snapshots(store_dir).back()).read(); });
  {
    std::optional<store::EngineStore> recovered;
    m["store.open_s"] = seconds_of([&] { recovered.emplace(store::EngineStore::open(store_dir, options)); });
    m["store.replayed_records"] = static_cast<double>(recovered->recovery().replayed_records);
    core::AuditReport after;
    m["core.recover_reaudit_s"] = seconds_of([&] { after = recovered->reaudit(); });
    write_text(out / "recovered.json", io::report_to_json(after, recovered->engine().snapshot()));
  }

  // mine-org: what `rolediet mine DIR OUT --json FILE` does.
  io::save_dataset(mining_org(seed, opt.size("mine-scale")), out / "mine");
  const core::RbacDataset mine_input = io::load_dataset(out / "mine");
  const mining::MiningOptions mining_options;
  std::optional<mining::UpaClasses> upa;
  m["mining.upa_s"] = seconds_of(
      [&] { upa.emplace(mining::build_upa_classes(mine_input, mining_options.backend)); });
  m["mining.enumerate_s"] = seconds_of([&] {
    (void)mining::enumerate_closed_sets(
        *upa, {.max_candidates = mining_options.max_candidates, .threads = 1});
  });
  mining::MiningPlan plan;
  m["mining.plan_s"] = seconds_of([&] { plan = mining::plan_mining(mine_input, mining_options); });
  core::RbacDataset migrated;
  m["mining.apply_s"] = seconds_of([&] { migrated = mining::apply_mining(mine_input, plan); });
  bool verified = false;
  m["core.verify_equivalence_s"] =
      seconds_of([&] { verified = core::verify_equivalence(mine_input, migrated); });
  if (!verified) throw std::runtime_error("mined plan failed verify_equivalence");
  io::save_dataset(migrated, out / "mine_out");
  m["mining.user_classes"] = static_cast<double>(plan.stats.user_classes);
  m["mining.candidates"] = static_cast<double>(plan.stats.candidates);
  m["mining.enumeration_rounds"] = static_cast<double>(plan.stats.enumeration_rounds);
  m["mining.roles_after"] = static_cast<double>(plan.stats.roles_after);

  io::JsonWriter w;
  w.begin_object();
  for (const auto& [name, value] : m) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
  std::cout << w.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 3) throw std::invalid_argument("usage: perfbench_tool COMMAND OUT [--key value]...");
    const std::string command = argv[1];
    const fs::path out = argv[2];
    const Options opt(argc, argv, 3);
    fs::create_directories(out);
    if (command == "setup-org") return cmd_setup_org(out, opt);
    if (command == "setup-mine") return cmd_setup_mine(out, opt);
    if (command == "setup-stream") return cmd_setup_stream(out, opt);
    if (command == "trace") return cmd_trace(out, opt);
    throw std::invalid_argument("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << "\n";
    return 1;
  }
}
