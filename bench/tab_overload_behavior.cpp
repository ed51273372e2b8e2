// Overload-behavior table: what a tightening memory budget does to
// served ingest — throughput, admission outcomes, shed activity, and
// the effective (reported) error bound.
//
// Every row drives the served write path: recv-sized chunks of ADD
// lines through BurstService::HandleLines over a DurableBurstEngine,
// whose live engine is registered on a ResourceGovernor the way
// `bursthist_cli serve --budget-mb` registers it. records/s therefore
// includes the WAL.
//
// Expectation: a soft budget alone keeps accepting every record but
// widens the reported bound (accuracy shed for space, per the
// degradation ladder in DESIGN.md § Resource governance); adding a
// hard budget starts refusing ADDs with RESOURCE_EXHAUSTED once
// shedding can no longer keep usage under it. Availability and honesty
// are the invariants — the process neither dies nor silently degrades.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "governor/resource_governor.h"
#include "recovery/durable_engine.h"
#include "server/ingest_server.h"
#include "util/env.h"
#include "util/status.h"

using namespace bursthist;
using namespace bursthist::bench;

namespace {

// Request bytes one TCP recv delivers to the server (its recv buffer).
constexpr size_t kRecvBytes = 8192;

struct RunResult {
  double seconds = 0.0;
  uint64_t accepted = 0;
  uint64_t refused = 0;
  uint64_t sheds = 0;
  size_t resident = 0;
  double bound = 0.0;
  DegradationLevel level = DegradationLevel::kNormal;
};

// The stream as ADD lines, cut into chunks of at most kRecvBytes.
std::vector<std::vector<std::string>> AddChunks(const Dataset& ds) {
  std::vector<std::vector<std::string>> chunks(1);
  size_t bytes = 0;
  for (const auto& rec : ds.stream.records()) {
    std::string line =
        "ADD " + std::to_string(rec.id) + " " + std::to_string(rec.time);
    if (bytes + line.size() + 1 > kRecvBytes) {
      chunks.emplace_back();
      bytes = 0;
    }
    bytes += line.size() + 1;
    chunks.back().push_back(std::move(line));
  }
  return chunks;
}

void CleanDir(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return;
  for (const auto& n : names.value()) (void)env->DeleteFile(dir + "/" + n);
}

// Serves every chunk into a fresh durable engine in `dir` under
// `budget`.
RunResult Serve(const std::vector<std::vector<std::string>>& chunks,
                EventId universe, const ResourceBudget& budget,
                const std::string& dir) {
  Env* env = Env::Default();
  CleanDir(env, dir);
  BurstEngineOptions<Pbe2> options;
  options.universe_size = universe;
  auto durable = DurableBurstEngine<Pbe2>::Open(env, dir, options);
  if (!durable.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 durable.status().ToString().c_str());
    std::exit(1);
  }
  auto* engine = &durable.value()->engine();
  ResourceGovernor governor(budget);
  governor.RegisterComponent(
      "engine", [engine] { return engine->MemoryUsage(); },
      [engine](double factor) { engine->Degrade(factor); });
  server::BurstServiceOptions service_options;
  service_options.governor = &governor;
  server::BurstService<DurableBurstEngine<Pbe2>> service(durable.value().get(),
                                                        service_options);

  RunResult r;
  bool close = false;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& chunk : chunks) {
    const std::string replies = service.HandleLines(chunk, &close);
    for (size_t pos = 0, end;
         (end = replies.find('\n', pos)) != std::string::npos; pos = end + 1) {
      if (replies.compare(pos, end - pos, "OK") == 0) {
        ++r.accepted;
      } else if (replies.compare(pos, 22, "ERR RESOURCE_EXHAUSTED") == 0) {
        ++r.refused;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.sheds = governor.shed_rounds();
  r.resident = engine->MemoryUsage();
  r.bound = engine->EffectivePointBound().point_bound;
  r.level = governor.level();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseArgs(argc, argv);
  Banner(cfg, "served ingest under tightening memory budgets",
         "soft budgets widen the reported bound; hard budgets refuse");

  Dataset ds = MakeUsPolitics(cfg.Scenario());
  const auto chunks = AddChunks(ds);
  std::printf("us-politics: %zu records, universe %u, %zu ADD chunks of <= "
              "%zu bytes\n\n",
              ds.stream.size(), ds.universe_size, chunks.size(), kRecvBytes);

  Env* env = Env::Default();
  const std::string dir = "/tmp/bursthist_overload_bench";
  (void)env->CreateDirIfMissing(dir);

  // The unbudgeted run fixes the budget scale (and the throughput
  // baseline) for the sweep.
  const RunResult base = Serve(chunks, ds.universe_size, ResourceBudget{}, dir);
  const size_t base_bytes = base.resident;
  std::printf("unbudgeted baseline: %.0f records/s, %.1f KB resident\n\n",
              base.seconds > 0 ? base.accepted / base.seconds : 0.0,
              base_bytes / 1024.0);

  struct BudgetRow {
    const char* name;
    size_t soft, hard;
  };
  const BudgetRow rows[] = {
      {"soft 1/2", base_bytes / 2, 0},
      {"soft 1/4", base_bytes / 4, 0},
      {"soft 1/4, hard 1/2", base_bytes / 4, base_bytes / 2},
      {"soft 1/8, hard 1/4", base_bytes / 8, base_bytes / 4},
  };

  std::printf("%-20s %11s %9s %8s %6s %9s %11s  %s\n", "budget", "records/s",
              "accepted", "refused", "sheds", "KB", "eff bound", "level");
  Rule();
  for (const BudgetRow& row : rows) {
    const RunResult r = Serve(chunks, ds.universe_size,
                              ResourceBudget{row.soft, row.hard}, dir);
    std::printf("%-20s %11.0f %9llu %8llu %6llu %9.1f %11.3g  %s\n", row.name,
                r.seconds > 0 ? r.accepted / r.seconds : 0.0,
                static_cast<unsigned long long>(r.accepted),
                static_cast<unsigned long long>(r.refused),
                static_cast<unsigned long long>(r.sheds), r.resident / 1024.0,
                r.bound, DegradationLevelName(r.level));
  }
  CleanDir(env, dir);
  ::rmdir(dir.c_str());
  bursthist::bench::MaybeEmitMetrics(cfg);
  return 0;
}
