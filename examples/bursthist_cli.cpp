// bursthist_cli: file-based front end for the BurstEngine.
//
//   bursthist_cli ingest  <events.csv> <K> <out.sketch> [gamma]
//   bursthist_cli info    <sketch>
//   bursthist_cli metrics <sketch> [--json]
//   bursthist_cli point   <sketch> <event> <t> <tau>
//   bursthist_cli times   <sketch> <event> <theta> <tau>
//   bursthist_cli events  <sketch> <t> <theta> <tau>
//
// events.csv: one "event_id,timestamp" pair per line, timestamps
// non-decreasing. If `gamma` is given the engine uses PBE-2 cells with
// that band; otherwise PBE-1 with the paper defaults.
//
// The sketch file embeds the engine configuration, so query commands
// need no flags. Demo:
//   ./bursthist_cli selftest    # generates a CSV, ingests, queries

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/burst_engine.h"
#include "core/sketch_store.h"
#include "fault/crashpoint.h"
#include "gen/scenarios.h"
#include "governor/resource_governor.h"
#include "obs/metrics.h"
#include "recovery/scrub.h"
#include "replication/replica_engine.h"
#include "replication/wal_shipper.h"
#include "server/ingest_server.h"
#include "shard/cluster_engine.h"
#include "shard/cluster_manifest.h"
#include "stream/csv_io.h"
#include "util/env.h"
#include "util/serialize.h"

using namespace bursthist;

namespace {

constexpr uint32_t kFileMagic = 0x42483031;  // "BH01"

// On-disk layout: file magic, cell kind (1=PBE-1, 2=PBE-2), the
// options needed to reconstruct the engine, then the engine payload.
struct FileHeader {
  uint8_t kind = 1;
  EventId universe = 1;
  uint64_t grid_depth = 2, grid_width = 55, grid_seed = 0;
  uint64_t buffer_points = 1500, budget_points = 120;  // PBE-1
  double gamma = 8.0;                                  // PBE-2
};

void WriteHeader(BinaryWriter* w, const FileHeader& h) {
  w->Put(kFileMagic);
  w->Put(h.kind);
  w->Put(h.universe);
  w->Put(h.grid_depth);
  w->Put(h.grid_width);
  w->Put(h.grid_seed);
  w->Put(h.buffer_points);
  w->Put(h.budget_points);
  w->Put(h.gamma);
}

Status ReadHeader(BinaryReader* r, FileHeader* h) {
  uint32_t magic = 0;
  BURSTHIST_RETURN_IF_ERROR(r->Get(&magic));
  if (magic != kFileMagic) return Status::Corruption("not a bursthist sketch");
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->kind));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->universe));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->grid_depth));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->grid_width));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->grid_seed));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->buffer_points));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->budget_points));
  BURSTHIST_RETURN_IF_ERROR(r->Get(&h->gamma));
  if (h->kind != 1 && h->kind != 2) {
    return Status::Corruption("unknown cell kind");
  }
  // The header drives the engine constructor's allocations, so its
  // shape must be plausible for the payload that follows (every grid
  // cell serializes to >= 8 bytes) before any engine is built.
  if (h->universe == 0 || h->grid_depth == 0 || h->grid_width == 0 ||
      h->buffer_points == 0 || h->budget_points == 0 ||
      !(h->gamma >= 0.0) ||  // rejects NaN and negative bands
      DyadicIndexCellCount(h->universe, h->grid_depth, h->grid_width) >
          r->remaining() / 8 + 1) {
    return Status::Corruption("implausible sketch header");
  }
  return Status::OK();
}

template <typename PbeT>
BurstEngineOptions<PbeT> EngineOptions(const FileHeader& h) {
  BurstEngineOptions<PbeT> o;
  o.universe_size = h.universe;
  o.grid.depth = static_cast<size_t>(h.grid_depth);
  o.grid.width = static_cast<size_t>(h.grid_width);
  o.grid.seed = h.grid_seed;
  if constexpr (std::is_same_v<PbeT, Pbe1>) {
    o.cell.buffer_points = static_cast<size_t>(h.buffer_points);
    o.cell.budget_points = static_cast<size_t>(h.budget_points);
  } else {
    o.cell.gamma = h.gamma;
  }
  return o;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

template <typename PbeT>
int IngestWith(const char* csv_path, const FileHeader& header,
               const char* out_path) {
  BurstEngine<PbeT> engine(EngineOptions<PbeT>(header));
  auto stream = ReadEventStreamCsv(csv_path);
  if (!stream.ok()) return Fail(stream.status());
  // Record-at-a-time so the periodic stats line (stderr, ~1/s) can
  // report ingest progress; a final line prints unconditionally.
  obs::PeriodicStats stats;
  for (const auto& r : stream.value().records()) {
    if (Status st = engine.Append(r.id, r.time); !st.ok()) return Fail(st);
    stats.Tick();
  }
  engine.Finalize();
  engine.PublishMetrics();
  stats.Final();

  BinaryWriter w;
  WriteHeader(&w, header);
  engine.Serialize(&w);
  if (Status st = WriteFile(out_path, w.bytes()); !st.ok()) return Fail(st);
  std::printf("ingested %zu rows, wrote %s (%.1f KB, sketch %.1f KB)\n",
              stream.value().size(), out_path, w.bytes().size() / 1024.0,
              engine.SizeBytes() / 1024.0);
  return 0;
}

// Loads the sketch and dispatches `fn(engine)` on the concrete type.
template <typename Fn>
int WithEngine(const char* path, Fn&& fn) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return Fail(bytes.status());
  BinaryReader r(bytes.value());
  FileHeader h;
  if (Status st = ReadHeader(&r, &h); !st.ok()) return Fail(st);
  if (h.kind == 1) {
    BurstEngine1 engine(EngineOptions<Pbe1>(h));
    if (Status st = engine.Deserialize(&r); !st.ok()) return Fail(st);
    return fn(engine, h);
  }
  BurstEngine2 engine(EngineOptions<Pbe2>(h));
  if (Status st = engine.Deserialize(&r); !st.ok()) return Fail(st);
  return fn(engine, h);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bursthist_cli serve  <dir> <K> [--port N] [--gamma g]\n"
      "                       [--lateness L] [--budget-mb M]\n"
      "                       [--repl-port N] [--follow host:port]\n"
      "                       [--shards N]\n"
      "  bursthist_cli ingest <events.csv> <K> <out.sketch> [gamma]\n"
      "  bursthist_cli info   <sketch>\n"
      "  bursthist_cli metrics <sketch> [--json]\n"
      "  bursthist_cli point  <sketch> <event> <t> <tau>\n"
      "  bursthist_cli times  <sketch> <event> <theta> <tau>\n"
      "  bursthist_cli events <sketch> <t> <theta> <tau>\n"
      "  bursthist_cli scrub  <dir> [--no-quarantine]\n"
      "  bursthist_cli store-list   <dir>\n"
      "  bursthist_cli store-save   <dir> <name> <events.csv> <K> [gamma]\n"
      "  bursthist_cli store-topk   <dir> <name> <t> <k> <tau>\n"
      "  bursthist_cli store-remove <dir> <name>\n"
      "  bursthist_cli selftest\n");
  return 2;
}

// store-save: ingest a CSV straight into a named catalog entry.
template <typename PbeT>
int StoreSave(SketchStore* store, const char* name, const char* csv_path,
              const BurstEngineOptions<PbeT>& options) {
  BurstEngine<PbeT> engine(options);
  auto stream = ReadEventStreamCsv(csv_path);
  if (!stream.ok()) return Fail(stream.status());
  if (Status st = engine.AppendStream(stream.value()); !st.ok()) {
    return Fail(st);
  }
  engine.Finalize();
  if (Status st = store->Save(name, engine); !st.ok()) return Fail(st);
  std::printf("saved '%s' (%zu rows, %.1f KB)\n", name,
              stream.value().size(), engine.SizeBytes() / 1024.0);
  return 0;
}

// serve: durable ingest + snapshot-served queries over TCP, until
// SIGINT/SIGTERM, on a ClusterEngine at every --shards value (one
// shard keeps its files at the directory's root). Engine shape matches
// the FileHeader defaults, so replies agree with sketches the `ingest`
// command writes from the same stream.
volatile std::sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

struct ServeConfig {
  const char* dir = nullptr;
  FileHeader header;
  uint16_t port = 0;
  Timestamp lateness = 0;
  size_t budget_mb = 0;
  uint16_t repl_port = 0;      ///< non-zero: ship shard i's WAL on +i.
  std::string follow_host;     ///< non-empty: follow shard i of ...
  uint16_t follow_port = 0;    ///< ... the leader on this port + i.
  size_t shards = 1;
};

// The one serve stack, leader or follower: open the cluster, wire the
// follower hooks and the governor, serve, ship each shard's WAL (a
// follower re-ships what it applied), follow, and on a signal tear
// down in reverse order and leave a final checkpoint.
template <typename PbeT>
int ServeShards(const ServeConfig& cfg) {
  obs::RegisterStandardMetrics();
  BurstEngineOptions<PbeT> options = EngineOptions<PbeT>(cfg.header);
  options.max_lateness = cfg.lateness;
  shard::ClusterOptions cluster_options;
  cluster_options.shards = cfg.shards;
  const bool follow = !cfg.follow_host.empty();
  repl::ReplicaOptions leader;
  leader.leader_host = cfg.follow_host;
  leader.leader_port = cfg.follow_port;
  auto opened = follow ? shard::ClusterEngine<PbeT>::OpenFollower(
                             Env::Default(), cfg.dir, options, leader,
                             cluster_options)
                       : shard::ClusterEngine<PbeT>::Open(
                             Env::Default(), cfg.dir, options, cluster_options);
  if (!opened.ok()) return Fail(opened.status());
  shard::ClusterEngine<PbeT>* cluster = opened.value().get();

  server::BurstServiceOptions service_options;
  if (follow) {
    service_options.replica.enabled = true;
    service_options.replica.is_follower = [cluster] {
      return cluster->follower();
    };
    service_options.replica.lag = [cluster] { return cluster->lag(); };
    service_options.replica.applied = [cluster] {
      return cluster->applied_records();
    };
    service_options.replica.promote = [cluster] { return cluster->Promote(); };
  }
  ResourceGovernor governor(
      ResourceBudget{cfg.budget_mb << 19, cfg.budget_mb << 20});
  if (cfg.budget_mb > 0) {
    cluster->RegisterComponents(&governor);
    service_options.governor = &governor;
  }

  server::IngestServer<shard::ClusterEngine<PbeT>> server(cluster,
                                                          service_options);
  server::TcpServerOptions tcp;
  tcp.port = cfg.port;
  if (Status st = server.Start(tcp); !st.ok()) return Fail(st);
  std::printf("listening on %s:%u\n", tcp.host.c_str(), server.port());

  std::vector<std::unique_ptr<repl::WalShipper>> shippers;
  auto stop_extras = [&] {
    for (auto& sh : shippers) sh->Stop();
    cluster->Stop();
  };
  auto start_extras = [&]() -> Status {
    for (size_t i = 0; cfg.repl_port != 0 && i < cfg.shards; ++i) {
      repl::WalShipperOptions sopts;
      sopts.port = static_cast<uint16_t>(cfg.repl_port + i);
      auto state = [cluster, i] {
        return cluster->WithShard(i, [](const auto& d) {
          return repl::LeaderStatus{d.wal_position(), d.Watermark()};
        });
      };
      shippers.push_back(std::make_unique<repl::WalShipper>());
      BURSTHIST_RETURN_IF_ERROR(shippers.back()->Start(
          Env::Default(), shard::ShardDir(cfg.dir, i, cfg.shards), sopts,
          state));
      std::printf("replicating on %s:%u\n", sopts.host.c_str(),
                  shippers.back()->port());
    }
    if (follow) {
      BURSTHIST_RETURN_IF_ERROR(cluster->Start());
      std::printf("following %s:%u\n", cfg.follow_host.c_str(),
                  cfg.follow_port);
    }
    return Status::OK();
  };
  if (Status st = start_extras(); !st.ok()) {
    server.Stop();
    stop_extras();
    return Fail(st);
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Graceful shutdown: refuse new connections, give in-flight
  // requests a grace period, then tear down and leave a final
  // checkpoint so the next start replays (almost) nothing.
  server.StopAccepting();
  server.Drain(2000);
  server.Stop();
  stop_extras();
  // The final checkpoint is an optimization, not a durability
  // barrier: every acknowledged record is already in the WAL, so a
  // crash (or injected fault) anywhere inside Checkpoint() leaves a
  // directory the next start recovers by WAL replay. But a FAILED
  // checkpoint is still a failed shutdown step the operator must see
  // — exit nonzero instead of burying it in a log line.
  if (Status st = cluster->Checkpoint(); !st.ok()) {
    std::fprintf(stderr,
                 "final checkpoint failed (WAL replay will recover on next "
                 "start): %s\n",
                 st.message().c_str());
    return 1;
  }
  std::printf("stopped\n");
  return 0;
}

int Serve(int argc, char** argv) {
  if (argc < 4) return Usage();
  ServeConfig cfg;
  cfg.dir = argv[2];
  cfg.header.universe =
      static_cast<EventId>(std::strtoul(argv[3], nullptr, 10));
  if (cfg.header.universe == 0) return Usage();
  for (int i = 4; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--port") {
      cfg.port = static_cast<uint16_t>(std::strtoul(argv[i + 1], nullptr, 10));
    } else if (flag == "--gamma") {
      cfg.header.kind = 2;
      cfg.header.gamma = std::atof(argv[i + 1]);
    } else if (flag == "--lateness") {
      cfg.lateness = std::strtoll(argv[i + 1], nullptr, 10);
    } else if (flag == "--budget-mb") {
      cfg.budget_mb = std::strtoul(argv[i + 1], nullptr, 10);
    } else if (flag == "--repl-port") {
      cfg.repl_port =
          static_cast<uint16_t>(std::strtoul(argv[i + 1], nullptr, 10));
      if (cfg.repl_port == 0) return Usage();
    } else if (flag == "--follow") {
      const std::string target = argv[i + 1];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) return Usage();
      cfg.follow_host = target.substr(0, colon);
      cfg.follow_port = static_cast<uint16_t>(
          std::strtoul(target.c_str() + colon + 1, nullptr, 10));
      if (cfg.follow_host.empty() || cfg.follow_port == 0) return Usage();
    } else if (flag == "--shards") {
      cfg.shards = std::strtoul(argv[i + 1], nullptr, 10);
      if (cfg.shards == 0) return Usage();
    } else {
      return Usage();
    }
  }
  return cfg.header.kind == 1 ? ServeShards<Pbe1>(cfg) : ServeShards<Pbe2>(cfg);
}

int SelfTest() {
  // Generate a small soccer CSV, ingest it, and run one of each query.
  ScenarioConfig cfg;
  cfg.scale = 0.005;
  SingleEventStream soccer = MakeSoccer(cfg);
  const char* csv = "/tmp/bursthist_cli_demo.csv";
  std::FILE* f = std::fopen(csv, "w");
  if (f == nullptr) return Fail(Status::NotFound(csv));
  for (Timestamp t : soccer.times()) {
    std::fprintf(f, "0,%" PRId64 "\n", t);
  }
  std::fclose(f);

  FileHeader h;
  h.kind = 1;
  h.universe = 4;
  const char* sketch = "/tmp/bursthist_cli_demo.sketch";
  if (int rc = IngestWith<Pbe1>(csv, h, sketch); rc != 0) return rc;
  return WithEngine(sketch, [](auto& engine, const FileHeader&) {
    const Timestamp tau = kSecondsPerDay;
    std::printf("point(0, day20, 1d) = %.0f\n",
                engine.PointQuery(0, 20 * kSecondsPerDay, tau));
    auto iv = engine.BurstyTimeQuery(0, 200.0, tau);
    std::printf("bursty intervals at theta=200: %zu\n", iv.size());
    auto ev = engine.BurstyEventQuery(20 * kSecondsPerDay, 200.0, tau);
    std::printf("bursty events at day 20: %zu\n", ev.size());
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
#ifndef BURSTHIST_NO_FAULT
  // Honor BURSTHIST_CRASHPOINTS so the torture harness can schedule
  // faults inside a real served process. Compiles out (along with
  // every crashpoint) under -DBURSTHIST_NO_FAULT=ON.
  if (Status st = fault::FaultScheduler::Global().LoadFromEnv(); !st.ok()) {
    std::fprintf(stderr, "bad BURSTHIST_CRASHPOINTS: %s\n",
                 st.message().c_str());
    return 2;
  }
#endif
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];

  if (cmd == "selftest") return SelfTest();
  if (cmd == "serve") return Serve(argc, argv);

  if (cmd == "ingest") {
    if (argc != 5 && argc != 6) return Usage();
    FileHeader h;
    h.universe = static_cast<EventId>(std::strtoul(argv[3], nullptr, 10));
    if (h.universe == 0) return Usage();
    if (argc == 6) {
      h.kind = 2;
      h.gamma = std::atof(argv[5]);
    }
    return h.kind == 1 ? IngestWith<Pbe1>(argv[2], h, argv[4])
                       : IngestWith<Pbe2>(argv[2], h, argv[4]);
  }

  if (cmd == "info" && argc == 3) {
    return WithEngine(argv[2], [](auto& engine, const FileHeader& h) {
      std::printf("kind: CM-PBE-%d  K=%u  grid d=%llu w=%llu\n", h.kind,
                  h.universe, static_cast<unsigned long long>(h.grid_depth),
                  static_cast<unsigned long long>(h.grid_width));
      std::printf("records: %llu   sketch size: %.1f KB   resident: %.1f KB\n",
                  static_cast<unsigned long long>(engine.TotalCount()),
                  engine.SizeBytes() / 1024.0, engine.MemoryUsage() / 1024.0);
      const EffectiveErrorBound b = engine.EffectivePointBound();
      std::printf(
          "effective bound: |b~ - b| <= %.3f  (eps=%.4f delta=%.4f "
          "cell=%.3f)\n",
          b.point_bound, b.epsilon, b.delta, b.cell_error);
      return 0;
    });
  }

  if (cmd == "metrics" && (argc == 3 || argc == 4)) {
    const bool json = argc == 4 && std::strcmp(argv[3], "--json") == 0;
    if (argc == 4 && !json) return Usage();
    // Materialize the full declared set first so the exposition shows
    // every metric (zeros included), then load the sketch and touch
    // each query path once so the latency histograms carry samples.
    obs::RegisterStandardMetrics();
    return WithEngine(argv[2], [&](auto& engine, const FileHeader&) {
      const Timestamp tau = kSecondsPerDay;
      (void)engine.PointQuery(0, 20 * kSecondsPerDay, tau);
      (void)engine.BurstyTimeQuery(0, 1.0, tau);
      (void)engine.BurstyEventQuery(20 * kSecondsPerDay, 1.0, tau);
      engine.PublishMetrics();
      std::string out;
      if (json) {
        obs::MetricsRegistry::Global().WriteJson(&out);
        out += "\n";
      } else {
        obs::MetricsRegistry::Global().WritePrometheus(&out);
      }
      std::fputs(out.c_str(), stdout);
      return 0;
    });
  }

  if (cmd == "point" && argc == 6) {
    const EventId e = static_cast<EventId>(std::strtoul(argv[3], nullptr, 10));
    const Timestamp t = std::strtoll(argv[4], nullptr, 10);
    const Timestamp tau = std::strtoll(argv[5], nullptr, 10);
    return WithEngine(argv[2], [&](auto& engine, const FileHeader&) {
      std::printf("%.2f\n", engine.PointQuery(e, t, tau));
      return 0;
    });
  }

  if (cmd == "times" && argc == 6) {
    const EventId e = static_cast<EventId>(std::strtoul(argv[3], nullptr, 10));
    const double theta = std::atof(argv[4]);
    const Timestamp tau = std::strtoll(argv[5], nullptr, 10);
    return WithEngine(argv[2], [&](auto& engine, const FileHeader&) {
      for (const auto& iv : engine.BurstyTimeQuery(e, theta, tau)) {
        std::printf("%" PRId64 " %" PRId64 "\n", iv.begin, iv.end);
      }
      return 0;
    });
  }

  if (cmd == "scrub" && (argc == 3 || argc == 4)) {
    ScrubOptions opts;
    if (argc == 4) {
      if (std::string(argv[3]) != "--no-quarantine") return Usage();
      opts.quarantine = false;
    }
    Env* env = Env::Default();
    const std::string dir = argv[2];
    // A cluster directory is scrubbed shard by shard and merged, so
    // operators get the same one-verb check at any shard count.
    auto shards = shard::ClusterShardCount(env, dir);
    if (!shards.ok()) return Fail(shards.status());  // damaged manifest
    if (shards.value() > 1) {
      std::printf("cluster directory: %zu shard(s)\n", shards.value());
    }
    auto report = shard::ScrubShards(shards.value(), [&](size_t i) {
      return ScrubDurableDir(env, shard::ShardDir(dir, i, shards.value()),
                             opts);
    });
    if (!report.ok()) return Fail(report.status());
    const ScrubReport& r = report.value();
    std::printf(
        "scrubbed %llu WAL segments (%llu records), %llu snapshots\n",
        static_cast<unsigned long long>(r.wal_segments_checked),
        static_cast<unsigned long long>(r.wal_records_checked),
        static_cast<unsigned long long>(r.snapshots_checked));
    if (r.tail_torn) {
      std::printf("newest segment ends in a torn tail (crash remnant; "
                  "recovery handles it)\n");
    }
    for (const auto& issue : r.issues) {
      std::printf("CORRUPT %s%s: %s\n", issue.file.c_str(),
                  issue.quarantined ? " (quarantined)" : "",
                  issue.detail.c_str());
    }
    if (r.quarantined_present > 0) {
      std::printf("%llu quarantined file(s) in directory\n",
                  static_cast<unsigned long long>(r.quarantined_present));
    }
    std::printf(r.clean() ? "clean\n" : "corruption found\n");
    return r.clean() ? 0 : 3;
  }

  if (cmd == "store-list" && argc == 3) {
    SketchStore store(argv[2]);
    auto list = store.List();
    if (!list.ok()) return Fail(list.status());
    for (const auto& e : list.value()) {
      std::printf("%-32s CM-PBE-%d\n", e.name.c_str(), e.kind);
    }
    if (list.value().empty()) std::printf("(empty store)\n");
    return 0;
  }

  if (cmd == "store-save" && (argc == 6 || argc == 7)) {
    SketchStore store(argv[2]);
    const EventId k =
        static_cast<EventId>(std::strtoul(argv[5], nullptr, 10));
    if (k == 0) return Usage();
    if (argc == 7) {
      BurstEngineOptions<Pbe2> o;
      o.universe_size = k;
      o.cell.gamma = std::atof(argv[6]);
      return StoreSave(&store, argv[3], argv[4], o);
    }
    BurstEngineOptions<Pbe1> o;
    o.universe_size = k;
    return StoreSave(&store, argv[3], argv[4], o);
  }

  if (cmd == "store-topk" && argc == 7) {
    SketchStore store(argv[2]);
    const Timestamp t = std::strtoll(argv[4], nullptr, 10);
    const size_t k = std::strtoul(argv[5], nullptr, 10);
    const Timestamp tau = std::strtoll(argv[6], nullptr, 10);
    auto run = [&](const auto& engine) {
      for (const auto& [e, b] : engine.TopKBurstyEvents(t, k, tau)) {
        std::printf("%u %.2f\n", e, b);
      }
      return 0;
    };
    auto e1 = store.LoadEngine1(argv[3]);
    if (e1.ok()) return run(e1.value());
    auto e2 = store.LoadEngine2(argv[3]);
    if (e2.ok()) return run(e2.value());
    return Fail(e2.status());
  }

  if (cmd == "store-remove" && argc == 4) {
    SketchStore store(argv[2]);
    if (Status st = store.Remove(argv[3]); !st.ok()) return Fail(st);
    std::printf("removed '%s'\n", argv[3]);
    return 0;
  }

  if (cmd == "events" && argc == 6) {
    const Timestamp t = std::strtoll(argv[3], nullptr, 10);
    const double theta = std::atof(argv[4]);
    const Timestamp tau = std::strtoll(argv[5], nullptr, 10);
    return WithEngine(argv[2], [&](auto& engine, const FileHeader&) {
      for (EventId e : engine.BurstyEventQuery(t, theta, tau)) {
        std::printf("%u %.2f\n", e, engine.PointQuery(e, t, tau));
      }
      return 0;
    });
  }

  return Usage();
}
