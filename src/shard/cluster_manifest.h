// The cluster manifest and the layout rule: which directories hold a
// cluster's shards.
//
// The layout rule, decided here once: a directory WITH a manifest
// holds shard i in <dir>/shard-NNN; a directory WITHOUT one is a
// single shard whose WAL segments and snapshots sit at its root. A
// 1-shard cluster therefore writes no manifest, and a directory a
// plain DurableBurstEngine wrote opens as a 1-shard cluster unchanged.
//
// Shard placement is a pure function of (hash seed, shard count) —
// see shard/shard_router.h — so opening an existing cluster directory
// with EITHER parameter changed would silently route every event id
// to the wrong shard's history: queries would merge partial
// histories and out-of-order rejection would misfire per shard. The
// manifest persists both parameters at creation; every later open
// reads it back and refuses a mismatch with FailedPrecondition
// instead of serving wrong answers. The same holds across the two
// layouts: a 1-shard open of a directory with a manifest, or an
// N-shard open of a directory whose root already holds WAL segments
// or snapshots, would serve an empty cluster beside ignored history,
// so both are refused too.
//
// On-disk format (docs/FORMAT.md "Cluster manifest"):
//
//   magic "BCLM" u32 | version u32 | CrcFrame{ shard_count u32 |
//   hash_seed u64 }
//
// written atomically (temp + fsync + rename + dir fsync) exactly like
// a snapshot, so a crash during cluster creation leaves either no
// manifest (recovery re-creates the cluster) or a complete one.

#ifndef BURSTHIST_SHARD_CLUSTER_MANIFEST_H_
#define BURSTHIST_SHARD_CLUSTER_MANIFEST_H_

#include <cstdint>
#include <string>
#include <utility>

#include "recovery/scrub.h"
#include "recovery/snapshot.h"
#include "recovery/wal.h"
#include "shard/shard_router.h"
#include "util/env.h"
#include "util/serialize.h"
#include "util/status.h"

namespace bursthist {
namespace shard {

inline constexpr uint32_t kClusterManifestMagic = 0x4d4c4342;  // "BCLM"
inline constexpr uint32_t kClusterManifestVersion = 1;

struct ClusterManifest {
  uint32_t shard_count = 1;
  uint64_t hash_seed = 0;
};

inline std::string ClusterManifestPath(const std::string& dir) {
  return dir + "/cluster.manifest";
}

/// Atomically writes the manifest (temp + fsync + rename + dir
/// fsync). Called once, at cluster creation.
inline Status WriteClusterManifest(Env* env, const std::string& dir,
                                   const ClusterManifest& manifest) {
  BinaryWriter w;
  w.Put<uint32_t>(kClusterManifestMagic);
  w.Put<uint32_t>(kClusterManifestVersion);
  const size_t frame = CrcFrame::Begin(&w);
  w.Put<uint32_t>(manifest.shard_count);
  w.Put<uint64_t>(manifest.hash_seed);
  CrcFrame::End(&w, frame);

  const std::string path = ClusterManifestPath(dir);
  const std::string tmp = path + ".tmp";
  auto file = env->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  Status s = file.value()->Append(w.bytes());
  if (s.ok()) s = file.value()->Sync();
  if (s.ok()) s = file.value()->Close();
  if (s.ok()) s = env->RenameFile(tmp, path);
  if (!s.ok()) {
    (void)env->DeleteFile(tmp);
    return s;
  }
  return env->SyncDir(dir);
}

/// Reads and checksum-verifies the manifest. NotFound when the file
/// does not exist (a fresh directory), Corruption on any damage.
inline Result<ClusterManifest> ReadClusterManifest(Env* env,
                                                   const std::string& dir) {
  const std::string path = ClusterManifestPath(dir);
  if (!env->FileExists(path)) {
    return Status::NotFound("no cluster manifest: " + path);
  }
  auto bytes = env->ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  BinaryReader r(bytes.value());
  uint32_t magic = 0;
  uint32_t version = 0;
  BURSTHIST_RETURN_IF_ERROR(r.Get(&magic));
  if (magic != kClusterManifestMagic) {
    return Status::Corruption("bad cluster manifest magic");
  }
  BURSTHIST_RETURN_IF_ERROR(r.Get(&version));
  if (version != kClusterManifestVersion) {
    return Status::Corruption("unsupported cluster manifest version " +
                              std::to_string(version));
  }
  size_t payload_end = 0;
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Enter(&r, &payload_end));
  ClusterManifest manifest;
  BURSTHIST_RETURN_IF_ERROR(r.Get(&manifest.shard_count));
  BURSTHIST_RETURN_IF_ERROR(r.Get(&manifest.hash_seed));
  BURSTHIST_RETURN_IF_ERROR(CrcFrame::Leave(&r, payload_end));
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after cluster manifest");
  }
  if (manifest.shard_count == 0) {
    return Status::Corruption("cluster manifest claims zero shards");
  }
  return manifest;
}

/// Shard `shard`'s durable directory under the layout rule: the root
/// itself for a 1-shard cluster, <dir>/shard-NNN otherwise.
inline std::string ShardDir(const std::string& dir, size_t shard,
                            size_t shards) {
  return shards == 1 ? dir : dir + "/" + ShardDirName(shard);
}

/// Shared open-path guard: checks `dir` against the topology the
/// caller is about to route with (`shards`, `hash_seed`) under the
/// layout rule, and writes the manifest of a new N-shard cluster.
/// Every disagreement is FailedPrecondition: a manifest with another
/// count or seed, a manifest under a 1-shard open, and WAL segments or
/// snapshots at the root under an N-shard open.
inline Status EnsureClusterTopology(Env* env, const std::string& dir,
                                    size_t shards, uint64_t hash_seed) {
  if (shards == 0) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  BURSTHIST_RETURN_IF_ERROR(env->CreateDirIfMissing(dir));
  auto manifest_or = ReadClusterManifest(env, dir);
  if (manifest_or.ok()) {
    const ClusterManifest& m = manifest_or.value();
    if (shards == 1 || m.shard_count != shards || m.hash_seed != hash_seed) {
      return Status::FailedPrecondition(
          "cluster topology mismatch: directory has " +
          std::to_string(m.shard_count) + " shards (seed " +
          std::to_string(m.hash_seed) + "), open requested " +
          std::to_string(shards) + " (seed " + std::to_string(hash_seed) +
          (shards == 1 ? "; one shard keeps its files at the root" : "") +
          ")");
    }
    return Status::OK();
  }
  if (manifest_or.status().code() != StatusCode::kNotFound) {
    return manifest_or.status();
  }
  if (shards == 1) return Status::OK();
  auto wal = ListWalSegments(env, dir);
  if (!wal.ok()) return wal.status();
  auto snapshots = ListSnapshots(env, dir);
  if (!snapshots.ok()) return snapshots.status();
  if (!wal.value().empty() || !snapshots.value().empty()) {
    return Status::FailedPrecondition(
        "cluster topology mismatch: directory holds one shard at its root, "
        "open requested " +
        std::to_string(shards));
  }
  ClusterManifest m;
  m.shard_count = static_cast<uint32_t>(shards);
  m.hash_seed = hash_seed;
  return WriteClusterManifest(env, dir, m);
}

/// The shard count `dir` holds under the layout rule, without
/// changing it: the manifest's count, or 1 when there is none.
inline Result<size_t> ClusterShardCount(Env* env, const std::string& dir) {
  auto manifest = ReadClusterManifest(env, dir);
  if (manifest.ok()) return static_cast<size_t>(manifest.value().shard_count);
  if (manifest.status().code() == StatusCode::kNotFound) return size_t{1};
  return manifest.status();
}

/// Scrubs every shard of a `shards`-shard cluster with
/// `scrub_shard(i)` and merges the reports. Issue file names become
/// relative to the cluster directory (prefixed with shard-NNN/ when the
/// shards live in subdirectories), so one report reads the same at any
/// shard count.
template <typename ScrubShardFn>
Result<ScrubReport> ScrubShards(size_t shards, ScrubShardFn&& scrub_shard) {
  ScrubReport merged;
  for (size_t i = 0; i < shards; ++i) {
    Result<ScrubReport> part = scrub_shard(i);
    if (!part.ok()) return part.status();
    const ScrubReport& r = part.value();
    merged.wal_segments_checked += r.wal_segments_checked;
    merged.wal_records_checked += r.wal_records_checked;
    merged.snapshots_checked += r.snapshots_checked;
    merged.corrupt_files += r.corrupt_files;
    merged.quarantined_now += r.quarantined_now;
    merged.quarantined_present += r.quarantined_present;
    merged.tail_torn = merged.tail_torn || r.tail_torn;
    for (ScrubIssue issue : r.issues) {
      if (shards > 1) issue.file = ShardDirName(i) + "/" + issue.file;
      merged.issues.push_back(std::move(issue));
    }
  }
  return merged;
}

}  // namespace shard
}  // namespace bursthist

#endif  // BURSTHIST_SHARD_CLUSTER_MANIFEST_H_
