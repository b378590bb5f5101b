// Content-addressed result cache: the "millions of users" half of
// cachierd.  Most fleet traffic is repeats -- the same source, trace, and
// config submitted again and again by CI jobs and editors -- so identical
// requests are served from here without re-simulating, in the spirit of
// memoized property checking ("Practical Run-time Checking via
// Unobtrusive Property Caching", PAPERS.md).
//
// Keys are the 128-bit content hashes of job.hpp's cache_key().  Entries
// hold the complete JobResult (stdout bytes, report JSON, events,
// diagnostics, exit code; never the host-time lines), so a hit is
// byte-identical to the fresh run that populated it -- the property the
// daemon soak test and the CI daemon-gate pin.
//
// Two tiers: a bounded in-memory hot set (LRU-evicted) and, when a cache
// directory is configured, one JSON file per key that survives daemon
// restarts.  Memory eviction never deletes the file tier; a later lookup
// quietly reloads from disk.  flush_index() writes a human-readable
// index of the file tier; the daemon calls it during graceful drain.
//
// Large result payloads (job.hpp's kPayloads: stdout, report, events) are
// not inlined in the per-key file: they go into a content-addressed
// ObjectStore under <dir>/store, and the entry carries their hashes
// (`stdout_ref`, ...).  Different keys whose jobs produced the same bytes
// -- e.g. the same source at two deadline settings, or a report that did
// not change across a config tweak -- share one object, and `cachier sync`
// can move the store tier between hosts.  A missing or corrupt object turns
// the lookup into a miss, same as a corrupt entry file.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "cico/daemon/job.hpp"
#include "cico/store/store.hpp"

namespace cico::daemon {

class ResultCache {
 public:
  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;   ///< memory-tier only
    std::uint64_t disk_loads = 0;  ///< hits served by reloading a file
  };

  /// `dir` empty => memory-only.  The directory is created if missing.
  explicit ResultCache(std::string dir = {}, std::size_t max_entries = 1024);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result (cached=true, key filled) or nullopt.
  [[nodiscard]] std::optional<JobResult> lookup(const std::string& key);

  /// Stores `r` under `key`.  Cancelled results are refused (their bytes
  /// depend on when the deadline fired, not on the request).
  void insert(const std::string& key, const JobResult& r);

  /// Writes `<dir>/index.json` describing the file tier (sorted keys,
  /// exit codes, byte sizes).  No-op when memory-only.  Called on drain
  /// so a restarted daemon -- or an operator -- can see what survived.
  void flush_index() const;

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The content-addressed payload store (nullptr when memory-only).
  [[nodiscard]] const store::ObjectStore* artifact_store() const {
    return store_.get();
  }

  /// Payloads at or above this size are stored by content hash instead of
  /// inline in the entry JSON.
  static constexpr std::size_t kInlineMax = 128;

 private:
  void touch_locked(const std::string& key);
  void evict_locked();
  [[nodiscard]] std::string path_of(const std::string& key) const;
  /// Reads and parses a file-tier entry; nullptr when absent or corrupt.
  /// Called without the lock.
  [[nodiscard]] std::shared_ptr<const JobResult> load_file(
      const std::string& key) const;

  std::string dir_;
  std::size_t max_entries_;
  std::unique_ptr<store::ObjectStore> store_;  ///< set iff dir_ non-empty

  /// Guards the memory tier and the counters only.  The file tier is read
  /// and written outside it, and entries are shared so a hit copies its
  /// result after the lock is released.
  mutable std::mutex mu_;
  struct Entry {
    std::shared_ptr<const JobResult> result;
    std::list<std::string>::iterator lru;
  };
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  ///< front = most recent
  Counters counters_;
};

}  // namespace cico::daemon
