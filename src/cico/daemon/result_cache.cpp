#include "cico/daemon/result_cache.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace cico::daemon {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir, std::size_t max_entries)
    : dir_(std::move(dir)), max_entries_(max_entries == 0 ? 1 : max_entries) {
  if (!dir_.empty()) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
      throw std::runtime_error("cannot create cache directory " + dir_ +
                               ": " + ec.message());
    }
    store_ = std::make_unique<store::ObjectStore>(
        dir_ + "/store", store::ObjectStore::Open::kCreate);
  }
}

std::string ResultCache::path_of(const std::string& key) const {
  return dir_ + "/" + key + ".json";
}

std::shared_ptr<const JobResult> ResultCache::load_file(
    const std::string& key) const {
  std::ifstream in(path_of(key));
  if (!in) return nullptr;
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    obs::Json doc = obs::Json::parse(ss.str());
    // Resolve content-addressed payloads back inline.  get_object
    // re-verifies the hash, so a corrupt or gc'd object throws and lands
    // in the catch below -- a miss, never corrupt bytes.
    for (const Payload& p : kPayloads) {
      if (const obs::Json* ref = doc.find(std::string(p.key) + "_ref")) {
        doc.set(p.key,
                obs::Json::string(store_->get_object(ref->as_string())));
      }
    }
    return std::make_shared<const JobResult>(job_result_from_json(doc));
  } catch (const std::exception&) {
    // A corrupt file (partial write from a crash) is treated as a miss;
    // the fresh result will overwrite it.
    return nullptr;
  }
}

std::optional<JobResult> ResultCache::lookup(const std::string& key) {
  std::shared_ptr<const JobResult> found;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++counters_.hits;
      touch_locked(key);
      found = it->second.result;
    } else if (dir_.empty()) {
      ++counters_.misses;
      return std::nullopt;
    }
  }
  if (found == nullptr) {
    // Memory miss: read and parse the file tier without the lock, so
    // lookups and inserts of other keys never wait behind this I/O.
    found = load_file(key);
    std::lock_guard<std::mutex> lk(mu_);
    if (found == nullptr) {
      ++counters_.misses;
      return std::nullopt;
    }
    ++counters_.hits;
    ++counters_.disk_loads;
    if (map_.contains(key)) {
      touch_locked(key);  // installed meanwhile by an insert or a reload
    } else {
      lru_.push_front(key);
      map_.emplace(key, Entry{found, lru_.begin()});
      evict_locked();
    }
  }
  JobResult r = *found;
  r.cached = true;
  r.key = key;
  return r;
}

void ResultCache::insert(const std::string& key, const JobResult& r) {
  if (r.cancelled) return;
  auto stored = std::make_shared<JobResult>(r);
  stored->host.clear();  // host wall-clock is never cached
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.result = stored;
      touch_locked(key);
    } else {
      lru_.push_front(key);
      map_.emplace(key, Entry{stored, lru_.begin()});
    }
    evict_locked();
    ++counters_.inserts;
  }
  if (dir_.empty()) return;
  // The file tier is written outside the lock and best-effort: the memory
  // tier already has the entry.  write_file_atomic renames a per-writer
  // temp file into place, so a crash never leaves a half entry under the
  // final name and concurrent inserts of one key never share a temp file.
  try {
    obs::Json doc = job_result_json(*stored);
    // Big payloads go to the content-addressed store tier so identical
    // bytes across keys are stored once (and syncable between hosts).
    for (const Payload& p : kPayloads) {
      const std::string& bytes = (*stored).*p.field;
      if (bytes.size() < kInlineMax) continue;
      doc.set(p.key, obs::Json::string(""));
      doc.set(std::string(p.key) + "_ref",
              obs::Json::string(store_->put_object(bytes).hash_hex));
    }
    store::write_file_atomic(path_of(key), doc.dump_string());
  } catch (const std::exception&) {
    // Disk or store tier unavailable: keep the memory tier only.
  }
}

void ResultCache::flush_index() const {
  if (dir_.empty()) return;
  std::vector<std::pair<std::string, std::uint64_t>> entries;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    const std::string name = de.path().filename().string();
    if (name.size() != 37 || name.substr(32) != ".json") continue;
    const std::string key = name.substr(0, 32);
    if (!std::all_of(key.begin(), key.end(), [](unsigned char c) {
          return std::isxdigit(c) != 0;
        })) {
      continue;
    }
    std::error_code sec;
    const std::uint64_t bytes = de.file_size(sec);
    entries.emplace_back(key, sec ? 0 : bytes);
  }
  std::sort(entries.begin(), entries.end());

  obs::Json idx = obs::Json::object();
  idx.set("schema_version", obs::Json::number(std::uint64_t{1}));
  idx.set("generator", obs::Json::string("cachierd"));
  idx.set("entry_count",
          obs::Json::number(static_cast<std::uint64_t>(entries.size())));
  obs::Json arr = obs::Json::array();
  for (const auto& [key, bytes] : entries) {
    obs::Json e = obs::Json::object();
    e.set("key", obs::Json::string(key));
    e.set("bytes", obs::Json::number(bytes));
    arr.push_back(std::move(e));
  }
  idx.set("entries", std::move(arr));

  try {
    store::write_file_atomic(dir_ + "/index.json", idx.dump_string());
  } catch (const std::exception&) {
    // Best-effort, like the file tier itself.
  }
}

ResultCache::Counters ResultCache::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

void ResultCache::touch_locked(const std::string& key) {
  auto it = map_.find(key);
  lru_.erase(it->second.lru);
  lru_.push_front(key);
  it->second.lru = lru_.begin();
}

void ResultCache::evict_locked() {
  while (map_.size() > max_entries_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    ++counters_.evictions;
  }
}

}  // namespace cico::daemon
