#include "cico/store/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "cico/common/hash.hpp"
#include "cico/obs/json.hpp"
#include "cico/store/format.hpp"
#include "cico/trace/trace.hpp"

namespace cico::store {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kBlobChunkBytes = 64u * 1024;
constexpr char kTextHeader[] = "cico-trace v1\n";

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("store: " + what);
}

[[nodiscard]] bool is_hex_hash(std::string_view s) {
  if (s.size() != 32) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

[[nodiscard]] bool is_text_trace(std::string_view bytes) {
  return bytes.size() >= sizeof(kTextHeader) - 1 &&
         bytes.substr(0, sizeof(kTextHeader) - 1) == kTextHeader;
}

[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("missing " + what + ": " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

[[nodiscard]] ArtifactKind kind_from_name(const std::string& s) {
  if (s == "trace-v2") return ArtifactKind::TraceV2;
  if (s == "blob") return ArtifactKind::Blob;
  fail("unknown artifact kind '" + s + "'");
}

[[nodiscard]] const obs::Json& field(const obs::Json& j, const char* key,
                                     const std::string& where) {
  const obs::Json* v = j.find(key);
  if (v == nullptr) fail(where + ": missing field '" + key + "'");
  return *v;
}

}  // namespace

void write_file_atomic(const std::string& path, std::string_view bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(seq.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary);
    if (out) {
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    if (!out) {
      fs::remove(tmp, ec);
      fail("cannot write " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    fail("cannot rename into place: " + path);
  }
}

const char* artifact_kind_name(ArtifactKind k) {
  switch (k) {
    case ArtifactKind::TraceV2:
      return "trace-v2";
    case ArtifactKind::Blob:
      return "blob";
  }
  return "blob";
}

bool validate_name(std::string_view name) {
  if (name.empty() || name.front() == '.') return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

ObjectStore::ObjectStore(std::string dir, Open mode) : dir_(std::move(dir)) {
  if (dir_.empty()) fail("store directory must not be empty");
  const std::string objects = dir_ + "/objects";
  const std::string manifests = dir_ + "/manifests";
  if (mode == Open::kCreate) {
    std::error_code ec;
    fs::create_directories(objects, ec);
    if (!ec) fs::create_directories(manifests, ec);
    if (ec) fail("cannot create store at " + dir_ + ": " + ec.message());
  } else {
    if (!fs::is_directory(objects) || !fs::is_directory(manifests)) {
      fail("not a store directory: " + dir_);
    }
  }
}

std::string ObjectStore::object_path(const std::string& hash_hex) const {
  return dir_ + "/objects/" + hash_hex.substr(0, 2) + "/" + hash_hex;
}

std::string ObjectStore::manifest_path(const std::string& name) const {
  return dir_ + "/manifests/" + name + ".json";
}

bool ObjectStore::has_object(const std::string& hash_hex) const {
  return is_hex_hash(hash_hex) && fs::exists(object_path(hash_hex));
}

ObjectStore::PutObject ObjectStore::put_object(std::string_view bytes) {
  PutObject r;
  r.hash_hex = common::content_hash_hex(bytes);
  const std::string path = object_path(r.hash_hex);
  if (fs::exists(path)) return r;
  std::error_code ec;
  fs::create_directories(dir_ + "/objects/" + r.hash_hex.substr(0, 2), ec);
  if (ec) fail("cannot create object directory: " + ec.message());
  write_file_atomic(path, bytes);
  r.was_new = true;
  return r;
}

std::string ObjectStore::get_object(const std::string& hash_hex) const {
  if (!is_hex_hash(hash_hex)) fail("bad object hash '" + hash_hex + "'");
  std::string bytes = read_file(object_path(hash_hex), "object");
  if (common::content_hash_hex(bytes) != hash_hex) {
    fail("object " + hash_hex + " is corrupt (content hash mismatch)");
  }
  return bytes;
}

PutStats ObjectStore::put(const std::string& name, std::string_view bytes) {
  if (!validate_name(name)) fail("invalid artifact name '" + name + "'");

  // Traces are normalized to the chunk-shareable v2 form; anything else
  // is a blob.  Text goes through its strict loader, so a malformed text
  // trace fails the put with a `trace:` error instead of being stored as
  // an opaque blob.
  std::string from_text;
  std::string_view v2;
  ArtifactKind kind = ArtifactKind::Blob;
  if (is_text_trace(bytes)) {
    std::istringstream is{std::string(bytes)};
    from_text = encode_v2(trace::load_text(is));
    v2 = from_text;
    kind = ArtifactKind::TraceV2;
  } else if (is_v2(bytes)) {
    v2 = bytes;
    kind = ArtifactKind::TraceV2;
  }

  PutStats stats;
  stats.name = name;
  stats.kind = kind;
  Manifest m;
  m.name = name;
  m.kind = kind;

  const auto add_chunk = [&](std::string_view chunk) {
    const PutObject po = put_object(chunk);
    m.objects.push_back({po.hash_hex, chunk.size()});
    m.bytes += chunk.size();
    ++stats.objects_total;
    stats.bytes_total += chunk.size();
    if (po.was_new) {
      ++stats.objects_new;
      stats.bytes_new += chunk.size();
    }
  };

  if (kind == ArtifactKind::TraceV2) {
    // split_v2 is a full parse: a corrupt v2 stream fails here, before
    // anything lands in the store.
    const V2Sections s = split_v2(v2);
    add_chunk(s.header);
    for (const auto& c : s.chunks) add_chunk(c);
    add_chunk(s.trailer);
  } else {
    for (std::size_t off = 0; off < bytes.size(); off += kBlobChunkBytes) {
      add_chunk(bytes.substr(off, kBlobChunkBytes));
    }
  }

  write_manifest(m);
  return stats;
}

std::string ObjectStore::get(const std::string& name) const {
  const Manifest m = read_manifest(name);
  std::string out;
  out.reserve(m.bytes);
  for (const auto& o : m.objects) {
    const std::string chunk = get_object(o.hash_hex);
    if (chunk.size() != o.bytes) {
      fail("object " + o.hash_hex + " size mismatch in manifest " + name);
    }
    out += chunk;
  }
  if (out.size() != m.bytes) fail("manifest " + name + " size mismatch");
  return out;
}

std::vector<ManifestInfo> ObjectStore::ls() const {
  std::vector<ManifestInfo> out;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_ + "/manifests", ec)) {
    const std::string fname = de.path().filename().string();
    if (fname.size() < 6 || fname.substr(fname.size() - 5) != ".json") {
      continue;
    }
    const Manifest m = read_manifest(fname.substr(0, fname.size() - 5));
    out.push_back({m.name, m.kind, m.objects.size(), m.bytes});
  }
  std::sort(out.begin(), out.end(),
            [](const ManifestInfo& a, const ManifestInfo& b) {
              return a.name < b.name;
            });
  return out;
}

GcStats ObjectStore::gc() {
  std::unordered_set<std::string> live;
  for (const auto& info : ls()) {
    for (const auto& o : read_manifest(info.name).objects) {
      live.insert(o.hash_hex);
    }
  }
  GcStats stats;
  std::error_code ec;
  for (const auto& fan : fs::directory_iterator(dir_ + "/objects", ec)) {
    if (!fan.is_directory()) continue;
    std::error_code iec;
    for (const auto& de : fs::directory_iterator(fan.path(), iec)) {
      const std::string fname = de.path().filename().string();
      if (live.count(fname) != 0) continue;
      std::error_code sec;
      const std::uint64_t bytes = de.file_size(sec);
      if (fs::remove(de.path(), sec)) {
        ++stats.objects_removed;
        stats.bytes_freed += bytes;
      }
    }
  }
  return stats;
}

bool ObjectStore::has_manifest(const std::string& name) const {
  return validate_name(name) && fs::exists(manifest_path(name));
}

Manifest ObjectStore::read_manifest(const std::string& name) const {
  if (!validate_name(name)) fail("invalid artifact name '" + name + "'");
  const std::string where = "manifest " + name;
  const std::string text = read_file(manifest_path(name), "manifest");
  obs::Json j;
  try {
    j = obs::Json::parse(text);
  } catch (const std::exception& e) {
    fail(where + ": " + e.what());
  }
  Manifest m;
  m.name = field(j, "name", where).as_string();
  if (m.name != name) fail(where + ": name field mismatch");
  m.kind = kind_from_name(field(j, "kind", where).as_string());
  m.bytes = field(j, "bytes", where).as_u64();
  const obs::Json& objs = field(j, "objects", where);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    const obs::Json& o = objs.at(i);
    Manifest::Object mo;
    mo.hash_hex = field(o, "hash", where).as_string();
    if (!is_hex_hash(mo.hash_hex)) fail(where + ": bad object hash");
    mo.bytes = field(o, "bytes", where).as_u64();
    sum += mo.bytes;
    m.objects.push_back(std::move(mo));
  }
  if (sum != m.bytes) fail(where + ": object sizes do not sum to bytes");
  return m;
}

void ObjectStore::write_manifest(const Manifest& m) {
  if (!validate_name(m.name)) fail("invalid artifact name '" + m.name + "'");
  obs::Json j = obs::Json::object();
  j.set("schema_version", obs::Json::number(std::uint64_t{1}));
  j.set("generator", obs::Json::string("cachier-store"));
  j.set("name", obs::Json::string(m.name));
  j.set("kind", obs::Json::string(artifact_kind_name(m.kind)));
  j.set("bytes", obs::Json::number(m.bytes));
  obs::Json arr = obs::Json::array();
  for (const auto& o : m.objects) {
    obs::Json e = obs::Json::object();
    e.set("hash", obs::Json::string(o.hash_hex));
    e.set("bytes", obs::Json::number(o.bytes));
    arr.push_back(std::move(e));
  }
  j.set("objects", std::move(arr));
  write_file_atomic(manifest_path(m.name), j.dump_string());
}

}  // namespace cico::store
