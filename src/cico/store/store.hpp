// Local content-addressed artifact store.
//
// Layout (one directory, safe to rsync or tar):
//
//   <dir>/objects/<2-hex>/<32-hex>   one chunk, named by its 128-bit
//                                    ContentHasher hex (the 2-hex fanout
//                                    keeps directory listings sane)
//   <dir>/manifests/<name>.json      ordered object list for one artifact
//
// Traces are chunked at their v2 boundaries (header / one object per
// epoch-group chunk / trailer, see format.hpp), so two near-identical
// runs -- the fleet's common case -- share every chunk that did not
// change, and `cachier sync` (sync.hpp) moves only the delta.  Text
// traces are transcoded to v2 on put; the text format remains the
// import/export codec, not a storage format.  Non-trace artifacts
// (reports, stdout payloads) are stored as fixed-size blob chunks.
//
// All writes are write-tmp-then-rename, so a crash never leaves a half
// object under a final name.  get() re-hashes every chunk on the way out:
// a flipped bit yields a `store:` error, never silently corrupt bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cico::store {

/// How put() chunked an artifact (recorded in the manifest).
enum class ArtifactKind : std::uint8_t {
  TraceV2,  ///< epoch-chunked trace, one object per v2 section
  Blob,     ///< fixed-size chunks (reports, stdout, anything else)
};

[[nodiscard]] const char* artifact_kind_name(ArtifactKind k);

struct PutStats {
  std::string name;
  ArtifactKind kind = ArtifactKind::Blob;
  std::uint64_t objects_total = 0;  ///< chunks in the manifest
  std::uint64_t objects_new = 0;    ///< chunks not already present
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_new = 0;
};

/// One artifact's chunk list, in concatenation order.
struct Manifest {
  struct Object {
    std::string hash_hex;
    std::uint64_t bytes = 0;
  };
  std::string name;
  ArtifactKind kind = ArtifactKind::Blob;
  std::uint64_t bytes = 0;  ///< total artifact size
  std::vector<Object> objects;
};

struct ManifestInfo {
  std::string name;
  ArtifactKind kind = ArtifactKind::Blob;
  std::uint64_t objects = 0;
  std::uint64_t bytes = 0;
};

struct GcStats {
  std::uint64_t objects_removed = 0;
  std::uint64_t bytes_freed = 0;
};

/// Atomic file write: the bytes go to a temp file named uniquely per
/// process and call, then rename onto `path`, so readers never see half a
/// file and concurrent writers of one path (threads, or a CLI and a
/// cachierd sharing a directory) never share a temp file.  Throws
/// `store:` on failure, leaving no temp file behind.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// True when `name` is a valid manifest name: [A-Za-z0-9._-]+, not
/// starting with '.' (no path separators, no hidden files, portable).
[[nodiscard]] bool validate_name(std::string_view name);

class ObjectStore {
 public:
  enum class Open : std::uint8_t {
    kCreate,    ///< create <dir> (and subdirs) if missing
    kExisting,  ///< throw `store:` if <dir> is not already a store
  };

  explicit ObjectStore(std::string dir, Open mode = Open::kCreate);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  // --- object tier ---------------------------------------------------------
  struct PutObject {
    std::string hash_hex;
    bool was_new = false;
  };
  [[nodiscard]] bool has_object(const std::string& hash_hex) const;
  /// Stores one chunk; returns its hash and whether it was new.
  PutObject put_object(std::string_view bytes);
  /// Loads and re-verifies one chunk (hash mismatch => `store:` error).
  [[nodiscard]] std::string get_object(const std::string& hash_hex) const;

  // --- artifact tier -------------------------------------------------------
  /// Chunks `bytes`, stores the missing chunks, writes the manifest.
  /// Traces (text or v2) are normalized to v2 first; the
  /// manifest for an existing name is replaced.
  PutStats put(const std::string& name, std::string_view bytes);
  /// Reassembles an artifact byte-for-byte (every chunk re-verified).
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::vector<ManifestInfo> ls() const;
  /// Deletes objects no manifest references.
  GcStats gc();

  // --- manifest tier (sync and tooling) ------------------------------------
  [[nodiscard]] bool has_manifest(const std::string& name) const;
  /// Parses one manifest (`store:` error if missing or malformed).
  [[nodiscard]] Manifest read_manifest(const std::string& name) const;
  /// Writes a manifest verbatim; the caller guarantees the listed objects
  /// exist (sync copies them first).
  void write_manifest(const Manifest& m);

 private:
  [[nodiscard]] std::string object_path(const std::string& hash_hex) const;
  [[nodiscard]] std::string manifest_path(const std::string& name) const;

  std::string dir_;
};

}  // namespace cico::store
