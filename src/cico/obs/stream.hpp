// Streaming epoch-series writer (--stream-epochs).
//
// Long runs have one EpochRow per barrier; buffering them all makes
// report memory O(epochs).  An EpochStreamWriter attaches to a Collector
// as its EpochRowSink and appends each row to a sidecar file the moment
// its barrier flush completes, already formatted exactly as the canonical
// report dump would embed it (element indentation, ",\n" separators).  At
// report time run_json() plants a Json::splice node where epoch_series
// would go and Json::dump's SpliceResolver copies the sidecar bytes
// through in bounded chunks -- so the final report file is byte-identical
// to the in-memory path while host memory stays O(1) in epoch count
// (report_test enforces the byte identity).
#pragma once

#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <string>

#include "cico/obs/collector.hpp"

namespace cico::obs {

/// Indentation depth of an epoch_series element inside the report
/// envelope: {report} > "runs" > [run] > "epoch_series" > [row].
inline constexpr int kEpochSeriesDepth = 4;

class EpochStreamWriter final : public EpochRowSink {
 public:
  /// Opens `sidecar_path` for writing; throws on failure.
  explicit EpochStreamWriter(std::string sidecar_path);
  /// Removes the sidecar file (call after the report is assembled).
  ~EpochStreamWriter() override;

  EpochStreamWriter(const EpochStreamWriter&) = delete;
  EpochStreamWriter& operator=(const EpochStreamWriter&) = delete;

  void on_row(const EpochRow& row) override;

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Flushes, then copies the sidecar's element bytes into `os` in bounded
  /// chunks (the SpliceResolver body).  Emits nothing when no row was
  /// written -- callers must use a plain empty array in that case.
  void splice_into(std::ostream& os);

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t rows_ = 0;
};

}  // namespace cico::obs
