// The cachierd wire protocol: length-prefixed JSON frames over a
// Unix-domain stream socket (docs/cachierd.md has the full reference).
//
// Framing: each message is a 4-byte little-endian payload length followed
// by that many bytes of canonical JSON (the obs::Json dump form).  A
// length above kMaxFrameBytes is a protocol error -- it means the peer is
// not speaking cachierd (or is hostile) and the connection is dropped
// before any allocation is attempted.
//
// Conversation (client drives):
//
//   client -> hello            {type, tool, version, schemas{...}}
//   server -> hello_ok         (same shape)  |  error{code:"version_mismatch"}
//   client -> submit           {type, command, name, source, trace?, plan?,
//                               config{nodes, mode, faults, paranoid,
//                                      report, deadline_ms}}
//   server -> status*          {type, state: queued|running|cached}
//          -> retry_after      {type, ms, reason}        (shed: try again)
//          -> diag*            {type, text}              (stderr stream)
//          -> result           {type, exit, cached, key, stdout, report?,
//                               error?}
//          -> error            {type, code, message}     (request rejected)
//
// Every frame is self-describing via its "type" key, so either side can
// skip frames it does not understand (forward compatibility within one
// protocol version).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cico/obs/json.hpp"

namespace cico::daemon {

/// Bump on any incompatible change to the framing or the conversation
/// above.  The handshake rejects a peer whose protocol (or report/lint
/// schema) differs, so a fleet can never half-upgrade into silent
/// misparses.
inline constexpr std::uint64_t kDaemonProtocolVersion = 2;

/// Hard ceiling on one frame's payload (sources, traces and reports are
/// MBs at most; anything larger is garbage or abuse).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Malformed framing / JSON / conversation.  Distinct from a clean close
/// so callers can tell "peer went away" from "peer spoke garbage".
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameStatus : std::uint8_t {
  Ok,       ///< a frame was read/written
  Closed,   ///< peer closed (EOF / EPIPE) -- normal lifecycle event
  Timeout,  ///< read_frame timed out (handshake guard)
};

/// Writes one frame.  Returns Closed when the peer is gone (callers treat
/// that as a client disconnect, not an error); throws ProtocolError on
/// any other I/O failure.
FrameStatus write_frame(int fd, const obs::Json& payload);

/// Reads one frame into `out`.  `timeout_ms` < 0 blocks indefinitely;
/// otherwise the whole frame must arrive within the window.  Throws
/// ProtocolError on oversized/underflowing lengths, malformed JSON, or
/// hard I/O errors.
FrameStatus read_frame(int fd, obs::Json* out, int timeout_ms = -1);

/// The version identity document: tool version plus every schema version
/// this build speaks.  `cachier version` prints exactly this; the
/// handshake embeds it.
[[nodiscard]] obs::Json version_json();

// --- frame builders --------------------------------------------------------

[[nodiscard]] obs::Json hello_frame();
[[nodiscard]] obs::Json hello_ok_frame();
[[nodiscard]] obs::Json error_frame(std::string_view code,
                                    std::string_view message);
[[nodiscard]] obs::Json retry_after_frame(std::uint64_t ms,
                                          std::string_view reason);
[[nodiscard]] obs::Json status_frame(std::string_view state);
[[nodiscard]] obs::Json diag_frame(std::string_view text);

/// Checks a hello / hello_ok frame against this build's versions.
/// Returns an empty string on compatibility, else a human-readable
/// mismatch description (protocol, report schema, or lint schema).
[[nodiscard]] std::string hello_mismatch(const obs::Json& hello);

/// Frame "type" accessor ("" when absent / not an object).
[[nodiscard]] std::string_view frame_type(const obs::Json& frame);

}  // namespace cico::daemon
