// POSIX socket RAII and length-prefixed framing for the TCP transport.
//
// Frame format on the wire: u32 little-endian payload length, then payload.
// Frames are capped at kMaxFrameBytes so a corrupt peer cannot trigger an
// unbounded allocation.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "net/transport.hpp"

namespace dsud {

/// Error for any socket-level failure (connect, accept, short read, ...).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A call (or connect) that exceeded its deadline.  Subtype of NetError so
/// existing "any transport failure" handling keeps working; retry layers
/// distinguish it for metrics.
class NetTimeout : public NetError {
 public:
  using NetError::NetError;
};

/// Largest accepted frame payload (64 MiB).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes the framing itself puts on the wire per frame (the u32 length
/// prefix) — what transport-level byte accounting adds on top of payloads.
inline constexpr std::size_t kFrameHeaderBytes = sizeof(std::uint32_t);

/// Owning file-descriptor wrapper.  Move-only.
class Socket {
 public:
  Socket() noexcept = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Creates a listening IPv4 socket on 127.0.0.1:`port` (port 0 picks a free
/// port).  `boundPort`, when non-null, receives the actual port.
Socket listenOn(std::uint16_t port, std::uint16_t* boundPort = nullptr);

/// Blocking accept.
Socket acceptFrom(const Socket& listener);

/// Connect to 127.0.0.1:`port`.  A zero `timeout` blocks indefinitely;
/// otherwise the connect races a poll and throws NetTimeout on expiry.
/// The socket always gets TCP_NODELAY.
Socket connectTo(std::uint16_t port,
                 std::chrono::milliseconds timeout = std::chrono::milliseconds{0});

/// Applies SO_RCVTIMEO/SO_SNDTIMEO to the socket (0 clears both).  Blocking
/// reads/writes past the timeout then surface as NetTimeout from
/// readFrame/writeFrame.
void setSocketTimeouts(const Socket& socket, std::chrono::milliseconds timeout);

/// Writes one length-prefixed frame; throws NetError on failure.
void writeFrame(const Socket& socket, const Frame& frame);

/// Reads one length-prefixed frame; throws NetError on failure or EOF.
Frame readFrame(const Socket& socket);

}  // namespace dsud
