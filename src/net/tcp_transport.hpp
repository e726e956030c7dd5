// TCP implementations of the transport abstraction.
//
// A `TcpSiteServer` runs on the site side: it accepts one coordinator
// connection and serves request frames through the registered handler until
// the peer disconnects or `stop()` is called.  A `TcpClientChannel` is the
// coordinator endpoint.  Both speak the framing defined in wire.hpp, so the
// protocol layer is byte-identical to the in-process transport.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dsud {

/// Coordinator-side TCP channel to one site.
class TcpClientChannel final : public ClientChannel {
 public:
  /// Connects to a site server on 127.0.0.1:`port`.  `options` bounds the
  /// connect; a per-call deadline set later via setDeadline maps onto
  /// SO_RCVTIMEO/SO_SNDTIMEO.
  explicit TcpClientChannel(std::uint16_t port, TcpSocketOptions options = {})
      : socket_(connectTo(port, options.connectTimeout)) {}

  Frame call(const Frame& request) override {
    try {
      writeFrame(socket_, request);
      Frame response = readFrame(socket_);
      // Real sockets carry the u32 length prefix in each direction; without
      // this, bytesShipped undercounts by kFrameHeaderBytes per frame.
      accountFrames(request.size(), response.size(), kFrameHeaderBytes,
                    kFrameHeaderBytes);
      return response;
    } catch (const NetTimeout&) {
      // The stream is desynchronised (the late reply could be misread as a
      // later call's response); poison the connection so every further call
      // fails loudly instead of silently mixing frames.
      socket_.close();
      throw;
    }
  }

  void close() override { socket_.close(); }

 protected:
  void onDeadlineChanged() override { setSocketTimeouts(socket_, deadline()); }

 private:
  Socket socket_;
};

/// Site-side server: one listener, one coordinator connection.
class TcpSiteServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral).  Call `port()` for the bound
  /// port and `serve()` (typically on a dedicated thread) to start.
  explicit TcpSiteServer(FrameHandler handler, std::uint16_t port = 0);

  std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection and serves frames until the peer disconnects.
  /// Returns the number of requests served.
  std::size_t serve();

  /// Makes `serve` return after the in-flight request (by closing the
  /// listener; the peer disconnect ends the loop).
  void stop() noexcept { stopped_.store(true, std::memory_order_relaxed); }

 private:
  FrameHandler handler_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopped_{false};
};

}  // namespace dsud
