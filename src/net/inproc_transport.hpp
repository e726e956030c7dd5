// Deterministic in-process transport.
//
// `call` serialises nothing away: the request frame is handed to the
// registered handler and its response frame returned, exactly as a socket
// round trip would, so byte counts and (de)serialisation behaviour are
// identical to the TCP transport — only latency and concurrency differ.
#pragma once

#include <chrono>
#include <stdexcept>
#include <utility>

#include "net/transport.hpp"
#include "net/wire.hpp"

namespace dsud {

/// Synchronous loopback channel: each call invokes the handler directly.
class InProcChannel final : public ClientChannel {
 public:
  explicit InProcChannel(FrameHandler handler)
      : handler_(std::move(handler)) {
    if (!handler_) {
      throw std::invalid_argument("InProcChannel: null handler");
    }
  }

  Frame call(const Frame& request) override {
    if (closed_) throw std::logic_error("InProcChannel: channel closed");
    // A synchronous handler cannot be preempted, so the deadline is honoured
    // post-hoc: a handler that overran it fails the call with NetTimeout,
    // exactly as the reply missing the deadline would over a socket.  The
    // clock is read only when a deadline is set (it is off by default).
    using Clock = std::chrono::steady_clock;
    const auto deadline = this->deadline();
    const bool timed = deadline.count() > 0;
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    Frame response = handler_(request);
    if (timed && Clock::now() - start > deadline) {
      throw NetTimeout("inproc call: deadline exceeded");
    }
    // Loopback has no framing: on-wire bytes are exactly the payloads.
    accountFrames(request.size(), response.size(), 0, 0);
    return response;
  }

  void close() override { closed_ = true; }

 private:
  FrameHandler handler_;
  bool closed_ = false;
};

}  // namespace dsud
