#pragma once

#include <cstddef>
#include <string>

namespace microtools::net {

/// Minimal RAII wrapper over a connected stream socket (TCP or Unix
/// domain). Move-only; the descriptor is closed on destruction. All I/O is
/// blocking; failures throw McError with the errno text — callers treat a
/// throw as "peer gone", never as state to recover field by field.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes exactly `size` bytes (looping over partial writes / EINTR).
  void sendAll(const void* data, std::size_t size);

  /// Reads exactly `size` bytes. Returns false on clean EOF before the
  /// first byte; throws on errors or EOF mid-buffer.
  bool recvAll(void* data, std::size_t size);

  /// Half-closes both directions — unblocks a peer (or another thread of
  /// this process) sleeping in recv. Safe to call from any thread while
  /// another is blocked in sendAll/recvAll.
  void shutdown();

  void close();

 private:
  int fd_ = -1;
};

/// Listening socket bound to an address spec:
///   "127.0.0.1:7777"  TCP (port 0 picks an ephemeral port)
///   "unix:/path/sock" Unix domain (the path is unlinked first)
/// boundSpec() returns the spec with any ephemeral port resolved, in the
/// same format connectTo() accepts.
class Listener {
 public:
  Listener() = default;
  explicit Listener(const std::string& spec);
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  bool valid() const { return fd_ >= 0; }
  const std::string& boundSpec() const { return boundSpec_; }

  /// Waits up to `timeoutMs` for a connection; an invalid Socket on
  /// timeout. Throws on listener errors, including after shutdown().
  Socket accept(int timeoutMs);

  /// Stops accepting and wakes an accept() blocked in poll on another
  /// thread, which then throws. Unlike close() it only reads the
  /// descriptor, so it is safe while that thread is in accept().
  void shutdown();

  /// Closes the listening descriptor (and unlinks a Unix socket path).
  /// Not safe while another thread is in accept(): shutdown() that thread
  /// out and join it first.
  void close();

 private:
  int fd_ = -1;
  std::string boundSpec_;
  std::string unixPath_;  ///< unlinked on close for "unix:" listeners
};

/// Connects to a spec in the Listener format; throws McError on failure.
Socket connectTo(const std::string& spec);

}  // namespace microtools::net
