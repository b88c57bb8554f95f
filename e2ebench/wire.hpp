// The serving side of router_warm, hosted in the benchmark process,
// and the closed-loop client that drives it.
#pragma once

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "net/router.hpp"
#include "net/server.hpp"
#include "service/service.hpp"

namespace e2e {

/// Wire codec of one client connection.
enum class Codec { kNdjson, kBinary };

[[nodiscard]] const char* to_string(Codec codec);

/// A blocking Unix-socket client holding at most one request in flight.
class Client {
 public:
  /// Connects to `path` (retrying briefly while the listener comes up).
  /// Throws std::runtime_error when it cannot.
  Client(const std::string& path, Codec codec);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// `payload` (one JSON request object) in this connection's codec:
  /// a newline-terminated line or one request frame.
  [[nodiscard]] std::string encode(const std::string& payload) const;

  /// Sends pre-encoded request bytes and blocks for the response.
  /// Returns the response JSON text; `wire_bytes` receives the bytes
  /// the response took on the wire (line with newline, or whole
  /// frame). Throws std::runtime_error on a closed connection, a
  /// protocol error, or no response within 30 s.
  std::string call(const std::string& request_bytes, std::size_t* wire_bytes);

 private:
  void fill();

  int fd_ = -1;
  Codec codec_;
  std::string buf_;
};

/// cvb::Service + net::NetServer, built the way `cvserve --socket`
/// builds them (default ServiceOptions, default NetServerOptions),
/// serving on a thread of its own.
class Worker {
 public:
  explicit Worker(const std::string& socket_path);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  [[nodiscard]] cvb::Service& service() { return service_; }

 private:
  cvb::Service service_;
  cvb::net::NetServer server_;
  std::thread thread_;
};

/// net::Router with `cvrouter`'s defaults in front of `workers`,
/// serving on a thread of its own.
class RouterHost {
 public:
  RouterHost(const std::string& listen_path,
             const std::vector<std::string>& workers);
  ~RouterHost();

  RouterHost(const RouterHost&) = delete;
  RouterHost& operator=(const RouterHost&) = delete;

 private:
  cvb::net::Router router_;
  std::thread thread_;
};

}  // namespace e2e
