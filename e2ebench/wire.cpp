#include "wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "net/frame.hpp"

namespace e2e {

namespace {

constexpr int kResponseTimeoutMs = 30'000;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  path.copy(addr.sun_path, path.size());
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("socket() failed");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("cannot connect to " + path);
}

}  // namespace

const char* to_string(Codec codec) {
  return codec == Codec::kNdjson ? "ndjson" : "binary";
}

Client::Client(const std::string& path, Codec codec)
    : fd_(connect_unix(path)), codec_(codec) {}

Client::~Client() { ::close(fd_); }

std::string Client::encode(const std::string& payload) const {
  if (codec_ == Codec::kNdjson) {
    return payload + "\n";
  }
  return cvb::net::encode_frame(cvb::net::FrameType::kRequest, payload);
}

void Client::fill() {
  pollfd pfd{fd_, POLLIN, 0};
  int ready = 0;
  do {
    ready = ::poll(&pfd, 1, kResponseTimeoutMs);
  } while (ready < 0 && errno == EINTR);
  if (ready == 0) {
    throw std::runtime_error("no response within 30 s");
  }
  char chunk[16384];
  ssize_t n = 0;
  do {
    n = ::read(fd_, chunk, sizeof chunk);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    throw std::runtime_error("connection closed");
  }
  buf_.append(chunk, static_cast<std::size_t>(n));
}

std::string Client::call(const std::string& request_bytes,
                         std::size_t* wire_bytes) {
  std::size_t sent = 0;
  while (sent < request_bytes.size()) {
    const ssize_t n = ::send(fd_, request_bytes.data() + sent,
                             request_bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error("send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  if (codec_ == Codec::kNdjson) {
    std::size_t newline = 0;
    while ((newline = buf_.find('\n')) == std::string::npos) {
      fill();
    }
    std::string line = buf_.substr(0, newline);
    buf_.erase(0, newline + 1);
    *wire_bytes = newline + 1;
    return line;
  }
  while (true) {
    const cvb::net::DecodeResult decoded = cvb::net::decode_frame(buf_);
    if (decoded.status == cvb::net::DecodeStatus::kFrame) {
      std::string payload(decoded.frame.payload);
      *wire_bytes = decoded.consumed;
      buf_.erase(0, decoded.consumed);
      return payload;
    }
    if (decoded.status != cvb::net::DecodeStatus::kNeedMore) {
      throw std::runtime_error(
          std::string("bad response frame: ") +
          cvb::net::decode_status_message(decoded.status));
    }
    fill();
  }
}

namespace {

cvb::net::NetServerOptions server_options(const std::string& socket_path) {
  cvb::net::NetServerOptions options;
  options.socket_path = socket_path;
  return options;
}

cvb::net::RouterOptions router_options(
    const std::string& listen_path, const std::vector<std::string>& workers) {
  cvb::net::RouterOptions options;
  options.listen_path = listen_path;
  options.workers = workers;
  return options;
}

}  // namespace

Worker::Worker(const std::string& socket_path)
    : server_(service_, server_options(socket_path)),
      thread_([this] {
        if (server_.run(std::cerr) != 0) {
          std::cerr << "e2ebench: worker server failed\n";
        }
      }) {
  if (!server_.wait_until_listening()) {
    server_.request_shutdown();
    thread_.join();
    throw std::runtime_error("worker cannot listen on " + socket_path);
  }
}

Worker::~Worker() {
  server_.request_shutdown();
  thread_.join();
}

RouterHost::RouterHost(const std::string& listen_path,
                       const std::vector<std::string>& workers)
    : router_(router_options(listen_path, workers)), thread_([this] {
        if (router_.run(std::cerr) != 0) {
          std::cerr << "e2ebench: router failed\n";
        }
      }) {
  if (!router_.wait_until_listening()) {
    router_.request_shutdown();
    thread_.join();
    throw std::runtime_error("router cannot listen on " + listen_path);
  }
}

RouterHost::~RouterHost() {
  router_.request_shutdown();
  thread_.join();
}

}  // namespace e2e
