#include "obs/ops_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/service_state.hpp"
#include "telemetry/trace.hpp"

namespace tvbf::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One connection's budget for reading the request and writing the response
/// together; the time the server spends rendering the response does not
/// count. The accept thread serves connections one at a time, so a client
/// that trickles its request or stops reading the response holds every
/// other scrape up to this long. A scraper's GET arrives in one packet, and
/// a localhost reader takes the largest /dump in milliseconds.
constexpr std::chrono::milliseconds kConnectionDeadline{1000};

/// Waits until fd is ready for `events`; false once the deadline passes.
bool wait_ready(int fd, short events, Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return false;
  struct pollfd pfd = {fd, events, 0};
  return ::poll(&pfd, 1, static_cast<int>(left)) > 0;
}

/// tvbf_ prefix, dots (and anything else Prometheus rejects) to
/// underscores.
std::string prom_name(const std::string& name) {
  std::string out = "tvbf_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

void append_line(std::string& out, const std::string& name,
                 const char* suffix, const char* labels, double value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s%s%s %.9g\n", name.c_str(), suffix,
                labels, value);
  out += buf;
}

std::string http_response(int status, const char* content_type,
                          const std::string& body) {
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                       : status == 503 ? "Service Unavailable"
                                       : "Error";
  char head[160];
  std::snprintf(head, sizeof(head),
                "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n"
                "Content-Length: %zu\r\nConnection: close\r\n\r\n",
                status, reason, content_type, body.size());
  return head + body;
}

}  // namespace

std::string render_prometheus(const telemetry::Snapshot& snapshot) {
  std::string out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prom_name(c.name);
    out += "# TYPE " + name + " counter\n";
    append_line(out, name, "", "", static_cast<double>(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prom_name(g.name);
    out += "# TYPE " + name + " gauge\n";
    append_line(out, name, "", "", static_cast<double>(g.value));
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prom_name(h.name);
    out += "# TYPE " + name + " summary\n";
    append_line(out, name, "", "{quantile=\"0.5\"}", h.p50_s);
    append_line(out, name, "", "{quantile=\"0.9\"}", h.p90_s);
    append_line(out, name, "", "{quantile=\"0.99\"}", h.p99_s);
    append_line(out, name, "_sum", "", h.sum_s);
    append_line(out, name, "_count", "", static_cast<double>(h.count));
  }
  return out;
}

struct OpsServer::Impl {
  Options options;
  int listen_fd = -1;
  std::atomic<int> bound_port{-1};
  std::atomic<bool> run{false};
  std::thread accept_thread;

  void loop();
  void serve_one(int fd);
  static std::string route(const std::string& path, int& status,
                           const char*& content_type);
};

std::string OpsServer::Impl::route(const std::string& path, int& status,
                                   const char*& content_type) {
  status = 200;
  content_type = "application/json";
  if (path == "/metrics") {
    content_type = "text/plain; version=0.0.4";
    return render_prometheus(telemetry::Registry::instance().snapshot());
  }
  if (path == "/healthz") {
    if (!ServiceState::instance().healthy()) status = 503;
    return ServiceState::instance().healthz_json();
  }
  if (path == "/sessions") {
    return ServiceState::instance().sessions_json();
  }
  if (path == "/dump") {
    return "{\"flight\": " + FlightRecorder::instance().dump_json() +
           ", \"trace\": " + telemetry::trace_export_json() + "}\n";
  }
  status = 404;
  return "{\"error\": \"no such route\"}\n";
}

void OpsServer::Impl::serve_one(int fd) {
  Clock::time_point deadline = Clock::now() + kConnectionDeadline;
  // Read the request head; a scrape's GET fits one read.
  char req[1024];
  std::size_t have = 0;
  while (have < sizeof(req) - 1 && wait_ready(fd, POLLIN, deadline)) {
    const ssize_t n = ::recv(fd, req + have, sizeof(req) - 1 - have, 0);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
    req[have] = '\0';
    if (std::strstr(req, "\r\n\r\n") != nullptr) break;
  }
  req[have] = '\0';

  const Clock::time_point render_start = Clock::now();
  std::string body;
  int status = 400;
  const char* content_type = "application/json";
  if (std::strncmp(req, "GET ", 4) == 0) {
    const char* start = req + 4;
    const char* end = std::strchr(start, ' ');
    if (end != nullptr) {
      body = route(std::string(start, end), status, content_type);
    }
  }
  if (body.empty() && status == 400) body = "{\"error\": \"bad request\"}\n";

  const std::string response = http_response(status, content_type, body);
  deadline += Clock::now() - render_start;
  std::size_t sent = 0;
  while (sent < response.size() && wait_ready(fd, POLLOUT, deadline)) {
    // MSG_NOSIGNAL: a client that hangs up mid-response gets EPIPE here
    // instead of a SIGPIPE that would kill the serving process.
    // MSG_DONTWAIT: a send never blocks past the deadline.
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void OpsServer::Impl::loop() {
  while (run.load(std::memory_order_acquire)) {
    struct pollfd pfd = {listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    serve_one(fd);
  }
}

OpsServer::OpsServer(Options options) : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

OpsServer::~OpsServer() { stop(); }

bool OpsServer::start() {
  if (impl_->run.load(std::memory_order_acquire)) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port =
      htons(static_cast<std::uint16_t>(std::max(impl_->options.port, 0)));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 8) < 0) {
    ::close(fd);
    return false;
  }
  struct sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
      0) {
    impl_->bound_port.store(ntohs(bound.sin_port), std::memory_order_release);
  }
  impl_->listen_fd = fd;
  impl_->run.store(true, std::memory_order_release);
  impl_->accept_thread = std::thread([this] { impl_->loop(); });
  return true;
}

void OpsServer::stop() {
  if (!impl_->run.exchange(false, std::memory_order_acq_rel)) return;
  impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  impl_->bound_port.store(-1, std::memory_order_release);
}

bool OpsServer::running() const {
  return impl_->run.load(std::memory_order_acquire);
}

int OpsServer::port() const {
  return impl_->bound_port.load(std::memory_order_acquire);
}

}  // namespace tvbf::obs
