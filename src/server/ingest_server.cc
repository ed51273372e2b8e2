#include "server/ingest_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

namespace bursthist {
namespace server {

namespace {

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

// Sends all n bytes, waiting at most `timeout_ms` for the socket to
// accept EACH chunk (0 = wait forever). A stalled client — zero
// window, dead link — therefore blocks its handler thread for one
// timeout, not indefinitely.
bool SendAll(int fd, const char* data, size_t n, int timeout_ms) {
  size_t sent = 0;
  while (sent < n) {
    pollfd pfd{fd, POLLOUT, 0};
    const int r = ::poll(&pfd, 1, timeout_ms == 0 ? -1 : timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // write timeout: give up on the client
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

TcpLineServer::~TcpLineServer() { Stop(); }

Status TcpLineServer::Start(const TcpServerOptions& options,
                            BatchLineHandler batch_handler,
                            MetricsProvider metrics) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  options_ = options;
  batch_handler_ = std::move(batch_handler);
  metrics_ = std::move(metrics);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("unparseable IPv4 host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const Status st = Status::IOError("bind: " + std::string(strerror(errno)));
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    const Status st = Status::IOError("listen: " +
                                      std::string(strerror(errno)));
    CloseFd(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const Status st = Status::IOError("getsockname: " +
                                      std::string(strerror(errno)));
    CloseFd(fd);
    return st;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void TcpLineServer::StopAccepting() {
  if (listen_fd_ < 0) return;
  // Shutting the listener down makes accept() fail and new dials get
  // refused; open connections are untouched.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
}

bool TcpLineServer::Drain(int grace_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                           [this] { return active_ == 0; });
}

void TcpLineServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  // Shut the listener down so accept() returns, then kick every open
  // connection so its blocking recv() returns.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return active_ == 0; });
  for (std::thread& t : conn_threads_) t.join();
  conn_threads_.clear();
  ended_ids_.clear();
}

void TcpLineServer::ReapEndedConnections() {
  std::vector<std::thread> ended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::thread::id id : ended_ids_) {
      auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      ended.push_back(std::move(*it));
      conn_threads_.erase(it);
    }
    ended_ids_.clear();
  }
  // Each of these has at most its final unlock of mu_ left to run.
  for (std::thread& t : ended) t.join();
}

void TcpLineServer::AcceptLoop() {
  BURSTHIST_COUNTER(m_conns, obs::kServerConnectionsTotal);
  BURSTHIST_GAUGE(m_active, obs::kServerActiveConnections);
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or hard error): stop accepting
    }
    // Threads of connections that ended since the last accept are
    // joined here, so the threads held stay bounded by the open
    // connections instead of growing until Stop().
    ReapEndedConnections();
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_acquire) ||
        active_ >= options_.max_connections) {
      lock.unlock();
      ::close(fd);
      continue;
    }
    // The thread is created under mu_, which it needs before it can
    // report its end, so its id reaches ended_ids_ only after its
    // std::thread is in conn_threads_.
    try {
      conn_threads_.emplace_back([this, fd] {
        ServeConnection(fd);
        BURSTHIST_GAUGE(m_active2, obs::kServerActiveConnections);
        std::lock_guard<std::mutex> inner(mu_);
        auto it = std::find(conn_fds_.begin(), conn_fds_.end(), fd);
        if (it != conn_fds_.end()) conn_fds_.erase(it);
        ::close(fd);
        --active_;
        ended_ids_.push_back(std::this_thread::get_id());
        m_active2.Set(static_cast<double>(active_));
        idle_cv_.notify_all();
      });
    } catch (const std::system_error&) {
      // No thread to serve it: refuse this connection, keep accepting.
      lock.unlock();
      ::close(fd);
      continue;
    }
    ++active_;
    conn_fds_.push_back(fd);
    m_conns.Inc();
    m_active.Set(static_cast<double>(active_));
  }
}

void TcpLineServer::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  LineBuffer buffer(options_.max_line_bytes);
  bool first_line = true;
  char chunk[8192];
  for (;;) {
    // Idle gate before the blocking read: a client that goes silent
    // past the timeout loses its slot instead of pinning it forever.
    if (options_.idle_timeout_ms > 0) {
      pollfd pfd{fd, POLLIN, 0};
      int r;
      do {
        r = ::poll(&pfd, 1, options_.idle_timeout_ms);
      } while (r < 0 && errno == EINTR);
      if (r <= 0) return;  // idle timeout (or poll failure): close
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) return;  // peer closed
    std::vector<std::string> lines;
    const Status st = buffer.Feed(chunk, static_cast<size_t>(n), &lines);
    // Batched handling: every complete line in the chunk is parsed
    // and dispatched before the replies go out in one send. The HTTP
    // switch and empty-line filtering happen here, so the handler only
    // ever sees real request lines.
    std::vector<std::string> requests;
    requests.reserve(lines.size());
    for (std::string& line : lines) {
      if (first_line) {
        first_line = false;
        if (line.compare(0, 4, "GET ") == 0) {
          ServeHttp(fd, line);
          return;
        }
      }
      if (!line.empty()) requests.push_back(std::move(line));
    }
    std::string replies;
    bool close = false;
    if (!requests.empty()) replies = batch_handler_(requests, &close);
    if (!replies.empty() && replies.back() != '\n') replies += '\n';
    if (!st.ok()) {
      replies += FormatError(st) + "\n";
      close = true;
    }
    if (!replies.empty() && !SendAll(fd, replies.data(), replies.size(),
                                     options_.write_timeout_ms)) {
      return;
    }
    if (close) return;
  }
}

void TcpLineServer::ServeHttp(int fd, const std::string& first_line) {
  // One-shot HTTP GET: enough for a Prometheus scrape, nothing more.
  // The response always closes the connection.
  const size_t path_start = 4;
  const size_t path_end = first_line.find(' ', path_start);
  const std::string path =
      first_line.substr(path_start, path_end == std::string::npos
                                        ? std::string::npos
                                        : path_end - path_start);
  std::string body;
  std::string status_line;
  if (path == "/metrics" && metrics_) {
    body = metrics_();
    status_line = "HTTP/1.0 200 OK\r\n";
  } else {
    body = "not found\n";
    status_line = "HTTP/1.0 404 Not Found\r\n";
  }
  const std::string response =
      status_line +
      "Content-Type: text/plain; version=0.0.4\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  if (!SendAll(fd, response.data(), response.size(),
               options_.write_timeout_ms)) {
    return;
  }
  // Half-close, then drain whatever headers the client is still
  // sending so it sees a clean FIN instead of a reset.
  ::shutdown(fd, SHUT_WR);
  char sink[1024];
  while (::recv(fd, sink, sizeof sink, 0) > 0) {
  }
}

}  // namespace server
}  // namespace bursthist
