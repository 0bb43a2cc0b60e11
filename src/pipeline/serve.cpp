#include "pipeline/serve.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace netrev::pipeline::serve {

namespace {

// Scoped fd so early-throw paths in start() never leak a socket.
struct ScopedFd {
  int fd = -1;
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  int release() { return std::exchange(fd, -1); }
};

// listen(2) backlog: also the most connections a drain can find waiting.
constexpr int kListenBacklog = 64;

}  // namespace

// One client connection.  The reader thread owns reads; responses are
// written by whichever thread finished the request, serialized by
// write_mutex so concurrent responses to one client never interleave bytes.
struct Server::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  // Sends `line` + '\n'.  Best-effort: a client that vanished mid-response,
  // or stopped reading until a send outlived SO_SNDTIMEO, just loses it (the
  // request was still executed and counted).  The first such failure shuts
  // the socket down both ways and returns its reason; later lines to this
  // connection are dropped at once, so one stalled client costs the workers
  // at most one send timeout, and its reader sees EOF.  Returns an empty
  // string when the line was sent or dropped.
  std::string write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (shut_down) return {};
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
        const std::string reason =
            timed_out ? "send timed out (client stopped reading)"
                      : std::string("send failed: ") + std::strerror(errno);
        ::shutdown(fd, SHUT_RDWR);
        shut_down = true;
        return reason;
      }
      sent += static_cast<std::size_t>(n);
    }
    return {};
  }

  // Ends the reader thread's input from another thread.  Read side only:
  // recv still returns the bytes already received before its EOF, and the
  // frames in them are answered over the open write side.
  void shutdown_read() { ::shutdown(fd, SHUT_RD); }

  int fd;
  std::mutex write_mutex;
  bool shut_down = false;  // guarded by write_mutex
};

Server::Server(ServeOptions options, std::ostream* log)
    : options_(std::move(options)), log_(log), executor_(options_.executor) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

std::string Server::endpoint() const {
  if (!options_.unix_path.empty()) return "unix:" + options_.unix_path;
  return options_.host + ":" + std::to_string(port_);
}

void Server::start() {
  // Pipe writes to crashed workers must surface as EPIPE, and a client that
  // disconnects mid-response must not kill the daemon (MSG_NOSIGNAL covers
  // the socket sends, SIG_IGN covers everything else).
  supervisor::ignore_sigpipe();
  start_time_ = std::chrono::steady_clock::now();
  if (options_.pool) pool_ = std::make_unique<supervisor::WorkerPool>(*options_.pool);
  executor_.set_health_source(this);

  ScopedFd fd;
  if (!options_.unix_path.empty()) {
    fd.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd.fd < 0) throw std::runtime_error("serve: cannot create socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("serve: socket path too long: " +
                               options_.unix_path);
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(fd.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("serve: cannot bind " + options_.unix_path +
                               ": " + std::strerror(errno));
  } else {
    fd.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd.fd < 0) throw std::runtime_error("serve: cannot create socket");
    const int one = 1;
    ::setsockopt(fd.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("serve: bad listen address: " + options_.host);
    if (::bind(fd.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("serve: cannot bind " + options_.host + ":" +
                               std::to_string(options_.port) + ": " +
                               std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd.fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(fd.fd, kListenBacklog) != 0)
    throw std::runtime_error(std::string("serve: listen failed: ") +
                             std::strerror(errno));
  listen_fd_ = fd.release();
}

void Server::logline(const std::string& text) {
  if (log_ == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mutex_);
  *log_ << "serve: " << text << '\n';
  log_->flush();
}

void Server::respond(const std::shared_ptr<Connection>& connection,
                     const protocol::Response& response) {
  const std::string failure =
      connection->write_line(protocol::render_response(response));
  if (!failure.empty())
    logline(failure + "; connection shut down, later responses dropped");
  logline("id=" + (response.id.empty() ? std::string("?") : response.id) +
          " status=" + protocol::status_name(response.status) +
          (response.error.empty() ? "" : " error=\"" + response.error + "\""));
}

void Server::handle_line(const std::shared_ptr<Connection>& connection,
                         const std::string& line) {
  protocol::ParsedRequest parsed = protocol::parse_request(line);
  if (!parsed.request) {
    protocol::Response response;
    response.status = protocol::Status::kBadRequest;
    response.error = parsed.error;
    executor_.record(response.status);
    respond(connection, response);
    return;
  }
  protocol::Request request = std::move(*parsed.request);
  if (request.id.empty())
    request.id =
        "s" + std::to_string(next_request_id_.fetch_add(
                  1, std::memory_order_relaxed));

  // Admission: bounded queue, never a stall.  A shed request is answered
  // right here on the reader thread.
  bool shed_for_drain;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!draining_ && queue_.size() < options_.max_queue) {
      queue_.push_back(Work{std::move(request), exec::CancelToken{},
                            connection});
      work_cv_.notify_one();
      return;
    }
    shed_for_drain = draining_;
  }
  protocol::Response response;
  response.id = request.id;
  response.status = protocol::Status::kOverloaded;
  response.error = shed_for_drain
                       ? "server is draining; retry against a live instance"
                       : "admission queue full (max-queue=" +
                             std::to_string(options_.max_queue) +
                             "); retry with backoff";
  executor_.record(response.status);
  respond(connection, response);
}

protocol::Response Server::execute_work(const Work& work) {
  // ping/stats/health answer in-process even when isolating, so the daemon
  // stays observable while every worker is crashed or wedged.
  const protocol::Op op = work.request.op;
  const bool pooled = pool_ != nullptr && op != protocol::Op::kPing &&
                      op != protocol::Op::kStats &&
                      op != protocol::Op::kHealth;
  if (!pooled) return executor_.execute(work.request, work.cancel);

  const supervisor::WorkerPool::Outcome outcome =
      pool_->run(protocol::render_request(work.request));
  protocol::Response response;
  response.id = work.request.id;
  if (outcome.crashed) {
    response.status = protocol::Status::kWorkerCrashed;
    response.error = "worker crashed: " + outcome.crash.describe();
  } else {
    protocol::ParsedResponse parsed =
        protocol::parse_response(outcome.response);
    if (parsed.response) {
      response = std::move(*parsed.response);
      response.id = work.request.id;
    } else {
      response.status = protocol::Status::kWorkerCrashed;
      response.error = "unusable worker reply: " + parsed.error;
    }
  }
  // The worker counted the request in ITS stats; this daemon's stats must
  // see it too (the same rule as responses synthesized by admission).
  executor_.record(response.status);
  return response;
}

void Server::worker_loop() {
  for (;;) {
    Work work;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_workers_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_workers_) return;
        continue;
      }
      work = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
      active_.push_back(work.cancel);
    }
    const protocol::Response response = execute_work(work);
    respond(work.connection, response);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].flag() == work.cancel.flag()) {
          active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      --inflight_;
    }
    drain_cv_.notify_all();
  }
}

void Server::reader_loop(std::shared_ptr<Connection> connection) {
  std::string buffer;
  auto last_activity = std::chrono::steady_clock::now();
  char chunk[4096];
  for (;;) {
    pollfd pfd{connection->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      if (options_.idle_timeout.count() > 0 &&
          std::chrono::steady_clock::now() - last_activity >
              options_.idle_timeout) {
        logline("connection idle for " +
                std::to_string(options_.idle_timeout.count()) +
                "ms, closing");
        break;
      }
      continue;
    }
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // peer closed (or the drain shutdown unblocked us)
    last_activity = std::chrono::steady_clock::now();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(connection, line);
    }
    // Unframed-buffer bound: a frame still lacking its newline past the
    // limit can only grow, so answer once and disconnect rather than
    // buffering a client's endless line.
    if (buffer.size() > options_.max_request_bytes) {
      protocol::Response response;
      response.status = protocol::Status::kBadRequest;
      response.error = "request exceeds max-request-bytes (" +
                       std::to_string(options_.max_request_bytes) +
                       "); closing connection";
      executor_.record(response.status);
      respond(connection, response);
      break;
    }
  }
}

protocol::HealthSnapshot Server::health() const {
  protocol::HealthSnapshot snap;
  snap.uptime_s = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap.inflight = inflight_;
    snap.queued = queue_.size();
  }
  if (pool_ != nullptr) {
    const supervisor::PoolStats stats = pool_->stats();
    snap.isolate = true;
    snap.workers_alive = stats.alive;
    snap.workers_restarted = stats.restarts;
    snap.workers_quarantined = stats.crashes;
  }
  return snap;
}

bool Server::accept_pending(int timeout_ms) {
  pollfd pfd{listen_fd_, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return false;  // timeout or EINTR
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return false;
  if (options_.idle_timeout.count() > 0) {
    // The idle timeout bounds sends too: a client that stops reading fills
    // its socket buffers, and without a deadline the thread answering it
    // would block in send() forever, taking a worker (or, for sheds, its
    // reader) and the drain with it.
    const auto ms = options_.idle_timeout.count();
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(ms / 1000);
    timeout.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  auto connection = std::make_shared<Connection>(fd);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(connection);
  }
  readers_.emplace_back([this, connection = std::move(connection)]() mutable {
    reader_loop(std::move(connection));
  });
  return true;
}

ExitCode Server::run() {
  for (std::size_t i = 0; i < options_.max_inflight; ++i)
    workers_.emplace_back([this] { worker_loop(); });

  // Accept loop: poll with a short tick so the signal-set drain flag is
  // observed within ~50ms without any async-signal-unsafe work in handlers.
  while (!drain_requested_.load(std::memory_order_relaxed)) accept_pending(50);

  // --- drain ---------------------------------------------------------------
  logline("drain requested");
  // Clients still in the listen backlog connected before the drain: closing
  // the listener would reset them, so take them in first (without waiting
  // for new ones) and answer their frames like everyone else's.
  for (int i = 0; i < kListenBacklog && accept_pending(0); ++i) {
  }
  ::close(listen_fd_);  // stop accepting; connected readers keep reading
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;  // admission now sheds everything as "overloaded"
  }

  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  bool clean;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    clean = drain_cv_.wait_until(
        lock, deadline, [&] { return queue_.empty() && inflight_ == 0; });
    if (!clean) {
      // Window expired: cancel executing requests (their Executor turns the
      // CancelledError into a "cancelled" response) and answer everything
      // still queued ourselves, so every admitted request gets exactly one
      // response.
      logline("drain window expired; cancelling in-flight requests");
      for (exec::CancelToken& token : active_) token.request_cancel();
      // Pooled round trips cannot observe cancel tokens — poison the pool
      // so their workers die and the round trips return (as crash
      // outcomes, answered "worker_crashed") within the drain window.
      if (pool_ != nullptr) pool_->poison();
      std::deque<Work> unstarted;
      unstarted.swap(queue_);
      lock.unlock();
      for (Work& work : unstarted) {
        protocol::Response response;
        response.id = work.request.id;
        response.status = protocol::Status::kCancelled;
        response.error = "server drained before this request started";
        executor_.record(response.status);
        respond(work.connection, response);
      }
      lock.lock();
      // Cancellation is cooperative and every stage polls, so this wait is
      // short; it is unbounded because exiting with workers still running
      // is never an option.
      drain_cv_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
    }
    stop_workers_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // Retire the readers.  Responses are all flushed (write_line completes
  // before a worker retires); frames a reader has not read yet are still
  // delivered, shed as "overloaded" (draining), and answered before its EOF.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (std::weak_ptr<Connection>& weak : connections_)
      if (auto connection = weak.lock()) connection->shutdown_read();
  }
  for (std::thread& reader : readers_) reader.join();
  readers_.clear();

  logline(clean ? "drained cleanly" : "drain timed out");
  return clean ? ExitCode::kDrained : ExitCode::kDrainTimeout;
}

}  // namespace netrev::pipeline::serve
