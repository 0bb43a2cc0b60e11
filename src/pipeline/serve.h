// netrev serve — the long-lived analysis daemon.
//
// This layer puts sockets, admission control, and drain choreography on top
// of the transport-free protocol module (pipeline/protocol.h):
//
//   * transport: newline-delimited JSON over TCP (127.0.0.1) or a Unix
//     domain socket; one reader thread per connection with an idle timeout
//     that also bounds every send, so a client that stops reading cannot
//     hold a worker or the drain.
//   * admission: a bounded queue (`max_queue`) feeding `max_inflight`
//     worker threads.  A full queue — or a draining server — answers
//     immediately with status "overloaded" instead of stalling the client.
//   * execution: workers run requests through the shared Executor; the
//     heavy pipeline stages inside each request fan out on the process-wide
//     ThreadPool exactly as the one-shot CLI does.
//   * drain: request_drain() (wired to SIGTERM/SIGINT by the CLI) stops
//     accepting connections, sheds new requests as "overloaded", and gives
//     admitted work `drain_timeout` to finish.  If the window expires the
//     in-flight cancel tokens fire and still-queued requests are answered
//     with status "cancelled" — every admitted request gets exactly one
//     response either way.  run() returns ExitCode::kDrained on a clean
//     drain, ExitCode::kDrainTimeout otherwise.
//   * isolation (--isolate): with a worker pool configured, analysis ops are
//     executed in supervised child processes; a request that crashes its
//     worker (segfault, OOM kill, watchdog) is answered with status
//     "worker_crashed" while the daemon keeps serving.  A forwarded request
//     carries the daemon's effective settings for it.  ping/stats/health
//     stay in-process so the daemon remains observable even when every
//     worker is wedged.  The drain window poisons the pool on expiry, so no
//     round trip outlives the drain.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/exit_code.h"
#include "exec/cancel.h"
#include "pipeline/protocol.h"
#include "pipeline/supervisor.h"

namespace netrev::pipeline::serve {

struct ServeOptions {
  // TCP endpoint; port 0 binds an ephemeral port (read it back via port()).
  // A non-empty unix_path switches to a Unix domain socket instead.
  std::string host = "127.0.0.1";
  int port = 0;
  std::string unix_path;

  std::size_t max_inflight = 4;  // worker threads executing requests
  std::size_t max_queue = 16;    // admitted-but-not-started bound
  // Per-connection idle bound: a client that sends nothing for this long
  // is dropped, and so is one that stops reading — every send to it is
  // bounded by the same timeout (SO_SNDTIMEO).  0 = wait forever.
  std::chrono::milliseconds idle_timeout{30000};
  std::chrono::milliseconds drain_timeout{5000};  // budget for in-flight work

  // Bound on one connection's unframed read buffer (--max-request-bytes): a
  // frame still lacking its newline past this size is answered with
  // "bad_request" and the connection is closed, so a client streaming an
  // endless line cannot balloon daemon memory.
  std::size_t max_request_bytes = 8u << 20;

  // Process isolation (--isolate): run analysis ops in supervised worker
  // processes from a pool with these options.  Absent = in-process.  start()
  // refuses an executor base with settings a forwarded request cannot carry
  // (protocol::require_carried).
  std::optional<supervisor::PoolOptions> pool;

  protocol::ExecutorConfig executor;
};

class Server : public protocol::HealthSource {
 public:
  // `log` receives one line per response and lifecycle event (pass nullptr
  // to silence); it must outlive the server.
  explicit Server(ServeOptions options, std::ostream* log = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds and listens; throws std::runtime_error when the endpoint cannot
  // be bound, and std::invalid_argument when isolating a base the workers
  // cannot receive.  Separate from run() so the caller can print the resolved
  // endpoint before serving.
  void start();

  // Serves until request_drain(), then drains; blocks.  Must be preceded by
  // start().
  ExitCode run();

  // Begins graceful drain.  Callable from any thread; signal handlers must
  // store through drain_flag() instead (the only async-signal-safe entry).
  void request_drain() {
    drain_requested_.store(true, std::memory_order_relaxed);
  }
  std::atomic<bool>* drain_flag() { return &drain_requested_; }

  // The resolved TCP port (after start(); 0 for Unix sockets).
  int port() const { return port_; }
  // Printable endpoint: "127.0.0.1:4821" or "unix:/path".
  std::string endpoint() const;

  protocol::Executor& executor() { return executor_; }

  // Live counters for the "health" op and the "stats" serve block.
  protocol::HealthSnapshot health() const override;

 private:
  struct Connection;

  // One admitted request waiting for (or held by) a worker.
  struct Work {
    protocol::Request request;
    exec::CancelToken cancel;
    std::shared_ptr<Connection> connection;
  };

  // Waits up to `timeout_ms` for a pending connection; when one arrives,
  // accepts it, starts its reader, and returns true.
  bool accept_pending(int timeout_ms);
  void reader_loop(std::shared_ptr<Connection> connection);
  void worker_loop();
  // Executes one admitted request: in-process, or — when isolating and the
  // op is an analysis op — one round trip through the worker pool.
  protocol::Response execute_work(const Work& work);
  void handle_line(const std::shared_ptr<Connection>& connection,
                   const std::string& line);
  void respond(const std::shared_ptr<Connection>& connection,
               const protocol::Response& response);
  void logline(const std::string& text);

  ServeOptions options_;
  std::ostream* log_;
  protocol::Executor executor_;
  std::unique_ptr<supervisor::WorkerPool> pool_;  // null = in-process
  std::chrono::steady_clock::time_point start_time_{};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> drain_requested_{false};
  std::atomic<std::uint64_t> next_request_id_{1};

  mutable std::mutex mutex_;          // guards the five fields below
  std::deque<Work> queue_;
  std::size_t inflight_ = 0;
  bool draining_ = false;             // admission rejects new requests
  bool stop_workers_ = false;
  std::vector<exec::CancelToken> active_;  // tokens of executing requests
  std::condition_variable work_cv_;   // workers wait for queue/stop
  std::condition_variable drain_cv_;  // run() waits for quiesce

  std::vector<std::thread> workers_;
  std::mutex connections_mutex_;
  std::vector<std::weak_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;
  std::mutex log_mutex_;
};

}  // namespace netrev::pipeline::serve
