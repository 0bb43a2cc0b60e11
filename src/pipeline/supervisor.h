// Process-level fault isolation: a pool of supervised worker processes
// speaking the NDJSON protocol over pipes.
//
// Each worker is a child process (by default `/proc/self/exe worker ...`)
// whose stdin/stdout are pipes owned by the supervisor.  One round trip =
// one request line written, one response line read.  A worker that dies
// (signal or exit), closes its pipe without replying, or outlives the
// wall-clock watchdog yields a *crash outcome* instead of a response: the
// supervisor SIGKILLs it if needed, reaps it synchronously with waitpid on
// its own pid — there is no SIGCHLD handler anywhere, which is what makes
// reaping race-free against the serve drain sequence by construction — and
// classifies the death from the wait status.  Dead workers are replaced
// lazily on the next dispatch, with exponential backoff after consecutive
// crashes and a pool-wide respawn budget so a crash loop converges instead
// of forking forever.
//
// Resource limits (RLIMIT_AS / RLIMIT_CPU) are applied in the child between
// fork and exec; only async-signal-safe calls run in that window.  The
// constructor ignores SIGPIPE process-wide: writes to a crashed worker's
// pipe must surface as EPIPE (a classified crash), not kill the supervisor
// — MSG_NOSIGNAL only covers sockets, not pipes.
//
// Thread-safety: run() may be called from any number of threads; callers
// block while every worker slot is busy.  poison() kills every live worker
// (in-flight round trips return crash outcomes) and is how the serve drain
// guarantees no round trip outlives the drain window.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace netrev::pipeline::supervisor {

// Per-worker resource limits, applied pre-exec in the child.  0 = inherit.
struct WorkerLimits {
  std::size_t mem_bytes = 0;    // RLIMIT_AS (note: breaks ASan shadow maps)
  std::size_t cpu_seconds = 0;  // RLIMIT_CPU (SIGXCPU, then SIGKILL)
};

// How a worker died, classified from the wait status (or the watchdog).
enum class CrashKind {
  kSignal,   // WIFSIGNALED: segfault, abort, SIGXCPU, oom-kill, ...
  kExit,     // WIFEXITED without a reply (exit 0 + silence is still a crash)
  kTimeout,  // wall-clock watchdog fired; the worker was SIGKILLed
  kSpawn,    // the worker could not be started (exec failure, respawn
             // budget exhausted)
};

struct CrashInfo {
  CrashKind kind = CrashKind::kExit;
  int signal = 0;       // kSignal: the terminating signal
  int exit_status = 0;  // kExit: the exit code
  std::string detail;   // kSpawn: why

  // Stable one-line description for journals and responses:
  //   "signal 6 (SIGABRT)", "exit 3 without reply", "watchdog timeout
  //   (killed after 500ms)", "spawn failed: ...".
  std::string describe() const;
};

struct PoolOptions {
  // Worker executable; empty = $NETREV_WORKER_EXE, else /proc/self/exe.
  std::string exe;
  // argv tail after the executable, e.g. {"worker", "--jobs", "2"}.
  std::vector<std::string> args;

  std::size_t workers = 2;  // concurrent worker processes
  WorkerLimits limits;

  // Per-round-trip wall-clock watchdog; 0 = none.
  std::chrono::milliseconds wall_timeout{0};

  // Backoff before respawning after a crash, doubled per consecutive crash
  // (capped at 64x) so a crash loop backs off instead of fork-bombing.
  std::chrono::milliseconds restart_backoff{25};
  // Pool-lifetime respawn budget AFTER crashes (initial spawns are free);
  // exhausted -> run() returns kSpawn outcomes.
  std::size_t max_restarts = 64;
};

struct PoolStats {
  std::size_t spawned = 0;   // total worker processes ever started
  std::size_t alive = 0;     // currently running (idle or busy)
  std::size_t restarts = 0;  // respawns after a crash
  std::size_t crashes = 0;   // round trips that ended in a crash
};

class WorkerPool {
 public:
  explicit WorkerPool(PoolOptions options);
  ~WorkerPool();  // kills (SIGKILL) and reaps every worker

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  struct Outcome {
    bool crashed = false;
    CrashInfo crash;       // meaningful when crashed
    std::string response;  // one response line, no trailing '\n'
  };

  // One round trip: dispatches `request_line` (no trailing '\n') to an idle
  // worker — spawning or respawning one as needed — and waits for its
  // one-line reply.  Never throws; every failure mode is a crash outcome.
  Outcome run(const std::string& request_line);

  PoolStats stats() const;
  const PoolOptions& options() const { return options_; }

  // SIGKILLs every live worker.  In-flight round trips observe EOF and
  // return crash outcomes; subsequent run() calls respawn workers (the
  // serve drain poisons first, then destroys the pool once quiesced).
  void poison();

 private:
  struct Worker;

  std::unique_ptr<Worker> acquire(CrashInfo& spawn_error);
  void release(std::unique_ptr<Worker> worker);
  // Crashed worker: deregister, SIGKILL, reap; returns the classification.
  CrashInfo retire(std::unique_ptr<Worker> worker);
  std::unique_ptr<Worker> spawn(CrashInfo& error);

  PoolOptions options_;
  std::string exe_;

  mutable std::mutex mutex_;
  std::condition_variable slot_cv_;
  std::vector<std::unique_ptr<Worker>> idle_;
  std::vector<Worker*> busy_;  // registered so poison() can reach them
  std::size_t live_ = 0;       // idle_.size() + busy_.size()
  std::size_t consecutive_crashes_ = 0;
  PoolStats stats_;
};

// Installs SIG_IGN for SIGPIPE once per process (idempotent).  Called by the
// WorkerPool constructor and Server::start(); exposed for the worker mode
// itself, whose stdout pipe dies with its supervisor.
void ignore_sigpipe();

}  // namespace netrev::pipeline::supervisor
