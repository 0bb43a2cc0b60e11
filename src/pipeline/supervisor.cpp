#include "pipeline/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

namespace netrev::pipeline::supervisor {

namespace {

// Deterministic names for the signals a worker plausibly dies from, so crash
// descriptions (which land in journals) do not depend on libc's strsignal
// tables.
const char* signal_label(int sig) {
  switch (sig) {
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return nullptr;
  }
}

CrashInfo classify_wait_status(int status) {
  CrashInfo info;
  if (WIFSIGNALED(status)) {
    info.kind = CrashKind::kSignal;
    info.signal = WTERMSIG(status);
  } else if (WIFEXITED(status)) {
    info.kind = CrashKind::kExit;
    info.exit_status = WEXITSTATUS(status);
  }
  return info;
}

}  // namespace

std::string CrashInfo::describe() const {
  switch (kind) {
    case CrashKind::kSignal: {
      std::string out = "signal " + std::to_string(signal);
      if (const char* label = signal_label(signal))
        out += std::string(" (") + label + ")";
      return out;
    }
    case CrashKind::kExit:
      return "exit " + std::to_string(exit_status) + " without reply";
    case CrashKind::kTimeout:
      return "watchdog timeout" +
             (detail.empty() ? std::string() : " (" + detail + ")");
    case CrashKind::kSpawn:
      return "spawn failed" +
             (detail.empty() ? std::string() : ": " + detail);
  }
  return "unknown crash";
}

void ignore_sigpipe() {
  // A write to a pipe whose reader died must return EPIPE (classified as a
  // crash), not deliver SIGPIPE and kill the whole process.
  struct sigaction action {};
  action.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &action, nullptr);
}

// One live child process.  The supervisor owns the write end of its stdin
// and the read end of its stdout; `buffer` carries bytes read past the last
// response line (normally empty — one line per round trip).
struct WorkerPool::Worker {
  pid_t pid = -1;
  int in_fd = -1;   // -> child stdin
  int out_fd = -1;  // <- child stdout
  std::string buffer;

  ~Worker() {
    if (in_fd >= 0) ::close(in_fd);
    if (out_fd >= 0) ::close(out_fd);
  }

  // SIGKILL + synchronous reap; returns the classified wait status.  Safe to
  // call after the child already died (waitpid still reaps the zombie) and
  // idempotent — a second call must never ::kill(-1, ...).
  CrashInfo kill_and_reap() {
    if (pid < 0) return CrashInfo{};
    ::kill(pid, SIGKILL);
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    pid = -1;
    return reaped < 0 ? CrashInfo{} : classify_wait_status(status);
  }
};

WorkerPool::WorkerPool(PoolOptions options) : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  exe_ = options_.exe;
  if (exe_.empty()) {
    const char* env = std::getenv("NETREV_WORKER_EXE");
    exe_ = (env != nullptr && *env != '\0') ? env : "/proc/self/exe";
  }
  ignore_sigpipe();
}

WorkerPool::~WorkerPool() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Busy workers belong to in-flight run() calls; by contract the pool is
  // destroyed only after poison() + quiesce, so kill whatever idles remain.
  for (auto& worker : idle_) worker->kill_and_reap();
  idle_.clear();
}

std::unique_ptr<WorkerPool::Worker> WorkerPool::spawn(CrashInfo& error) {
  error = CrashInfo{};
  error.kind = CrashKind::kSpawn;

  int to_child[2];   // supervisor writes, child stdin reads
  int from_child[2]; // child stdout writes, supervisor reads
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    error.detail = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    error.detail = std::string("pipe: ") + std::strerror(errno);
    ::close(to_child[0]);
    ::close(to_child[1]);
    return nullptr;
  }

  // argv must be fully built BEFORE fork: between fork and exec only
  // async-signal-safe calls are allowed, and malloc is not one of them.
  std::vector<char*> argv;
  argv.reserve(options_.args.size() + 2);
  argv.push_back(const_cast<char*>(exe_.c_str()));
  for (const std::string& arg : options_.args)
    argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    error.detail = std::string("fork: ") + std::strerror(errno);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    return nullptr;
  }

  if (pid == 0) {
    // Child: plumb the pipes onto stdio (the dup2'd fds lose O_CLOEXEC, the
    // originals keep it), apply limits, restore default signal dispositions
    // the supervisor may have overridden, exec.  Async-signal-safe only.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    if (options_.limits.mem_bytes > 0) {
      struct rlimit rl;
      rl.rlim_cur = options_.limits.mem_bytes;
      rl.rlim_max = options_.limits.mem_bytes;
      ::setrlimit(RLIMIT_AS, &rl);
    }
    if (options_.limits.cpu_seconds > 0) {
      struct rlimit rl;
      rl.rlim_cur = options_.limits.cpu_seconds;
      rl.rlim_max = options_.limits.cpu_seconds;
      ::setrlimit(RLIMIT_CPU, &rl);
    }
    ::signal(SIGPIPE, SIG_DFL);
    // The supervisor owns this worker's lifecycle: a Ctrl-C at the terminal
    // reaches the whole process group, and workers must keep serving their
    // current entry so the parent can journal it before unwinding.
    ::signal(SIGINT, SIG_IGN);
    ::execv(exe_.c_str(), argv.data());
    _exit(127);  // exec failed; classified as "exit 127 without reply"
  }

  ::close(to_child[0]);
  ::close(from_child[1]);
  auto worker = std::make_unique<Worker>();
  worker->pid = pid;
  worker->in_fd = to_child[1];
  worker->out_fd = from_child[0];
  return worker;
}

std::unique_ptr<WorkerPool::Worker> WorkerPool::acquire(
    CrashInfo& spawn_error) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!idle_.empty()) {
      auto worker = std::move(idle_.back());
      idle_.pop_back();
      busy_.push_back(worker.get());
      return worker;
    }
    if (live_ < options_.workers) {
      const bool is_restart = stats_.spawned >= options_.workers ||
                              consecutive_crashes_ > 0;
      if (is_restart && stats_.restarts >= options_.max_restarts) {
        spawn_error.kind = CrashKind::kSpawn;
        spawn_error.detail =
            "respawn budget exhausted (" +
            std::to_string(options_.max_restarts) + " restarts)";
        return nullptr;
      }
      ++live_;  // reserve the slot before dropping the lock
      std::chrono::milliseconds backoff{0};
      if (consecutive_crashes_ > 0) {
        const std::size_t shift =
            consecutive_crashes_ - 1 < 6 ? consecutive_crashes_ - 1 : 6;
        backoff = options_.restart_backoff * (1u << shift);
      }
      lock.unlock();
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
      auto worker = spawn(spawn_error);
      lock.lock();
      if (worker == nullptr) {
        --live_;
        slot_cv_.notify_one();
        return nullptr;
      }
      ++stats_.spawned;
      if (is_restart) ++stats_.restarts;
      busy_.push_back(worker.get());
      return worker;
    }
    slot_cv_.wait(lock);
  }
}

void WorkerPool::release(std::unique_ptr<Worker> worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    if (busy_[i] == worker.get()) {
      busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  consecutive_crashes_ = 0;
  idle_.push_back(std::move(worker));
  slot_cv_.notify_one();
}

CrashInfo WorkerPool::retire(std::unique_ptr<Worker> worker) {
  // Deregister BEFORE reaping: once waitpid returns, the pid may be
  // recycled, and poison() must never kill a recycled pid.  Deregistration
  // and poison()'s kill both hold the mutex, so poison() only ever signals
  // a still-registered (not-yet-reaped) child.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      if (busy_[i] == worker.get()) {
        busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
  }
  const CrashInfo info = worker->kill_and_reap();
  std::lock_guard<std::mutex> lock(mutex_);
  --live_;
  ++consecutive_crashes_;
  ++stats_.crashes;
  slot_cv_.notify_one();
  return info;
}

void WorkerPool::poison() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& worker : idle_) worker->kill_and_reap();
  idle_.clear();
  live_ = busy_.size();
  // Busy workers: kill only — their in-flight run() observes EOF, reaps,
  // and returns a crash outcome.
  for (Worker* worker : busy_) ::kill(worker->pid, SIGKILL);
  slot_cv_.notify_all();
}

PoolStats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolStats out = stats_;
  out.alive = live_;
  return out;
}

WorkerPool::Outcome WorkerPool::run(const std::string& request_line) {
  Outcome outcome;
  auto worker = acquire(outcome.crash);
  if (worker == nullptr) {
    outcome.crashed = true;  // crash holds the spawn error from acquire()
    return outcome;
  }

  // Retires the worker (deregister -> SIGKILL -> reap) and fills the
  // outcome: by default with the classification of how the child actually
  // died; `forced` overrides it where the watchdog is the real cause.
  const auto crash = [&](std::optional<CrashInfo> forced =
                             std::nullopt) -> Outcome& {
    const CrashInfo reaped = retire(std::move(worker));
    outcome.crashed = true;
    outcome.crash = forced ? std::move(*forced) : reaped;
    return outcome;
  };

  // --- write the request line ----------------------------------------------
  const std::string framed = request_line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::write(worker->in_fd, framed.data() + sent, framed.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EPIPE (SIGPIPE ignored): the worker died between round trips.
      return crash();
    }
    sent += static_cast<std::size_t>(n);
  }

  // --- read one response line under the watchdog ---------------------------
  const bool bounded = options_.wall_timeout.count() > 0;
  const auto deadline =
      std::chrono::steady_clock::now() + options_.wall_timeout;
  char chunk[4096];
  for (;;) {
    const auto newline = worker->buffer.find('\n');
    if (newline != std::string::npos) {
      outcome.response = worker->buffer.substr(0, newline);
      worker->buffer.erase(0, newline + 1);
      release(std::move(worker));
      return outcome;
    }

    int wait_ms = -1;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        CrashInfo info;
        info.kind = CrashKind::kTimeout;
        info.detail =
            "killed after " + std::to_string(options_.wall_timeout.count()) +
            "ms";
        return crash(std::move(info));
      }
      wait_ms = static_cast<int>(left.count());
    }

    pollfd pfd{worker->out_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return crash();
    }
    if (ready == 0) continue;  // deadline re-checked at loop top

    const ssize_t n = ::read(worker->out_fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // EOF without a complete reply: the worker is dead (or worse, exited
      // cleanly without answering — still a crash from the caller's view).
      return crash();
    }
    worker->buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace netrev::pipeline::supervisor
