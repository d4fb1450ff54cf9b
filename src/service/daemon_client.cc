#include "service/daemon_client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <random>
#include <utility>

#include "util/errno_text.h"
#include "util/net.h"

namespace kbrepair {
namespace client {

// ------------------------------------------------------------------
// Daemon

Daemon::~Daemon() { Kill9(); }

Status Daemon::Start(const std::vector<std::string>& args, Stdio stdio) {
  if (pid_ > 0) return Status::FailedPrecondition("daemon already running");
  if (args.empty()) return Status::InvalidArgument("no daemon binary given");
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (stdio == Stdio::kPipes &&
      (::pipe2(to_child, O_CLOEXEC) != 0 ||
       ::pipe2(from_child, O_CLOEXEC) != 0)) {
    const std::string error = ErrnoText(errno);
    for (const int fd : {to_child[0], to_child[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Internal("pipe failed: " + error);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    const std::string error = ErrnoText(errno);
    for (const int fd : {to_child[0], to_child[1], from_child[0],
                         from_child[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return Status::Internal("fork failed: " + error);
  }
  if (pid == 0) {
    if (stdio == Stdio::kPipes) {
      // dup2 clears O_CLOEXEC on the copies the daemon keeps.
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
    } else {
      const int devnull = ::open("/dev/null", O_RDWR);
      if (devnull >= 0) {
        ::dup2(devnull, STDIN_FILENO);
        if (stdio == Stdio::kSilent) {
          ::dup2(devnull, STDOUT_FILENO);
          ::dup2(devnull, STDERR_FILENO);
        }
        if (devnull > STDERR_FILENO) ::close(devnull);
      }
    }
    ::execv(argv[0], argv.data());
    std::cerr << "exec " << args[0] << " failed: " << ErrnoText(errno)
              << "\n";
    _exit(127);
  }
  pid_ = pid;
  exit_code_ = -1;
  if (stdio == Stdio::kPipes) {
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }
  return Status::Ok();
}

void Daemon::RecordExit(int wstatus) {
  exit_code_ = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  pid_ = -1;
}

bool Daemon::Exited() {
  if (pid_ <= 0) return true;
  int wstatus = 0;
  if (::waitpid(pid_, &wstatus, WNOHANG) != pid_) return false;
  RecordExit(wstatus);
  return true;
}

int Daemon::Wait() {
  if (pid_ <= 0) return -1;
  int wstatus = 0;
  pid_t waited;
  do {
    waited = ::waitpid(pid_, &wstatus, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid_) {
    pid_ = -1;
    return -1;
  }
  RecordExit(wstatus);
  return exit_code_;
}

void Daemon::ClosePipes() {
  for (int* fd : {&stdin_fd_, &stdout_fd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

int Daemon::Terminate() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  return Wait();
}

int Daemon::CloseStdinAndWait() {
  ClosePipes();
  return Wait();
}

int Daemon::WaitFor(std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!Exited()) {
    if (std::chrono::steady_clock::now() > until) {
      Kill9();
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return exit_code_;
}

void Daemon::Kill9() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    Wait();
  }
  ClosePipes();
}

// ------------------------------------------------------------------
// Finding the listener

std::string MakeTempPath(const std::string& prefix) {
  std::string path = "/tmp/" + prefix + "XXXXXX";
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return "";
  ::close(fd);
  return path;
}

int ReadPortFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  int port = 0;
  if (std::fscanf(f, "%d", &port) != 1) port = 0;
  std::fclose(f);
  return port;
}

namespace {

StatusOr<int> ConnectOnce(const Endpoint& endpoint) {
  if (!endpoint.unix_path.empty()) return net::ConnectUnix(endpoint.unix_path);
  int port = endpoint.port;
  if (!endpoint.port_file.empty()) {
    port = ReadPortFile(endpoint.port_file);
    if (port <= 0) {
      return Status::Unavailable("listener port not published yet");
    }
  }
  return net::ConnectTcp(endpoint.host, port);
}

}  // namespace

StatusOr<int> ConnectWhenReady(const Endpoint& endpoint, Daemon* daemon,
                               std::chrono::milliseconds budget) {
  const auto until = std::chrono::steady_clock::now() + budget;
  for (;;) {
    StatusOr<int> fd = ConnectOnce(endpoint);
    if (fd.ok()) return fd;
    if (daemon != nullptr && daemon->Exited()) {
      return Status::Internal("daemon exited before accepting connections");
    }
    if (std::chrono::steady_clock::now() >= until) return fd.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// ------------------------------------------------------------------
// Connection

bool IsRetryableCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

StatusOr<JsonValue> ResultOf(const JsonValue& envelope) {
  if (envelope.Get("ok").AsBool(false)) return envelope.Get("result");
  const JsonValue& error = envelope.Get("error");
  const std::string code = error.Get("code").AsString();
  const std::string message =
      "server error [" + code + "] " + error.Get("message").AsString();
  if (code == "Unavailable") return Status::Unavailable(message);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(message);
  if (code == "ResourceExhausted") return Status::ResourceExhausted(message);
  return Status::Internal(message);
}

Connection::Connection(int socket_fd)
    : socket_(true),
      read_fd_(socket_fd),
      write_fd_(socket_fd),
      backoff_rng_(std::random_device{}()) {
  StartReader();
}

Connection::Connection(Daemon& daemon)
    : read_fd_(daemon.stdout_fd_),
      write_fd_(daemon.stdin_fd_),
      backoff_rng_(std::random_device{}()) {
  daemon.stdin_fd_ = -1;
  daemon.stdout_fd_ = -1;
  StartReader();
}

void Connection::StartReader() {
  ::signal(SIGPIPE, SIG_IGN);
  if (read_fd_ < 0) {
    closed_ = true;
    return;
  }
  // A pipe cannot be shut down from this end the way a socket can, so
  // the reader also watches a stop pipe the destructor closes.
  if (!socket_ && ::pipe2(stop_fds_, O_CLOEXEC) != 0) {
    stop_fds_[0] = stop_fds_[1] = -1;
  }
  reader_ = std::thread([this] { ReaderLoop(); });
}

Connection::~Connection() {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (socket_) {
      if (write_fd_ >= 0) ::shutdown(write_fd_, SHUT_RDWR);
    } else if (write_fd_ >= 0) {
      ::close(write_fd_);
      write_fd_ = -1;
    }
  }
  if (stop_fds_[1] >= 0) ::close(stop_fds_[1]);
  if (reader_.joinable()) reader_.join();
  if (stop_fds_[0] >= 0) ::close(stop_fds_[0]);
  if (read_fd_ >= 0) ::close(read_fd_);
}

void Connection::Close() {
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (socket_) {
      if (write_fd_ >= 0) ::shutdown(write_fd_, SHUT_WR);
    } else if (write_fd_ >= 0) {
      ::close(write_fd_);
    }
    write_fd_ = -1;
  }
  if (reader_.joinable()) reader_.join();
  if (read_fd_ >= 0) {
    ::close(read_fd_);
    read_fd_ = -1;
  }
}

Status Connection::Write(const std::string& id, const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Unavailable("server connection is closed");
    pending_.insert(id);
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  int err = EPIPE;  // stays so when Close() already shut the write side
  size_t off = 0;
  while (write_fd_ >= 0 && off < line.size()) {
    const ssize_t n =
        ::write(write_fd_, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      err = errno;
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (off == line.size()) return Status::Ok();
  std::lock_guard<std::mutex> plock(mu_);
  pending_.erase(id);
  // With SIGPIPE ignored a dead reader surfaces here as EPIPE.
  return err == EPIPE || err == ECONNRESET
             ? Status::Unavailable("server hung up (" + ErrnoText(err) + ")")
             : Status::Internal("write to server failed: " + ErrnoText(err));
}

StatusOr<std::string> Connection::Send(JsonValue request) {
  const std::string id = "r-" + std::to_string(next_id_.fetch_add(1));
  request.Set("id", JsonValue::String(id));
  KBREPAIR_RETURN_IF_ERROR(Write(id, request.Dump() + "\n"));
  return id;
}

StatusOr<JsonValue> Connection::Await(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return responses_.count(id) != 0 || closed_; });
  auto it = responses_.find(id);
  if (it == responses_.end()) {
    return Status::Unavailable("server closed before answering " + id);
  }
  pending_.erase(id);
  const JsonValue envelope = std::move(it->second);
  responses_.erase(it);
  lock.unlock();
  return ResultOf(envelope);
}

StatusOr<JsonValue> Connection::Call(JsonValue request) {
  const std::string id = "r-" + std::to_string(next_id_.fetch_add(1));
  request.Set("id", JsonValue::String(id));
  const std::string line = request.Dump() + "\n";
  constexpr int kMaxAttempts = 5;
  constexpr int64_t kBackoffBaseMs = 10;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      int64_t cap_ms = kBackoffBaseMs << (attempt - 1);
      // The daemon is waiting on resources (degraded disk, memory
      // pressure), not on a scheduling blip.
      if (last.code() == StatusCode::kResourceExhausted) cap_ms *= 4;
      int64_t sleep_ms;
      {
        std::lock_guard<std::mutex> lock(backoff_mu_);
        sleep_ms = backoff_rng_.UniformInt(0, cap_ms);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    Status written = Write(id, line);
    StatusOr<JsonValue> outcome =
        written.ok() ? Await(id) : StatusOr<JsonValue>(std::move(written));
    if (outcome.ok()) return outcome;
    last = outcome.status();
    if (!IsRetryableCode(last.code()) || closed()) break;
  }
  return last;
}

void Connection::SeedBackoff(uint64_t seed) {
  std::lock_guard<std::mutex> lock(backoff_mu_);
  backoff_rng_ = Rng(seed);
}

std::vector<std::string> Connection::UnansweredIds() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(pending_.begin(), pending_.end());
}

bool Connection::closed() {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void Connection::ReaderLoop() {
  std::string buffer;
  char chunk[1 << 16];
  pollfd fds[2] = {{read_fd_, POLLIN, 0}, {stop_fds_[0], POLLIN, 0}};
  const nfds_t nfds = stop_fds_[0] >= 0 ? 2 : 1;
  for (;;) {
    if (::poll(fds, nfds, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (nfds == 2 && fds[1].revents != 0) break;  // the destructor runs
    const ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t end; (end = buffer.find('\n', start)) != std::string::npos;
         start = end + 1) {
      HandleLine(buffer.substr(start, end - start));
    }
    buffer.erase(0, start);
  }
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void Connection::HandleLine(const std::string& line) {
  if (line.empty()) return;
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed->is_object() || !parsed->Get("id").is_string()) {
    garbled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string id = parsed->Get("id").AsString();
  std::lock_guard<std::mutex> lock(mu_);
  responses_.insert_or_assign(std::move(id), std::move(parsed).value());
  cv_.notify_all();
}

// ------------------------------------------------------------------
// HTTP

StatusOr<HttpResponse> HttpExchange(const std::string& host, int port,
                                    const std::string& raw) {
  KBREPAIR_ASSIGN_OR_RETURN(const int fd, net::ConnectTcp(host, port));
  // A server that answers early (413) and closes may cut the send short;
  // its response is still read.
  for (size_t off = 0; off < raw.size();) {
    const ssize_t n =
        ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string wire;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  if (wire.empty()) {
    return Status::Unavailable("HTTP connection to " + host + ":" +
                               std::to_string(port) +
                               " closed without a response");
  }
  // The exporter always answers HTTP/1.1; any other status line is a
  // defect, not a variant to tolerate.
  const size_t head_end = wire.find("\r\n\r\n");
  HttpResponse response;
  if (wire.compare(0, 9, "HTTP/1.1 ") == 0) {
    response.status = std::atoi(wire.c_str() + 9);
  }
  if (response.status == 0 || head_end == std::string::npos) {
    return Status::Internal("malformed HTTP response from " + host + ":" +
                            std::to_string(port));
  }
  response.head = wire.substr(0, head_end);
  response.body = wire.substr(head_end + 4);
  return response;
}

StatusOr<HttpResponse> HttpGet(const std::string& host, int port,
                               const std::string& path) {
  return HttpExchange(host, port,
                      "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n");
}

std::string ValidateExposition(const std::string& body,
                               std::map<std::string, double>* series) {
  if (body.empty()) return "empty exposition";
  size_t line_no = 0;
  for (size_t start = 0; start < body.size();) {
    const std::string where = "line " + std::to_string(++line_no) + ": ";
    const size_t end = body.find('\n', start);
    if (end == std::string::npos) return where + "missing trailing newline";
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) return where + "blank line";
    if (line[0] == '#') {
      if (line.compare(0, 7, "# HELP ") != 0 &&
          line.compare(0, 7, "# TYPE ") != 0) {
        return where + "unknown comment form: " + line;
      }
      continue;
    }
    // NAME or NAME{labels}, one space, a floating-point value.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return where + "no value: " + line;
    }
    const std::string key = line.substr(0, space);
    size_t name_end = key.find('{');
    if (name_end != std::string::npos && key.back() != '}') {
      return where + "unbalanced labels: " + line;
    }
    if (name_end == std::string::npos) name_end = key.size();
    for (size_t i = 0; i < name_end; ++i) {
      const char c = key[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9' && i > 0) || c == '_' || c == ':';
      if (!ok) return where + "bad metric name: " + line;
    }
    const char* value = line.c_str() + space + 1;
    char* value_end = nullptr;
    const double parsed = std::strtod(value, &value_end);
    if (value_end == value || *value_end != '\0') {
      return where + "bad value: " + line;
    }
    if (!series->emplace(key, parsed).second) {
      return where + "duplicate series: " + key;
    }
  }
  return "";
}

}  // namespace client
}  // namespace kbrepair
