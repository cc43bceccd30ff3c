// The serve_mix workload's side of the socket: a graphpi_serve child
// process and blocking newline-delimited JSON connections to it.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// A running graphpi_serve. Construction forks and execs the server,
/// then waits for the "listening on 127.0.0.1:<port>" line; the
/// destructor sends SIGTERM and waits for the child to exit.
class ServerProcess {
 public:
  /// `args` excludes argv[0]; stderr goes to `log_path`.
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }

  /// Sends SIGTERM and waits; returns the exit status as waitpid gives it.
  int stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// One blocking TCP connection to 127.0.0.1:`port`.
class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request line (a '\n' is appended) and returns the reply
  /// line without its '\n'. Throws std::runtime_error on a socket error.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// GET /metrics on a fresh connection: the Prometheus text body.
[[nodiscard]] std::string fetch_metrics(int port);

/// Value of the sample named `name` (a counter or gauge line
/// "name value") in Prometheus text, or 0 when absent.
[[nodiscard]] double prometheus_value(const std::string& text,
                                      const std::string& name);

}  // namespace perfbench
