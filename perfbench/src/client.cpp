#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_loopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    throw_errno("connect");
  }
  return fd;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& log_path) {
  int out[2];
  if (pipe(out) != 0) throw_errno("pipe");
  const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log < 0) throw_errno("open " + log_path);
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw_errno("fork");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it ends.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    close(log);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log);
  // Read stdout until the listening line (or EOF: the server failed).
  std::string text;
  char buf[256];
  const std::string marker = "listening on 127.0.0.1:";
  while (true) {
    const auto pos = text.find(marker);
    if (pos != std::string::npos && text.find('\n', pos) != std::string::npos) {
      port_ = std::stoi(text.substr(pos + marker.size()));
      break;
    }
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      close(out[0]);
      stop();
      throw std::runtime_error("graphpi_serve exited before listening (see " +
                               log_path + ")");
    }
  }
  close(out[0]);
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status;
}

Connection::Connection(int port) : fd_(connect_loopback(port)) {
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

std::string Connection::request(const std::string& line) {
  const std::string out = line + "\n";
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  char buf[4096];
  while (true) {
    const auto nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("server closed the connection");
    }
  }
}

std::string fetch_metrics(int port) {
  // The server answers an HTTP GET with one response and closes; read
  // everything until EOF.
  const int fd = connect_loopback(port);
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  if (send(fd, req.data(), req.size(), MSG_NOSIGNAL) < 0) {
    close(fd);
    throw_errno("send");
  }
  std::string text;
  char buf[4096];
  while (true) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) text.append(buf, static_cast<std::size_t>(n));
    else if (n < 0 && errno == EINTR) continue;
    else break;
  }
  close(fd);
  return text;
}

double prometheus_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ')
      return std::stod(line.substr(name.size() + 1));
  }
  return 0.0;
}

}  // namespace perfbench
