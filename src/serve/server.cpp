#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace km::serve {

namespace {

/// send() the whole buffer; MSG_NOSIGNAL so a vanished client surfaces
/// as an error return instead of SIGPIPE killing the daemon.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
  return true;
}

}  // namespace

ServeServer::ServeServer(ScenarioService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long for AF_UNIX: " +
                             socket_path_);
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // a stale file must not block restarts
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("bind " + socket_path_ + ": " +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("listen " + socket_path_ + ": " +
                             std::strerror(err));
  }
}

ServeServer::~ServeServer() {
  stop();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

void ServeServer::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ServeServer::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // stopping_ is set and the accept loop has exited, so the thread list
  // can no longer grow; move it out and join without holding the lock.
  std::vector<std::thread> threads;
  {
    MutexLock lock(mu_);
    threads.swap(connection_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void ServeServer::stop() {
  if (stopping_.exchange(true)) return;
  // shutdown(), not close(): it reliably unblocks accept()/recv() in
  // other threads, and the owning thread still does the close.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  close_all_connections();
}

void ServeServer::close_all_connections() {
  MutexLock lock(mu_);
  for (const int fd : connection_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void ServeServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // stop() shut the listener down, or it broke: either way done
    }
    MutexLock lock(mu_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const std::size_t index = connection_fds_.size();
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd, index] {
          serve_connection(fd);
          MutexLock inner(mu_);
          // The slot, not the vector, marks the fd dead: indices held by
          // running threads must stay stable.
          connection_fds_[index] = -1;
        });
  }
}

void ServeServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && open; nl = buffer.find('\n', start)) {
      const std::string_view line(buffer.data() + start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;

      Request request;
      std::string error;
      Response response;
      bool is_shutdown = false;
      if (!parse_request(line, request, error)) {
        response = service_.reject("bad request: " + error);
      } else {
        response = service_.handle(request);
        is_shutdown = request.op == Request::Op::kShutdown;
      }
      if (response.doc.empty()) response.doc = "{}";
      const std::string payload =
          meta_line(response) + "\n" + response.doc + "\n";
      if (!write_all(fd, payload)) open = false;
      if (is_shutdown) {
        open = false;
        stop();  // closes the listener; joins happen in wait(), not here
      }
    }
    buffer.erase(0, start);
  }
  ::close(fd);
}

}  // namespace km::serve
