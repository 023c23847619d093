#include "serve/framing.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace hsyn::serve {

bool FrameReader::next(std::string* frame) {
  if (poisoned_) return false;
  // Bytes before `scanned` hold no '\n': each read is searched once, so
  // a frame of many reads costs linear time, not quadratic.
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t nl = buf_.find('\n', scanned);
    if (nl != std::string::npos && nl <= max_frame_) {
      frame->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    scanned = buf_.size();
    // No terminator yet, or the completed frame itself is oversized.
    if (nl != std::string::npos || buf_.size() > max_frame_) {
      poisoned_ = true;
      return false;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EOF (or error) with a dangling partial frame: drop it -- a frame
    // without its terminator was never completely sent.
    poisoned_ = true;
    return false;
  }
}

bool write_frame(int fd, const std::string& frame) {
  std::string wire = frame;
  wire += '\n';
  const char* p = wire.data();
  std::size_t left = wire.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE instead of killing
    // the daemon with SIGPIPE. Plain write() for non-socket fds (tests
    // run the framing layer over pipes).
    ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, left);
    if (n > 0) {
      p += n;
      left -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace hsyn::serve
