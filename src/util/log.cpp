#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace bd::util {

namespace {
std::mutex g_sink_mutex;
}  // namespace

void log_line(LogLevel level, const std::string& message) {
  const char* tag = level == LogLevel::kWarn ? "WARN " : "INFO ";
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %s\n", tag, message.c_str());
}

}  // namespace bd::util
