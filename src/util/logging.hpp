#pragma once

/// \file logging.hpp
/// Lightweight leveled logger. The Copernicus servers and workers use it to
/// report matching decisions, heartbeats, and failures; benches set the
/// level to Warn so their table output stays clean.

#include <atomic>
#include <sstream>
#include <string>

#include "util/mutex.hpp"

namespace cop {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

class Logger {
public:
    /// Process-wide singleton. Thread-safe.
    static Logger& instance();

    void setLevel(LogLevel level) {
        level_.store(level, std::memory_order_relaxed);
    }
    LogLevel level() const { return level_.load(std::memory_order_relaxed); }

    /// Whether a line at `level` must be built at all. Warnings and errors
    /// always are, so warningCount() also counts muted ones.
    bool enabled(LogLevel level) const {
        return level >= LogLevel::Warn || level >= this->level();
    }

    /// Emits `msg` tagged with level and component, if enabled.
    void log(LogLevel level, const std::string& component,
             const std::string& msg) COP_EXCLUDES(mutex_);

    /// Number of messages emitted at >= Warn since construction (used by
    /// tests to assert "no warnings").
    std::size_t warningCount() const COP_EXCLUDES(mutex_) {
        util::LockGuard lock(mutex_);
        return warnCount_;
    }

private:
    Logger() = default;
    /// Atomic: benches flip the level while worker threads log.
    std::atomic<LogLevel> level_{LogLevel::Warn};
    /// Leaf lock: guards the warning counter and serializes stderr writes;
    /// nothing else is ever acquired under it.
    mutable util::Mutex mutex_;
    std::size_t warnCount_ COP_GUARDED_BY(mutex_) = 0;
};

namespace detail {
struct LogLine {
    LogLevel level;
    const char* component;
    std::ostringstream oss;
    LogLine(LogLevel l, const char* c) : level(l), component(c) {}
    ~LogLine() { Logger::instance().log(level, component, oss.str()); }
    template <typename T>
    LogLine& operator<<(const T& v) {
        oss << v;
        return *this;
    }
};
/// Turns `LogLine << ...` into a void expression for COP_LOG_AT's `?:`;
/// binds looser than `<<`, so the whole chain lands on its right.
struct LogVoidify {
    void operator&(const LogLine&) const {}
};
} // namespace detail

} // namespace cop

/// Checks the level before anything is built: a disabled line evaluates
/// neither the ostringstream nor its `<<` arguments. Usable as a single
/// statement anywhere, including an unbraced if/else arm.
#define COP_LOG_AT(level, component)                                         \
    !::cop::Logger::instance().enabled(level)                                \
        ? (void)0                                                            \
        : ::cop::detail::LogVoidify() &                                      \
              ::cop::detail::LogLine(level, component)

#define COP_LOG_DEBUG(component) COP_LOG_AT(::cop::LogLevel::Debug, component)
#define COP_LOG_INFO(component)  COP_LOG_AT(::cop::LogLevel::Info, component)
#define COP_LOG_WARN(component)  COP_LOG_AT(::cop::LogLevel::Warn, component)
#define COP_LOG_ERROR(component) COP_LOG_AT(::cop::LogLevel::Error, component)
