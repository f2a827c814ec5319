#pragma once
// Fixture: reached from a test only, but allow-listed in lint_config.

namespace fixture {
inline int allowed() { return 3; }
} // namespace fixture
