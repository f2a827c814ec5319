#pragma once
// Fixture: only its own .cpp and a test include this header, so
// copernicus-test-only-header must flag it.

namespace fixture {
int orphan();
} // namespace fixture
