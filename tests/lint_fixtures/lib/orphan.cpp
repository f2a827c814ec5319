#include "orphan.hpp"

namespace fixture {
int orphan() { return 2; }
} // namespace fixture
