#include "used.hpp"

namespace fixture {
int used() { return 1; }
} // namespace fixture
