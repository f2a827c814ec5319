// Fixture: a test tree, outside every reach-dir. Its includes do not
// count as uses.
#include "orphan.hpp"

int check() { return fixture::orphan(); }
